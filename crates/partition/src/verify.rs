//! Slot verification at scale: certified affectance checks with exact
//! fallback, and first-fit packing of evicted links.
//!
//! The unsharded scheduler verifies a candidate slot with
//! `PathLossCache::subset_feasible`, an exact `O(s²)` pairwise sum — fine for
//! the slot sizes one conflict graph produces at `n ≤ 50k`, ruinous for the
//! `~n / slots` member counts of a million-link schedule. The
//! [`AffectanceVerifier`] replaces the quadratic scan with a **certified
//! upper bound** built from sender aggregates over a grid:
//!
//! * slot members are binned by sender into square cells, and each cell
//!   carries its members' total power and their *tight* sender bounding box;
//! * interferers close to the target are summed **exactly** (the same terms,
//!   in deterministic cell-then-member order, via
//!   [`relative_interference_sum`]'s formulas);
//! * every other cell contributes `(Σ_j P_j) · w_i / d^α`, where `d` is the
//!   exact point-to-box distance to the cell's tight sender box — a rigorous
//!   **upper bound** on its members' total contribution, costing `O(1)` per
//!   aggregate.
//!
//! Every pyramid depth shares that contract (see [`VerifierStrategy`]):
//!
//! * **Depth 1** — one coarse level (`Θ(√m)` cells, `~m^(1/4)` per axis),
//!   every cell priced per target: the flat grid, kept as the differential
//!   baseline.
//! * **Deeper** (the adaptive default for large slots) — a fine grid (a few
//!   members per cell) under a [`GridPyramid`] of super-cells, each
//!   aggregating its children's power sum and tight box. A target query
//!   descends from the top: a node whose tight box lies at distance
//!   `d ≥ 2 · side(level)` is accepted as one aggregate term, anything
//!   closer is expanded; finest-level cells within the gate are summed
//!   exactly. Per-target cost drops from the flat grid's `Θ(√m)` to
//!   `O(log m)` opened nodes.
//!
//! If `exact_near + bound_far ≤ 1/β` the target is certified feasible (the
//! true sum can only be smaller). Otherwise the target's sum is recomputed
//! exactly; only genuinely failing targets are reported. Small slots (and
//! slots containing links with unavailable powers, whose failure semantics
//! the bound cannot reproduce) skip the grid and go straight to the exact
//! kernel, so the verifier's verdicts always match
//! `is_feasible_by_affectance` on the slot's links — under **every** strategy
//! and pyramid depth, which is what the differential test battery pins.
//!
//! [`AffectanceVerifier::evict_infeasible`] exploits a monotonicity: every
//! term of the affectance sum is non-negative, so removing members never
//! hurts the remaining targets. One verification sweep therefore yields a
//! feasible slot — keep the passing targets, evict the failing ones — and
//! the evicted links are re-packed first-fit by
//! [`AffectanceVerifier::pack_first_fit`]. The grid-shape state (the sender
//! extent every slot grid is anchored to) is folded once per verifier, on
//! the first slot grid built, so the repack loop's repeated feasibility
//! probes and the query path share one layout instead of re-deriving it per
//! call — and a verifier that never builds a grid (the warm repair path's
//! additive probes) never pays for the fold.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use wagg_geometry::pyramid::GridPyramid;
use wagg_geometry::{BoundingBox, Point};
use wagg_obs::{Counter, Recorder};
use wagg_sinr::link::LinkId;
use wagg_sinr::pathloss::relative_interference_sum;
use wagg_sinr::{AlphaPow, Link, SinrModel};

#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// Below this member count the exact `O(s²)` scan beats building the grid.
const EXACT_CUTOFF: usize = 192;

/// A node (or finest cell) is accepted as one aggregate term when its tight
/// box is at least this many level-sides away from the target; anything
/// closer is expanded (or, at the finest level, summed exactly).
const OPEN_GATE: f64 = 2.0;

/// Below this slot size the adaptive default prices the far field with the
/// flat grid: the descent's per-level node visits only amortise once the
/// flat scan's `Θ(√m)` far cells dwarf them (empirically around `10⁴`
/// members on the bench workloads).
const PYRAMID_CUTOFF: usize = 8192;

/// How the verifier prices the far field of a target query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerifierStrategy {
    /// Fine cells (a few members each) under a cell → super-cell aggregation
    /// pyramid; target queries descend the pyramid and expand only nodes too
    /// close for their aggregate bound. Per-target cost `O(log m)`-ish.
    Hierarchical {
        /// Number of pyramid levels, or `None` for the adaptive default:
        /// flat below [`PYRAMID_CUTOFF`] members, the naturally deep
        /// pyramid above it (always clamped to
        /// [`GridPyramid::natural_depth`]). A depth of 1 is the flat grid:
        /// `~m^(1/4)` cells per axis, exact sums over the 3×3 cell
        /// neighbourhood of the target, one aggregate term per far cell,
        /// per-target far-field cost `Θ(√m)`.
        depth: Option<usize>,
    },
}

impl Default for VerifierStrategy {
    /// The production strategy: adaptively hierarchical.
    fn default() -> Self {
        VerifierStrategy::Hierarchical { depth: None }
    }
}

impl VerifierStrategy {
    /// The pyramid depth this strategy requests for a slot of `m` members
    /// (1 means the flat path).
    fn requested_depth(self, m: usize) -> usize {
        match self {
            VerifierStrategy::Hierarchical { depth: Some(d) } => d.max(1),
            VerifierStrategy::Hierarchical { depth: None } => {
                if m < PYRAMID_CUTOFF {
                    1
                } else {
                    usize::MAX
                }
            }
        }
    }
}

/// Per-target interference state over a link universe — a borrowed view of
/// `PathLossCache` parts (global, or a shard's slice via
/// `PathLossCache::subset_parts`).
#[derive(Debug, Clone)]
pub struct AffectanceVerifier<'a> {
    links: &'a [Link],
    powers: &'a [Option<f64>],
    weights: &'a [Option<f64>],
    pow: AlphaPow,
    inv_beta: f64,
    strategy: VerifierStrategy,
    /// Bounding box of every sender in the universe — the shared grid
    /// anchor for every slot query and every repack probe (`None` only for
    /// an empty universe). Folded on first use: only slot pyramids read it,
    /// and a verifier that only prices additive repair probes never builds
    /// one, so it never pays the O(n) fold.
    sender_extent: OnceLock<Option<BoundingBox>>,
    /// `verifier.expansions`: pyramid nodes opened during certify descents
    /// (accumulated locally per target, one atomic add per certify call).
    expansions: Counter,
    /// `verifier.exact_fallbacks`: targets the certified bound could not
    /// acquit, resolved by the exact kernel.
    exact_fallbacks: Counter,
    /// `verifier.evictions`: members evicted by verification sweeps.
    evictions: Counter,
    /// `verifier.repacked`: evicted members re-packed into fresh slots.
    repacked: Counter,
}

impl<'a> AffectanceVerifier<'a> {
    /// A verifier over `links` with the given per-link cache parts (exactly
    /// what `PathLossCache::new` computes for `links` under the power
    /// assignment being verified), using the default hierarchical strategy.
    ///
    /// # Panics
    ///
    /// Panics when the part vectors do not cover `links`.
    pub fn new(
        model: &SinrModel,
        links: &'a [Link],
        powers: &'a [Option<f64>],
        weights: &'a [Option<f64>],
    ) -> Self {
        assert_eq!(powers.len(), links.len(), "one power per link");
        assert_eq!(weights.len(), links.len(), "one weight per link");
        AffectanceVerifier {
            links,
            powers,
            weights,
            pow: AlphaPow::new(model.alpha()),
            inv_beta: 1.0 / model.beta(),
            strategy: VerifierStrategy::default(),
            sender_extent: OnceLock::new(),
            expansions: Counter::default(),
            exact_fallbacks: Counter::default(),
            evictions: Counter::default(),
            repacked: Counter::default(),
        }
    }

    /// Replaces the far-field strategy (the default is hierarchical at
    /// natural depth).
    pub fn with_strategy(mut self, strategy: VerifierStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Routes the verifier's work counters to `rec`: `verifier.expansions`
    /// (pyramid nodes opened per certify descent), `verifier.exact_fallbacks`
    /// (targets the certified bound could not acquit), `verifier.evictions`
    /// and `verifier.repacked`. Counts are accumulated locally and flushed
    /// with one relaxed atomic add per call, so verdicts stay cheap; a
    /// disabled recorder (the default) keeps every counter no-op.
    pub fn with_recorder(mut self, rec: &Recorder) -> Self {
        self.expansions = rec.counter("verifier.expansions");
        self.exact_fallbacks = rec.counter("verifier.exact_fallbacks");
        self.evictions = rec.counter("verifier.evictions");
        self.repacked = rec.counter("verifier.repacked");
        self
    }

    /// The configured far-field strategy.
    pub fn strategy(&self) -> VerifierStrategy {
        self.strategy
    }

    /// The bounding box of every sender, folded on the first call.
    fn sender_extent(&self) -> Option<BoundingBox> {
        *self.sender_extent.get_or_init(|| {
            let mut extent: Option<BoundingBox> = None;
            for link in self.links {
                let s = link.sender;
                extent = Some(match extent {
                    None => BoundingBox::new(s.x, s.y, s.x, s.y),
                    Some(e) => BoundingBox::new(
                        e.min_x.min(s.x),
                        e.min_y.min(s.y),
                        e.max_x.max(s.x),
                        e.max_y.max(s.y),
                    ),
                });
            }
            extent
        })
    }

    /// The exact affectance total on `members[k]` from the rest of the
    /// members (the `PathLossCache` kernel, same order, same verdict).
    fn exact_total(&self, members: &[usize], k: usize) -> Option<f64> {
        relative_interference_sum(
            self.pow,
            members,
            k,
            self.weights[members[k]],
            |j| &self.links[j],
            |j| self.powers[j],
        )
    }

    /// The exact affectance total on `members[k]`, exposed for the
    /// soundness test battery: [`AffectanceVerifier::hierarchical_bound`]
    /// must upper-bound this at every pyramid depth.
    pub fn exact_affectance(&self, members: &[usize], k: usize) -> Option<f64> {
        self.exact_total(members, k)
    }

    /// The certified upper bound a `depth`-level pyramid computes for the
    /// affectance total on `members[k]`, without the early exit the verdict
    /// path uses (`depth` is clamped to the pyramid's natural depth; 1 is
    /// the flat grid). Returns `None` when the grid path cannot price the
    /// slot — unknown member powers, an unknown target weight, a degenerate
    /// (collocated) sender extent, or a zero interferer distance — exactly
    /// the cases the verifier resolves with the exact kernel instead.
    pub fn hierarchical_bound(&self, members: &[usize], k: usize, depth: usize) -> Option<f64> {
        assert!(k < members.len(), "target index out of range");
        if members.iter().any(|&i| self.powers[i].is_none()) {
            return None;
        }
        SlotPyramid::build(self, members, depth.max(1))?.certify(k, f64::INFINITY)
    }

    fn exact_ok(&self, members: &[usize], k: usize) -> bool {
        match self.exact_total(members, k) {
            Some(total) => total <= self.inv_beta,
            None => false,
        }
    }

    /// Exact per-target verdicts (the reference kernel, used below the grid
    /// cutoff and wherever the grid path cannot run).
    fn exact_verdicts(&self, members: &[usize]) -> Vec<bool> {
        let check = |k: usize| self.exact_ok(members, k);
        #[cfg(feature = "parallel")]
        {
            (0..members.len()).into_par_iter().map(check).collect()
        }
        #[cfg(not(feature = "parallel"))]
        {
            (0..members.len()).map(check).collect()
        }
    }

    /// Per-target verdicts for one slot, `verdicts[k]` for `members[k]`.
    fn verdicts(&self, members: &[usize]) -> Vec<bool> {
        let all_powers_known = members.iter().all(|&i| self.powers[i].is_some());
        if members.len() <= EXACT_CUTOFF || !all_powers_known {
            return self.exact_verdicts(members);
        }
        let depth = self.strategy.requested_depth(members.len());
        let Some(pyramid) = SlotPyramid::build(self, members, depth) else {
            // All senders collocated — no useful binning; exact it is.
            return self.exact_verdicts(members);
        };
        let check = |k: usize| match pyramid.certify(k, self.inv_beta) {
            // Certified: the exact total is ≤ the bound ≤ 1/β. The target's
            // own sender contributed at most extra non-negative aggregate
            // terms, which only makes the certificate more conservative.
            Some(total) if total <= self.inv_beta => true,
            // The bound failed (or met a zero distance / unknown weight);
            // only an exact sum can acquit.
            _ => {
                self.exact_fallbacks.add(1);
                self.exact_ok(members, k)
            }
        };
        #[cfg(feature = "parallel")]
        {
            (0..members.len()).into_par_iter().map(check).collect()
        }
        #[cfg(not(feature = "parallel"))]
        {
            (0..members.len()).map(check).collect()
        }
    }

    /// Per-target affectance budgets for one slot: `out[k]` upper-bounds the
    /// exact affectance total on `members[k]` (`INFINITY` when the pair
    /// terms cannot be priced). Values are the certified pyramid bound when
    /// it already lands within `1/β` and the exact sum otherwise, so on a
    /// feasible slot every budget is finite and within threshold. This is
    /// the near-linear capture half of the warm-start repair contract
    /// (`wagg_schedule::solve_repair`'s warm `budgets`): conservative
    /// upper bounds are sound — they only make repair fall back earlier.
    pub fn budgets(&self, members: &[usize]) -> Vec<f64> {
        if members.len() <= 1 {
            return vec![0.0; members.len()];
        }
        let exact = |k: usize| self.exact_total(members, k).unwrap_or(f64::INFINITY);
        let all_powers_known = members.iter().all(|&i| self.powers[i].is_some());
        let pyramid = if members.len() <= EXACT_CUTOFF || !all_powers_known {
            None
        } else {
            SlotPyramid::build(self, members, self.strategy.requested_depth(members.len()))
        };
        let one = |k: usize| match &pyramid {
            Some(pyramid) => match pyramid.certify(k, self.inv_beta) {
                Some(total) if total <= self.inv_beta => total,
                _ => exact(k),
            },
            None => exact(k),
        };
        #[cfg(feature = "parallel")]
        {
            (0..members.len()).into_par_iter().map(one).collect()
        }
        #[cfg(not(feature = "parallel"))]
        {
            (0..members.len()).map(one).collect()
        }
    }

    /// Whether `members` can share a slot (singletons trivially can — the
    /// affectance sum over an empty interferer set is zero).
    pub fn set_feasible(&self, members: &[usize]) -> bool {
        members.len() <= 1 || self.verdicts(members).into_iter().all(|ok| ok)
    }

    /// One verification sweep over a slot: returns `(kept, evicted)` with
    /// member order preserved. Every kept target passed its affectance check
    /// **with the evicted members still present**; since all terms are
    /// non-negative, the kept set remains feasible after the eviction, so
    /// `kept` always satisfies `is_feasible_by_affectance`.
    pub fn evict_infeasible(&self, members: &[usize]) -> (Vec<usize>, Vec<usize>) {
        if members.len() <= 1 {
            return (members.to_vec(), Vec::new());
        }
        let verdicts = self.verdicts(members);
        let mut kept = Vec::with_capacity(members.len());
        let mut evicted = Vec::new();
        for (k, &i) in members.iter().enumerate() {
            if verdicts[k] {
                kept.push(i);
            } else {
                evicted.push(i);
            }
        }
        self.evictions.add(evicted.len() as u64);
        (kept, evicted)
    }

    /// Packs `evicted` links into fresh slots, first-fit in non-increasing
    /// length order (ties by index — the deterministic order the unsharded
    /// splitter uses). A link that fits nowhere opens its own slot, so the
    /// packing always terminates; singleton slots are trivially feasible.
    /// The result depends only on the evicted *set* (the sort canonicalises
    /// the input order) and the verifier's construction inputs.
    pub fn pack_first_fit(&self, evicted: &[usize]) -> Vec<Vec<usize>> {
        self.repacked.add(evicted.len() as u64);
        let mut order = evicted.to_vec();
        order.sort_by(|&a, &b| {
            self.links[b]
                .length()
                .total_cmp(&self.links[a].length())
                .then(a.cmp(&b))
        });
        let mut slots: Vec<Vec<usize>> = Vec::new();
        let mut candidate: Vec<usize> = Vec::new();
        for idx in order {
            let mut placed = false;
            for slot in slots.iter_mut() {
                candidate.clear();
                candidate.extend_from_slice(slot);
                candidate.push(idx);
                if self.set_feasible(&candidate) {
                    slot.push(idx);
                    placed = true;
                    break;
                }
            }
            if !placed {
                slots.push(vec![idx]);
            }
        }
        slots
    }
}

impl wagg_schedule::SlotJudge for AffectanceVerifier<'_> {
    /// Warm-start repair probes ([`wagg_schedule::solve_repair`]) through
    /// the verifier — hierarchical far-field aggregation and all — so the
    /// sharded backend's repair path judges slots exactly like its
    /// certified verification pass does.
    fn feasible(&self, members: &[usize]) -> bool {
        self.set_feasible(members)
    }

    fn evict(&self, members: &[usize]) -> (Vec<usize>, Vec<usize>) {
        self.evict_infeasible(members)
    }

    fn additive(&self) -> bool {
        true
    }

    fn threshold(&self) -> f64 {
        self.inv_beta
    }

    fn contribution(&self, source: usize, target: usize) -> f64 {
        let s = &self.links[source];
        let t = &self.links[target];
        if s.id == t.id {
            return 0.0;
        }
        let (Some(p), Some(weight)) = (self.powers[source], self.weights[target]) else {
            return f64::INFINITY;
        };
        let d = s.sender.distance(t.receiver);
        if d <= 0.0 {
            return f64::INFINITY;
        }
        p * weight / self.pow.pow(d)
    }
}

/// One slot's aggregation structure: members binned into the finest grid,
/// per-cell power sums and tight sender boxes at every pyramid level.
///
/// With depth 1 and the flat grid resolution this *is* the PR-3 flat
/// verifier — same cells, same term order, same early exit — which is what
/// the depth-1 differential equivalence rests on.
struct SlotPyramid<'v, 'a> {
    v: &'v AffectanceVerifier<'a>,
    members: &'v [usize],
    pyr: GridPyramid,
    /// Counting-sort offsets per finest cell (`offsets[c]..offsets[c + 1]`
    /// indexes `binned`).
    offsets: Vec<u32>,
    /// Member positions (into `members`) sorted by finest cell.
    binned: Vec<u32>,
    /// Aggregated member power per cell, all levels, indexed by
    /// [`GridPyramid::index`].
    sums: Vec<f64>,
    /// Tight sender bounding box per cell `(min_x, min_y, max_x, max_y)`,
    /// inverted (∞, ∞, −∞, −∞) when empty. Clamped binning may park a
    /// borderline sender outside its cell's nominal square; the far bound
    /// needs a box that provably contains every sender it aggregates.
    boxes: Vec<(f64, f64, f64, f64)>,
    /// Flat near-field rule (3×3 cell adjacency) instead of the distance
    /// gate — the depth-1 / legacy configuration.
    near_by_adjacency: bool,
}

/// One target's query context, shared by every cell-pricing step of a
/// [`SlotPyramid`] descent.
struct TargetQuery {
    /// The target link's receiver position.
    receiver: Point,
    /// The target link's id (its own sender is skipped in exact scans).
    target_id: LinkId,
    /// The target's cached `l_i^α / P(i)` weight.
    weight: f64,
    /// The finest-level cell containing the receiver.
    cell: (usize, usize),
    /// Finest cells with a tight box closer than this are summed exactly
    /// (distance-gated mode; adjacency mode ignores it).
    near_gate: f64,
}

impl<'v, 'a> SlotPyramid<'v, 'a> {
    /// Bins `members` and aggregates the pyramid, or `None` when the
    /// verifier's sender extent is degenerate (no useful binning).
    fn build(
        v: &'v AffectanceVerifier<'a>,
        members: &'v [usize],
        requested_depth: usize,
    ) -> Option<Self> {
        let extent = v.sender_extent()?;
        let width = extent.width().max(0.0);
        let height = extent.height().max(0.0);
        if width == 0.0 && height == 0.0 {
            return None;
        }
        let m = members.len();
        // Flat (depth 1): ~m^(1/4) cells per axis balances the per-target
        // far-cell scan (g²) against the near-cell exact work (9 m / g²).
        // Hierarchical: ~4 members per cell — the descent prices far cells
        // per *node*, so finer cells only sharpen the near field.
        let (g, near_by_adjacency) = if requested_depth == 1 {
            (
                (((m as f64).powf(0.25)) * 1.8).ceil().max(1.0) as usize,
                true,
            )
        } else {
            ((((m as f64) / 4.0).sqrt().ceil() as usize).max(2), false)
        };
        let cell = (width.max(height) / g as f64).max(f64::MIN_POSITIVE);
        let cols = ((width / cell).floor() as usize + 1).min(g.max(1));
        let rows = ((height / cell).floor() as usize + 1).min(g.max(1));
        let pyr = GridPyramid::build(
            extent.min_x,
            extent.min_y,
            cell,
            cols,
            rows,
            requested_depth,
        );

        // Counting-sorted member lists per finest cell.
        let n0 = cols * rows;
        let mut counts = vec![0u32; n0 + 1];
        let cells: Vec<u32> = members
            .iter()
            .map(|&i| {
                let (c, r) = pyr.cell_of(v.links[i].sender);
                (r * cols + c) as u32
            })
            .collect();
        for &c in &cells {
            counts[c as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut binned = vec![0u32; m];
        for (pos, &c) in cells.iter().enumerate() {
            binned[cursor[c as usize] as usize] = pos as u32;
            cursor[c as usize] += 1;
        }

        // Finest-level power sums and tight boxes, then aggregate upward —
        // each super-cell folds its (row-major) children.
        let total = pyr.total_cells();
        let mut sums = vec![0.0f64; total];
        let mut boxes = vec![
            (
                f64::INFINITY,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NEG_INFINITY
            );
            total
        ];
        for c in 0..n0 {
            let mut sum = 0.0;
            let b = &mut boxes[c];
            for &pos in &binned[offsets[c] as usize..offsets[c + 1] as usize] {
                let i = members[pos as usize];
                sum += v.powers[i].expect("powers known");
                let s = v.links[i].sender;
                b.0 = b.0.min(s.x);
                b.1 = b.1.min(s.y);
                b.2 = b.2.max(s.x);
                b.3 = b.3.max(s.y);
            }
            sums[c] = sum;
        }
        for level in 1..pyr.depth() {
            let (lc, lr) = pyr.shape(level);
            for r in 0..lr {
                for c in 0..lc {
                    let pi = pyr.index(level, c, r);
                    let mut sum = 0.0;
                    let mut b = (
                        f64::INFINITY,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        f64::NEG_INFINITY,
                    );
                    for (cc, cr) in pyr.children(level, c, r) {
                        let ci = pyr.index(level - 1, cc, cr);
                        sum += sums[ci];
                        let cb = boxes[ci];
                        b.0 = b.0.min(cb.0);
                        b.1 = b.1.min(cb.1);
                        b.2 = b.2.max(cb.2);
                        b.3 = b.3.max(cb.3);
                    }
                    sums[pi] = sum;
                    boxes[pi] = b;
                }
            }
        }
        Some(SlotPyramid {
            v,
            members,
            pyr,
            offsets,
            binned,
            sums,
            boxes,
            near_by_adjacency,
        })
    }

    /// Distance from the target receiver to a cell's tight sender box —
    /// `BoundingBox::distance_to`'s formula, inlined here because empty
    /// cells carry *inverted* boxes (∞, ∞, −∞, −∞), which the `BoundingBox`
    /// constructor's invariant forbids (an inverted box yields `∞`, and
    /// empty cells are skipped via their zero power sum anyway).
    #[inline]
    fn box_distance(&self, idx: usize, p: Point) -> f64 {
        let (bx0, by0, bx1, by1) = self.boxes[idx];
        let dx = (bx0 - p.x).max(p.x - bx1).max(0.0);
        let dy = (by0 - p.y).max(p.y - by1).max(0.0);
        dx.hypot(dy)
    }

    /// Prices one finest-level cell for the target: exact member terms when
    /// near, one aggregate bound otherwise. Returns the cell's contribution,
    /// or `None` when only the exact kernel can price it (a zero distance:
    /// collocated interferer, or a tight box reaching the receiver).
    #[inline]
    fn level0_term(&self, c: usize, r: usize, q: &TargetQuery) -> Option<f64> {
        let v = self.v;
        let idx = self.pyr.index(0, c, r);
        let sum = self.sums[idx];
        let (tc, tr) = q.cell;
        let mut cached_d = f64::NAN;
        let near = if self.near_by_adjacency {
            c.abs_diff(tc) <= 1 && r.abs_diff(tr) <= 1
        } else if sum == 0.0 {
            return Some(0.0);
        } else {
            cached_d = self.box_distance(idx, q.receiver);
            cached_d < q.near_gate
        };
        if near {
            let mut term = 0.0;
            for &pos in &self.binned[self.offsets[idx] as usize..self.offsets[idx + 1] as usize] {
                let j = self.members[pos as usize];
                let source = &v.links[j];
                if source.id == q.target_id {
                    continue;
                }
                let d = source.sender.distance(q.receiver);
                if d <= 0.0 {
                    return None;
                }
                term += v.powers[j].expect("powers known") * q.weight / v.pow.pow(d);
            }
            Some(term)
        } else {
            if sum == 0.0 {
                return Some(0.0);
            }
            let d = if cached_d.is_nan() {
                self.box_distance(idx, q.receiver)
            } else {
                cached_d
            };
            if d <= 0.0 {
                return None;
            }
            Some(sum * q.weight / v.pow.pow(d))
        }
    }

    /// The certified upper bound on the affectance total for `members[k]`,
    /// descending the pyramid top-down (nodes in row-major order, expanded
    /// children likewise — a deterministic term order). Returns early with
    /// the partial total once it exceeds `cap` (pass `∞` for the full
    /// bound); `None` when the bound cannot price the target — unknown
    /// target weight, or a zero distance (collocated interferer / a tight
    /// box reaching the receiver) — which callers resolve exactly.
    fn certify(&self, k: usize, cap: f64) -> Option<f64> {
        let mut expansions = 0u64;
        let out = self.certify_counting(k, cap, &mut expansions);
        self.v.expansions.add(expansions);
        out
    }

    /// The descent body of [`SlotPyramid::certify`], accumulating opened
    /// nodes into `expansions` (flushed by the wrapper with one atomic add).
    fn certify_counting(&self, k: usize, cap: f64, expansions: &mut u64) -> Option<f64> {
        let v = self.v;
        let target = &v.links[self.members[k]];
        let weight = v.weights[self.members[k]]?;
        let receiver = target.receiver;
        let q = TargetQuery {
            receiver,
            target_id: target.id,
            weight,
            cell: self.pyr.cell_of(receiver),
            near_gate: OPEN_GATE * self.pyr.side(0),
        };
        let w = weight;
        let mut total = 0.0f64;

        // Single-level (flat / depth-1) pyramids take a plain row-major
        // sweep — no descent state, no per-target allocation.
        if self.pyr.depth() == 1 {
            let (cols, rows) = self.pyr.shape(0);
            for r in 0..rows {
                for c in 0..cols {
                    total += self.level0_term(c, r, &q)?;
                    if total > cap {
                        return Some(total);
                    }
                }
            }
            return Some(total);
        }

        let top = self.pyr.depth() - 1;
        let (top_cols, top_rows) = self.pyr.shape(top);
        // Expansion frontier: at most 4 children per opened node, a handful
        // of opened nodes per level — a small, single-allocation stack.
        let mut stack: Vec<(u32, u32, u32)> = Vec::with_capacity(top_cols * top_rows + 64);
        for r in (0..top_rows).rev() {
            for c in (0..top_cols).rev() {
                stack.push((top as u32, c as u32, r as u32));
            }
        }
        while let Some((l, c, r)) = stack.pop() {
            let (l, c, r) = (l as usize, c as usize, r as usize);
            if l == 0 {
                total += self.level0_term(c, r, &q)?;
                if total > cap {
                    return Some(total);
                }
                continue;
            }
            let idx = self.pyr.index(l, c, r);
            let sum = self.sums[idx];
            if sum == 0.0 {
                continue;
            }
            let d = self.box_distance(idx, receiver);
            if d >= OPEN_GATE * self.pyr.side(l) {
                total += sum * w / v.pow.pow(d);
                if total > cap {
                    return Some(total);
                }
            } else {
                // Too close for the aggregate: expand the children (pushed
                // reversed so they pop in row-major order).
                *expansions += 1;
                let mut kids = [(0usize, 0usize); 4];
                let mut n = 0;
                for kid in self.pyr.children(l, c, r) {
                    kids[n] = kid;
                    n += 1;
                }
                for &(cc, cr) in kids[..n].iter().rev() {
                    stack.push((l as u32 - 1, cc as u32, cr as u32));
                }
            }
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::Point;
    use wagg_sinr::affectance::is_feasible_by_affectance;
    use wagg_sinr::{PathLossCache, PowerAssignment};

    fn field(n: usize, spacing: f64) -> Vec<Link> {
        let cols = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| {
                let x = (i % cols) as f64 * spacing;
                let y = (i / cols) as f64 * spacing;
                Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
            })
            .collect()
    }

    fn subset_links(links: &[Link], members: &[usize]) -> Vec<Link> {
        members.iter().map(|&i| links[i]).collect()
    }

    fn strategies() -> Vec<VerifierStrategy> {
        vec![
            VerifierStrategy::Hierarchical { depth: Some(1) },
            VerifierStrategy::Hierarchical { depth: Some(2) },
            VerifierStrategy::Hierarchical { depth: Some(4) },
            VerifierStrategy::Hierarchical { depth: None },
        ]
    }

    #[test]
    fn verdicts_match_is_feasible_by_affectance_exactly() {
        let model = SinrModel::default();
        let power = PowerAssignment::mean();
        // Sweep spacings through the feasibility threshold; include sizes on
        // both sides of the exact cutoff so the certified path is exercised,
        // and every strategy/depth so the battery covers the whole matrix.
        for &(n, spacing) in &[
            (64usize, 3.0),
            (64, 8.0),
            (400, 2.5),
            (400, 6.0),
            (400, 12.0),
        ] {
            let links = field(n, spacing);
            let cache = PathLossCache::new(&model, &links, &power);
            let (powers, weights) = cache.into_parts();
            for strategy in strategies() {
                let verifier = AffectanceVerifier::new(&model, &links, &powers, &weights)
                    .with_strategy(strategy);
                let members: Vec<usize> = (0..n).collect();
                let (kept, evicted) = verifier.evict_infeasible(&members);
                assert_eq!(kept.len() + evicted.len(), n);
                // Kept sets are genuinely feasible under the reference check.
                assert!(
                    is_feasible_by_affectance(&model, &subset_links(&links, &kept), &power),
                    "kept set infeasible at n={n} spacing={spacing} {strategy:?}"
                );
                // And the sweep's verdicts agree with per-target reference sums.
                let reference = PathLossCache::new(&model, &links, &power);
                for (k, &i) in members.iter().enumerate() {
                    let want = match reference.subset_relative_interference_on(&members, k) {
                        Some(t) => t <= 1.0 / model.beta(),
                        None => false,
                    };
                    assert_eq!(
                        kept.contains(&i),
                        want,
                        "target {i} verdict mismatch at n={n} spacing={spacing} {strategy:?}"
                    );
                }
                if evicted.is_empty() {
                    assert!(verifier.set_feasible(&members));
                } else {
                    assert!(!verifier.set_feasible(&members));
                    // Packing terminates and every packed slot is feasible.
                    for slot in verifier.pack_first_fit(&evicted) {
                        assert!(is_feasible_by_affectance(
                            &model,
                            &subset_links(&links, &slot),
                            &power
                        ));
                    }
                }
            }
        }
    }

    #[test]
    fn bounds_upper_bound_the_exact_sum_at_every_depth() {
        let model = SinrModel::default();
        let power = PowerAssignment::mean();
        let links = field(400, 3.0);
        let cache = PathLossCache::new(&model, &links, &power);
        let (powers, weights) = cache.into_parts();
        let verifier = AffectanceVerifier::new(&model, &links, &powers, &weights);
        let members: Vec<usize> = (0..links.len()).collect();
        for depth in 1..=8 {
            for k in (0..members.len()).step_by(23) {
                let bound = verifier
                    .hierarchical_bound(&members, k, depth)
                    .expect("grid path available");
                let exact = verifier
                    .exact_affectance(&members, k)
                    .expect("exact sum available");
                assert!(
                    bound >= exact - 1e-12 * exact.abs(),
                    "depth {depth} target {k}: bound {bound} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn repack_is_deterministic_across_instances_and_input_order() {
        // Regression for the shared grid-shape state: the repack path and
        // the query path share one layout anchored once per verifier, so
        // packing the same evicted *set* — in any input order, from any
        // identically constructed verifier — yields identical slots.
        let model = SinrModel::default();
        let power = PowerAssignment::mean();
        let links = field(400, 2.0);
        let cache = PathLossCache::new(&model, &links, &power);
        let (powers, weights) = cache.into_parts();
        for strategy in strategies() {
            let verifier =
                AffectanceVerifier::new(&model, &links, &powers, &weights).with_strategy(strategy);
            let members: Vec<usize> = (0..links.len()).collect();
            let (_, evicted) = verifier.evict_infeasible(&members);
            assert!(
                !evicted.is_empty(),
                "tight field should force evictions ({strategy:?})"
            );
            let packed = verifier.pack_first_fit(&evicted);
            // Same verifier, reversed input order.
            let mut reversed = evicted.clone();
            reversed.reverse();
            assert_eq!(packed, verifier.pack_first_fit(&reversed), "{strategy:?}");
            // A fresh identically constructed verifier.
            let fresh =
                AffectanceVerifier::new(&model, &links, &powers, &weights).with_strategy(strategy);
            assert_eq!(packed, fresh.pack_first_fit(&evicted), "{strategy:?}");
            for slot in &packed {
                assert!(is_feasible_by_affectance(
                    &model,
                    &subset_links(&links, slot),
                    &power
                ));
            }
        }
    }

    #[test]
    fn missing_powers_fail_exactly_like_the_cache() {
        let model = SinrModel::default();
        let links = field(20, 4.0);
        let empty = PowerAssignment::explicit(std::collections::HashMap::new());
        let cache = PathLossCache::new(&model, &links, &empty);
        let (powers, weights) = cache.into_parts();
        let verifier = AffectanceVerifier::new(&model, &links, &powers, &weights);
        let members: Vec<usize> = (0..20).collect();
        let (kept, evicted) = verifier.evict_infeasible(&members);
        assert!(kept.is_empty());
        assert_eq!(evicted.len(), 20);
        // Singletons are still trivially feasible.
        assert!(verifier.set_feasible(&[3]));
        // The bound cannot price unknown powers either.
        assert_eq!(verifier.hierarchical_bound(&members, 0, 3), None);
    }

    #[test]
    fn collocated_interferers_are_evicted() {
        let model = SinrModel::default();
        // Link 1's sender sits on link 0's receiver.
        let links = vec![
            Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
            Link::new(1, Point::new(1.0, 0.0), Point::new(2.0, 0.0)),
            Link::new(2, Point::new(60.0, 0.0), Point::new(61.0, 0.0)),
        ];
        let power = PowerAssignment::uniform(1.0);
        let cache = PathLossCache::new(&model, &links, &power);
        let (powers, weights) = cache.into_parts();
        let verifier = AffectanceVerifier::new(&model, &links, &powers, &weights);
        let (kept, evicted) = verifier.evict_infeasible(&[0, 1, 2]);
        assert!(evicted.contains(&0)); // infinite interference on target 0
        assert!(kept.contains(&2));
    }
}
