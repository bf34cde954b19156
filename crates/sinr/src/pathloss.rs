//! Cached path-loss computations: the shared kernel under every SINR hot path.
//!
//! Two ingredients remove the `powf`-per-pair cost that dominated the seed
//! implementation's O(n²) interference loops:
//!
//! * [`AlphaPow`] — a precompiled exponentiation for the path-loss exponent.
//!   The exponents that actually occur (α ∈ {2, 3, 4}, and the oblivious power
//!   exponents `τ·α` ∈ {0, 1, …}) dispatch to plain multiplications; anything
//!   else falls back to `f64::powf`. Integer fast paths differ from `powf` by
//!   at most an ulp or two, which re-associated sums already absorb (documented
//!   tolerance: ≤ 1e-9 relative).
//! * [`PathLossCache`] — per-link powers `P(i)` and target weights
//!   `l_i^α / P(i)` precomputed once per link set, so the relative-interference
//!   sum `I_P(S, i) = Σ_j P(j)·l_i^α / (P(i)·d_ji^α)` costs one distance, one
//!   [`AlphaPow::pow`] and a fused multiply per pair — no `powf`, no repeated
//!   power-assignment lookups.
//! * [`PricedLink`] — one link's endpoints, power and weight: the record a
//!   caller that keeps per-link parts across link-set mutations hands on
//!   per link (the warm-repair slot index stores them as per-slot columns).
//!
//! Every term has one formula, `P(j)·w(i) / (√d²)^α` with `d²` the squared
//! sender–receiver distance: the cache's sums, [`PricedLink::term_on`] and
//! the hierarchical verifier's exact scans all compute it this way, so
//! their sums agree bit for bit where they add the same terms in the same
//! order.
//!
//! Two routines add those terms. [`relative_interference_sum`] is the one
//! exact loop for a single target, and the reference. The whole-set
//! verdicts ([`PathLossCache::subset_feasible`], [`PathLossCache::is_feasible`])
//! run on a blocked routine beside it: it copies the set's senders, powers
//! and ids into columns once, then prices four targets per pass over the
//! sources, one add chain per target, each still in set order. A lane skips
//! the sources with its target's id and sums to `∞` once a source sits on
//! its receiver, where the one-target loop returns `∞`. A block in which a
//! power or a target weight is missing runs that loop instead, which keeps
//! the order in which a missing part (`None`) and a collocated sender meet.
//! The verdicts are therefore the per-target loop's in every case, NaN and
//! `1/β = ∞` included. Rust never fuses a multiply and an add, so the lanes
//! round as the scalar loop does.
//!
//! This module prices and sums; it packs nothing. The first fit under `1/β`
//! (a colour class's split, the sharded verifier's repack) runs on
//! `wagg_schedule::repair`'s chunked admission kernel, which borrows the
//! cache's parts ([`PathLossCache::parts`]) and prices each pair with the
//! same formula.
//!
//! Failure bookkeeping is per-link and lazy: a link with an unavailable power
//! or a degenerate length only poisons checks that actually evaluate a pair
//! involving it, which reproduces the seed's error-to-`false` semantics
//! exactly (including the "a singleton set is trivially feasible" corner).

use crate::link::Link;
use crate::model::SinrModel;
use crate::power::PowerAssignment;
use wagg_geometry::Point;

use rayon::prelude::*;

/// A fixed exponent, specialised at construction so the hot loops multiply
/// instead of calling `powf`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlphaPow {
    /// `x^0 = 1`.
    Zero,
    /// `x^1 = x`.
    One,
    /// `x²` by one multiplication.
    Square,
    /// `x³` by two multiplications.
    Cube,
    /// `x⁴` by two multiplications.
    Quartic,
    /// Arbitrary exponent via `f64::powf`.
    General(f64),
}

impl AlphaPow {
    /// Chooses the fast path for `exponent` (exact match on 0, 1, 2, 3, 4).
    #[inline]
    pub fn new(exponent: f64) -> Self {
        if exponent == 0.0 {
            AlphaPow::Zero
        } else if exponent == 1.0 {
            AlphaPow::One
        } else if exponent == 2.0 {
            AlphaPow::Square
        } else if exponent == 3.0 {
            AlphaPow::Cube
        } else if exponent == 4.0 {
            AlphaPow::Quartic
        } else {
            AlphaPow::General(exponent)
        }
    }

    /// The exponent this dispatcher was built for.
    pub fn exponent(&self) -> f64 {
        match *self {
            AlphaPow::Zero => 0.0,
            AlphaPow::One => 1.0,
            AlphaPow::Square => 2.0,
            AlphaPow::Cube => 3.0,
            AlphaPow::Quartic => 4.0,
            AlphaPow::General(a) => a,
        }
    }

    /// Computes `x` raised to the configured exponent.
    #[inline(always)]
    pub fn pow(&self, x: f64) -> f64 {
        match *self {
            AlphaPow::Zero => 1.0,
            AlphaPow::One => x,
            AlphaPow::Square => x * x,
            AlphaPow::Cube => x * x * x,
            AlphaPow::Quartic => {
                let s = x * x;
                s * s
            }
            AlphaPow::General(a) => x.powf(a),
        }
    }
}

/// Precomputed per-link path-loss state for a link set under one power
/// assignment — the input to the batched feasibility kernels.
#[derive(Debug, Clone)]
pub struct PathLossCache<'a> {
    links: &'a [Link],
    pow: AlphaPow,
    inv_beta: f64,
    /// `P(i)`, or `None` when the assignment has no valid power for link `i`.
    powers: Vec<Option<f64>>,
    /// `l_i^α / P(i)`, or `None` when link `i` cannot be a valid target
    /// (degenerate length, missing or non-positive power).
    weights: Vec<Option<f64>>,
}

impl<'a> PathLossCache<'a> {
    /// Builds the cache: O(n), one power evaluation and one [`AlphaPow::pow`]
    /// per link. Per-link failures are recorded, not propagated — they only
    /// surface in checks that actually touch the offending link.
    pub fn new(model: &SinrModel, links: &'a [Link], power: &PowerAssignment) -> Self {
        let pow = AlphaPow::new(model.alpha());
        let mut powers = Vec::with_capacity(links.len());
        let mut weights = Vec::with_capacity(links.len());
        for link in links {
            let p = power.power(link, model.alpha()).ok();
            powers.push(p);
            let len = link.length();
            let weight = match p {
                Some(p) if p > 0.0 && len > 0.0 => Some(pow.pow(len) / p),
                _ => None,
            };
            weights.push(weight);
        }
        PathLossCache {
            links,
            pow,
            inv_beta: 1.0 / model.beta(),
            powers,
            weights,
        }
    }

    /// Dismantles the cache into its per-link `(powers, weights)` vectors,
    /// for callers that keep the state beyond the cache's borrow of the
    /// links.
    pub fn into_parts(self) -> (Vec<Option<f64>>, Vec<Option<f64>>) {
        (self.powers, self.weights)
    }

    /// The cached links as packed records, position for position: each
    /// link's endpoints with its cached power and weight.
    pub fn priced(&self) -> Vec<PricedLink> {
        self.links
            .iter()
            .zip(self.powers.iter().zip(&self.weights))
            .map(|(link, (&power, &weight))| PricedLink {
                sender: link.sender,
                receiver: link.receiver,
                power,
                weight,
            })
            .collect()
    }

    /// The `(powers, weights)` slice for a subset of the cached links — the
    /// per-link state [`PathLossCache::new`] would compute for exactly those
    /// links, extracted instead of recomputed. The sharded scheduler uses
    /// this to hand each shard's verifier its slice of one globally built
    /// cache.
    ///
    /// # Panics
    ///
    /// Panics when a member index is out of range.
    pub fn subset_parts(&self, members: &[usize]) -> (Vec<Option<f64>>, Vec<Option<f64>>) {
        (
            members.iter().map(|&i| self.powers[i]).collect(),
            members.iter().map(|&i| self.weights[i]).collect(),
        )
    }

    /// Borrows the full per-link `(powers, weights)` state — the zero-copy
    /// counterpart of [`PathLossCache::subset_parts`] for callers that need
    /// the whole cache (the sharded scheduler's global verifier).
    pub fn parts(&self) -> (&[Option<f64>], &[Option<f64>]) {
        (&self.powers, &self.weights)
    }

    /// The exponent dispatcher the cache was built with.
    pub fn alpha_pow(&self) -> AlphaPow {
        self.pow
    }

    /// The link set the cache indexes into.
    pub fn links(&self) -> &'a [Link] {
        self.links
    }

    /// Total relative interference `I_P(S \ {i}, i)` on the target at position
    /// `target`, summed in set order. Returns `None` when a needed power or
    /// the target weight is unavailable (the seed API reported these cases as
    /// errors); `f64::INFINITY` when an interferer is collocated with the
    /// target's receiver.
    pub fn relative_interference_on(&self, target: usize) -> Option<f64> {
        relative_interference_sum(
            self.pow,
            0..self.links.len(),
            target,
            self.weights[target],
            |j| &self.links[j],
            |j| self.powers[j],
        )
    }

    /// Total relative interference on `members[target]` from the other links
    /// of the subset `members` (positions into the cached link set), summed in
    /// subset order.
    ///
    /// Bit-identical to building a fresh cache over just the subset's links
    /// and calling [`PathLossCache::relative_interference_on`] there: the
    /// per-link powers and weights do not depend on the rest of the set, and
    /// the terms are the same values added in the same order. This is what
    /// lets one cache per scheduling run serve *every* slot probe instead of
    /// being rebuilt per probe.
    pub fn subset_relative_interference_on(&self, members: &[usize], target: usize) -> Option<f64> {
        let target = members[target];
        relative_interference_sum(
            self.pow,
            members.iter().copied(),
            target,
            self.weights[target],
            |j| &self.links[j],
            |j| self.powers[j],
        )
    }

    /// Noise-free feasibility of the subset `members` (positions into the
    /// cached link set) by relative interference — the subset counterpart of
    /// [`PathLossCache::is_feasible`], with the same verdict a fresh
    /// subset-only cache would give.
    pub fn subset_feasible(&self, members: &[usize]) -> bool {
        self.all_within(members.len(), |k| members[k])
    }

    /// Noise-free feasibility of the whole set by relative interference:
    /// every link's affectance sum must stay within `1/β`.
    ///
    /// The blocks of targets run on the rayon shim's pool and short-circuit
    /// cooperatively on the first infeasible one; each target's sum is
    /// still accumulated in set order, so the verdict is the same with or
    /// without a pool. Without the (default-on) `parallel` feature no worker
    /// starts and the blocks are checked in order on the calling thread.
    pub fn is_feasible(&self) -> bool {
        self.all_within(self.links.len(), |k| k)
    }

    /// Whether every member of the set `position(0..m)` (positions into the
    /// cached link set, in set order) keeps its relative-interference sum
    /// from the others within `1/β`: the verdict of
    /// [`relative_interference_sum`] per target, priced [`BLOCK`] targets
    /// per pass (see the [module docs](self)).
    fn all_within(&self, m: usize, position: impl Fn(usize) -> usize + Sync) -> bool {
        let link = |k: usize| &self.links[position(k)];
        let sources = Sources {
            sx: (0..m).map(|k| link(k).sender.x).collect(),
            sy: (0..m).map(|k| link(k).sender.y).collect(),
            power: (0..m)
                .map(|k| self.powers[position(k)].unwrap_or(f64::NAN))
                .collect(),
            id: (0..m).map(|k| link(k).id.0).collect(),
        };
        let priced = (0..m).all(|k| self.powers[position(k)].is_some());
        let within = |total: Option<f64>| total.is_some_and(|total| total <= self.inv_beta);
        let block = |b: usize| {
            let lanes = b * BLOCK..((b + 1) * BLOCK).min(m);
            if !priced || lanes.clone().any(|k| self.weights[position(k)].is_none()) {
                // A missing part ends a sum early (`None`); the one-target
                // loop keeps the order in which that meets a collocation.
                return lanes.clone().all(|k| {
                    let target = position(k);
                    within(relative_interference_sum(
                        self.pow,
                        0..m,
                        k,
                        self.weights[target],
                        |j| &self.links[position(j)],
                        |j| self.powers[position(j)],
                    ))
                });
            }
            let target = |l: usize| {
                let i = position(lanes.start + l.min(lanes.len() - 1));
                let link = &self.links[i];
                (
                    link.receiver,
                    self.weights[i].unwrap_or(f64::NAN),
                    link.id.0,
                )
            };
            let targets: [(Point, f64, usize); BLOCK] = std::array::from_fn(target);
            // Dispatch once per block: with the exponent a constant, the
            // lanes have no branch left.
            let totals = match self.pow {
                AlphaPow::Square => price_block(&sources, &targets, AlphaPow::Square),
                AlphaPow::Cube => price_block(&sources, &targets, AlphaPow::Cube),
                AlphaPow::Quartic => price_block(&sources, &targets, AlphaPow::Quartic),
                other => price_block(&sources, &targets, other),
            };
            totals[..lanes.len()]
                .iter()
                .all(|&total| within(Some(total)))
        };
        (0..m.div_ceil(BLOCK)).into_par_iter().all(block)
    }
}

/// Targets priced per pass of the blocked whole-set routine.
const BLOCK: usize = 4;

/// A set's sources in set order, as columns: sender coordinates, power
/// (NaN where missing) and link id.
#[derive(Debug)]
struct Sources {
    sx: Vec<f64>,
    sy: Vec<f64>,
    power: Vec<f64>,
    id: Vec<usize>,
}

/// The relative-interference sums of [`BLOCK`] targets (`(receiver,
/// weight, id)`) from every source, each as [`relative_interference_sum`]
/// gives it when no part is missing: a lane skips sources with its id, adds
/// its terms in set order, and sums to `∞` once a source sits on its
/// receiver (that loop returns there; the terms the lane adds after it do
/// not matter).
#[inline(always)]
fn price_block(
    sources: &Sources,
    targets: &[(Point, f64, usize); BLOCK],
    pow: AlphaPow,
) -> [f64; BLOCK] {
    let rx: [f64; BLOCK] = std::array::from_fn(|l| targets[l].0.x);
    let ry: [f64; BLOCK] = std::array::from_fn(|l| targets[l].0.y);
    let weight: [f64; BLOCK] = std::array::from_fn(|l| targets[l].1);
    let id: [usize; BLOCK] = std::array::from_fn(|l| targets[l].2);
    let mut total = [0.0f64; BLOCK];
    // The least distance of a counted source: 0 once one is collocated.
    let mut least = [f64::INFINITY; BLOCK];
    let m = sources.id.len();
    let (sx, sy, power, ids) = (
        &sources.sx[..m],
        &sources.sy[..m],
        &sources.power[..m],
        &sources.id[..m],
    );
    for j in 0..m {
        let (x, y, p, i) = (sx[j], sy[j], power[j], ids[j]);
        let counts: [bool; BLOCK] = std::array::from_fn(|l| i != id[l]);
        for l in 0..BLOCK {
            let (dx, dy) = (x - rx[l], y - ry[l]);
            let d = (dx * dx + dy * dy).sqrt();
            let term = p * weight[l] / pow.pow(d);
            // A skipped source adds +0, which leaves every sum as it is:
            // a sum that starts at +0 is never -0.
            let (d, term) = if counts[l] {
                (d, term)
            } else {
                (f64::INFINITY, 0.0)
            };
            least[l] = least[l].min(d);
            total[l] += term;
        }
    }
    std::array::from_fn(|l| {
        if least[l] <= 0.0 {
            f64::INFINITY
        } else {
            total[l]
        }
    })
}

/// The one exact affectance-sum loop: this cache's sums, the exact
/// fallback of `wagg-partition`'s `AffectanceVerifier` and the fresh probe
/// of `wagg_schedule::repair::first_fit` (taken when `1/β` overflows or
/// two links share an id) all add their terms here.
///
/// `sources` are the interferers' caller indices in summing order (`0..n`
/// for a whole set, `members.iter().copied()` for a subset), `target` the
/// target's caller index, and `link_of`/`power_of` the caller's per-index
/// lookups. A source carrying the target's id is skipped, so the target
/// may sit among the sources. `target_weight` is the target's cached
/// `l_i^α / P(i)`, consulted lazily: an unavailable weight only surfaces
/// (`None`) once a non-self source is actually summed, which preserves the
/// "a singleton set is trivially feasible" corner. `None` also reports a
/// source without a power, and `Some(INFINITY)` a collocated interferer.
pub fn relative_interference_sum<'a, S, L, P>(
    pow: AlphaPow,
    sources: S,
    target: usize,
    target_weight: Option<f64>,
    link_of: L,
    power_of: P,
) -> Option<f64>
where
    S: IntoIterator<Item = usize>,
    L: Fn(usize) -> &'a Link,
    P: Fn(usize) -> Option<f64>,
{
    let t = link_of(target);
    let receiver = t.receiver;
    let target_id = t.id;
    let mut weight = f64::NAN;
    let mut weight_loaded = false;
    let mut total = 0.0;
    for j in sources {
        let source = link_of(j);
        if source.id == target_id {
            continue;
        }
        if !weight_loaded {
            weight = target_weight?;
            weight_loaded = true;
        }
        let Some(term) = pair_term(pow, source.sender, receiver, power_of(j)?, weight) else {
            return Some(f64::INFINITY);
        };
        total += term;
    }
    Some(total)
}

/// One link priced for the pair terms of the relative-interference sum: its
/// endpoints, its power `P(i)` and its target weight `l_i^α / P(i)`, each
/// `None` where [`PathLossCache::new`] records the part as missing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricedLink {
    /// The link's sender position.
    pub sender: Point,
    /// The link's receiver position.
    pub receiver: Point,
    /// `P(i)`, or `None` when the assignment has no valid power for it.
    pub power: Option<f64>,
    /// `l_i^α / P(i)`, or `None` when the link cannot be a valid target.
    pub weight: Option<f64>,
}

impl PricedLink {
    /// The term this link, sending, adds to `target`'s relative-interference
    /// sum: `P(self)·w(target) / (√d²)^α`, the one formula of every sum in
    /// this module. `+∞` when this link's power or the target's weight is
    /// missing, or when this sender sits on the target's receiver (the
    /// error-means-infeasible convention); `0` when the squared distance
    /// overflows to `∞`. The caller keeps the two links distinct: the term
    /// of a link on itself is not `0` here.
    #[inline(always)]
    pub fn term_on(&self, target: &PricedLink, pow: AlphaPow) -> f64 {
        match (self.power, target.weight) {
            (Some(power), Some(weight)) => {
                pair_term(pow, self.sender, target.receiver, power, weight).unwrap_or(f64::INFINITY)
            }
            _ => f64::INFINITY,
        }
    }
}

/// The term `P(j)·w(t)/d^α` that a sender at `sender`, sending at `power`,
/// adds to the relative-interference sum on a target with receiver
/// `receiver` and weight `w(t) = weight`; `None` when the sender sits on the
/// receiver (the sum is then `∞`). Every sum of this module adds its terms
/// through here.
#[inline(always)]
fn pair_term(
    pow: AlphaPow,
    sender: Point,
    receiver: Point,
    power: f64,
    weight: f64,
) -> Option<f64> {
    let d = sender.distance(receiver);
    if d <= 0.0 {
        return None;
    }
    Some(power * weight / pow.pow(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::Point;

    fn line_link(id: usize, s: f64, r: f64) -> Link {
        Link::new(id, Point::on_line(s), Point::on_line(r))
    }

    #[test]
    fn alpha_pow_matches_powf() {
        for &alpha in &[0.0, 1.0, 2.0, 3.0, 4.0, 2.5, 3.7] {
            let pow = AlphaPow::new(alpha);
            assert_eq!(pow.exponent(), alpha);
            for &x in &[0.25, 1.0, 2.0, 9.5, 1234.5] {
                let fast = pow.pow(x);
                let slow = x.powf(alpha);
                let tol = slow.abs() * 1e-12 + 1e-300;
                assert!(
                    (fast - slow).abs() <= tol,
                    "alpha={alpha} x={x}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn integer_alphas_take_fast_paths() {
        assert_eq!(AlphaPow::new(2.0), AlphaPow::Square);
        assert_eq!(AlphaPow::new(3.0), AlphaPow::Cube);
        assert_eq!(AlphaPow::new(4.0), AlphaPow::Quartic);
        assert!(matches!(AlphaPow::new(2.5), AlphaPow::General(_)));
    }

    #[test]
    fn cache_matches_direct_interference_sum() {
        let model = SinrModel::default();
        let links = vec![
            line_link(0, 0.0, 1.0),
            line_link(1, 4.0, 5.0),
            line_link(2, 11.0, 13.0),
        ];
        let power = PowerAssignment::mean();
        let cache = PathLossCache::new(&model, &links, &power);
        for i in 0..links.len() {
            let direct =
                crate::affectance::relative_interference_on(&model, &links, &links[i], &power)
                    .unwrap();
            let cached = cache.relative_interference_on(i).unwrap();
            assert!(
                (direct - cached).abs() <= direct.abs() * 1e-9 + 1e-15,
                "target {i}: {direct} vs {cached}"
            );
        }
    }

    #[test]
    fn singleton_sets_are_feasible_even_when_degenerate() {
        // Matches the seed semantics: with no non-self interferer the sum is
        // empty, so even a zero-length link passes the affectance check.
        let model = SinrModel::default();
        let links = vec![line_link(0, 2.0, 2.0)];
        let cache = PathLossCache::new(&model, &links, &PowerAssignment::uniform(1.0));
        assert!(cache.is_feasible());
    }

    #[test]
    fn missing_power_poisons_only_evaluated_pairs() {
        let model = SinrModel::default();
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 10.0, 11.0)];
        let empty = PowerAssignment::explicit(std::collections::HashMap::new());
        let cache = PathLossCache::new(&model, &links, &empty);
        assert_eq!(cache.relative_interference_on(0), None);
        assert!(!cache.is_feasible());
    }

    #[test]
    fn subset_checks_match_fresh_subset_caches() {
        let model = SinrModel::default();
        let links = vec![
            line_link(0, 0.0, 1.0),
            line_link(1, 4.0, 5.0),
            line_link(2, 11.0, 13.0),
            line_link(3, 20.0, 20.5),
            line_link(4, 31.0, 36.0),
        ];
        let power = PowerAssignment::mean();
        let cache = PathLossCache::new(&model, &links, &power);
        let subsets: Vec<Vec<usize>> = vec![vec![0], vec![1, 3], vec![0, 2, 4], vec![4, 2, 0, 1]];
        for members in subsets {
            let subset_links: Vec<Link> = members.iter().map(|&i| links[i]).collect();
            let fresh = PathLossCache::new(&model, &subset_links, &power);
            assert_eq!(
                cache.subset_feasible(&members),
                fresh.is_feasible(),
                "verdict differs on subset {members:?}"
            );
            for k in 0..members.len() {
                let via_subset = cache.subset_relative_interference_on(&members, k);
                let via_fresh = fresh.relative_interference_on(k);
                match (via_subset, via_fresh) {
                    (Some(a), Some(b)) => assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "sum differs for target {k} of {members:?}"
                    ),
                    (a, b) => assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn subset_parts_slice_what_a_fresh_subset_cache_computes() {
        let model = SinrModel::default();
        let links = vec![
            line_link(0, 0.0, 1.0),
            line_link(1, 4.0, 5.0),
            line_link(2, 11.0, 13.0),
            line_link(3, 20.0, 20.0), // degenerate: weight is None
        ];
        let power = PowerAssignment::mean();
        let cache = PathLossCache::new(&model, &links, &power);
        let members = [1usize, 3];
        let (powers, weights) = cache.subset_parts(&members);
        let sub_links: Vec<Link> = members
            .iter()
            .enumerate()
            .map(|(local, &i)| {
                let mut l = links[i];
                l.id = local.into();
                l
            })
            .collect();
        let fresh = PathLossCache::new(&model, &sub_links, &power);
        let (fresh_powers, fresh_weights) = fresh.into_parts();
        assert_eq!(powers, fresh_powers);
        assert_eq!(weights, fresh_weights);
    }

    #[test]
    fn priced_terms_are_the_cache_terms() {
        // A record's pair term is the one a two-member subset sum adds, bit
        // for bit.
        let links = vec![
            line_link(0, 0.0, 1.0),
            line_link(1, 4.0, 5.5),
            line_link(2, 11.0, 9.0),
        ];
        for alpha in [3.0, 4.0, 2.5, 5.0] {
            let model = SinrModel::new(alpha, 1.0, 0.0).unwrap();
            let cache = PathLossCache::new(&model, &links, &PowerAssignment::mean());
            let priced = cache.priced();
            for (a, b) in [(0, 1), (1, 0), (0, 2), (2, 1)] {
                let sum = cache.subset_relative_interference_on(&[a, b], 1).unwrap();
                let term = priced[a].term_on(&priced[b], cache.alpha_pow());
                assert_eq!(term.to_bits(), sum.to_bits(), "α = {alpha}, {a} on {b}");
            }
        }
    }

    #[test]
    fn priced_terms_of_unpriceable_pairs() {
        let pow = AlphaPow::new(3.0);
        let at = |sx: f64, rx: f64| PricedLink {
            sender: Point::new(sx, 0.0),
            receiver: Point::new(rx, 0.0),
            power: Some(1.0),
            weight: Some(1.0),
        };
        let (a, b) = (at(0.0, 1.0), at(5.0, 6.0));
        assert!(a.term_on(&b, pow).is_finite());
        let no_power = PricedLink { power: None, ..a };
        let no_weight = PricedLink { weight: None, ..b };
        assert_eq!(no_power.term_on(&b, pow), f64::INFINITY);
        assert_eq!(a.term_on(&no_weight, pow), f64::INFINITY);
        // A sender on the target's receiver.
        assert_eq!(at(6.0, 7.0).term_on(&b, pow), f64::INFINITY);
        // A squared distance that overflows to ∞ prices as 0.
        let (far_left, far_right) = (at(-1e200, -1e200 + 1e190), at(1e200, 1e200 - 1e190));
        assert_eq!(far_left.term_on(&far_right, pow), 0.0);
        assert_eq!(far_right.term_on(&far_left, pow), 0.0);
    }

    /// The per-target loop's verdict on `members`: every target's sum
    /// from [`relative_interference_sum`] within `inv_beta`.
    fn per_target(cache: &PathLossCache<'_>, members: &[usize], inv_beta: f64) -> bool {
        (0..members.len()).all(|k| {
            cache
                .subset_relative_interference_on(members, k)
                .is_some_and(|total| total <= inv_beta)
        })
    }

    #[test]
    fn blocked_verdicts_match_the_per_target_loop() {
        use std::collections::HashMap;
        use wagg_geometry::rng::{seeded_rng, uniform_in};
        let mut rng = seeded_rng(11);
        let mut u = |lo: f64, hi: f64| uniform_in(&mut rng, lo, hi);
        let (mut feasible, mut rounds) = (0, 0);
        for round in 0..400 {
            let n = 1 + round % 23;
            let side = 20.0 * (n as f64).sqrt() * u(0.5, 4.0);
            let mut links: Vec<Link> = (0..n)
                .map(|i| {
                    let (x, y) = (u(0.0, side), u(0.0, side));
                    let len = u(0.5, 3.0);
                    Link::new(i, Point::new(x, y), Point::new(x + len, y))
                })
                .collect();
            // Hazards, each in some rounds: a sender on another's receiver,
            // a shared id, a zero-length link (no weight).
            if n > 2 && round % 3 == 0 {
                let (a, b) = (round % n, (round / 3) % n);
                if a != b {
                    let r = links[b].receiver;
                    links[a] = Link::new(a, r, Point::new(r.x + 1.0, r.y));
                }
            }
            if n > 2 && round % 5 == 0 {
                links[n - 1].id = links[0].id;
            }
            if n > 2 && round % 7 == 0 {
                let s = links[1].sender;
                links[1] = Link::new(1, s, s);
            }
            // Explicit powers; some rounds leave one out, or give one 0
            // (a power, but no weight).
            let mut table: HashMap<usize, f64> =
                links.iter().map(|l| (l.id.0, u(0.5, 2.0))).collect();
            if round % 4 == 1 {
                table.remove(&links[round % n].id.0);
            }
            if round % 9 == 2 {
                table.insert(links[(round / 9) % n].id.0, 0.0);
            }
            let beta = [1.0, 0.05, 1e-310][round % 3];
            let model = SinrModel::new(3.0, beta, 0.0).unwrap();
            let inv_beta = 1.0 / beta;
            let cache = PathLossCache::new(&model, &links, &PowerAssignment::explicit(table));
            let all: Vec<usize> = (0..n).collect();
            assert_eq!(cache.is_feasible(), per_target(&cache, &all, inv_beta));
            for _ in 0..4 {
                let mut members: Vec<usize> = (0..n).filter(|_| u(0.0, 1.0) < 0.6).collect();
                if u(0.0, 1.0) < 0.5 {
                    members.reverse();
                }
                let verdict = cache.subset_feasible(&members);
                assert_eq!(
                    verdict,
                    per_target(&cache, &members, inv_beta),
                    "round {round}, β = {beta}, members {members:?}"
                );
                feasible += usize::from(verdict);
                rounds += 1;
            }
        }
        // Both verdicts occur often.
        assert!(
            feasible > rounds / 5 && feasible < rounds * 4 / 5,
            "{feasible} of {rounds}"
        );
    }

    #[test]
    fn the_last_partial_block_of_targets_is_priced() {
        // Eight well-separated unit links pass; a ninth fails, as its
        // receiver sits on the first one's sender. It is the one target of
        // the whole set's last block, and the last of subsets of 6 to 9
        // members, whose last blocks hold 2, 3, 4 and 1 targets.
        let mut links: Vec<Link> = (0..8)
            .map(|i| line_link(i, 100.0 * i as f64, 100.0 * i as f64 + 1.0))
            .collect();
        links.push(Link::new(8, Point::new(0.0, 50.0), links[0].sender));
        let model = SinrModel::default();
        let cache = PathLossCache::new(&model, &links, &PowerAssignment::uniform(1.0));
        assert!(!cache.is_feasible());
        assert!(cache.subset_feasible(&[0, 1, 2, 3, 4, 5, 6, 7]));
        for m in 5..=8 {
            let mut members: Vec<usize> = (1..m).collect();
            members.push(8);
            members.insert(0, 0);
            assert!(!cache.subset_feasible(&members), "{members:?}");
        }
    }

    #[test]
    fn collocated_interferer_gives_infinite_sum() {
        let model = SinrModel::default();
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 1.0, 2.0)];
        let cache = PathLossCache::new(&model, &links, &PowerAssignment::uniform(1.0));
        assert_eq!(cache.relative_interference_on(0), Some(f64::INFINITY));
        assert!(!cache.is_feasible());
    }
}
