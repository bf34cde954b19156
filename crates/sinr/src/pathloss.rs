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
//! * [`PricedLink`] — one link's endpoints, power and weight packed into 64
//!   bytes, for callers that keep per-link parts across link-set mutations
//!   and scan them pair by pair (the warm-repair admission probes).
//!
//! Every term has one formula, `P(j)·w(i) / (√d²)^α` with `d²` the squared
//! sender–receiver distance: the cache's sums, [`PricedLink::term_on`] and
//! the hierarchical verifier's exact scans all compute it this way, so
//! their sums agree bit for bit where they add the same terms in the same
//! order.
//!
//! Failure bookkeeping is per-link and lazy: a link with an unavailable power
//! or a degenerate length only poisons checks that actually evaluate a pair
//! involving it, which reproduces the seed's error-to-`false` semantics
//! exactly (including the "a singleton set is trivially feasible" corner).

use crate::link::Link;
use crate::model::SinrModel;
use crate::power::PowerAssignment;
use wagg_geometry::Point;

#[cfg(feature = "parallel")]
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

    /// Reassembles a cache from previously extracted per-link state
    /// (see [`PathLossCache::into_parts`]).
    ///
    /// This is how the incremental engine (`wagg-engine`) shares its
    /// event-patched per-link powers and weights with the scheduler's slot
    /// probes without recomputing them: the engine maintains the vectors
    /// across insert/remove/move events and lends them to a borrowed cache
    /// per scheduling run. The caller asserts that `powers[i]`/`weights[i]`
    /// are exactly what [`PathLossCache::new`] would compute for `links[i]`
    /// under `model` and the original power assignment.
    ///
    /// # Panics
    ///
    /// Panics when the vector lengths disagree with `links`.
    pub fn from_parts(
        model: &SinrModel,
        links: &'a [Link],
        powers: Vec<Option<f64>>,
        weights: Vec<Option<f64>>,
    ) -> Self {
        assert_eq!(powers.len(), links.len(), "one power per link");
        assert_eq!(weights.len(), links.len(), "one weight per link");
        PathLossCache {
            links,
            pow: AlphaPow::new(model.alpha()),
            inv_beta: 1.0 / model.beta(),
            powers,
            weights,
        }
    }

    /// Dismantles the cache into its per-link `(powers, weights)` vectors —
    /// the counterpart of [`PathLossCache::from_parts`] for callers that keep
    /// the state alive across link-set mutations.
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
    /// links, extracted instead of recomputed. Feed the result (together with
    /// the correspondingly relabeled links) to [`PathLossCache::from_parts`]
    /// to obtain a subset cache; the sharded scheduler uses this to hand each
    /// shard its slice of one globally built cache.
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
        let t = &self.links[target];
        let receiver = t.receiver;
        let target_id = t.id;
        let mut weight = f64::NAN;
        let mut weight_loaded = false;
        let mut total = 0.0;
        for (j, source) in self.links.iter().enumerate() {
            if source.id == target_id {
                continue;
            }
            if !weight_loaded {
                weight = self.weights[target]?;
                weight_loaded = true;
            }
            let Some(term) = pair_term(self.pow, source.sender, receiver, self.powers[j]?, weight)
            else {
                return Some(f64::INFINITY);
            };
            total += term;
        }
        Some(total)
    }

    /// Whether the target at position `target` meets the affectance threshold
    /// `I_P(S \ {i}, i) ≤ 1/β`. Unavailable quantities make the target fail,
    /// matching the seed's error-means-infeasible convention.
    #[inline]
    pub fn target_feasible(&self, target: usize) -> bool {
        match self.relative_interference_on(target) {
            Some(total) => total <= self.inv_beta,
            None => false,
        }
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
        relative_interference_sum(
            self.pow,
            members,
            target,
            self.weights[members[target]],
            |j| &self.links[j],
            |j| self.powers[j],
        )
    }

    /// Noise-free feasibility of the subset `members` (positions into the
    /// cached link set) by relative interference — the subset counterpart of
    /// [`PathLossCache::is_feasible`], with the same verdict a fresh
    /// subset-only cache would give.
    pub fn subset_feasible(&self, members: &[usize]) -> bool {
        let check = |k: usize| match self.subset_relative_interference_on(members, k) {
            Some(total) => total <= self.inv_beta,
            None => false,
        };
        #[cfg(feature = "parallel")]
        {
            (0..members.len()).into_par_iter().all(check)
        }
        #[cfg(not(feature = "parallel"))]
        {
            (0..members.len()).all(check)
        }
    }

    /// First-fit packing of `order` (positions into the cached link set):
    /// each link joins the first sub-slot that stays feasible by
    /// [`PathLossCache::subset_feasible`] with it appended, or opens a new
    /// one. Returns the sub-slots, members in join order.
    ///
    /// The sub-slots are exactly those of probing
    /// `subset_feasible(slot ++ [idx])` afresh for every candidate, at
    /// O(|slot|) per probe instead of O(|slot|²). Each sub-slot keeps every
    /// member's interference sum, accumulated in slot order; a probe adds the
    /// newcomer's term to each member's sum and sums the newcomer's own
    /// interference over the members in slot order. Those are the fresh
    /// probe's terms in the fresh probe's order, with the newcomer last, so
    /// every sum and verdict is bit-identical. The edge cases carry over: an
    /// interferer with the target's id is skipped, and a missing power or
    /// weight or a collocated sender (an `∞` sum) rejects the newcomer. Only
    /// a threshold `1/β` that overflows to `∞` admits an `∞` sum, which ends
    /// the fresh sum early, so such a model probes afresh.
    pub fn first_fit(&self, order: &[usize]) -> Vec<Vec<usize>> {
        let mut slots: Vec<Vec<usize>> = Vec::new();
        if !self.inv_beta.is_finite() {
            let mut candidate = Vec::new();
            for &idx in order {
                let fit = slots.iter().position(|slot| {
                    candidate.clear();
                    candidate.extend_from_slice(slot);
                    candidate.push(idx);
                    self.subset_feasible(&candidate)
                });
                match fit {
                    Some(s) => slots[s].push(idx),
                    None => slots.push(vec![idx]),
                }
            }
            return slots;
        }
        let mut sums: Vec<Vec<f64>> = Vec::new();
        let mut next = Vec::new();
        for &idx in order {
            match (0..slots.len()).find(|&s| self.admits(&slots[s], &sums[s], idx, &mut next)) {
                Some(s) => {
                    slots[s].push(idx);
                    std::mem::swap(&mut sums[s], &mut next);
                }
                None => {
                    slots.push(vec![idx]);
                    sums.push(vec![0.0]);
                }
            }
        }
        slots
    }

    /// Whether `idx` joins the sub-slot `members`, whose members' running
    /// sums are `sums`, under a finite threshold; on success `next` holds
    /// the grown sub-slot's sums (the members' in order, then `idx`'s).
    fn admits(&self, members: &[usize], sums: &[f64], idx: usize, next: &mut Vec<f64>) -> bool {
        let link = &self.links[idx];
        next.clear();
        let mut own = 0.0;
        for (&m, &sum) in members.iter().zip(sums) {
            let member = &self.links[m];
            if member.id == link.id {
                next.push(sum);
                continue;
            }
            let Some(inward) = self.finite_term(idx, m) else {
                return false;
            };
            let sum = sum + inward;
            if sum <= self.inv_beta {
                next.push(sum);
            } else {
                return false;
            }
            let Some(outward) = self.finite_term(m, idx) else {
                return false;
            };
            own += outward;
        }
        next.push(own);
        own <= self.inv_beta
    }

    /// `source`'s term in the relative-interference sum on `target`, or
    /// `None` where the fresh sum ends in `None` or `∞` (a missing power or
    /// weight, a collocated sender) — either fails a finite threshold.
    #[inline]
    fn finite_term(&self, source: usize, target: usize) -> Option<f64> {
        pair_term(
            self.pow,
            self.links[source].sender,
            self.links[target].receiver,
            self.powers[source]?,
            self.weights[target]?,
        )
    }

    /// Noise-free feasibility of the whole set by relative interference:
    /// every link's affectance sum must stay within `1/β`.
    ///
    /// With the `parallel` feature (default) the per-target checks run across
    /// threads and short-circuit cooperatively on the first infeasible target;
    /// each target's sum is still accumulated serially in set order, so the
    /// verdict is identical to the serial build.
    pub fn is_feasible(&self) -> bool {
        #[cfg(feature = "parallel")]
        {
            (0..self.links.len())
                .into_par_iter()
                .all(|i| self.target_feasible(i))
        }
        #[cfg(not(feature = "parallel"))]
        {
            (0..self.links.len()).all(|i| self.target_feasible(i))
        }
    }
}

/// The one affectance-sum inner loop, shared by every subset-indexed consumer
/// (this cache's [`PathLossCache::subset_relative_interference_on`] and the
/// slot-table views of `wagg-engine`, which store links non-contiguously and
/// so cannot borrow a `PathLossCache` directly).
///
/// `members` are the caller's indices, `target` a position **within**
/// `members`, and `link_of`/`power_of` the caller's per-index lookups;
/// `target_weight` is the target's cached `l_i^α / P(i)`, consulted lazily —
/// exactly like [`PathLossCache::relative_interference_on`], an unavailable
/// weight only surfaces (`None`) once a non-self source is actually summed,
/// which preserves the "a singleton set is trivially feasible" corner.
/// Terms are added in `members` order; `Some(INFINITY)` reports a collocated
/// interferer.
pub fn relative_interference_sum<'a, L, P>(
    pow: AlphaPow,
    members: &[usize],
    target: usize,
    target_weight: Option<f64>,
    link_of: L,
    power_of: P,
) -> Option<f64>
where
    L: Fn(usize) -> &'a Link,
    P: Fn(usize) -> Option<f64>,
{
    let t = link_of(members[target]);
    let receiver = t.receiver;
    let target_id = t.id;
    let mut weight = f64::NAN;
    let mut weight_loaded = false;
    let mut total = 0.0;
    for &j in members {
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
/// `None` where [`PathLossCache::new`] records the part as missing. The
/// record is exactly 64 bytes and aligned to 64, so a scan over a slot's
/// members reads one cache line per member instead of a link and two part
/// arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(64))]
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
    fn parts_roundtrip_preserves_the_cache() {
        let model = SinrModel::default();
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 5.0, 7.0)];
        let power = PowerAssignment::mean();
        let fresh = PathLossCache::new(&model, &links, &power);
        let expect: Vec<Option<f64>> = (0..links.len())
            .map(|i| fresh.relative_interference_on(i))
            .collect();
        let (powers, weights) = fresh.into_parts();
        let rebuilt = PathLossCache::from_parts(&model, &links, powers, weights);
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(rebuilt.relative_interference_on(i), *want);
        }
        assert!(rebuilt.is_feasible());
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

    /// First fit with every candidate checked afresh by `subset_feasible`.
    fn fresh_first_fit(cache: &PathLossCache<'_>, order: &[usize]) -> Vec<Vec<usize>> {
        let mut slots: Vec<Vec<usize>> = Vec::new();
        for &idx in order {
            let fit = slots.iter().position(|slot| {
                let mut candidate = slot.clone();
                candidate.push(idx);
                cache.subset_feasible(&candidate)
            });
            match fit {
                Some(s) => slots[s].push(idx),
                None => slots.push(vec![idx]),
            }
        }
        slots
    }

    #[test]
    fn first_fit_running_sums_are_bit_identical_at_the_threshold() {
        // Put 1/β exactly on (and one ulp below) every sum a first fit over
        // ascending positions can evaluate: a running sum that drifts by
        // one ulp from the fresh probe's flips a verdict here.
        let links = vec![
            line_link(0, 0.0, 1.0),
            line_link(1, 3.0, 4.5),
            line_link(2, 9.0, 7.0),
            line_link(3, 12.0, 12.7),
            line_link(4, 20.0, 17.5),
            line_link(5, 26.0, 27.0),
        ];
        let power = PowerAssignment::mean();
        let base = PathLossCache::new(&SinrModel::default(), &links, &power);
        let order: Vec<usize> = (0..links.len()).collect();
        let mut sums = Vec::new();
        for mask in 1u32..(1 << links.len()) {
            let members: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&i| mask & (1 << i) != 0)
                .collect();
            for k in 0..members.len() {
                sums.extend(base.subset_relative_interference_on(&members, k));
            }
        }
        let mut exact = 0;
        for threshold in sums.into_iter().flat_map(|s| [s, s.next_down()]) {
            // A β whose reciprocal is exactly the threshold, if one exists.
            let mut beta = 1.0 / threshold;
            for _ in 0..4 {
                let inv = 1.0 / beta;
                if inv == threshold {
                    break;
                }
                beta = if inv < threshold {
                    beta.next_down()
                } else {
                    beta.next_up()
                };
            }
            if !(threshold > 0.0 && 1.0 / beta == threshold) {
                continue;
            }
            exact += 1;
            let model = SinrModel::new(3.0, beta, 0.0).unwrap();
            let cache = PathLossCache::new(&model, &links, &power);
            assert_eq!(
                cache.first_fit(&order),
                fresh_first_fit(&cache, &order),
                "1/β = {threshold:e}"
            );
        }
        assert!(exact > 100, "only {exact} thresholds placed exactly");
    }

    #[test]
    fn priced_terms_are_the_cache_terms() {
        // A packed record is one cache line, and its pair term is the one a
        // two-member subset sum adds, bit for bit.
        assert_eq!(std::mem::size_of::<PricedLink>(), 64);
        assert_eq!(std::mem::align_of::<PricedLink>(), 64);
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

    #[test]
    fn collocated_interferer_gives_infinite_sum() {
        let model = SinrModel::default();
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 1.0, 2.0)];
        let cache = PathLossCache::new(&model, &links, &PowerAssignment::uniform(1.0));
        assert_eq!(cache.relative_interference_on(0), Some(f64::INFINITY));
        assert!(!cache.is_feasible());
    }
}
