//! The conflict relation family `G_f` of the paper's Appendix A.
//!
//! # Batched verdicts
//!
//! [`ConflictRelation::conflicting`] decides one pair at a time and stays
//! the reference. [`ConflictRelation::conflicting_batch`] decides one link
//! against the candidates queued in a reused [`Candidates`] scratch and
//! returns the same verdict on every pair, bit for bit. It copies the
//! candidates' endpoints and lengths into one record each and runs in two
//! passes. The first computes every candidate's `d / l_min` in one loop
//! without branches, which the compiler vectorises. The second applies the
//! id check and `f`. Three facts make its verdicts exact:
//!
//! * **One square root of the least square.** `segment_distance` takes the
//!   least of four rooted point-to-segment distances. The first pass takes
//!   one root of the least of the four squares. `sqrt` is correctly rounded
//!   and monotone, so the root of the least square is the least of the four
//!   roots. `f64::min` skips NaN in both forms, so a NaN square drops out
//!   exactly where its NaN root does. The crossing test and every clamped
//!   projection are the scalar expressions, combined with selects instead of
//!   branches; a point-to-segment distance to a segment of zero squared
//!   length projects onto its start, as the scalar early return does.
//! * **`d / l_min ≤ γ` decides a conflict without `f`.** For `x ≥ 1` the
//!   computed `f(x)` is never below `γ` in any of the three shapes: the
//!   constant is `γ`, `x^δ` rounds to at least 1 for `x ≥ 1` and `δ ≥ 0`
//!   (`powf` is faithful, and 1 is a float), and the log shape clamps its
//!   factor to at least 1. Multiplying `γ ≥ 0` by a factor of at least 1
//!   rounds to at least `γ`. So `d / l_min ≤ γ` already fails
//!   `d / l_min > f(l_max / l_min)`. A relation built from other parameters
//!   (the fields are public) takes no shortcut.
//! * **The vector lanes round as the scalar code does.** Rust never fuses a
//!   multiply and an add, and every lane evaluates the scalar expressions
//!   in the scalar order, so each lane's value is the scalar value.

use serde::{Deserialize, Serialize};
use std::fmt;
use wagg_sinr::Link;

/// Relative margin of [`ConflictRelation::margined_reach`], for relative
/// rounding (see the [`graph`](crate::graph) module docs).
const REACH_REL_MARGIN: f64 = 1e-9;

/// Absolute margin of [`ConflictRelation::margined_reach`] per unit of the
/// largest `|coordinate|`, for rounding at the coordinates' magnitude (see
/// the [`graph`](crate::graph) module docs).
const REACH_ABS_MARGIN: f64 = 1e-12;

/// A member of the conflict-relation family `G_f`.
///
/// Two links `i, j` with `l_min = min(l_i, l_j)`, `l_max = max(l_i, l_j)` and
/// link-to-link distance `d(i, j)` are **`f`-independent** iff
///
/// ```text
/// d(i, j) / l_min > f(l_max / l_min)
/// ```
///
/// and **conflicting** otherwise. The function `f` must be positive, non-decreasing
/// and sub-linear; the three shapes the paper uses are provided as variants.
///
/// # Examples
///
/// ```
/// use wagg_conflict::ConflictRelation;
///
/// let g1 = ConflictRelation::unit_constant();
/// assert_eq!(g1.f(100.0), 1.0);
/// let gobl = ConflictRelation::oblivious_default();
/// assert!(gobl.f(100.0) > g1.f(100.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConflictRelation {
    /// `f(x) ≡ gamma` — the graph `G_γ`. With `gamma = 1` this is the paper's `G1`.
    Constant {
        /// The constant `γ`.
        gamma: f64,
    },
    /// `f(x) = gamma · x^delta` — the graph `G^δ_γ` matched to oblivious power schemes.
    Polynomial {
        /// The multiplier `γ`.
        gamma: f64,
        /// The exponent `δ ∈ (0, 1)`.
        delta: f64,
    },
    /// `f(x) = gamma · max{1, log2(x)^(2/(alpha − 2))}` — the graph `G_{γ log}` matched
    /// to global power control.
    LogShaped {
        /// The multiplier `γ`.
        gamma: f64,
        /// The path-loss exponent `α` that fixes the power `2/(α − 2)` of the logarithm.
        alpha: f64,
    },
}

impl ConflictRelation {
    /// The paper's `G1`: constant relation with `γ = 1`.
    pub fn unit_constant() -> Self {
        ConflictRelation::Constant { gamma: 1.0 }
    }

    /// A constant relation `G_γ`.
    ///
    /// # Panics
    ///
    /// Panics unless `gamma > 0`.
    pub fn constant(gamma: f64) -> Self {
        assert!(gamma > 0.0, "gamma must be positive");
        ConflictRelation::Constant { gamma }
    }

    /// A polynomial relation `G^δ_γ`.
    ///
    /// # Panics
    ///
    /// Panics unless `gamma > 0` and `0 < delta < 1`.
    pub fn polynomial(gamma: f64, delta: f64) -> Self {
        assert!(gamma > 0.0, "gamma must be positive");
        assert!(
            delta > 0.0 && delta < 1.0,
            "delta must lie strictly between 0 and 1"
        );
        ConflictRelation::Polynomial { gamma, delta }
    }

    /// A log-shaped relation `G_{γ log}` for path-loss exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `gamma > 0` and `alpha > 2`.
    pub fn log_shaped(gamma: f64, alpha: f64) -> Self {
        assert!(gamma > 0.0, "gamma must be positive");
        assert!(alpha > 2.0, "alpha must exceed 2");
        ConflictRelation::LogShaped { gamma, alpha }
    }

    /// The default oblivious-power relation used by the experiments:
    /// `γ = 2`, `δ = 1/2` (matching the mean power scheme `P_{1/2}`).
    pub fn oblivious_default() -> Self {
        ConflictRelation::polynomial(2.0, 0.5)
    }

    /// The default global-power relation used by the experiments:
    /// `γ = 2`, `α = 3`.
    pub fn arbitrary_default() -> Self {
        ConflictRelation::log_shaped(2.0, 3.0)
    }

    /// Evaluates `f` at `x ≥ 1` (the length ratio `l_max / l_min`).
    pub fn f(&self, x: f64) -> f64 {
        let x = x.max(1.0);
        match *self {
            ConflictRelation::Constant { gamma } => gamma,
            ConflictRelation::Polynomial { gamma, delta } => gamma * x.powf(delta),
            ConflictRelation::LogShaped { gamma, alpha } => {
                let exponent = 2.0 / (alpha - 2.0);
                gamma * x.log2().powf(exponent).max(1.0)
            }
        }
    }

    /// Whether links `i` and `j` are independent under this relation.
    ///
    /// Links sharing an endpoint (distance zero) always conflict; a link is never in
    /// conflict with itself.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_sinr::Link;
    /// use wagg_conflict::ConflictRelation;
    ///
    /// let rel = ConflictRelation::unit_constant();
    /// let a = Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0));
    /// let b = Link::new(1, Point::new(3.0, 0.0), Point::new(4.0, 0.0));
    /// let c = Link::new(2, Point::new(1.5, 0.0), Point::new(2.5, 0.0));
    /// assert!(rel.independent(&a, &b)); // distance 2 > 1 · f(1) = 1
    /// assert!(!rel.independent(&a, &c)); // distance 0.5 <= 1
    /// ```
    pub fn independent(&self, i: &Link, j: &Link) -> bool {
        if i.id == j.id {
            return true;
        }
        let li = i.length();
        let lj = j.length();
        let l_min = li.min(lj);
        let l_max = li.max(lj);
        if l_min <= 0.0 {
            return false;
        }
        let d = i.distance_to(j);
        d / l_min > self.f(l_max / l_min)
    }

    /// Whether links `i` and `j` conflict (the negation of [`ConflictRelation::independent`]
    /// for distinct links).
    pub fn conflicting(&self, i: &Link, j: &Link) -> bool {
        i.id != j.id && !self.independent(i, j)
    }

    /// Upper bound on the link-to-link distance at which a link with length
    /// in `[lo_a, hi_a]` can conflict with one in `[lo_b, hi_b]`:
    /// `min(hi_a, hi_b) · f(max(hi_a, hi_b) / min(lo_a, lo_b))`. Sound
    /// because `f` is non-decreasing and a pair conflicts only within
    /// `min(l_i, l_j) · f(max(l_i, l_j) / min(l_i, l_j))`. The bounds must be
    /// positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_conflict::ConflictRelation;
    ///
    /// let rel = ConflictRelation::polynomial(2.0, 0.5);
    /// // A unit link against links of length 4..=4: 1 · 2 · √4.
    /// assert_eq!(rel.reach((1.0, 1.0), (4.0, 4.0)), 4.0);
    /// ```
    pub fn reach(&self, (lo_a, hi_a): (f64, f64), (lo_b, hi_b): (f64, f64)) -> f64 {
        debug_assert!(lo_a > 0.0 && lo_b > 0.0, "length bounds must be positive");
        hi_a.min(hi_b) * self.f(hi_a.max(hi_b) / lo_a.min(lo_b))
    }

    /// A value no computed `f(x)`, `x ≥ 1`, falls below: `γ` when the
    /// parameters make `f ≥ γ` (every relation the constructors build), and
    /// `-∞` otherwise (see the [module docs](self)).
    fn floor(&self) -> f64 {
        match *self {
            ConflictRelation::Constant { gamma } => gamma,
            ConflictRelation::Polynomial { gamma, delta } if gamma >= 0.0 && delta >= 0.0 => gamma,
            ConflictRelation::LogShaped { gamma, .. } if gamma >= 0.0 => gamma,
            _ => f64::NEG_INFINITY,
        }
    }

    /// Calls `conflict(j)` for every candidate `j` queued in `candidates`
    /// that conflicts with `link`, in queue order, where `link_of(j)` is
    /// candidate `j`'s link: the verdicts of
    /// [`ConflictRelation::conflicting`]`(link, link_of(j))`, bit for bit
    /// (see the [module docs](self)). A candidate with `link`'s id never
    /// conflicts. A lone candidate goes to `conflicting` itself, which is
    /// cheaper than a batch of one. The queue stays as it is until the next
    /// [`Candidates::start`].
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_sinr::Link;
    /// use wagg_conflict::{Candidates, ConflictRelation};
    ///
    /// let rel = ConflictRelation::unit_constant();
    /// let links = [
    ///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
    ///     Link::new(1, Point::new(3.0, 0.0), Point::new(4.0, 0.0)),
    ///     Link::new(2, Point::new(1.5, 0.0), Point::new(2.5, 0.0)),
    /// ];
    /// let mut candidates = Candidates::default();
    /// candidates.start(links.len());
    /// for j in 0..links.len() {
    ///     candidates.push(j);
    /// }
    /// let mut row = Vec::new();
    /// rel.conflicting_batch(&links[0], &mut candidates, |j| &links[j], |j| row.push(j));
    /// assert_eq!(row, [2]); // link 0 is itself, link 1 lies 2 away
    /// ```
    pub fn conflicting_batch<'a>(
        &self,
        link: &Link,
        candidates: &mut Candidates,
        link_of: impl Fn(usize) -> &'a Link,
        mut conflict: impl FnMut(usize),
    ) {
        if let [j] = candidates.index[..] {
            // One candidate has nothing to batch with.
            if self.conflicting(link, link_of(j as usize)) {
                conflict(j as usize);
            }
            return;
        }
        candidates.quotients(link, &link_of);
        let floor = self.floor();
        let li = link.length();
        let c = &*candidates;
        for (&j, &q) in c.index.iter().zip(&c.quotient) {
            let other = link_of(j as usize);
            if other.id == link.id {
                continue;
            }
            let lj = other.length();
            let l_min = li.min(lj);
            // `independent`'s test; NaN fails each comparison as it does there.
            let independent = l_min > 0.0 && q > floor && q > self.f(li.max(lj) / l_min);
            if !independent {
                conflict(j as usize);
            }
        }
    }

    /// [`ConflictRelation::reach`] widened by two rounding margins, for a
    /// pair of links whose coordinates are at most `max_coordinate` in
    /// absolute value: `1e-9` relative and `1e-12 · max_coordinate`
    /// absolute. A box-gap test `gap² ≤ reach²` against this reach keeps
    /// every conflicting pair despite floating-point rounding (the
    /// [`graph`](crate::graph) module docs give the argument).
    pub fn margined_reach(&self, a: (f64, f64), b: (f64, f64), max_coordinate: f64) -> f64 {
        self.reach(a, b) * (1.0 + REACH_REL_MARGIN) + REACH_ABS_MARGIN * max_coordinate
    }
}

/// The reused scratch of [`ConflictRelation::conflicting_batch`]: one query's
/// candidates, deduplicated by a stamp array, and the copies of their
/// geometry the batch computes on.
///
/// Candidates are named by caller indices (the static build's positions,
/// the engine's slots) below the `universe` of [`Candidates::start`]. A
/// candidate pushed twice in one query is queued once, at its first push, so
/// the callers need not sort and deduplicate the entries a cell grid visits
/// once per cell. The buffers and the stamp array only grow, so a caller
/// that keeps one scratch allocates nothing per query once they have grown.
#[derive(Debug, Clone, Default)]
pub struct Candidates {
    /// `stamp[j] == epoch`: index `j` was pushed or skipped this query.
    stamp: Vec<u32>,
    epoch: u32,
    /// The queued candidates' caller indices.
    index: Vec<u32>,
    /// Per queued candidate: its link's sender and receiver coordinates and
    /// length.
    geometry: Vec<[f64; 5]>,
    /// `d / l_min` against the query link, the first pass's output.
    quotient: Vec<f64>,
}

impl Candidates {
    /// Starts a query over caller indices `0..universe`: the queue empties
    /// and every index is unseen again.
    ///
    /// # Panics
    ///
    /// Panics when `universe` exceeds `2^32`.
    pub fn start(&mut self, universe: usize) {
        assert!(
            universe as u64 <= 1 << 32,
            "candidate indices must fit in 32 bits"
        );
        self.index.clear();
        if self.stamp.len() < universe {
            self.stamp.resize(universe, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks index `j` seen without queuing it, so later pushes of `j` in
    /// this query are dropped (the engine's own slot).
    pub fn skip(&mut self, j: usize) {
        self.stamp[j] = self.epoch;
    }

    /// Queues candidate `j` unless `j` was pushed or skipped earlier in this
    /// query.
    #[inline]
    pub fn push(&mut self, j: usize) {
        if self.stamp[j] == self.epoch {
            return;
        }
        self.stamp[j] = self.epoch;
        self.index.push(j as u32);
    }

    /// Number of candidates queued in this query.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no candidate is queued.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The first pass of [`ConflictRelation::conflicting_batch`]: copies the
    /// queued candidates' links (`link_of(j)`) into the geometry records,
    /// then computes every candidate's `d / l_min` against `link`.
    fn quotients<'a>(&mut self, link: &Link, link_of: &impl Fn(usize) -> &'a Link) {
        self.geometry.clear();
        self.geometry.extend(self.index.iter().map(|&j| {
            let l = link_of(j as usize);
            [
                l.sender.x,
                l.sender.y,
                l.receiver.x,
                l.receiver.y,
                l.length(),
            ]
        }));
        self.quotient.resize(self.index.len(), 0.0);
        quotients(link, &self.geometry, &mut self.quotient);
    }
}

/// Every candidate's `segment_distance(link, candidate) / l_min`, from the
/// candidates' `[sender x, sender y, receiver x, receiver y, length]`,
/// computed as the scalar code computes it up to the one square root (see
/// the [module docs](self)), in one loop without branches.
fn quotients(link: &Link, geometry: &[[f64; 5]], quotient: &mut [f64]) {
    let (p1, q1, li) = (link.sender, link.receiver, link.length());
    // `segments_intersect`'s box extents and orientation edge, and
    // `distance_to_segment`'s squared length and edge, of the query.
    let (max1x, min1x) = (p1.x.max(q1.x), p1.x.min(q1.x));
    let (max1y, min1y) = (p1.y.max(q1.y), p1.y.min(q1.y));
    let (e1x, e1y) = (q1.x - p1.x, q1.y - p1.y);
    let len1_sq = p1.distance_squared(q1);
    for (&[p2x, p2y, q2x, q2y, lj], quotient) in geometry.iter().zip(quotient) {
        let (max2x, min2x) = (p2x.max(q2x), p2x.min(q2x));
        let (max2y, min2y) = (p2y.max(q2y), p2y.min(q2y));
        let (e2x, e2y) = (q2x - p2x, q2y - p2y);
        // `segments_intersect(p1, q1, p2, q2)`.
        let apart = (max1x < min2x) | (max2x < min1x) | (max1y < min2y) | (max2y < min1y);
        let o1 = e1x * (p2y - p1.y) - e1y * (p2x - p1.x);
        let o2 = e1x * (q2y - p1.y) - e1y * (q2x - p1.x);
        let o3 = e2x * (p1.y - p2y) - e2y * (p1.x - p2x);
        let o4 = e2x * (q1.y - p2y) - e2y * (q1.x - p2x);
        let proper = ((o1 > 0.0) != (o2 > 0.0))
            & ((o3 > 0.0) != (o4 > 0.0))
            & (o1 != 0.0)
            & (o2 != 0.0)
            & (o3 != 0.0)
            & (o4 != 0.0);
        let in1 = |x: f64, y: f64| (x <= max1x) & (x >= min1x) & (y <= max1y) & (y >= min1y);
        let in2 = |x: f64, y: f64| (x <= max2x) & (x >= min2x) & (y <= max2y) & (y >= min2y);
        let collinear = ((o1 == 0.0) & in1(p2x, p2y))
            | ((o2 == 0.0) & in1(q2x, q2y))
            | ((o3 == 0.0) & in2(p1.x, p1.y))
            | ((o4 == 0.0) & in2(q1.x, q1.y));
        let crossing = !apart & (proper | collinear);
        // The four point-to-segment distances, squared.
        let len2_sq = {
            let (dx, dy) = (p2x - q2x, p2y - q2y);
            dx * dx + dy * dy
        };
        let d1 = segment_sq(p1.x, p1.y, p2x, p2y, e2x, e2y, len2_sq);
        let d2 = segment_sq(q1.x, q1.y, p2x, p2y, e2x, e2y, len2_sq);
        let d3 = segment_sq(p2x, p2y, p1.x, p1.y, e1x, e1y, len1_sq);
        let d4 = segment_sq(q2x, q2y, p1.x, p1.y, e1x, e1y, len1_sq);
        let least = d1.min(d2).min(d3).min(d4);
        let d_sq = if crossing { 0.0 } else { least };
        *quotient = d_sq.sqrt() / li.min(lj);
    }
}

/// `distance_to_segment`'s squared distance from `(px, py)` to the segment
/// from `(ax, ay)` along `(ex, ey)` of squared length `len_sq`: the point's
/// distance to its clamped projection, or to the start when `len_sq` is 0
/// (the projection is then the start, up to the sign of a zero).
#[inline(always)]
fn segment_sq(px: f64, py: f64, ax: f64, ay: f64, ex: f64, ey: f64, len_sq: f64) -> f64 {
    let t = (((px - ax) * ex + (py - ay) * ey) / len_sq).clamp(0.0, 1.0);
    let t = if len_sq == 0.0 { 0.0 } else { t };
    let (hx, hy) = (px - (ax + t * ex), py - (ay + t * ey));
    hx * hx + hy * hy
}

impl fmt::Display for ConflictRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConflictRelation::Constant { gamma } => write!(f, "G_{gamma}"),
            ConflictRelation::Polynomial { gamma, delta } => {
                write!(f, "G^{delta}_{gamma}")
            }
            ConflictRelation::LogShaped { gamma, alpha } => {
                write!(f, "G_{gamma}·log (alpha = {alpha})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::Point;

    fn line_link(id: usize, s: f64, r: f64) -> Link {
        Link::new(id, Point::on_line(s), Point::on_line(r))
    }

    #[test]
    fn constant_relation_thresholds_at_shorter_length() {
        let rel = ConflictRelation::unit_constant();
        let short = line_link(0, 0.0, 1.0);
        let long = line_link(1, 2.5, 6.5); // distance to short = 1.5 > min length 1
        assert!(rel.independent(&short, &long));
        let close_long = line_link(2, 1.5, 6.5); // distance 0.5 <= 1
        assert!(!rel.independent(&short, &close_long));
    }

    #[test]
    fn independence_is_symmetric() {
        let rels = [
            ConflictRelation::unit_constant(),
            ConflictRelation::oblivious_default(),
            ConflictRelation::arbitrary_default(),
        ];
        let a = line_link(0, 0.0, 2.0);
        let b = line_link(1, 5.0, 5.5);
        for rel in rels {
            assert_eq!(rel.independent(&a, &b), rel.independent(&b, &a));
        }
    }

    #[test]
    fn self_is_never_conflicting() {
        let rel = ConflictRelation::unit_constant();
        let a = line_link(0, 0.0, 1.0);
        assert!(rel.independent(&a, &a));
        assert!(!rel.conflicting(&a, &a));
    }

    #[test]
    fn shared_endpoint_always_conflicts() {
        for rel in [
            ConflictRelation::unit_constant(),
            ConflictRelation::oblivious_default(),
            ConflictRelation::arbitrary_default(),
        ] {
            let a = line_link(0, 0.0, 1.0);
            let b = line_link(1, 1.0, 50.0);
            assert!(
                rel.conflicting(&a, &b),
                "{rel} should mark them conflicting"
            );
        }
    }

    #[test]
    fn zero_length_link_conflicts_with_everything() {
        let rel = ConflictRelation::unit_constant();
        let degenerate = line_link(0, 5.0, 5.0);
        let normal = line_link(1, 0.0, 1.0);
        assert!(!rel.independent(&degenerate, &normal));
    }

    #[test]
    fn relation_ordering_constant_below_log_below_polynomial_for_large_ratios() {
        let g1 = ConflictRelation::unit_constant();
        let garb = ConflictRelation::arbitrary_default();
        let gobl = ConflictRelation::oblivious_default();
        let x = 1e6;
        assert!(g1.f(x) < garb.f(x));
        assert!(garb.f(x) < gobl.f(x));
    }

    #[test]
    fn larger_f_means_more_conflicts() {
        // A pair independent under G1 but conflicting under the oblivious relation.
        let short = line_link(0, 0.0, 1.0);
        let long = line_link(1, 3.0, 103.0); // ratio 100, distance 2
        assert!(ConflictRelation::unit_constant().independent(&short, &long));
        assert!(ConflictRelation::oblivious_default().conflicting(&short, &long));
    }

    #[test]
    fn log_shaped_f_values() {
        let rel = ConflictRelation::log_shaped(1.0, 4.0); // exponent 1
        assert_eq!(rel.f(1.0), 1.0);
        assert_eq!(rel.f(2.0), 1.0);
        assert_eq!(rel.f(16.0), 4.0);
    }

    #[test]
    fn polynomial_f_values() {
        let rel = ConflictRelation::polynomial(3.0, 0.5);
        assert_eq!(rel.f(4.0), 6.0);
        assert_eq!(rel.f(0.5), 3.0); // clamped at x = 1
    }

    #[test]
    #[should_panic(expected = "delta must lie strictly between 0 and 1")]
    fn polynomial_rejects_delta_one() {
        let _ = ConflictRelation::polynomial(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn constant_rejects_nonpositive_gamma() {
        let _ = ConflictRelation::constant(0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 2")]
    fn log_shaped_rejects_small_alpha() {
        let _ = ConflictRelation::log_shaped(1.0, 2.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(ConflictRelation::unit_constant().to_string(), "G_1");
        assert!(ConflictRelation::oblivious_default()
            .to_string()
            .contains("G^0.5"));
        assert!(ConflictRelation::arbitrary_default()
            .to_string()
            .contains("log"));
    }
}
