//! The conflict relation family `G_f` of the paper's Appendix A.

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
