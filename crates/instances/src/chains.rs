//! Line instances: uniform, exponential and doubly-exponential chains.
//!
//! Chains on the real line are where the paper's lower bounds live:
//!
//! * the **exponential chain** (gaps growing by a constant factor) is the classic
//!   instance on which uniform power / the protocol model need `Θ(n)` slots, while
//!   power control schedules it in a near-constant number of slots — the separation
//!   motivating the whole paper (related work, \[21\]);
//! * the **doubly-exponential chain** of Fig. 2 (gaps `x^{(1/τ')^t}`) admits *no two*
//!   `P_τ`-compatible links, so every oblivious power scheme is stuck at rate
//!   `Θ(1/ log log Δ)` — Proposition 1.

use crate::Instance;
use std::error::Error;
use std::fmt;
use wagg_geometry::Point;

/// Error returned when a chain's coordinates would overflow the `f64` range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainOverflow {
    /// Number of points that could be represented before overflow.
    pub representable: usize,
    /// Number of points requested.
    pub requested: usize,
}

impl fmt::Display for ChainOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chain coordinates overflow f64 after {} of {} points",
            self.representable, self.requested
        )
    }
}

impl Error for ChainOverflow {}

/// A uniform chain: `n` equally spaced points on the line, sink at the left end.
///
/// # Panics
///
/// Panics if `n < 2` or `spacing <= 0`.
///
/// # Examples
///
/// ```
/// use wagg_instances::chains::uniform_chain;
///
/// let inst = uniform_chain(5, 2.0);
/// assert_eq!(inst.points.len(), 5);
/// assert_eq!(inst.length_diversity(), Some(4.0));
/// ```
pub fn uniform_chain(n: usize, spacing: f64) -> Instance {
    assert!(n >= 2, "need at least two nodes");
    assert!(spacing > 0.0, "spacing must be positive");
    let points = (0..n).map(|i| Point::on_line(i as f64 * spacing)).collect();
    Instance::new(format!("uniform-chain-n{n}"), points, 0)
}

/// An exponential chain: gaps `base^0, base^1, base^2, …` between consecutive points,
/// sink at the left end.
///
/// # Errors
///
/// Returns [`ChainOverflow`] if the coordinates exceed the `f64` range.
///
/// # Panics
///
/// Panics if `n < 2` or `base <= 1`.
///
/// # Examples
///
/// ```
/// use wagg_instances::chains::exponential_chain;
///
/// let inst = exponential_chain(5, 2.0).unwrap();
/// // Gaps 1, 2, 4, 8: positions 0, 1, 3, 7, 15.
/// assert_eq!(inst.points.last().unwrap().x, 15.0);
/// ```
pub fn exponential_chain(n: usize, base: f64) -> Result<Instance, ChainOverflow> {
    assert!(n >= 2, "need at least two nodes");
    assert!(base > 1.0, "base must exceed 1");
    let mut points = vec![Point::on_line(0.0)];
    let mut x = 0.0_f64;
    let mut gap = 1.0_f64;
    for i in 1..n {
        x += gap;
        if !x.is_finite() {
            return Err(ChainOverflow {
                representable: i,
                requested: n,
            });
        }
        points.push(Point::on_line(x));
        gap *= base;
    }
    Ok(Instance::new(format!("exponential-chain-n{n}"), points, 0))
}

/// The doubly-exponential chain of Fig. 2 for the oblivious scheme `P_τ`:
/// the gap between points `t` and `t + 1` is `x^{(1/τ')^t}` with
/// `τ' = min(τ, 1 − τ)`, where `x` is chosen per the paper as
/// `max(2, (2 / β^{1/α})^{1/τ'}) + margin`.
///
/// On this pointset no two links (over any tree) can share a `P_τ`-feasible slot, so
/// every aggregation schedule has rate `O(1/n) = O(1/ log log Δ)` — Proposition 1.
///
/// # Errors
///
/// Returns [`ChainOverflow`] if the coordinates exceed the `f64` range; because the
/// gaps grow doubly exponentially, only a couple of dozen points are representable.
///
/// # Panics
///
/// Panics if `n < 2` or `tau` is outside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use wagg_instances::chains::doubly_exponential_chain;
///
/// let inst = doubly_exponential_chain(6, 0.5, 3.0, 1.0).unwrap();
/// assert_eq!(inst.points.len(), 6);
/// // Length diversity is astronomically larger than the node count.
/// assert!(inst.length_diversity().unwrap() > 1e9);
/// ```
pub fn doubly_exponential_chain(
    n: usize,
    tau: f64,
    alpha: f64,
    beta: f64,
) -> Result<Instance, ChainOverflow> {
    assert!(n >= 2, "need at least two nodes");
    assert!(
        tau > 0.0 && tau < 1.0,
        "tau must lie strictly between 0 and 1"
    );
    let tau_prime = tau.min(1.0 - tau);
    let x = base_separation(tau_prime, alpha, beta);
    let mut points = vec![Point::on_line(0.0)];
    let mut pos = 0.0_f64;
    for t in 1..n {
        let exponent = (1.0 / tau_prime).powi(t as i32);
        let gap = x.powf(exponent);
        pos += gap;
        if !pos.is_finite() {
            return Err(ChainOverflow {
                representable: t,
                requested: n,
            });
        }
        points.push(Point::on_line(pos));
    }
    Ok(Instance::new(
        format!("doubly-exponential-n{n}-tau{tau}"),
        points,
        0,
    ))
}

/// The base separation `x` used by [`doubly_exponential_chain`]:
/// slightly above `max(2, (2/β^{1/α})^{1/τ'})`, as required by the paper's proof.
pub fn base_separation(tau_prime: f64, alpha: f64, beta: f64) -> f64 {
    let candidate = (2.0 / beta.powf(1.0 / alpha)).powf(1.0 / tau_prime);
    candidate.max(2.0) * 1.05
}

/// The largest number of points of the Fig. 2 chain representable in `f64` for the
/// given parameters. Useful for sweeps that want "as large as possible" instances.
///
/// # Examples
///
/// ```
/// use wagg_instances::chains::{doubly_exponential_chain, max_representable_points};
///
/// let n = max_representable_points(0.5, 3.0, 1.0);
/// assert!(n >= 4);
/// assert!(doubly_exponential_chain(n, 0.5, 3.0, 1.0).is_ok());
/// assert!(doubly_exponential_chain(n + 1, 0.5, 3.0, 1.0).is_err());
/// ```
pub fn max_representable_points(tau: f64, alpha: f64, beta: f64) -> usize {
    let mut n = 2;
    while doubly_exponential_chain(n + 1, tau, alpha, beta).is_ok() {
        n += 1;
        if n > 64 {
            break;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_chain_diversity_is_n_minus_one() {
        let inst = uniform_chain(10, 1.0);
        assert_eq!(inst.length_diversity(), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "spacing must be positive")]
    fn uniform_chain_rejects_bad_spacing() {
        let _ = uniform_chain(3, 0.0);
    }

    #[test]
    fn exponential_chain_positions() {
        let inst = exponential_chain(4, 3.0).unwrap();
        let xs: Vec<f64> = inst.points.iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![0.0, 1.0, 4.0, 13.0]);
    }

    #[test]
    fn exponential_chain_overflows_gracefully() {
        let err = exponential_chain(2000, 2.0).unwrap_err();
        assert!(err.representable < 2000);
        assert!(err.to_string().contains("overflow"));
    }

    #[test]
    fn doubly_exponential_gaps_grow_doubly_exponentially() {
        let inst = doubly_exponential_chain(5, 0.5, 3.0, 1.0).unwrap();
        let xs: Vec<f64> = inst.points.iter().map(|p| p.x).collect();
        let gaps: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
        // Each gap should be roughly the square of the previous one (1/tau' = 2),
        // far exceeding a constant-factor growth.
        for w in gaps.windows(2) {
            assert!(
                w[1] > w[0] * w[0] * 0.5,
                "gaps {w:?} do not grow fast enough"
            );
        }
    }

    #[test]
    fn doubly_exponential_respects_tau_symmetry() {
        // tau and 1 - tau give the same tau' and hence the same geometry.
        let a = doubly_exponential_chain(5, 0.3, 3.0, 1.0).unwrap();
        let b = doubly_exponential_chain(5, 0.7, 3.0, 1.0).unwrap();
        for (p, q) in a.points.iter().zip(b.points.iter()) {
            // Positions are astronomically large, so compare with relative tolerance
            // (1 - 0.7 is not exactly 0.3 in floating point).
            assert!((p.x - q.x).abs() <= 1e-9 * q.x.max(1.0));
        }
    }

    #[test]
    fn doubly_exponential_overflow_reported() {
        let err = doubly_exponential_chain(40, 0.5, 3.0, 1.0).unwrap_err();
        assert!(err.representable >= 4);
        assert!(err.representable < 40);
    }

    #[test]
    fn max_representable_is_consistent() {
        for tau in [0.3, 0.5] {
            let n = max_representable_points(tau, 3.0, 1.0);
            assert!(doubly_exponential_chain(n, tau, 3.0, 1.0).is_ok());
            assert!(doubly_exponential_chain(n + 1, tau, 3.0, 1.0).is_err());
        }
    }

    #[test]
    fn base_separation_is_at_least_two() {
        assert!(base_separation(0.5, 3.0, 1.0) >= 2.0);
        assert!(base_separation(0.1, 3.0, 8.0) >= 2.0);
    }

    #[test]
    fn chains_have_line_msts() {
        let inst = exponential_chain(8, 2.0).unwrap();
        let tree = inst.mst().unwrap();
        // MST of a line chain connects consecutive points: max edge = largest gap.
        assert!((tree.max_edge_length() - 64.0).abs() < 1e-9);
        assert_eq!(tree.edges().len(), 7);
    }
}
