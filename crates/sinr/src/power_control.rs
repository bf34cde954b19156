//! Global (arbitrary) power control.
//!
//! A set of links is *feasible* (without qualification) when **some** power
//! assignment makes it SINR-feasible. Classical results from power control
//! characterise this exactly: write the normalised cross-gain matrix
//!
//! ```text
//! B[i][j] = β · l_i^α / d_ji^α   (j ≠ i),    B[i][i] = 0,
//! ```
//!
//! then a positive power vector with `P ≥ B·P + b` (where `b_i = β·N·l_i^α`)
//! exists iff the spectral radius `ρ(B)` is below one (at most one in the
//! noise-free case). When it exists, the component-wise minimal power vector is
//! the fixed point of the Foschini–Miljanic iteration `P ← B·P + b`.
//!
//! These routines are what lets the scheduler evaluate the paper's *global power
//! control* mode: a slot (set of links) is accepted iff it is feasible under some
//! power assignment, and the witness powers are returned as an explicit
//! [`PowerAssignment`].

use std::convert::Infallible;
use std::ops::ControlFlow;

use crate::link::Link;
use crate::model::SinrModel;
use crate::pathloss::AlphaPow;
use crate::power::PowerAssignment;
use crate::SinrError;

use rayon::prelude::*;

/// Maximum number of iterations used by the spectral-radius and power iterations.
const MAX_ITERATIONS: usize = 500;

/// Convergence tolerance for the iterative routines.
const TOLERANCE: f64 = 1e-10;

/// How far the Collatz–Wielandt bracket must clear the feasibility threshold
/// before [`is_feasible_with_power_control`] stops iterating: about 10⁹
/// times the rounding drift of the bracket's row sums.
const BRACKET_MARGIN: f64 = 1e-6;

/// The normalised cross-gain matrix `B` of a link set under the given model.
///
/// `B[i][j] = β · l_i^α / d_ji^α` for `j ≠ i` and `0` on the diagonal, where
/// `d_ji` is the distance from the sender of link `j` to the receiver of link `i`.
/// Row/column order follows the order of `links`.
///
/// # Errors
///
/// Returns [`SinrError::DegenerateLink`] for zero-length links and
/// [`SinrError::CollocatedNodes`] when a sender coincides with another link's
/// receiver (infinite gain).
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::{power_control::gain_matrix, Link, SinrModel};
///
/// let links = vec![
///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
///     Link::new(1, Point::new(10.0, 0.0), Point::new(11.0, 0.0)),
/// ];
/// let b = gain_matrix(&SinrModel::default(), &links).unwrap();
/// assert_eq!(b.len(), 2);
/// assert_eq!(b[0][0], 0.0);
/// assert!(b[0][1] > 0.0);
/// ```
pub fn gain_matrix(model: &SinrModel, links: &[Link]) -> Result<Vec<Vec<f64>>, SinrError> {
    let pow = AlphaPow::new(model.alpha());
    let beta = model.beta();
    // Rows are independent, so they are computed across threads under the
    // `parallel` feature; the vendored shims/rayon engine collects rows in
    // input order, which also preserves which error surfaces first on
    // degenerate inputs (crates.io rayon would return *an* error, not
    // necessarily the first).
    let row = |(i, target): (usize, &Link)| -> Result<Vec<f64>, SinrError> {
        let len = target.length();
        if len <= 0.0 {
            return Err(SinrError::DegenerateLink {
                link: target.id.index(),
            });
        }
        let len_alpha = pow.pow(len);
        let mut row = vec![0.0; links.len()];
        for (j, source) in links.iter().enumerate() {
            if i == j {
                continue;
            }
            let d = source.sender_to_receiver_distance(target);
            if d <= 0.0 {
                return Err(SinrError::CollocatedNodes {
                    first: source.id.index(),
                    second: target.id.index(),
                });
            }
            row[j] = beta * len_alpha / pow.pow(d);
        }
        Ok(row)
    };
    links.par_iter().enumerate().map(row).collect()
}

/// Spectral radius of a non-negative square matrix, estimated by power iteration.
///
/// The matrices arising from link sets are non-negative, so the Perron–Frobenius
/// eigenvalue equals the spectral radius and power iteration converges to it.
/// The iteration is the one [`is_feasible_with_power_control`] shares; here it
/// always runs to convergence (relative change at most `1e-10`) or its cap of
/// 500 iterations.
///
/// # Panics
///
/// Panics if the matrix is not square.
///
/// # Examples
///
/// ```
/// use wagg_sinr::power_control::spectral_radius;
///
/// let m = vec![vec![0.0, 0.5], vec![0.5, 0.0]];
/// assert!((spectral_radius(&m) - 0.5).abs() < 1e-6);
/// ```
pub fn spectral_radius(matrix: &[Vec<f64>]) -> f64 {
    let n = matrix.len();
    if n == 0 {
        return 0.0;
    }
    for row in matrix {
        assert_eq!(row.len(), n, "matrix must be square");
    }
    let ControlFlow::Continue(rho) = power_iteration(matrix, |_, _| None::<Infallible>);
    rho
}

/// The power iteration behind [`spectral_radius`]: iterates `v ← (I + B)v`
/// from the all-ones vector, normalised to max-norm 1, and returns the
/// estimate `max(‖(I + B)v‖∞ − 1, 0)` of `ρ(B)` once two successive norms
/// agree to `TOLERANCE` (or after `MAX_ITERATIONS`). The shift keeps the
/// iteration aperiodic (plain iteration on e.g. a bipartite zero-diagonal
/// matrix oscillates and never converges), and `ρ(I + B) = 1 + ρ(B)` for
/// non-negative `B`; the all-ones start has a non-zero component along the
/// Perron vector.
///
/// After every matvec, `decide` sees the iterate's Collatz–Wielandt bracket
/// `(lo, hi)` with `lo ≤ 1 + ρ(B) ≤ hi` (see [`bracket`]) while it is
/// readable; a `Some` verdict ends the iteration as `Break`.
fn power_iteration<T>(
    matrix: &[Vec<f64>],
    mut decide: impl FnMut(f64, f64) -> Option<T>,
) -> ControlFlow<T, f64> {
    let n = matrix.len();
    let mut v = vec![1.0_f64; n];
    let mut next = vec![0.0_f64; n];
    let mut estimate = 0.0_f64;
    for _ in 0..MAX_ITERATIONS {
        multiply(matrix, &v, true, &mut next);
        if let Some(verdict) = bracket(&next, &v).and_then(|(lo, hi)| decide(lo, hi)) {
            return ControlFlow::Break(verdict);
        }
        let norm = next.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
        if norm == 0.0 {
            return ControlFlow::Continue(0.0);
        }
        for x in &mut next {
            *x /= norm;
        }
        if (norm - estimate).abs() <= TOLERANCE * norm.max(1.0) {
            return ControlFlow::Continue((norm - 1.0).max(0.0));
        }
        estimate = norm;
        std::mem::swap(&mut v, &mut next);
    }
    ControlFlow::Continue((estimate - 1.0).max(0.0))
}

/// The Collatz–Wielandt bracket of a positive iterate `v` and its image
/// `image = Av`: `min_k image_k / v_k ≤ ρ(A) ≤ max_k image_k / v_k` for any
/// non-negative `A` (C. D. Meyer, *Matrix Analysis and Applied Linear
/// Algebra*, SIAM 2000, §8.3). `None` unless every `v_k` is a positive
/// normal number (so each ratio keeps full relative precision) and every
/// ratio is finite — a NaN ratio must not vanish into `f64::min`/`max`.
fn bracket(image: &[f64], v: &[f64]) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = 0.0_f64;
    for (&y, &x) in image.iter().zip(v) {
        let ratio = y / x;
        if !(x >= f64::MIN_POSITIVE && ratio.is_finite()) {
            return None;
        }
        lo = lo.min(ratio);
        hi = hi.max(ratio);
    }
    Some((lo, hi))
}

/// The one matvec of this module: `out[i] = s_i + Σ_j matrix[i][j]·x[j]`
/// with `s_i = x[i]` when `shift` (the `(I + B)x` of the power iteration)
/// and `0` otherwise. Each row is a single running sum that starts at `s_i`
/// and adds its terms in `j` order, so every entry is bit-identical to the
/// plain row loop; rows are taken four at a time so their four sums run as
/// independent add chains. Allocates nothing.
fn multiply(matrix: &[Vec<f64>], x: &[f64], shift: bool, out: &mut [f64]) {
    let n = x.len();
    let seed = |i: usize| if shift { x[i] } else { 0.0 };
    let mut blocks = matrix.chunks_exact(4);
    let mut i = 0;
    for rows in &mut blocks {
        let (r0, r1, r2, r3) = (&rows[0][..n], &rows[1][..n], &rows[2][..n], &rows[3][..n]);
        let (mut a0, mut a1, mut a2, mut a3) = (seed(i), seed(i + 1), seed(i + 2), seed(i + 3));
        for j in 0..n {
            let xj = x[j];
            a0 += r0[j] * xj;
            a1 += r1[j] * xj;
            a2 += r2[j] * xj;
            a3 += r3[j] * xj;
        }
        out[i..i + 4].copy_from_slice(&[a0, a1, a2, a3]);
        i += 4;
    }
    for row in blocks.remainder() {
        let mut acc = seed(i);
        for (&b, &xj) in row.iter().zip(x) {
            acc += b * xj;
        }
        out[i] = acc;
        i += 1;
    }
}

/// Whether the link set is feasible under **some** power assignment
/// (the paper's unqualified "feasible").
///
/// Uses the spectral-radius criterion: feasible iff `ρ(B) < 1`, or `ρ(B) ≤ 1` in
/// the noise-free case (where scaling powers up can absorb any slack), with
/// `ρ(B)` estimated as [`spectral_radius`]`(&`[`gain_matrix`]`(..))` and the
/// thresholds `1 − 1e-12` (noisy) and `1 + 1e-9` (noise-free).
/// Degenerate inputs (shared endpoints, zero-length links) are infeasible.
///
/// The power iteration stops as soon as its current iterate `v > 0` decides
/// the threshold. Its Collatz–Wielandt bracket
/// `lo = min_k ((I + B)v)_k / v_k ≤ 1 + ρ(B) ≤ max_k ((I + B)v)_k / v_k = hi`
/// returns feasible once `hi − 1` is more than `1e-6` below the threshold
/// and infeasible once `lo − 1` is more than `1e-6` above it. For
/// non-negative `B` the bracket only narrows as the iteration runs, and every
/// later iterate's norm — the estimate [`spectral_radius`] compares — lies
/// inside it, so the verdict equals the full iteration's; the `1e-6` margin
/// is about 10⁹ times the rounding drift of the bracket's row sums. An
/// undecided or unreadable bracket (a zero, subnormal or NaN iterate
/// component) leaves the full iteration's decision on its estimate.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::{power_control::is_feasible_with_power_control, Link, SinrModel};
///
/// let model = SinrModel::default();
/// // A short and a long link that uniform power cannot schedule together,
/// // but appropriate power control can.
/// let links = vec![
///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
///     Link::new(1, Point::new(6.0, 0.0), Point::new(18.0, 0.0)),
/// ];
/// assert!(is_feasible_with_power_control(&model, &links));
/// ```
pub fn is_feasible_with_power_control(model: &SinrModel, links: &[Link]) -> bool {
    if links.len() <= 1 {
        return links.first().map(|l| l.length() > 0.0).unwrap_or(true);
    }
    let matrix = match gain_matrix(model, links) {
        Ok(m) => m,
        Err(_) => return false,
    };
    let noisy = model.noise() > 0.0;
    let limit = if noisy { 1.0 - 1e-12 } else { 1.0 + 1e-9 };
    let verdict = power_iteration(&matrix, |lo, hi| {
        if hi - 1.0 < limit - BRACKET_MARGIN {
            Some(true)
        } else if lo - 1.0 > limit + BRACKET_MARGIN {
            Some(false)
        } else {
            None
        }
    });
    match verdict {
        ControlFlow::Break(feasible) => feasible,
        ControlFlow::Continue(rho) if noisy => rho < limit,
        ControlFlow::Continue(rho) => rho <= limit,
    }
}

/// Computes a feasible power vector for the link set by Foschini–Miljanic iteration,
/// if one exists.
///
/// The iteration is `P ← B·P + b` with `b_i = β·N·l_i^α` (noise-free instances use
/// `b_i = l_i^α`, which yields a strictly feasible witness with the natural scale of
/// a linear power scheme). The fixed point, when the iteration converges, is the
/// component-wise minimal power vector satisfying every SINR constraint with the
/// given base demand.
///
/// # Errors
///
/// * [`SinrError::PowerIterationDiverged`] if the set is not feasible under any
///   power assignment (spectral radius at least one),
/// * gain-matrix errors for degenerate inputs.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::{power_control::optimal_powers, Link, PowerAssignment, SinrModel};
///
/// let model = SinrModel::default();
/// let links = vec![
///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
///     Link::new(1, Point::new(6.0, 0.0), Point::new(18.0, 0.0)),
/// ];
/// let powers = optimal_powers(&model, &links).unwrap();
/// let assignment = PowerAssignment::explicit_for_links(&links, &powers);
/// assert!(model.is_feasible(&links, &assignment));
/// ```
pub fn optimal_powers(model: &SinrModel, links: &[Link]) -> Result<Vec<f64>, SinrError> {
    let n = links.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let matrix = gain_matrix(model, links)?;
    let pow = AlphaPow::new(model.alpha());
    let beta = model.beta();
    let base: Vec<f64> = links
        .iter()
        .map(|l| {
            let len_alpha = pow.pow(l.length());
            let demand = beta * model.noise() * len_alpha;
            if demand > 0.0 {
                demand
            } else {
                len_alpha
            }
        })
        .collect();

    let mut powers = base.clone();
    let mut next = vec![0.0_f64; n];
    for _ in 0..MAX_ITERATIONS {
        multiply(&matrix, &powers, false, &mut next);
        for (p, &b) in next.iter_mut().zip(&base) {
            *p += b;
        }
        let max_rel_change = powers
            .iter()
            .zip(next.iter())
            .map(|(&old, &new)| ((new - old) / new.max(f64::MIN_POSITIVE)).abs())
            .fold(0.0_f64, f64::max);
        let diverged = next.iter().any(|&p| !p.is_finite() || p > 1e200);
        std::mem::swap(&mut powers, &mut next);
        if diverged {
            return Err(SinrError::PowerIterationDiverged {
                iterations: MAX_ITERATIONS,
            });
        }
        if max_rel_change <= TOLERANCE {
            return Ok(powers);
        }
    }
    // Not converged within budget: decide by the spectral radius whether this is
    // genuine infeasibility or merely slow convergence.
    if spectral_radius(&matrix) < 1.0 - 1e-9 {
        Ok(powers)
    } else {
        Err(SinrError::PowerIterationDiverged {
            iterations: MAX_ITERATIONS,
        })
    }
}

/// Convenience wrapper producing an explicit [`PowerAssignment`] witnessing
/// feasibility of the set, if one exists.
///
/// # Errors
///
/// Same as [`optimal_powers`].
pub fn feasible_assignment(
    model: &SinrModel,
    links: &[Link],
) -> Result<PowerAssignment, SinrError> {
    let powers = optimal_powers(model, links)?;
    Ok(PowerAssignment::explicit_for_links(links, &powers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::rng::{seeded_rng, uniform_in};
    use wagg_geometry::Point;

    fn line_link(id: usize, s: f64, r: f64) -> Link {
        Link::new(id, Point::on_line(s), Point::on_line(r))
    }

    /// The plain power iteration the shared loop must reproduce bit for
    /// bit: a fresh `next` per step and one add chain per row.
    fn reference_spectral_radius(matrix: &[Vec<f64>]) -> f64 {
        let n = matrix.len();
        if n == 0 {
            return 0.0;
        }
        let mut v = vec![1.0_f64; n];
        let mut estimate = 0.0_f64;
        for _ in 0..MAX_ITERATIONS {
            let mut next: Vec<f64> = matrix
                .iter()
                .zip(&v)
                .map(|(row, &vi)| row.iter().zip(&v).fold(vi, |acc, (&b, &x)| acc + b * x))
                .collect();
            let norm = next.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
            if norm == 0.0 {
                return 0.0;
            }
            for x in &mut next {
                *x /= norm;
            }
            if (norm - estimate).abs() <= TOLERANCE * norm.max(1.0) {
                return (norm - 1.0).max(0.0);
            }
            estimate = norm;
            v = next;
        }
        (estimate - 1.0).max(0.0)
    }

    /// The plain Foschini–Miljanic loop `optimal_powers` must reproduce bit
    /// for bit: `next_i = base_i + Σ_j B[i][j]·P_j`, the sum from `0`.
    fn reference_optimal_powers(model: &SinrModel, links: &[Link]) -> Result<Vec<f64>, SinrError> {
        if links.is_empty() {
            return Ok(Vec::new());
        }
        let matrix = gain_matrix(model, links)?;
        let pow = AlphaPow::new(model.alpha());
        let base: Vec<f64> = links
            .iter()
            .map(|l| {
                let len_alpha = pow.pow(l.length());
                let demand = model.beta() * model.noise() * len_alpha;
                if demand > 0.0 {
                    demand
                } else {
                    len_alpha
                }
            })
            .collect();
        let mut powers = base.clone();
        for _ in 0..MAX_ITERATIONS {
            let next: Vec<f64> = matrix
                .iter()
                .zip(&base)
                .map(|(row, &b)| {
                    b + row
                        .iter()
                        .zip(&powers)
                        .fold(0.0, |acc, (&m, &p)| acc + m * p)
                })
                .collect();
            let max_rel_change = powers
                .iter()
                .zip(next.iter())
                .map(|(&old, &new)| ((new - old) / new.max(f64::MIN_POSITIVE)).abs())
                .fold(0.0_f64, f64::max);
            let diverged = next.iter().any(|&p| !p.is_finite() || p > 1e200);
            powers = next;
            if diverged {
                return Err(SinrError::PowerIterationDiverged {
                    iterations: MAX_ITERATIONS,
                });
            }
            if max_rel_change <= TOLERANCE {
                return Ok(powers);
            }
        }
        if reference_spectral_radius(&matrix) < 1.0 - 1e-9 {
            Ok(powers)
        } else {
            Err(SinrError::PowerIterationDiverged {
                iterations: MAX_ITERATIONS,
            })
        }
    }

    /// The threshold test on the full iteration's estimate: the verdict the
    /// early exit must always reach.
    fn full_iteration_verdict(model: &SinrModel, links: &[Link]) -> bool {
        if links.len() <= 1 {
            return links.first().map(|l| l.length() > 0.0).unwrap_or(true);
        }
        let Ok(matrix) = gain_matrix(model, links) else {
            return false;
        };
        let rho = spectral_radius(&matrix);
        if model.noise() > 0.0 {
            rho < 1.0 - 1e-12
        } else {
            rho <= 1.0 + 1e-9
        }
    }

    /// `n` links of length 0.5–2 in random directions, senders uniform in
    /// a `spread × spread` square: the same draws for every spread, so ρ(B)
    /// moves continuously with it.
    fn spread_links(n: usize, spread: f64, seed: u64) -> Vec<Link> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|i| {
                let x = spread * uniform_in(&mut rng, 0.0, 1.0);
                let y = spread * uniform_in(&mut rng, 0.0, 1.0);
                let angle = uniform_in(&mut rng, 0.0, std::f64::consts::TAU);
                let len = uniform_in(&mut rng, 0.5, 2.0);
                let sender = Point::new(x, y);
                Link::new(
                    i,
                    sender,
                    Point::new(x + len * angle.cos(), y + len * angle.sin()),
                )
            })
            .collect()
    }

    fn rho_at(n: usize, spread: f64, seed: u64) -> f64 {
        spectral_radius(
            &gain_matrix(&SinrModel::default(), &spread_links(n, spread, seed)).unwrap(),
        )
    }

    #[test]
    fn early_exit_keeps_every_verdict_across_the_threshold() {
        let noisy = |noise: f64| SinrModel::new(3.0, 1.0, noise).unwrap();
        let models = [noisy(0.0), noisy(1e-6), noisy(1e-2)];
        let (mut feasible, mut infeasible, mut near) = (0, 0, 0);
        for n in 2..=13 {
            for seed in 0..3u64 {
                // Bisect the spread (log scale) to where ρ(B) crosses 1,
                // then probe on both sides of it at shrinking distances.
                let (mut lo, mut hi) = (0.05_f64.ln(), 1e4_f64.ln());
                for _ in 0..48 {
                    let mid = 0.5 * (lo + hi);
                    if rho_at(n, mid.exp(), seed) > 1.0 {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                let crossing = hi.exp();
                for offset in [
                    -0.5, -0.1, -1e-2, -1e-4, -1e-7, -1e-10, 0.0, 1e-10, 1e-7, 1e-4, 1e-2, 0.1,
                    0.5, 4.0, 100.0,
                ] {
                    let links = spread_links(n, crossing * (1.0 + offset), seed);
                    let rho = rho_at(n, crossing * (1.0 + offset), seed);
                    if (rho - 1.0).abs() < 0.05 {
                        near += 1;
                    }
                    for model in &models {
                        let want = full_iteration_verdict(model, &links);
                        assert_eq!(
                            is_feasible_with_power_control(model, &links),
                            want,
                            "n={n} seed={seed} offset={offset} noise={} rho={rho}",
                            model.noise()
                        );
                        if want {
                            feasible += 1;
                        } else {
                            infeasible += 1;
                        }
                    }
                }
            }
        }
        assert!(
            feasible > 200 && infeasible > 200,
            "{feasible} / {infeasible}"
        );
        assert!(near > 100, "only {near} sets within 0.05 of the threshold");
    }

    #[test]
    fn early_exit_keeps_the_closed_form_pair_boundary() {
        // a = [0, 1], b = [x, x + len] on a line: the pair is feasible iff
        // β²(l_a·l_b)^α / (d_ab·d_ba)^α ≤ 1, i.e. (x − 1)(x + len) ≥ len.
        for len in [1.0_f64, 2.5, 7.0] {
            let boundary = (-(len - 1.0) + ((len - 1.0) * (len - 1.0) + 8.0 * len).sqrt()) / 2.0;
            for k in -60i32..=60 {
                for scale in [1e-3, 1e-6, 1e-9, 1e-12] {
                    let x = boundary * (1.0 + k as f64 * scale);
                    let links = vec![line_link(0, 0.0, 1.0), line_link(1, x, x + len)];
                    for noise in [0.0, 1e-6, 1e-2] {
                        let model = SinrModel::new(3.0, 1.0, noise).unwrap();
                        assert_eq!(
                            is_feasible_with_power_control(&model, &links),
                            full_iteration_verdict(&model, &links),
                            "len={len} x={x} noise={noise}"
                        );
                    }
                    if k.unsigned_abs() as f64 * scale >= 1e-6 {
                        let model = SinrModel::default();
                        assert_eq!(
                            is_feasible_with_power_control(&model, &links),
                            k > 0,
                            "x={x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_nan_gain_row_never_decides_early() {
        // The third link is so long that l^α and d^α both overflow, so its
        // gain row is NaN while the overlapping pair's rows are finite and
        // far above the threshold. The full iteration's NaN estimate must
        // decide, not a bracket that silently skipped the NaN row.
        let model = SinrModel::default();
        let links = vec![
            line_link(0, 0.0, 1.0),
            line_link(1, 1.5, 0.5),
            line_link(2, 1e121, 1.1e121),
        ];
        let matrix = gain_matrix(&model, &links).unwrap();
        assert!(matrix[2][0].is_nan());
        assert_eq!(
            is_feasible_with_power_control(&model, &links),
            full_iteration_verdict(&model, &links)
        );
    }

    #[test]
    fn shared_iteration_matches_the_plain_loops_bit_for_bit() {
        let mut rng = seeded_rng(7);
        let mut sizes: Vec<usize> = (1..=13).collect();
        sizes.push(37);
        for &n in &sizes {
            for scale in [1e-3, 0.05, 0.3, 1.0, 6.0] {
                let matrix: Vec<Vec<f64>> = (0..n)
                    .map(|i| {
                        (0..n)
                            .map(|j| {
                                let keep = uniform_in(&mut rng, 0.0, 1.0) > 0.3;
                                let entry = scale * uniform_in(&mut rng, 0.0, 1.0);
                                if keep && (i != j || scale > 1.0) {
                                    entry
                                } else {
                                    0.0
                                }
                            })
                            .collect()
                    })
                    .collect();
                assert_eq!(
                    spectral_radius(&matrix).to_bits(),
                    reference_spectral_radius(&matrix).to_bits(),
                    "n={n} scale={scale}"
                );
            }
            // A defective block converges like 1/t and exhausts the cap.
            let mut defective = vec![vec![0.0; n]; n];
            for (i, row) in defective.iter_mut().enumerate() {
                row[i] = 0.5;
                if i + 1 < n {
                    row[i + 1] = 1.0;
                }
            }
            assert_eq!(
                spectral_radius(&defective).to_bits(),
                reference_spectral_radius(&defective).to_bits(),
                "defective n={n}"
            );

            for spread in [3.0, 12.0, 60.0, 400.0] {
                let links = spread_links(n, spread, n as u64);
                for noise in [0.0, 1e-2] {
                    let model = SinrModel::new(3.0, 1.0, noise).unwrap();
                    match (
                        optimal_powers(&model, &links),
                        reference_optimal_powers(&model, &links),
                    ) {
                        (Ok(got), Ok(want)) => {
                            let bits =
                                |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&got), bits(&want), "n={n} spread={spread}");
                        }
                        (got, want) => assert_eq!(got, want, "n={n} spread={spread}"),
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton_sets_are_feasible() {
        let model = SinrModel::default();
        assert!(is_feasible_with_power_control(&model, &[]));
        assert!(is_feasible_with_power_control(
            &model,
            &[line_link(0, 0.0, 1.0)]
        ));
        assert_eq!(optimal_powers(&model, &[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn spectral_radius_of_diagonal_free_2x2() {
        let m = vec![vec![0.0, 0.25], vec![0.25, 0.0]];
        assert!((spectral_radius(&m) - 0.25).abs() < 1e-8);
    }

    #[test]
    fn spectral_radius_of_zero_matrix_is_zero() {
        let m = vec![vec![0.0; 3]; 3];
        assert_eq!(spectral_radius(&m), 0.0);
    }

    #[test]
    #[should_panic(expected = "matrix must be square")]
    fn spectral_radius_rejects_non_square() {
        let m = vec![vec![0.0, 1.0], vec![0.0]];
        let _ = spectral_radius(&m);
    }

    #[test]
    fn well_separated_links_are_feasible_and_powers_verify() {
        let model = SinrModel::default();
        let links = vec![
            line_link(0, 0.0, 1.0),
            line_link(1, 40.0, 42.0),
            line_link(2, 100.0, 101.5),
        ];
        assert!(is_feasible_with_power_control(&model, &links));
        let powers = optimal_powers(&model, &links).unwrap();
        let assignment = PowerAssignment::explicit_for_links(&links, &powers);
        assert!(model.is_feasible(&links, &assignment));
    }

    #[test]
    fn power_control_beats_uniform_power() {
        // A long link whose receiver sits close to a short link's sender:
        // infeasible under uniform power (the long link's weak signal is swamped),
        // feasible with the right (length-aware) power assignment.
        let model = SinrModel::default();
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 30.0, 3.0)];
        assert!(!model.is_feasible(&links, &PowerAssignment::uniform(1.0)));
        assert!(is_feasible_with_power_control(&model, &links));
        let assignment = feasible_assignment(&model, &links).unwrap();
        assert!(model.is_feasible(&links, &assignment));
    }

    #[test]
    fn links_sharing_endpoint_are_never_feasible_together() {
        let model = SinrModel::default();
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 1.0, 3.0)];
        assert!(!is_feasible_with_power_control(&model, &links));
        assert!(optimal_powers(&model, &links).is_err());
    }

    #[test]
    fn overlapping_equal_links_are_infeasible() {
        // Two links crossing the same region with receivers inside each other's
        // senders' near field.
        let model = SinrModel::default();
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 1.2, 0.2)];
        assert!(!is_feasible_with_power_control(&model, &links));
    }

    #[test]
    fn optimal_powers_give_strict_sinr_slack_in_noise_free_case() {
        let model = SinrModel::default();
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 20.0, 24.0)];
        let powers = optimal_powers(&model, &links).unwrap();
        let assignment = PowerAssignment::explicit_for_links(&links, &powers);
        for l in &links {
            let sinr = model.sinr(l, &links, &assignment).unwrap();
            assert!(sinr > model.beta());
        }
    }

    #[test]
    fn optimal_powers_with_noise_meet_minimum_power() {
        let model = SinrModel::new(3.0, 1.0, 0.1).unwrap();
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 50.0, 52.0)];
        let powers = optimal_powers(&model, &links).unwrap();
        for (l, &p) in links.iter().zip(powers.iter()) {
            assert!(p >= model.minimum_power(l));
        }
        let assignment = PowerAssignment::explicit_for_links(&links, &powers);
        assert!(model.is_feasible(&links, &assignment));
    }

    #[test]
    fn infeasible_with_noise_when_links_too_close() {
        let model = SinrModel::new(3.0, 1.0, 0.01).unwrap();
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 1.5, 0.5)];
        assert!(!is_feasible_with_power_control(&model, &links));
        assert!(matches!(
            optimal_powers(&model, &links),
            Err(SinrError::PowerIterationDiverged { .. })
        ));
    }

    #[test]
    fn gain_matrix_entries_match_definition() {
        let model = SinrModel::default();
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 10.0, 11.0)];
        let b = gain_matrix(&model, &links).unwrap();
        // B[0][1] = beta * l_0^alpha / d_{1,0}^alpha; d from sender of 1 (x=10) to
        // receiver of 0 (x=1) is 9.
        let expected = 1.0 * 1.0 / 9.0_f64.powi(3);
        assert!((b[0][1] - expected).abs() < 1e-15);
        // B[1][0] = l_1^alpha / d_{0,1}^alpha; d from sender of 0 (x=0) to receiver
        // of 1 (x=11) is 11.
        let expected10 = 1.0 / 11.0_f64.powi(3);
        assert!((b[1][0] - expected10).abs() < 1e-15);
    }

    #[test]
    fn feasibility_consistent_with_brute_force_on_small_sets() {
        // For pairs of links, arbitrary-power feasibility has a closed form:
        // the pair is feasible iff beta^2 * (l1*l2)^alpha / (d12*d21)^alpha <= 1.
        let model = SinrModel::default();
        let cases = vec![
            (line_link(0, 0.0, 1.0), line_link(1, 3.0, 4.0)),
            (line_link(0, 0.0, 1.0), line_link(1, 2.0, 3.0)),
            (line_link(0, 0.0, 2.0), line_link(1, 2.5, 4.5)),
            (line_link(0, 0.0, 1.0), line_link(1, 100.0, 120.0)),
        ];
        for (a, b) in cases {
            let l1 = a.length();
            let l2 = b.length();
            let d12 = a.sender_to_receiver_distance(&b);
            let d21 = b.sender_to_receiver_distance(&a);
            let product = model.beta().powi(2) * (l1 * l2).powf(model.alpha())
                / (d12 * d21).powf(model.alpha());
            let closed_form = product <= 1.0 + 1e-9;
            let links = vec![a, b];
            assert_eq!(
                is_feasible_with_power_control(&model, &links),
                closed_form,
                "mismatch for pair {a:?}, {b:?}"
            );
        }
    }
}
