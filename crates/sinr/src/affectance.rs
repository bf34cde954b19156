//! Relative interference (affectance) and the paper's additive operator `I(·,·)`.
//!
//! Two interference measures drive the paper's analysis:
//!
//! * the **relative interference** under a power assignment `P`,
//!   `I_P(j, i) = P(j)·l_i^α / (P(i)·d_ji^α)` — the set `S` is `P`-feasible
//!   (noise-free) iff `I_P(S \ {i}, i) ≤ 1/β` for every `i ∈ S`;
//! * the **additive operator** `I(j, i) = min{1, l_j^α / d(i, j)^α}` of Sec. 3.2,
//!   used to state the MST sparsity lemma (Lemma 1) and the feasibility bound of
//!   Theorem 3.

use crate::link::Link;
use crate::model::SinrModel;
use crate::pathloss::{AlphaPow, PathLossCache};
use crate::power::PowerAssignment;
use crate::SinrError;

use rayon::prelude::*;

/// Relative interference of link `source` on link `target` under power assignment
/// `power`: `I_P(j, i) = P(j)·l_i^α / (P(i)·d_ji^α)`.
///
/// Returns `f64::INFINITY` when the sender of `source` is collocated with the
/// receiver of `target`, and an error for degenerate links or missing powers.
///
/// # Errors
///
/// Returns [`SinrError::DegenerateLink`] if `target` has zero length and
/// [`SinrError::MissingPower`] if the assignment lacks an entry for either link.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::{affectance::relative_interference, Link, PowerAssignment, SinrModel};
///
/// let model = SinrModel::default();
/// let i = Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0));
/// let j = Link::new(1, Point::new(3.0, 0.0), Point::new(4.0, 0.0));
/// let p = PowerAssignment::uniform(1.0);
/// // d_ji = 2 (sender of j at 3, receiver of i at 1), so I_P(j, i) = 1/8 with alpha=3.
/// let r = relative_interference(&model, &j, &i, &p).unwrap();
/// assert!((r - 0.125).abs() < 1e-12);
/// ```
pub fn relative_interference(
    model: &SinrModel,
    source: &Link,
    target: &Link,
    power: &PowerAssignment,
) -> Result<f64, SinrError> {
    if source.id == target.id {
        return Ok(0.0);
    }
    let target_len = target.length();
    if target_len <= 0.0 {
        return Err(SinrError::DegenerateLink {
            link: target.id.index(),
        });
    }
    let p_source = power.power(source, model.alpha())?;
    let p_target = power.power(target, model.alpha())?;
    if p_target <= 0.0 {
        return Err(SinrError::InvalidParameter {
            name: "power",
            value: p_target,
        });
    }
    let d = source.sender_to_receiver_distance(target);
    if d <= 0.0 {
        return Ok(f64::INFINITY);
    }
    let pow = AlphaPow::new(model.alpha());
    Ok(p_source * pow.pow(target_len) / (p_target * pow.pow(d)))
}

/// Total relative interference of a set on a single link:
/// `I_P(S, i) = Σ_{j ∈ S} I_P(j, i)` (the term `j = i` contributes zero).
///
/// The target-side quantities (`l_i^α`, `P(i)`) are computed once, and each
/// pair costs one distance plus one [`AlphaPow`] evaluation. The terms are
/// computed on the rayon shim's pool but summed in set order, so the total is
/// the same bit for bit whether the (default-on) `parallel` feature starts a
/// pool or no worker starts and the calling thread computes them. (The in-order
/// reduction — and with it the bitwise guarantee and the error-order
/// guarantee below — is a documented property of the vendored `shims/rayon`
/// engine; swapping in crates.io rayon would re-associate parallel sums and
/// weaken both to "within floating-point re-association".)
///
/// # Errors
///
/// Propagates errors from [`relative_interference`], in set order.
pub fn relative_interference_on(
    model: &SinrModel,
    set: &[Link],
    target: &Link,
    power: &PowerAssignment,
) -> Result<f64, SinrError> {
    let pow = AlphaPow::new(model.alpha());
    // Target-side state (degenerate-length check, `l_i^α`, `P(i)`), resolved
    // once. Each is kept as a Result so the seed's error order is preserved:
    // a target-side error only surfaces for sources that would have evaluated
    // it — non-self sources, with the power errors after the source's own
    // power lookup.
    let target_weight: Result<f64, SinrError> = {
        let target_len = target.length();
        if target_len <= 0.0 {
            Err(SinrError::DegenerateLink {
                link: target.id.index(),
            })
        } else {
            Ok(pow.pow(target_len))
        }
    };
    let target_power: Result<f64, SinrError> =
        power.power(target, model.alpha()).and_then(|p_target| {
            if p_target <= 0.0 {
                Err(SinrError::InvalidParameter {
                    name: "power",
                    value: p_target,
                })
            } else {
                Ok(p_target)
            }
        });
    let term = |source: &Link| -> Result<f64, SinrError> {
        if source.id == target.id {
            return Ok(0.0);
        }
        let weight = target_weight.clone()?;
        let p_source = power.power(source, model.alpha())?;
        let p_target = target_power.clone()?;
        let d = source.sender_to_receiver_distance(target);
        if d <= 0.0 {
            return Ok(f64::INFINITY);
        }
        Ok(p_source * weight / (p_target * pow.pow(d)))
    };
    set.par_iter().map(term).sum()
}

/// Noise-free feasibility via relative interference: the set is `P`-feasible iff
/// `I_P(S \ {i}, i) ≤ 1/β` for every link `i ∈ S`.
///
/// For `noise = 0` this is equivalent to [`SinrModel::is_feasible`]; it is exposed
/// separately because the paper's proofs (and our reproduction of the lower bounds)
/// argue directly in terms of relative interference.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::{affectance::is_feasible_by_affectance, Link, PowerAssignment, SinrModel};
///
/// let model = SinrModel::default();
/// let links = vec![
///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
///     Link::new(1, Point::new(30.0, 0.0), Point::new(31.0, 0.0)),
/// ];
/// assert!(is_feasible_by_affectance(&model, &links, &PowerAssignment::uniform(1.0)));
/// ```
pub fn is_feasible_by_affectance(model: &SinrModel, set: &[Link], power: &PowerAssignment) -> bool {
    PathLossCache::new(model, set, power).is_feasible()
}

/// The paper's additive operator `I(j, i) = min{1, l_j^α / d(i, j)^α}` (Sec. 3.2),
/// where `d(i, j)` is the minimum distance between the links.
///
/// Links sharing an endpoint (distance zero) get the capped value `1`.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::{affectance::additive_influence, Link};
///
/// let i = Link::new(0, Point::new(10.0, 0.0), Point::new(11.0, 0.0));
/// let j = Link::new(1, Point::new(0.0, 0.0), Point::new(2.0, 0.0));
/// // l_j = 2, d(i, j) = 8, alpha = 3 -> (2/8)^3 = 1/64.
/// let v = additive_influence(&j, &i, 3.0);
/// assert!((v - 1.0 / 64.0).abs() < 1e-12);
/// ```
pub fn additive_influence(source: &Link, target: &Link, alpha: f64) -> f64 {
    additive_influence_pow(source, target, AlphaPow::new(alpha))
}

/// [`additive_influence`] with a pre-dispatched exponent — the form the
/// batched sums below use so the `alpha` match happens once per sum, not once
/// per pair.
#[inline]
pub fn additive_influence_pow(source: &Link, target: &Link, pow: AlphaPow) -> f64 {
    if source.id == target.id {
        return 0.0;
    }
    let d = source.distance_to(target);
    if d <= 0.0 {
        return 1.0;
    }
    let ratio = source.length() / d;
    pow.pow(ratio).min(1.0)
}

/// `I(S, i) = Σ_{j ∈ S} I(j, i)`: total additive influence of a set on a link.
///
/// Terms are evaluated on the rayon shim's pool (without the `parallel`
/// feature no worker starts and the calling thread evaluates them) and summed
/// in set order — the same sum bit for bit either way under the vendored
/// `shims/rayon` engine (crates.io rayon would only guarantee equality up to
/// floating-point re-association).
pub fn additive_influence_on(set: &[Link], target: &Link, alpha: f64) -> f64 {
    let pow = AlphaPow::new(alpha);
    set.par_iter()
        .map(|source| additive_influence_pow(source, target, pow))
        .sum()
}

/// `I(i, S) = Σ_{j ∈ S} I(i, j)`: total additive influence of a link on a set.
///
/// Builds with and without a pool produce identical sums under the vendored
/// engine (see [`additive_influence_on`]).
pub fn additive_influence_of(source: &Link, set: &[Link], alpha: f64) -> f64 {
    let pow = AlphaPow::new(alpha);
    set.par_iter()
        .map(|target| additive_influence_pow(source, target, pow))
        .sum()
}

/// The "in-influence from longer links" quantity `I(i, S_i^+)` of Lemma 1:
/// the influence of link `i` on the set of links in `set` that are at least as
/// long as `i` (excluding `i` itself).
///
/// Lemma 1 of the paper states that for the links of an MST this quantity is `O(1)`
/// for every link; the `wagg-mst` crate exposes measurements of it and the
/// experiment harness verifies the constant empirically.
pub fn influence_on_longer(link: &Link, set: &[Link], alpha: f64) -> f64 {
    let len = link.length();
    let pow = AlphaPow::new(alpha);
    set.iter()
        .filter(|j| j.id != link.id && j.length() >= len)
        .map(|j| additive_influence_pow(link, j, pow))
        .sum()
}

/// The "influence from shorter links" quantity `I(S_i^-, i)` used by Theorem 3:
/// the total influence on link `i` from links in `set` that are no longer than `i`.
pub fn influence_from_shorter(link: &Link, set: &[Link], alpha: f64) -> f64 {
    let len = link.length();
    let pow = AlphaPow::new(alpha);
    set.iter()
        .filter(|j| j.id != link.id && j.length() <= len)
        .map(|j| additive_influence_pow(j, link, pow))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::Point;

    fn line_link(id: usize, s: f64, r: f64) -> Link {
        Link::new(id, Point::on_line(s), Point::on_line(r))
    }

    #[test]
    fn self_interference_is_zero() {
        let model = SinrModel::default();
        let l = line_link(0, 0.0, 1.0);
        assert_eq!(
            relative_interference(&model, &l, &l, &PowerAssignment::uniform(1.0)).unwrap(),
            0.0
        );
        assert_eq!(additive_influence(&l, &l, 3.0), 0.0);
    }

    #[test]
    fn affectance_feasibility_matches_sinr_feasibility_noise_free() {
        let model = SinrModel::default();
        let p = PowerAssignment::mean();
        let configs: Vec<Vec<Link>> = vec![
            vec![line_link(0, 0.0, 1.0), line_link(1, 3.0, 4.0)],
            vec![line_link(0, 0.0, 1.0), line_link(1, 30.0, 31.0)],
            vec![
                line_link(0, 0.0, 1.0),
                line_link(1, 10.0, 12.0),
                line_link(2, 100.0, 104.0),
            ],
        ];
        for links in configs {
            assert_eq!(
                model.is_feasible(&links, &p),
                is_feasible_by_affectance(&model, &links, &p),
                "mismatch for {links:?}"
            );
        }
    }

    #[test]
    fn relative_interference_uniform_power_depends_on_target_length() {
        let model = SinrModel::default();
        let p = PowerAssignment::uniform(1.0);
        let short_target = line_link(0, 0.0, 1.0);
        let long_target = line_link(1, 0.0, 4.0);
        let source = line_link(2, 20.0, 21.0);
        let on_short = relative_interference(&model, &source, &short_target, &p).unwrap();
        let on_long = relative_interference(&model, &source, &long_target, &p).unwrap();
        assert!(on_long > on_short);
    }

    #[test]
    fn collocated_nodes_give_infinite_affectance() {
        let model = SinrModel::default();
        let i = line_link(0, 0.0, 1.0);
        let j = line_link(1, 1.0, 2.0);
        let r = relative_interference(&model, &j, &i, &PowerAssignment::uniform(1.0)).unwrap();
        assert!(r.is_infinite());
    }

    #[test]
    fn additive_influence_is_capped_at_one() {
        let i = line_link(0, 0.0, 1.0);
        let j = line_link(1, 1.5, 100.0); // very long link very close by
        assert_eq!(additive_influence(&j, &i, 3.0), 1.0);
    }

    #[test]
    fn additive_influence_decays_with_distance() {
        let i = line_link(0, 0.0, 1.0);
        let near = line_link(1, 3.0, 4.0);
        let far = line_link(2, 30.0, 31.0);
        assert!(additive_influence(&near, &i, 3.0) > additive_influence(&far, &i, 3.0));
    }

    #[test]
    fn influence_sums_are_consistent() {
        let links = vec![
            line_link(0, 0.0, 1.0),
            line_link(1, 3.0, 5.0),
            line_link(2, 10.0, 14.0),
        ];
        let alpha = 3.0;
        let total_on_0 = additive_influence_on(&links, &links[0], alpha);
        let manual: f64 = additive_influence(&links[1], &links[0], alpha)
            + additive_influence(&links[2], &links[0], alpha);
        assert!((total_on_0 - manual).abs() < 1e-12);

        let of_0 = additive_influence_of(&links[0], &links, alpha);
        let manual_of: f64 = additive_influence(&links[0], &links[1], alpha)
            + additive_influence(&links[0], &links[2], alpha);
        assert!((of_0 - manual_of).abs() < 1e-12);
    }

    #[test]
    fn influence_on_longer_only_counts_longer_links() {
        let links = vec![
            line_link(0, 0.0, 1.0),   // length 1
            line_link(1, 3.0, 5.0),   // length 2
            line_link(2, 10.0, 10.5), // length 0.5 (shorter, should be ignored)
        ];
        let alpha = 3.0;
        let v = influence_on_longer(&links[0], &links, alpha);
        let expected = additive_influence(&links[0], &links[1], alpha);
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn influence_from_shorter_only_counts_shorter_links() {
        let links = vec![
            line_link(0, 0.0, 2.0),   // length 2
            line_link(1, 5.0, 6.0),   // length 1 (shorter)
            line_link(2, 10.0, 20.0), // length 10 (longer, ignored)
        ];
        let alpha = 3.0;
        let v = influence_from_shorter(&links[0], &links, alpha);
        let expected = additive_influence(&links[1], &links[0], alpha);
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn feasibility_threshold_scales_with_beta() {
        // A pair that is feasible with beta = 1 but not with beta = 100:
        // the dominant relative interference term is (1/3)^3 ≈ 0.037, which is
        // below 1 but above 1/100.
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 4.0, 5.0)];
        let p = PowerAssignment::uniform(1.0);
        let weak = SinrModel::new(3.0, 1.0, 0.0).unwrap();
        let strong = SinrModel::new(3.0, 100.0, 0.0).unwrap();
        assert!(is_feasible_by_affectance(&weak, &links, &p));
        assert!(!is_feasible_by_affectance(&strong, &links, &p));
    }
}
