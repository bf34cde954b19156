//! The power-control modes of the paper and their slot-feasibility checks.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use wagg_conflict::ConflictRelation;
use wagg_sinr::affectance::is_feasible_by_affectance;
use wagg_sinr::power_control::is_feasible_with_power_control;
use wagg_sinr::{Link, PowerAssignment, SinrModel};

/// How transmission powers are chosen, which determines both the conflict graph used
/// for coloring and the SINR check used to verify each slot.
///
/// # Examples
///
/// ```
/// use wagg_schedule::PowerMode;
///
/// let modes = [PowerMode::Uniform, PowerMode::Oblivious { tau: 0.5 }, PowerMode::GlobalControl];
/// assert_eq!(modes[1].to_string(), "oblivious power P_0.5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PowerMode {
    /// No power control: every sender uses the same power (`P_0`).
    Uniform,
    /// Linear power (`P_1`): power proportional to `l^α`. Like uniform power, this is
    /// a "no-control" baseline — the paper's near-constant bounds need `τ` strictly
    /// inside `(0, 1)` or global control.
    Linear,
    /// An oblivious scheme `P_τ` with `τ ∈ (0, 1)`; the paper's `O(log log Δ)` bound
    /// applies (with the default `τ = 1/2`).
    Oblivious {
        /// The exponent parameter `τ`.
        tau: f64,
    },
    /// Global (arbitrary) power control; the paper's `O(log* Δ)` bound applies.
    GlobalControl,
}

impl PowerMode {
    /// The default oblivious mode `P_{1/2}` used throughout the experiments.
    pub fn mean_oblivious() -> Self {
        PowerMode::Oblivious { tau: 0.5 }
    }

    /// The one range rule of the mode's parameter: an oblivious `τ` must lie
    /// strictly inside `(0, 1)`, the paper's range for `P_τ` (NaN fails both
    /// comparisons). Every other mode passes. Sessions, the service and the
    /// wire codec refuse a mode this rule refuses; at `τ` outside `[0, 1]`
    /// the power scheme of a solve would panic.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_schedule::{InvalidTau, PowerMode};
    ///
    /// assert_eq!(PowerMode::mean_oblivious().check_tau(), Ok(()));
    /// assert_eq!(PowerMode::Oblivious { tau: 1.0 }.check_tau(), Err(InvalidTau { tau: 1.0 }));
    /// assert!(PowerMode::Oblivious { tau: f64::NAN }.check_tau().is_err());
    /// ```
    pub fn check_tau(&self) -> Result<(), InvalidTau> {
        match *self {
            PowerMode::Oblivious { tau } if !(tau > 0.0 && tau < 1.0) => Err(InvalidTau { tau }),
            _ => Ok(()),
        }
    }

    /// The conflict relation the paper matches to this power mode, for a model with
    /// path-loss exponent `alpha`.
    ///
    /// * uniform / linear power → the constant relation `G_γ` (no length-aware
    ///   separation is possible, so only equal-length-style separation helps),
    /// * oblivious `P_τ` → the polynomial relation `G^δ_γ`,
    /// * global control → the log-shaped relation `G_{γ log}`.
    pub fn conflict_relation(&self, alpha: f64) -> ConflictRelation {
        match self {
            PowerMode::Uniform | PowerMode::Linear => ConflictRelation::constant(2.0),
            PowerMode::Oblivious { .. } => ConflictRelation::polynomial(2.0, 0.5),
            PowerMode::GlobalControl => ConflictRelation::log_shaped(2.0, alpha),
        }
    }

    /// The concrete power assignment used to verify slots in this mode, or `None`
    /// for global control (where the witness powers are computed per slot).
    pub fn assignment(&self) -> Option<PowerAssignment> {
        match self {
            PowerMode::Uniform => Some(PowerAssignment::uniform(1.0)),
            PowerMode::Linear => Some(PowerAssignment::linear(1.0)),
            PowerMode::Oblivious { tau } => Some(PowerAssignment::oblivious(*tau)),
            PowerMode::GlobalControl => None,
        }
    }

    /// Whether the given set of links can share a slot in this power mode, under
    /// `model`.
    ///
    /// For fixed assignments this is the SINR check with that assignment: under a
    /// noise-free model the affectance form of
    /// [`PathLossCache::is_feasible`](wagg_sinr::PathLossCache::is_feasible), the
    /// predicate [`split_class_into_feasible`](crate::split_class_into_feasible)'s
    /// cached first fit evaluates from running sums; with noise the full SINR
    /// quotient. For global control it is existence of *some* feasible assignment,
    /// [`is_feasible_with_power_control`]'s spectral-radius test, which stops its
    /// power iteration once the verdict is certain. Sets of at most one link are
    /// feasible iff every link has positive length.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_sinr::{Link, SinrModel};
    /// use wagg_schedule::PowerMode;
    ///
    /// let model = SinrModel::default();
    /// let links = vec![
    ///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
    ///     Link::new(1, Point::new(30.0, 0.0), Point::new(3.0, 0.0)),
    /// ];
    /// // Uniform power cannot hold this pair, global control can.
    /// assert!(!PowerMode::Uniform.slot_feasible(&model, &links));
    /// assert!(PowerMode::GlobalControl.slot_feasible(&model, &links));
    /// ```
    pub fn slot_feasible(&self, model: &SinrModel, links: &[Link]) -> bool {
        if links.len() <= 1 {
            return links.iter().all(|l| l.length() > 0.0);
        }
        match self.assignment() {
            // Noise-free fixed assignments go through the cached affectance
            // kernel — mathematically the SINR quotient rearranged, and the
            // *same* predicate the scheduler's shared-cache slot probes use,
            // so a schedule built from subset probes always verifies.
            Some(assignment) if model.noise() == 0.0 => {
                is_feasible_by_affectance(model, links, &assignment)
            }
            Some(assignment) => model.is_feasible(links, &assignment),
            None => is_feasible_with_power_control(model, links),
        }
    }
}

/// An oblivious power exponent outside `(0, 1)`, NaN included: what
/// [`PowerMode::check_tau`] refuses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidTau {
    /// The refused exponent.
    pub tau: f64,
}

impl fmt::Display for InvalidTau {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oblivious power exponent {} outside (0, 1)", self.tau)
    }
}

impl Error for InvalidTau {}

impl fmt::Display for PowerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PowerMode::Uniform => write!(f, "uniform power P_0"),
            PowerMode::Linear => write!(f, "linear power P_1"),
            PowerMode::Oblivious { tau } => write!(f, "oblivious power P_{tau}"),
            PowerMode::GlobalControl => write!(f, "global power control"),
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
    fn relations_match_modes() {
        let alpha = 3.0;
        assert!(matches!(
            PowerMode::Uniform.conflict_relation(alpha),
            ConflictRelation::Constant { .. }
        ));
        assert!(matches!(
            PowerMode::mean_oblivious().conflict_relation(alpha),
            ConflictRelation::Polynomial { .. }
        ));
        assert!(matches!(
            PowerMode::GlobalControl.conflict_relation(alpha),
            ConflictRelation::LogShaped { .. }
        ));
    }

    #[test]
    fn assignments_match_modes() {
        assert_eq!(PowerMode::Uniform.assignment().unwrap().tau(), Some(0.0));
        assert_eq!(PowerMode::Linear.assignment().unwrap().tau(), Some(1.0));
        assert_eq!(
            PowerMode::Oblivious { tau: 0.25 }
                .assignment()
                .unwrap()
                .tau(),
            Some(0.25)
        );
        assert!(PowerMode::GlobalControl.assignment().is_none());
    }

    #[test]
    fn singleton_and_empty_slots_always_feasible() {
        let model = SinrModel::default();
        for mode in [
            PowerMode::Uniform,
            PowerMode::Linear,
            PowerMode::mean_oblivious(),
            PowerMode::GlobalControl,
        ] {
            assert!(mode.slot_feasible(&model, &[]));
            assert!(mode.slot_feasible(&model, &[line_link(0, 0.0, 5.0)]));
        }
    }

    #[test]
    fn global_control_dominates_fixed_assignments() {
        // Any pair feasible under a fixed scheme is feasible under global control.
        let model = SinrModel::default();
        let pairs = vec![
            vec![line_link(0, 0.0, 1.0), line_link(1, 10.0, 11.0)],
            vec![line_link(0, 0.0, 2.0), line_link(1, 30.0, 20.0)],
            vec![line_link(0, 0.0, 1.0), line_link(1, 3.0, 4.0)],
        ];
        for links in pairs {
            for mode in [
                PowerMode::Uniform,
                PowerMode::Linear,
                PowerMode::mean_oblivious(),
            ] {
                if mode.slot_feasible(&model, &links) {
                    assert!(PowerMode::GlobalControl.slot_feasible(&model, &links));
                }
            }
        }
    }

    #[test]
    fn display_strings() {
        assert_eq!(PowerMode::Uniform.to_string(), "uniform power P_0");
        assert_eq!(PowerMode::GlobalControl.to_string(), "global power control");
        assert_eq!(PowerMode::Linear.to_string(), "linear power P_1");
    }
}
