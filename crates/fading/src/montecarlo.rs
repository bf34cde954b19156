//! Effective-rate estimation of a periodic schedule under fading.
//!
//! For every slot of the schedule the per-link success probability is
//! estimated by Monte-Carlo sampling of the faded SINR; the expected number
//! of repetitions a slot needs until its slowest link succeeds gives the
//! *effective* schedule length, and its reciprocal the effective aggregation
//! rate. The paper's robustness claim is that this rate stays within a
//! constant factor of the nominal (fading-free) rate.

use crate::error::FadingError;
use crate::model::FadingModel;
use crate::slot::{faded_slot_outcome, slot_powers};
use serde::{Deserialize, Serialize};
use wagg_geometry::rng::{derive_seed, seeded_rng};
use wagg_schedule::{PowerMode, Schedule};
use wagg_sinr::{Link, SinrModel};

#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// The estimated effect of fading on a periodic schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FadingRateReport {
    /// The nominal schedule length (slots per period without fading).
    pub nominal_slots: usize,
    /// The nominal rate `1 / nominal_slots`.
    pub nominal_rate: f64,
    /// Expected slots per period once every slot is repeated until its
    /// slowest link succeeds.
    pub effective_slots: f64,
    /// The effective rate `1 / effective_slots`.
    pub effective_rate: f64,
    /// Mean per-link success probability across all scheduled transmissions.
    pub mean_success_probability: f64,
    /// The smallest per-link success probability observed.
    pub min_success_probability: f64,
    /// Expected retransmissions per link per period.
    pub expected_retransmissions_per_link: f64,
    /// Number of Monte-Carlo trials used per slot.
    pub trials: usize,
}

impl FadingRateReport {
    /// Rate degradation factor `nominal_rate / effective_rate` (1.0 when
    /// fading has no effect). The paper's robustness discussion corresponds
    /// to this factor being a constant.
    pub fn degradation(&self) -> f64 {
        if self.effective_rate <= 0.0 {
            return f64::INFINITY;
        }
        self.nominal_rate / self.effective_rate
    }
}

/// Estimates the effective rate of `schedule` over `links` under the given
/// fading model.
///
/// # Errors
///
/// Returns [`FadingError::ScheduleOutOfRange`] for schedules referencing
/// missing links, [`FadingError::InvalidParameter`] for `trials == 0`, and
/// [`FadingError::Power`] when a slot's witness powers cannot be computed.
///
/// # Examples
///
/// ```
/// use wagg_fading::{effective_rate, FadingModel};
/// use wagg_instances::random::uniform_square;
/// use wagg_schedule::{solve_static, PowerMode, Recorder, SchedulerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = uniform_square(25, 80.0, 3);
/// let links = inst.mst_links()?;
/// let config = SchedulerConfig::new(PowerMode::GlobalControl);
/// let report = solve_static(&links, config, &Recorder::disabled());
/// let fading = effective_rate(
///     &links,
///     &report.schedule,
///     &config.model,
///     config.mode,
///     FadingModel::rayleigh(1.0),
///     200,
///     42,
/// )?;
/// assert!(fading.effective_rate > 0.0);
/// assert!(fading.degradation() >= 1.0);
/// # Ok(())
/// # }
/// ```
#[allow(clippy::too_many_arguments)]
pub fn effective_rate(
    links: &[Link],
    schedule: &Schedule,
    model: &SinrModel,
    mode: PowerMode,
    fading: FadingModel,
    trials: usize,
    seed: u64,
) -> Result<FadingRateReport, FadingError> {
    if trials == 0 {
        return Err(FadingError::InvalidParameter {
            name: "trials",
            value: 0.0,
        });
    }
    for slot in schedule.slots() {
        for &idx in slot {
            if idx >= links.len() {
                return Err(FadingError::ScheduleOutOfRange { index: idx });
            }
        }
    }

    let nominal_slots = schedule.len();

    // Each slot's Monte-Carlo run is independent by construction (its RNG is
    // seeded from `derive_seed(seed, slot_index)`), so the per-slot trials run
    // across threads under the `parallel` feature. Results are folded in slot
    // order afterwards, making the report identical to the serial build.
    let estimate_slot =
        |(slot_index, slot): (usize, &Vec<usize>)| -> Result<(f64, Vec<f64>), FadingError> {
            if slot.is_empty() {
                return Ok((1.0, Vec::new()));
            }
            let slot_links: Vec<Link> = slot.iter().map(|&idx| links[idx]).collect();
            let powers = slot_powers(model, mode, &slot_links)?;
            let mut successes = vec![0usize; slot_links.len()];
            let mut rng = seeded_rng(derive_seed(seed, slot_index as u64));
            for _ in 0..trials {
                let outcome = faded_slot_outcome(model, &slot_links, &powers, fading, &mut rng);
                for (i, &ok) in outcome.iter().enumerate() {
                    if ok {
                        successes[i] += 1;
                    }
                }
            }
            // Clamp the estimate away from zero so a link that never succeeded in
            // the sample contributes a large-but-finite repetition count.
            let probs: Vec<f64> = successes
                .iter()
                .map(|&s| (s as f64 / trials as f64).max(0.5 / trials as f64))
                .collect();
            let slowest = probs.iter().cloned().fold(f64::INFINITY, f64::min);
            Ok((1.0 / slowest, probs))
        };

    #[cfg(feature = "parallel")]
    let per_slot: Result<Vec<(f64, Vec<f64>)>, FadingError> = schedule
        .slots()
        .par_iter()
        .enumerate()
        .map(estimate_slot)
        .collect();
    #[cfg(not(feature = "parallel"))]
    let per_slot: Result<Vec<(f64, Vec<f64>)>, FadingError> = schedule
        .slots()
        .iter()
        .enumerate()
        .map(estimate_slot)
        .collect();

    let mut effective_slots = 0.0f64;
    let mut success_probs: Vec<f64> = Vec::new();
    for (slot_cost, probs) in per_slot? {
        effective_slots += slot_cost;
        success_probs.extend(probs);
    }

    let mean_success_probability = if success_probs.is_empty() {
        1.0
    } else {
        success_probs.iter().sum::<f64>() / success_probs.len() as f64
    };
    let min_success_probability = success_probs.iter().cloned().fold(1.0f64, f64::min);
    let expected_retransmissions_per_link = if success_probs.is_empty() {
        0.0
    } else {
        success_probs.iter().map(|&p| 1.0 / p - 1.0).sum::<f64>() / success_probs.len() as f64
    };

    Ok(FadingRateReport {
        nominal_slots,
        nominal_rate: if nominal_slots == 0 {
            0.0
        } else {
            1.0 / nominal_slots as f64
        },
        effective_slots,
        effective_rate: if effective_slots <= 0.0 {
            0.0
        } else {
            1.0 / effective_slots
        },
        mean_success_probability,
        min_success_probability,
        expected_retransmissions_per_link,
        trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_instances::random::uniform_square;
    use wagg_schedule::{solve_static, Recorder, SchedulerConfig};

    fn scheduled(n: usize, seed: u64, mode: PowerMode) -> (Vec<Link>, Schedule, SinrModel) {
        let inst = uniform_square(n, 100.0, seed);
        let links = inst.mst_links().unwrap();
        let config = SchedulerConfig::new(mode);
        let report = solve_static(&links, config, &Recorder::disabled());
        (links, report.schedule, config.model)
    }

    #[test]
    fn zero_trials_and_bad_schedules_are_rejected() {
        let (links, schedule, model) = scheduled(10, 1, PowerMode::Uniform);
        assert!(matches!(
            effective_rate(
                &links,
                &schedule,
                &model,
                PowerMode::Uniform,
                FadingModel::none(),
                0,
                1
            ),
            Err(FadingError::InvalidParameter { name: "trials", .. })
        ));
        let bad = Schedule::new(vec![vec![999]]);
        assert!(matches!(
            effective_rate(
                &links,
                &bad,
                &model,
                PowerMode::Uniform,
                FadingModel::none(),
                10,
                1
            ),
            Err(FadingError::ScheduleOutOfRange { index: 999 })
        ));
    }

    #[test]
    fn deterministic_channel_has_no_degradation() {
        let (links, schedule, model) = scheduled(30, 5, PowerMode::GlobalControl);
        let report = effective_rate(
            &links,
            &schedule,
            &model,
            PowerMode::GlobalControl,
            FadingModel::none(),
            50,
            7,
        )
        .unwrap();
        assert_eq!(report.nominal_slots, schedule.len());
        assert!((report.effective_slots - schedule.len() as f64).abs() < 1e-9);
        assert!((report.degradation() - 1.0).abs() < 1e-9);
        assert_eq!(report.mean_success_probability, 1.0);
        assert_eq!(report.expected_retransmissions_per_link, 0.0);
    }

    #[test]
    fn fading_degradation_is_a_modest_constant_on_verified_schedules() {
        let (links, schedule, model) = scheduled(40, 11, PowerMode::GlobalControl);
        let report = effective_rate(
            &links,
            &schedule,
            &model,
            PowerMode::GlobalControl,
            FadingModel::rayleigh(1.0),
            300,
            13,
        )
        .unwrap();
        assert!(report.degradation() >= 1.0);
        assert!(
            report.degradation() < 25.0,
            "degradation {} unexpectedly large",
            report.degradation()
        );
        assert!(report.mean_success_probability > 0.2);
        assert!(report.min_success_probability > 0.0);
        assert!(report.expected_retransmissions_per_link >= 0.0);
    }

    #[test]
    fn estimates_are_deterministic_given_the_seed() {
        let (links, schedule, model) = scheduled(20, 3, PowerMode::mean_oblivious());
        let run = || {
            effective_rate(
                &links,
                &schedule,
                &model,
                PowerMode::mean_oblivious(),
                FadingModel::rayleigh(1.0),
                100,
                21,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
