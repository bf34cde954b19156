//! Robustness of aggregation schedules under fading and noise fluctuations.
//!
//! The paper's schedules are computed against the deterministic path-loss
//! SINR model. Section 3.1 ("Robustness and temporal variability") argues
//! that sporadic fluctuations — Rayleigh fading, noise variation — do not
//! change the picture materially as long as an acknowledgment/retransmission
//! mechanism is in place. This crate makes that claim measurable:
//!
//! * [`model`] — the stochastic channel: Rayleigh (exponential power gain)
//!   fading per transmission, optional log-normal noise fluctuation, and the
//!   closed-form success probability of an isolated faded link,
//! * [`slot`] — the outcome of one faded slot: which of the concurrently
//!   transmitting links meet the SINR threshold once the sampled gains are
//!   applied,
//! * [`arq`] — an acknowledgment/retransmission convergecast: one aggregation
//!   wave over the scheduled tree where failed transmissions are retried in
//!   the link's next scheduled slot,
//! * [`montecarlo`] — the effective (fading-degraded) rate of a periodic
//!   schedule, estimated from per-slot success probabilities.
//!
//! # Examples
//!
//! ```
//! use wagg_fading::{ArqConvergecast, ArqConfig, FadingModel};
//! use wagg_instances::random::uniform_square;
//! use wagg_schedule::{solve_static, PowerMode, Recorder, SchedulerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let inst = uniform_square(30, 100.0, 7);
//! let links = inst.mst_links()?;
//! let config = SchedulerConfig::new(PowerMode::GlobalControl);
//! let report = solve_static(&links, config, &Recorder::disabled());
//!
//! let sim = ArqConvergecast::new(&links, &report.schedule)?;
//! let outcome = sim.run(&config.model, config.mode, FadingModel::rayleigh(1.0), ArqConfig::default())?;
//! assert!(outcome.completed);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arq;
pub mod error;
pub mod model;
pub mod montecarlo;
pub mod slot;

pub use arq::{ArqConfig, ArqConvergecast, ArqReport};
pub use error::FadingError;
pub use model::FadingModel;
pub use montecarlo::{effective_rate, FadingRateReport};
pub use slot::{faded_slot_outcome, slot_powers};
