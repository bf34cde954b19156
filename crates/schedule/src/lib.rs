//! Aggregation schedules: from a link set (typically an oriented MST) to a verified
//! TDMA schedule, under each of the paper's power-control modes.
//!
//! The pipeline mirrors Sec. 3 of the paper:
//!
//! 1. pick a [`PowerMode`] — uniform power, an oblivious scheme `P_τ`, or global
//!    power control;
//! 2. build the matching conflict graph (`G_γ`, `G^δ_γ` or `G_{γ log}`) over the
//!    links and color it greedily in non-increasing length order
//!    ([`scheduler::solve_static`], the kernel behind the session facade's
//!    static backend);
//! 3. **verify** every color class against the actual SINR condition for that power
//!    mode, splitting any class that the (constant-factor) conflict graph let
//!    through but the physical model rejects — so the returned [`Schedule`] is
//!    always genuinely feasible slot by slot;
//! 4. the schedule's [`rate`](Schedule::rate) is the reciprocal of its length, as
//!    for any periodic coloring schedule.
//!
//! The [`multicolor`] module covers the other side of Sec. 4: periodic schedules
//! that beat proper colorings (the 5-cycle example with rate `2/5` vs `1/3`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod multicolor;
pub mod power_mode;
pub mod repair;
pub mod report;
pub mod schedule;
pub mod scheduler;

pub use power_mode::{InvalidTau, PowerMode};
pub use repair::{
    capture_budgets, solve_repair, RepairDecision, RepairOutcome, RepairStats, SlotIndex,
};
pub use report::{BackendKind, ShardingStats, SolveReport};
pub use schedule::Schedule;
pub use scheduler::{
    schedule_prebuilt, schedule_prebuilt_traced, solve_static, split_class_into_feasible,
    ScheduleReport, SchedulerConfig,
};
pub use wagg_obs::Recorder;
