//! Spatially sharded scheduling for very large link sets.
//!
//! PR 1 made one conflict-graph build fast and PR 2 made it incremental, but
//! every scheduler still operated on a **single** global graph, cache and
//! color space. This crate is the first layer where the system stops being
//! one graph: the deployment region is tiled into shards sized by the
//! maximum conflict radius of the instance, links are assigned to shards
//! with ghost (halo) overlap, each shard builds and colors its own CSR
//! conflict subgraph in parallel, and the per-shard schedules are stitched
//! back into one global, SINR-verified schedule.
//!
//! The division of labour:
//!
//! * [`layout`] — [`PartitionLayout`]: conflict-radius bounds, tile
//!   ownership, ghost membership (on top of
//!   `wagg_geometry::tiling::TileLayout`);
//! * [`verify`] — [`AffectanceVerifier`]: certified-upper-bound slot
//!   verification with exact fallback, the piece that keeps million-link
//!   verification off the `O(s²)` cliff. The default [`VerifierStrategy`]
//!   prices the far field through a cell → super-cell aggregation pyramid
//!   (`O(log m)`-ish per target); the flat PR-3 grid survives as the
//!   differential baseline;
//! * `pipeline` (internal) — per-shard coloring via
//!   `wagg_schedule::schedule_prebuilt`, parity-offset boundary repair and
//!   the global verification/eviction pass;
//! * [`engine`] — [`PartitionedEngine`]: per-shard incremental maintenance
//!   on top of `wagg_engine::InterferenceEngine`, routing each churn event
//!   to the owning shard and its halo neighbours only.
//!
//! Both entry points, [`solve_sharded`] and [`PartitionedEngine::schedule`],
//! return the `wagg_schedule::SolveReport` every backend returns, tagged
//! `BackendKind::Sharded`; its `sharding` field carries the decomposition's
//! accounting (shard count, radius, boundary, repaired and evicted links,
//! occupancy).
//!
//! # Examples
//!
//! ```
//! use wagg_geometry::Point;
//! use wagg_partition::{solve_sharded, VerifierStrategy};
//! use wagg_schedule::{PowerMode, Recorder, SchedulerConfig};
//! use wagg_sinr::Link;
//!
//! let links: Vec<Link> = (0..100)
//!     .map(|i| {
//!         let x = (i % 10) as f64 * 8.0;
//!         let y = (i / 10) as f64 * 8.0;
//!         Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
//!     })
//!     .collect();
//! let config = SchedulerConfig::new(PowerMode::mean_oblivious());
//! let rec = Recorder::disabled();
//! let sharded = solve_sharded(&links, config, 4, VerifierStrategy::default(), &rec);
//! assert!(sharded.sharding.expect("sharded runs carry their stats").shards >= 4);
//! assert!(sharded.report.schedule.is_partition(links.len()));
//! assert!(sharded.report.schedule.verify(&links, &config.model, config.mode));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod layout;
pub mod verify;

mod pipeline;

pub use engine::{PartitionedEngine, PartitionedEngineConfig, PartitionedStats};
pub use layout::{max_conflict_radius, PartitionLayout};
pub use verify::{AffectanceVerifier, VerifierStrategy};

use wagg_conflict::is_classed;
use wagg_obs::Recorder;
use wagg_schedule::{SchedulerConfig, SolveReport};
use wagg_sinr::Link;

/// The sharded scheduling pipeline: tiles the link set by [`PartitionLayout`],
/// schedules each shard independently (see the [crate docs](self)), stitches,
/// and verifies the stitched schedule slot by slot with the given far-field
/// [`VerifierStrategy`] — so, exactly like the unsharded kernel
/// (`wagg_schedule::solve_static`), every returned slot is genuinely feasible
/// under `config`'s power mode when `config.verify_slots` is set. With one
/// shard and verification disabled the result coincides with the unsharded
/// scheduler's coloring.
///
/// The strategy only changes how the verifier *prices* slots — accept/evict
/// decisions (and with them the final schedule) match
/// `is_feasible_by_affectance` under every strategy, which the differential
/// test battery pins; a pyramid depth of 1 is the flat-grid baseline, the
/// default descends the aggregation pyramid.
///
/// The report is tagged [`BackendKind::Sharded`](wagg_schedule::BackendKind)
/// and carries the decomposition's [`ShardingStats`](wagg_schedule::ShardingStats).
/// The run records a `partition` span with `build` / `color` / `stitch` /
/// `verify` children (per-shard `shard` sub-spans inside build and color),
/// the `partition.*` occupancy and stitching counters, and the `verifier.*`
/// work counters on `rec` (see `wagg-obs`); a disabled recorder records
/// nothing.
///
/// This is the primitive `wagg_core::session::Session`'s sharded backend
/// wraps; application code should schedule through the session, which also
/// picks the shard count and strategy for `Backend::Auto`.
///
/// Links of no length class (`wagg_conflict::is_classed`: zero length, or a
/// length that overflows to infinity) conflict with every other link and
/// cannot be localised by any finite halo; they are split off up front and
/// appended as singleton slots (which is where the unsharded scheduler ends
/// up putting them too).
///
/// # Panics
///
/// Panics when `target_shards == 0`.
pub fn solve_sharded(
    links: &[Link],
    config: SchedulerConfig,
    target_shards: usize,
    strategy: VerifierStrategy,
    rec: &Recorder,
) -> SolveReport {
    assert!(target_shards > 0, "need at least one shard");
    let root = rec.span("partition");
    let relation = config.mode.conflict_relation(config.model.alpha());

    let (classed, degenerate): (Vec<usize>, Vec<usize>) =
        (0..links.len()).partition(|&i| is_classed(links[i].length()));
    let plinks: Vec<Link> = classed
        .iter()
        .enumerate()
        .map(|(pos, &i)| {
            let mut link = links[i];
            link.id = pos.into();
            link
        })
        .collect();

    let layout = PartitionLayout::build(&plinks, relation, target_shards);
    let pieces = pipeline::build_pieces(&plinks, &layout, relation, rec);
    let boundary: Vec<bool> = (0..plinks.len()).map(|i| layout.is_boundary(i)).collect();
    let mut owner_of = vec![(0u32, 0u32); plinks.len()];
    for (pi, piece) in pieces.iter().enumerate() {
        for &local in &piece.owned_local {
            owner_of[piece.member_globals[local]] = (pi as u32, local as u32);
        }
    }
    let mut outcome = pipeline::schedule_pieces(
        &plinks, &pieces, &boundary, &owner_of, config, strategy, rec,
    );

    // Back to the caller's indices; degenerate links close the schedule as
    // singleton slots.
    for slot in &mut outcome.slots {
        for i in slot.iter_mut() {
            *i = classed[*i];
        }
    }
    outcome.slots.extend(degenerate.iter().map(|&d| vec![d]));
    outcome.coloring_slots += degenerate.len();
    let report = outcome.into_report(links, config, layout.shards(), layout.radius());
    root.finish();
    report
}
