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
//!   verification off the `O(s²)` cliff. It prices the far field of a slot
//!   through the flat grid below 8 192 members and a cell → super-cell
//!   aggregation pyramid (`O(log m)`-ish per target) above, a depth it
//!   takes from the slot size;
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
//! occupancy). [`PartitionedEngine::schedule`] also hands on, per slot, the
//! verification pass's per-member totals (the slot's warm-repair budgets)
//! for the colour classes the pass kept whole.
//!
//! # Examples
//!
//! ```
//! use wagg_geometry::Point;
//! use wagg_partition::solve_sharded;
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
//! let sharded = solve_sharded(&links, config, 4, &rec);
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

pub use engine::{PartitionedEngine, PartitionedEngineConfig};
pub use layout::{max_conflict_radius, PartitionLayout};
pub use verify::AffectanceVerifier;

use wagg_conflict::is_classed;
use wagg_obs::Recorder;
use wagg_schedule::{SchedulerConfig, SolveReport};
use wagg_sinr::Link;

/// The most shards a tiling may be asked for. A tiling lays out at most
/// about three times its target in tiles (`TileLayout::cover`), and the
/// sharded engine keeps one `InterferenceEngine` per tile, so the bound caps
/// what a shard count read from outside (a snapshot, a service request) can
/// make the process allocate. The benchmarks ask for at most 64.
pub const MAX_SHARDS: usize = 1 << 12;

/// Asserts `1 <= target_shards <= MAX_SHARDS`.
fn assert_shards(target_shards: usize) {
    assert!(target_shards > 0, "need at least one shard");
    assert!(
        target_shards <= MAX_SHARDS,
        "{target_shards} shards exceed the bound of {MAX_SHARDS}"
    );
}

/// The sharded scheduling pipeline: tiles the link set by [`PartitionLayout`],
/// schedules each shard independently (see the [crate docs](self)), stitches,
/// and verifies the stitched schedule slot by slot with the certified
/// [`AffectanceVerifier`] — so, exactly like the unsharded kernel
/// (`wagg_schedule::solve_static`), every returned slot is genuinely feasible
/// under `config`'s power mode when `config.verify_slots` is set: the
/// verifier's accept/evict decisions match `is_feasible_by_affectance`. With
/// one shard and verification disabled the result coincides with the
/// unsharded scheduler's coloring.
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
/// picks the shard count for `Backend::Auto`.
///
/// Links of no length class (`wagg_conflict::is_classed`: zero length, or a
/// length that overflows to infinity) conflict with every other link and
/// cannot be localised by any finite halo; they are split off up front and
/// appended as singleton slots (which is where the unsharded scheduler ends
/// up putting them too).
///
/// # Panics
///
/// Panics when `target_shards` is 0 or above [`MAX_SHARDS`].
pub fn solve_sharded(
    links: &[Link],
    config: SchedulerConfig,
    target_shards: usize,
    rec: &Recorder,
) -> SolveReport {
    assert_shards(target_shards);
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
    let mut outcome =
        pipeline::schedule_pieces(&plinks, &pieces, &boundary, &owner_of, config, rec);

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
