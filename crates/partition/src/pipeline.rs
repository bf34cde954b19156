//! The shard scheduling pipeline: per-shard coloring, local verification
//! splits, boundary stitching and the global verification pass.
//!
//! Both entry points — the static [`solve_sharded`](crate::solve_sharded)
//! and [`PartitionedEngine::schedule`](crate::PartitionedEngine::schedule) —
//! reduce their state to the same inputs ([`ShardPieces`] per shard plus
//! global boundary/ownership maps), run [`schedule_pieces`] and return
//! [`PipelineOutcome::into_report`] (the engine also returns the outcome's
//! per-slot totals):
//!
//! 1. **Color** every shard independently: the owned-only restriction of the
//!    shard's member graph (owned + ghost links) goes through
//!    [`schedule_prebuilt`] with verification deferred — per-shard
//!    verification could not certify a *global* slot anyway.
//! 2. **Split locally** (fixed power assignments, noise-free models): each
//!    shard slices the globally built `PathLossCache` via
//!    [`PathLossCache::subset_parts`] and evicts members whose affectance
//!    already fails among the shard's own links, re-packing them first-fit
//!    into fresh shard colors. This keeps the global pass below from facing
//!    grossly infeasible slots.
//! 3. **Stitch**: interior links keep their shard colors (the layout
//!    guarantees they have no cross-shard conflicts). Boundary links are
//!    swept in ascending global id; any link conflicting with an
//!    already-final neighbour is recolored to the smallest free color at or
//!    above its shard's **parity offset** — adjacent shards have different
//!    tile parities, so simultaneous repairs start in different color bands.
//!    After the sweep, every conflict edge whose endpoints still carry
//!    phase-1 colors is properly colored. (Links the *local split* of
//!    phase 2 re-packed are the exception: the pack is by affectance
//!    feasibility, not graph adjacency, so a re-packed pair may share a
//!    color while being graph-adjacent — physically fine, and phase 4
//!    re-verifies every slot by affectance anyway.)
//! 4. **Verify globally**: every stitched slot passes through the
//!    [`AffectanceVerifier`] (certified bounds — the flat grid below 8 192
//!    members, hierarchical far-field aggregation above, a depth the
//!    verifier takes from the slot size — with exact fallback) and failing
//!    members are evicted and re-packed — so each final slot passes
//!    `is_feasible_by_affectance`. A class kept whole also keeps the
//!    per-target totals its sweep computed, which are its warm-repair
//!    budgets ([`AffectanceVerifier::budgets`]); the pipeline hands them on
//!    in [`PipelineOutcome::totals`], so the session's warm-state anchor
//!    prices only the classes that lost members and the packed slots.
//!    Power modes without a fixed assignment
//!    (global control) and noisy models use
//!    [`split_class_into_feasible`] instead, the unsharded path's exact
//!    splitter.

use crate::layout::PartitionLayout;
use crate::verify::AffectanceVerifier;
use wagg_conflict::{ConflictGraph, ConflictRelation};
use wagg_obs::Recorder;
use wagg_schedule::{
    schedule_prebuilt, split_class_into_feasible, BackendKind, ScheduleReport, SchedulerConfig,
    ShardingStats, SolveReport,
};
use wagg_sinr::link::link_diversity;
use wagg_sinr::{Link, PathLossCache};

use rayon::prelude::*;

/// One shard's scheduling inputs.
#[derive(Debug, Clone)]
pub(crate) struct ShardPieces {
    /// Global (pipeline) link id of each member, indexed by the member's
    /// local vertex id in `graph`. Owned and ghost links together.
    pub member_globals: Vec<usize>,
    /// Local vertex ids of the owned members, strictly ascending.
    pub owned_local: Vec<usize>,
    /// Conflict graph over all members (links relabeled to local ids).
    pub graph: ConflictGraph,
    /// Chessboard parity of the shard's tile (the repair color offset).
    pub parity: usize,
}

/// What [`schedule_pieces`] produced.
#[derive(Debug, Clone)]
pub(crate) struct PipelineOutcome {
    /// Final verified slots (global link ids, ascending within a slot's kept
    /// prefix; packed overflow slots follow the stitched ones).
    pub slots: Vec<Vec<usize>>,
    /// Per slot, the verifier's per-member totals when phase 4 kept the
    /// slot's class whole (`AffectanceVerifier::budgets` of the slot, member
    /// for member); `None` for classes that lost members, packed slots, and
    /// every slot when no certified verifier ran.
    pub totals: Vec<Option<Vec<f64>>>,
    /// Colors in use after stitching, before global verification.
    pub coloring_slots: usize,
    /// Links ghosted into at least one other shard.
    pub boundary_links: usize,
    /// Boundary links recolored by the repair sweep.
    pub repaired_links: usize,
    /// Links evicted by the global verification pass (local-phase evictions
    /// are not counted — those stay within their shard's color space).
    pub evicted_links: usize,
    /// Largest per-shard owned-link count (0 with no shards).
    pub max_owned: usize,
    /// Mean per-shard owned-link count (0.0 with no shards).
    pub mean_owned: f64,
    /// Ghost copies per owned link: total ghost memberships across shards
    /// divided by the owned total (0.0 for an empty universe) — the halo
    /// replication overhead of the tiling.
    pub ghost_fraction: f64,
}

impl PipelineOutcome {
    /// The sharded [`SolveReport`] of these slots over `links` (the link
    /// set `slots` indexes), scheduled under `config` on `shards` tiles
    /// sized for conflict radius `radius`.
    pub(crate) fn into_report(
        self,
        links: &[Link],
        config: SchedulerConfig,
        shards: usize,
        radius: f64,
    ) -> SolveReport {
        let diversity = link_diversity(links).unwrap_or(1.0);
        let report = ScheduleReport::new(
            self.slots,
            self.coloring_slots,
            diversity,
            config.mode,
            links.len(),
        );
        SolveReport {
            sharding: Some(ShardingStats {
                shards,
                radius,
                boundary_links: self.boundary_links,
                repaired_links: self.repaired_links,
                evicted_links: self.evicted_links,
                max_owned: self.max_owned,
                mean_owned: self.mean_owned,
                ghost_fraction: self.ghost_fraction,
            }),
            ..SolveReport::new(report, BackendKind::Sharded)
        }
    }
}

/// Per-shard occupancy of a tiling whose shards own `owned[s]` links each
/// and hold `ghost_copies` ghost copies in all: `(max_owned, mean_owned,
/// ghost_fraction)` as [`ShardingStats`] reports them — how evenly the
/// tiling spread ownership, and how much halo replication the ghosts cost.
/// The one formula behind the pipeline's report and
/// [`PartitionedEngine::occupancy`](crate::PartitionedEngine::occupancy).
pub(crate) fn occupancy(owned: &[usize], ghost_copies: usize) -> (usize, f64, f64) {
    let owned_total: usize = owned.iter().sum();
    let max_owned = owned.iter().copied().max().unwrap_or(0);
    let mean_owned = if owned.is_empty() {
        0.0
    } else {
        owned_total as f64 / owned.len() as f64
    };
    let ghost_fraction = if owned_total == 0 {
        0.0
    } else {
        ghost_copies as f64 / owned_total as f64
    };
    (max_owned, mean_owned, ghost_fraction)
}

/// Builds every shard's [`ShardPieces`] from a [`PartitionLayout`]: member
/// link sets (owned first, then ghosts, each ascending) are relabeled to
/// local ids and their conflict subgraphs built from scratch — one
/// grid-accelerated `ConflictGraph::build` per shard, across threads under
/// the `parallel` feature (the inner builds then run serially inline, so
/// shard results are independent of the thread schedule).
pub(crate) fn build_pieces(
    links: &[Link],
    layout: &PartitionLayout,
    relation: ConflictRelation,
    rec: &Recorder,
) -> Vec<ShardPieces> {
    let phase = rec.span("partition/build");
    let build = |s: usize| -> ShardPieces {
        let shard_span = phase.child("shard");
        let owned = layout.owned(s);
        let ghosts = layout.ghosts(s);
        let member_globals: Vec<usize> = owned
            .iter()
            .chain(ghosts.iter())
            .map(|&g| g as usize)
            .collect();
        let member_links: Vec<Link> = member_globals
            .iter()
            .enumerate()
            .map(|(local, &g)| {
                let mut link = links[g];
                link.id = local.into();
                link
            })
            .collect();
        let pieces = ShardPieces {
            owned_local: (0..owned.len()).collect(),
            graph: ConflictGraph::build(&member_links, relation),
            member_globals,
            parity: layout.parity(s),
        };
        shard_span.finish();
        pieces
    };
    let pieces: Vec<ShardPieces> = (0..layout.shards()).into_par_iter().map(build).collect();
    phase.finish();
    pieces
}

/// Runs the full pipeline. `links` are the pipeline universe (ids relabeled
/// to positions, all of them of a length class); `boundary[i]` marks links
/// ghosted into other shards; `owner_of[i]` is `(piece index, local vertex
/// id)` of link `i`'s owned copy.
pub(crate) fn schedule_pieces(
    links: &[Link],
    pieces: &[ShardPieces],
    boundary: &[bool],
    owner_of: &[(u32, u32)],
    config: SchedulerConfig,
    rec: &Recorder,
) -> PipelineOutcome {
    // One globally built cache (fixed assignment, noise-free) feeds every
    // shard slice and the global verifier; other configurations verify by
    // materialising slots, exactly like the unsharded path.
    let assignment = config
        .mode
        .assignment()
        .filter(|_| config.model.noise() == 0.0);
    let global_cache = assignment
        .as_ref()
        .map(|a| PathLossCache::new(&config.model, links, a));

    // Phase 1 + 2: independent per-shard coloring and local splits.
    let color_phase = rec.span("partition/color");
    let shard_colors = |piece: &ShardPieces| -> Vec<usize> {
        let shard_span = color_phase.child("shard");
        let owned_graph = piece.graph.induced_subgraph(&piece.owned_local);
        let report = schedule_prebuilt(&owned_graph, None, config.with_verification(false));
        // Colors indexed by owned position (the owned subgraph's vertex id).
        let mut colors = vec![0usize; piece.owned_local.len()];
        for (slot, members) in report.schedule.slots().iter().enumerate() {
            for &p in members {
                colors[p] = slot;
            }
        }
        let mut num_colors = report.schedule.len();
        if config.verify_slots {
            if let Some(cache) = &global_cache {
                let (powers, weights) = cache.subset_parts(&piece.member_globals);
                let verifier =
                    AffectanceVerifier::new(&config.model, piece.graph.links(), &powers, &weights)
                        .with_recorder(rec);
                let mut classes: Vec<Vec<usize>> = vec![Vec::new(); num_colors];
                for (p, &local) in piece.owned_local.iter().enumerate() {
                    classes[colors[p]].push(local);
                }
                let mut evicted_locals: Vec<usize> = Vec::new();
                for class in &classes {
                    let (_, evicted, _) = verifier.evict_infeasible(class);
                    evicted_locals.extend(evicted);
                }
                if !evicted_locals.is_empty() {
                    for slot in verifier.pack_first_fit(&evicted_locals) {
                        for &local in &slot {
                            let p = piece
                                .owned_local
                                .binary_search(&local)
                                .expect("evicted links are owned");
                            colors[p] = num_colors;
                        }
                        num_colors += 1;
                    }
                }
            }
        }
        shard_span.finish();
        colors
    };
    let per_shard: Vec<Vec<usize>> = pieces.par_iter().map(shard_colors).collect();

    let mut colors = vec![0usize; links.len()];
    for (piece, piece_colors) in pieces.iter().zip(&per_shard) {
        for (p, &local) in piece.owned_local.iter().enumerate() {
            colors[piece.member_globals[local]] = piece_colors[p];
        }
    }
    color_phase.finish();
    let stitch_phase = rec.span("partition/stitch");

    // Phase 3: boundary repair sweep. A neighbour's color is *final* when the
    // neighbour is interior (its shard coloring already separates it from
    // everything it conflicts with) or an earlier-swept boundary link.
    let mut boundary_links = 0usize;
    let mut repaired_links = 0usize;
    for u in 0..links.len() {
        if !boundary[u] {
            continue;
        }
        boundary_links += 1;
        let (pi, lu) = owner_of[u];
        let piece = &pieces[pi as usize];
        let mut used: Vec<usize> = Vec::new();
        let mut conflict = false;
        for &vl in piece.graph.neighbors(lu as usize) {
            let v = piece.member_globals[vl];
            if !boundary[v] || v < u {
                used.push(colors[v]);
                conflict |= colors[v] == colors[u];
            }
        }
        if conflict {
            used.sort_unstable();
            used.dedup();
            let mut c = piece.parity; // color offsetting: parity band start
            while used.binary_search(&c).is_ok() {
                c += 1;
            }
            colors[u] = c;
            repaired_links += 1;
        }
    }
    let coloring_slots = colors.iter().max().map(|&c| c + 1).unwrap_or(0);
    stitch_phase.finish();

    // Phase 4: global verification.
    let verify_phase = rec.span("partition/verify");
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); coloring_slots];
    for (i, &c) in colors.iter().enumerate() {
        classes[c].push(i);
    }
    let mut slots: Vec<Vec<usize>> = Vec::new();
    let mut totals: Vec<Option<Vec<f64>>> = Vec::new();
    let mut evicted_links = 0usize;
    if !config.verify_slots {
        slots.extend(classes.into_iter().filter(|c| !c.is_empty()));
    } else if let Some(cache) = &global_cache {
        let (powers, weights) = cache.parts();
        let verifier =
            AffectanceVerifier::new(&config.model, links, powers, weights).with_recorder(rec);
        let mut all_evicted: Vec<usize> = Vec::new();
        for class in classes.into_iter().filter(|c| !c.is_empty()) {
            let (kept, evicted, class_totals) = verifier.evict_infeasible(&class);
            if !kept.is_empty() {
                // The totals of a class that lost members were priced with
                // the evicted members still present: not its budgets.
                totals.push(evicted.is_empty().then_some(class_totals));
                slots.push(kept);
            }
            all_evicted.extend(evicted);
        }
        evicted_links = all_evicted.len();
        slots.extend(verifier.pack_first_fit(&all_evicted));
    } else {
        for class in classes.into_iter().filter(|c| !c.is_empty()) {
            slots.extend(split_class_into_feasible(links, &class, &config, None));
        }
    }
    totals.resize(slots.len(), None);
    verify_phase.finish();

    let owned: Vec<usize> = pieces.iter().map(|p| p.owned_local.len()).collect();
    let owned_total: usize = owned.iter().sum();
    let ghost_copies: usize = pieces
        .iter()
        .map(|p| p.member_globals.len() - p.owned_local.len())
        .sum();
    let (max_owned, mean_owned, ghost_fraction) = occupancy(&owned, ghost_copies);
    rec.add("partition.owned_links", owned_total as u64);
    rec.add("partition.ghost_copies", ghost_copies as u64);
    rec.record_max("partition.owned_max", max_owned as u64);
    rec.add("partition.boundary_links", boundary_links as u64);
    rec.add("partition.repaired_links", repaired_links as u64);
    rec.add("partition.evicted_links", evicted_links as u64);

    PipelineOutcome {
        slots,
        totals,
        coloring_slots,
        boundary_links,
        repaired_links,
        evicted_links,
        max_owned,
        mean_owned,
        ghost_fraction,
    }
}
