//! Per-shard incremental maintenance: churn events touch only the owning
//! shard and its halo neighbours.
//!
//! [`PartitionedEngine`] keeps one `wagg_engine::InterferenceEngine` per
//! tile of a fixed [`TileLayout`]. A link lives in its **owner** shard (the
//! tile containing its midpoint) and as a **ghost** copy in every shard its
//! halo-expanded bounding box overlaps — the one ownership rule the static
//! [`PartitionLayout`](crate::PartitionLayout) places by too, so the stitching
//! invariants carry over: interior links have no cross-shard conflicts and
//! every cross-shard conflict edge is present in both owners' member
//! graphs. An insert or removal therefore updates a handful of engines
//! (each incrementally, in `O(affected neighbourhood)`), never all of them.
//! The engine also counts each shard's owned links and the ghost copies
//! where it places and removes them, so its occupancy
//! ([`PartitionedEngine::occupancy`]) is current after every event.
//!
//! Because the tiling and its halo margin are fixed at construction, the
//! engine declares the deployment extent and the link length bounds up
//! front; inserting a link outside the declared length bounds would silently
//! break the ghosting invariant, so it panics instead.
//!
//! # Examples
//!
//! ```
//! use wagg_geometry::{BoundingBox, Point};
//! use wagg_partition::{PartitionedEngine, PartitionedEngineConfig};
//! use wagg_schedule::{PowerMode, SchedulerConfig};
//!
//! let scheduler = SchedulerConfig::new(PowerMode::mean_oblivious());
//! let config = PartitionedEngineConfig::new(
//!     scheduler,
//!     BoundingBox::new(0.0, 0.0, 100.0, 100.0),
//!     (1.0, 2.0), // declared link length bounds
//!     4,
//! );
//! let mut engine = PartitionedEngine::new(config);
//! let a = engine.insert_link(Point::new(10.0, 10.0), Point::new(11.0, 10.0));
//! let _b = engine.insert_link(Point::new(80.0, 80.0), Point::new(81.0, 80.0));
//! engine.remove_link(a).unwrap();
//! let (sharded, _) = engine.schedule();
//! assert!(sharded.report.schedule.is_partition(engine.len()));
//! ```

use crate::layout::site_tiles;
use crate::pipeline::{self, ShardPieces};
use std::collections::BTreeMap;
use wagg_engine::{EngineError, InterferenceEngine};
use wagg_geometry::tiling::TileLayout;
use wagg_geometry::{BoundingBox, Point};
use wagg_obs::Recorder;
use wagg_schedule::{SchedulerConfig, SolveReport};
use wagg_sinr::Link;

use rayon::prelude::*;

/// Configuration of a [`PartitionedEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionedEngineConfig {
    /// The scheduler configuration shard schedules are computed for (fixes
    /// the conflict relation the shard engines maintain).
    pub scheduler: SchedulerConfig,
    /// The deployment region the tiling covers (links outside it clamp to
    /// border tiles — correct, just less balanced).
    pub extent: BoundingBox,
    /// Declared bounds `(min, max)` on every inserted link's length; they
    /// size the halo margin, so they are enforced per insert.
    pub length_bounds: (f64, f64),
    /// Target shard count (the halo-derived minimum tile side may cap it).
    pub target_shards: usize,
}

impl PartitionedEngineConfig {
    /// A configuration over `extent` for links with lengths in
    /// `length_bounds`, aiming for `target_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when the bounds are not `0 < min ≤ max < ∞`, the extent is not
    /// finite, or `target_shards` is 0 or above [`MAX_SHARDS`](crate::MAX_SHARDS).
    pub fn new(
        scheduler: SchedulerConfig,
        extent: BoundingBox,
        length_bounds: (f64, f64),
        target_shards: usize,
    ) -> Self {
        let config = PartitionedEngineConfig {
            scheduler,
            extent,
            length_bounds,
            target_shards,
        };
        config.check();
        config
    }

    /// Asserts what [`PartitionedEngineConfig::new`] documents: bounds with
    /// `0 < min ≤ max < ∞`, a finite extent, and `1 ≤ target_shards ≤`
    /// [`MAX_SHARDS`](crate::MAX_SHARDS). The fields are public, so
    /// [`PartitionedEngine::new`] checks a configuration again before it
    /// lays out a tile.
    fn check(&self) {
        let (lo, hi) = self.length_bounds;
        assert!(
            lo > 0.0 && lo <= hi && hi.is_finite(),
            "length bounds must satisfy 0 < min <= max < inf"
        );
        crate::assert_shards(self.target_shards);
        let extent = &self.extent;
        assert!(
            extent.min_x.is_finite()
                && extent.min_y.is_finite()
                && extent.max_x.is_finite()
                && extent.max_y.is_finite(),
            "extent must be finite"
        );
    }
}

/// Where one link lives: its owner shard/slot plus its ghost copies.
#[derive(Debug, Clone)]
struct LinkSites {
    owner_shard: u32,
    owner_slot: u32,
    /// `(shard, slot)` of each ghost copy, ascending by shard.
    ghosts: Vec<(u32, u32)>,
}

/// A sharded, incrementally maintained link universe with a stitched
/// scheduler (see the [module docs](self)).
#[derive(Debug)]
pub struct PartitionedEngine {
    config: PartitionedEngineConfig,
    tiles: TileLayout,
    radius: f64,
    halo: f64,
    engines: Vec<InterferenceEngine>,
    /// Per shard, per engine slot: `(key, owned)` of the link in the slot.
    meta: Vec<Vec<Option<(u64, bool)>>>,
    /// Key → placement; BTreeMap so iteration (and thus scheduling) is
    /// deterministic.
    sites: BTreeMap<u64, LinkSites>,
    /// Sites with at least one ghost copy, counted where sites are placed
    /// and removed.
    boundary: usize,
    /// Per shard, the links it owns, counted where sites are placed and
    /// removed.
    owned: Vec<usize>,
    /// Ghost copies across all shards, counted where sites are placed and
    /// removed.
    ghost_copies: usize,
    next_key: u64,
    /// Instrumentation sink (disabled by default — see `wagg-obs`).
    recorder: Recorder,
}

impl PartitionedEngine {
    /// An empty engine over the configured tiling.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`PartitionedEngineConfig::new`] refuses
    /// (a struct literal skips that constructor).
    pub fn new(config: PartitionedEngineConfig) -> Self {
        config.check();
        let relation = config
            .scheduler
            .mode
            .conflict_relation(config.scheduler.model.alpha());
        let radius = relation.reach(config.length_bounds, config.length_bounds);
        let halo = radius + config.length_bounds.1 / 2.0;
        let tiles = TileLayout::cover(&config.extent, config.target_shards, 2.0 * halo);
        let engines = (0..tiles.tiles())
            .map(|_| InterferenceEngine::new(config.scheduler))
            .collect::<Vec<_>>();
        let meta = vec![Vec::new(); tiles.tiles()];
        PartitionedEngine {
            config,
            owned: vec![0; tiles.tiles()],
            tiles,
            radius,
            halo,
            engines,
            meta,
            sites: BTreeMap::new(),
            boundary: 0,
            ghost_copies: 0,
            next_key: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Bulk-seeds an engine from a link set, assigning keys `0..n` in input
    /// order. State-equivalent to `n` [`PartitionedEngine::insert_link`]
    /// calls — same slots, same sites, and (since engine snapshots are
    /// canonical) the same schedules — but each shard engine is built once
    /// through the grid-accelerated `InterferenceEngine::with_links` instead
    /// of `n` incremental conflict-row recomputations. This is the
    /// restart-in-seconds path: re-materialising a large engine from a
    /// session snapshot costs seconds where sequential insertion costs
    /// minutes.
    ///
    /// # Panics
    ///
    /// Panics when a link's length is outside the configured bounds.
    pub fn with_links(config: PartitionedEngineConfig, links: &[Link]) -> Self {
        let mut engine = PartitionedEngine::new(config);
        let shards = engine.engines.len();
        // Stage per-shard insertion sequences in key order: the j-th staged
        // link of a shard lands in engine slot j, exactly where the
        // sequential insert path (owner first, then ghosts, ascending keys)
        // would have put it.
        let mut staged: Vec<Vec<Link>> = vec![Vec::new(); shards];
        let mut staged_meta: Vec<Vec<Option<(u64, bool)>>> = vec![Vec::new(); shards];
        for (key, link) in links.iter().enumerate() {
            let key = key as u64;
            engine.assert_length_bounds(link.sender, link.receiver);
            let (owner, ghost_tiles) =
                site_tiles(&engine.tiles, engine.halo, link.sender, link.receiver);
            // `insert_link` stores bare `Link::new(slot, ..)` values (node
            // annotations are session-side); `with_links` relabels ids to
            // slots, so staging id 0 reproduces the sequential state.
            let bare = Link::new(0, link.sender, link.receiver);
            let owner_slot = staged[owner as usize].len() as u32;
            staged[owner as usize].push(bare);
            staged_meta[owner as usize].push(Some((key, true)));
            let mut ghosts = Vec::with_capacity(ghost_tiles.len());
            for t in ghost_tiles {
                ghosts.push((t, staged[t as usize].len() as u32));
                staged[t as usize].push(bare);
                staged_meta[t as usize].push(Some((key, false)));
            }
            engine.insert_sites(
                key,
                LinkSites {
                    owner_shard: owner,
                    owner_slot,
                    ghosts,
                },
            );
        }
        engine.next_key = links.len() as u64;
        engine.meta = staged_meta;
        let build = |shard_links: &Vec<Link>| -> InterferenceEngine {
            InterferenceEngine::with_links(config.scheduler, shard_links)
        };
        engine.engines = staged.par_iter().map(build).collect();
        engine
    }

    /// Routes the engine's instrumentation to `rec`: every shard engine's
    /// maintenance counters (`engine.rows_recomputed` etc.), the pipeline's
    /// `partition/*` phase spans and occupancy counters, and the certified
    /// verifier's `verifier.*` counters. A disabled recorder (the default)
    /// keeps all of it no-op.
    pub fn set_recorder(&mut self, rec: Recorder) {
        for engine in &mut self.engines {
            engine.set_recorder(rec.clone());
        }
        self.recorder = rec;
    }

    /// The engine's configuration.
    pub fn config(&self) -> &PartitionedEngineConfig {
        &self.config
    }

    /// Number of live links.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no links are live.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Number of shards in the decomposition.
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// Live links (owned + ghost copies) in `shard`.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.engines[shard].len()
    }

    /// The conflict radius the tiling was sized for.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Links currently ghosted into at least one neighbouring shard — a
    /// counter kept current per event, not a scan.
    pub fn boundary_link_count(&self) -> usize {
        debug_assert_eq!(
            self.boundary,
            self.sites.values().filter(|s| !s.ghosts.is_empty()).count(),
            "boundary counter diverged from the sites"
        );
        self.boundary
    }

    /// The keys of every live link conflicting with `key`, ascending, or
    /// `None` for unknown keys. Reads only the owner shard: the halo
    /// invariant keeps every conflict partner of an owned link present there
    /// (owned or ghosted), so the owner shard's incrementally maintained
    /// adjacency row is already the link's complete global neighbourhood.
    pub fn neighbor_keys(&self, key: u64) -> Option<Vec<u64>> {
        let site = self.sites.get(&key)?;
        let shard = site.owner_shard as usize;
        let mut keys: Vec<u64> = self.engines[shard]
            .neighbors(site.owner_slot as usize)
            .iter()
            .map(|&w| self.meta[shard][w].expect("adjacent slot is live").0)
            .collect();
        keys.sort_unstable();
        debug_assert!(
            keys.windows(2).all(|w| w[0] != w[1]),
            "owner shard holds one copy per key"
        );
        Some(keys)
    }

    /// `(max_owned, mean_owned, ghost_fraction)` of the current placement,
    /// exactly as [`PartitionedEngine::schedule`] reports them in its
    /// `ShardingStats`: read in `O(shards)` from counters kept current per
    /// event, not from a scan.
    pub fn occupancy(&self) -> (usize, f64, f64) {
        if cfg!(debug_assertions) {
            let mut owned = vec![0; self.owned.len()];
            for site in self.sites.values() {
                owned[site.owner_shard as usize] += 1;
            }
            assert_eq!(owned, self.owned, "owned counters diverged from the sites");
            let ghosts: usize = self.sites.values().map(|s| s.ghosts.len()).sum();
            assert_eq!(ghosts, self.ghost_copies, "ghost counter diverged");
        }
        pipeline::occupancy(&self.owned, self.ghost_copies)
    }

    /// Ghost copies currently held by non-owner shards — a counter kept
    /// current per event, not a scan.
    pub fn ghost_copies(&self) -> usize {
        self.ghost_copies
    }

    /// Validates the declared length bounds for an insertion at this
    /// geometry (the halo margin — and with it the correctness of the
    /// decomposition — is sized from them).
    fn assert_length_bounds(&self, sender: Point, receiver: Point) {
        let len = sender.distance(receiver);
        let (lo, hi) = self.config.length_bounds;
        assert!(
            len >= lo && len <= hi,
            "link length {len} outside the configured bounds [{lo}, {hi}]"
        );
    }

    /// Places a link into its owner and ghost engines under `key` and
    /// records the sites.
    fn place_link(&mut self, key: u64, sender: Point, receiver: Point) {
        let (owner, ghost_tiles) = site_tiles(&self.tiles, self.halo, sender, receiver);
        let owner_slot = self.place(owner as usize, sender, receiver, key, true);
        let mut ghosts = Vec::with_capacity(ghost_tiles.len());
        for t in ghost_tiles {
            let slot = self.place(t as usize, sender, receiver, key, false);
            ghosts.push((t, slot as u32));
        }
        self.insert_sites(
            key,
            LinkSites {
                owner_shard: owner,
                owner_slot: owner_slot as u32,
                ghosts,
            },
        );
    }

    /// Records a placed link's sites under `key` and counts them into the
    /// boundary, owned and ghost counters.
    fn insert_sites(&mut self, key: u64, sites: LinkSites) {
        self.boundary += usize::from(!sites.ghosts.is_empty());
        self.owned[sites.owner_shard as usize] += 1;
        self.ghost_copies += sites.ghosts.len();
        self.sites.insert(key, sites);
    }

    /// The number of shards an insert at this geometry would touch (owner
    /// plus ghosts) — 1 for interior links.
    pub fn shards_touched(&self, sender: Point, receiver: Point) -> usize {
        1 + site_tiles(&self.tiles, self.halo, sender, receiver).1.len()
    }

    /// Inserts a link, returning its stable key.
    ///
    /// # Panics
    ///
    /// Panics when the link's length is outside the configured bounds.
    pub fn insert_link(&mut self, sender: Point, receiver: Point) -> u64 {
        self.assert_length_bounds(sender, receiver);
        let key = self.next_key;
        self.next_key += 1;
        self.place_link(key, sender, receiver);
        key
    }

    /// Inserts into one shard engine and records the slot's metadata.
    fn place(
        &mut self,
        shard: usize,
        sender: Point,
        receiver: Point,
        key: u64,
        owned: bool,
    ) -> usize {
        let slot = self.engines[shard].insert(Link::new(0, sender, receiver));
        let meta = &mut self.meta[shard];
        if slot >= meta.len() {
            meta.resize(slot + 1, None);
        }
        meta[slot] = Some((key, owned));
        slot
    }

    /// Removes the link under `key` from its owner shard and every ghost.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTraceKey`] when no live link has this key.
    pub fn remove_link(&mut self, key: u64) -> Result<(), EngineError> {
        let sites = self
            .sites
            .remove(&key)
            .ok_or(EngineError::UnknownTraceKey { key })?;
        self.boundary -= usize::from(!sites.ghosts.is_empty());
        self.owned[sites.owner_shard as usize] -= 1;
        self.ghost_copies -= sites.ghosts.len();
        self.engines[sites.owner_shard as usize].remove_link(sites.owner_slot as usize)?;
        self.meta[sites.owner_shard as usize][sites.owner_slot as usize] = None;
        for &(shard, slot) in &sites.ghosts {
            self.engines[shard as usize].remove_link(slot as usize)?;
            self.meta[shard as usize][slot as usize] = None;
        }
        Ok(())
    }

    /// Moves the link under `key` to a new geometry, re-deriving its owner
    /// and ghost shards (the key stays stable).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownTraceKey`] when no live link has this key.
    ///
    /// # Panics
    ///
    /// Panics when the new length is outside the configured bounds.
    pub fn relocate_link(
        &mut self,
        key: u64,
        sender: Point,
        receiver: Point,
    ) -> Result<(), EngineError> {
        if !self.sites.contains_key(&key) {
            return Err(EngineError::UnknownTraceKey { key });
        }
        self.assert_length_bounds(sender, receiver);
        self.remove_link(key)?;
        // Re-place under the original key.
        self.place_link(key, sender, receiver);
        Ok(())
    }

    /// The live links, ascending by key, relabeled to contiguous ids — the
    /// link universe [`PartitionedEngine::schedule`] schedules.
    pub fn links(&self) -> Vec<Link> {
        self.sites
            .iter()
            .enumerate()
            .map(|(gid, (_, sites))| {
                let mut link = *self.engines[sites.owner_shard as usize]
                    .link(sites.owner_slot as usize)
                    .expect("owner slot is live");
                link.id = gid.into();
                link
            })
            .collect()
    }

    /// Schedules the current link universe through the sharded pipeline,
    /// reusing every shard engine's incrementally maintained conflict state
    /// (member graphs are engine snapshots — no geometric rebuild).
    ///
    /// Beside the report, one entry per slot: the per-member affectance
    /// totals the global verification pass computed for a slot whose colour
    /// class it kept whole. They equal
    /// [`AffectanceVerifier::budgets`](crate::AffectanceVerifier::budgets)
    /// of that slot over [`PartitionedEngine::links`], bit for bit, so a
    /// warm-repair anchor need not price the
    /// slot again. The entry is `None` for a class that lost members, for
    /// a slot the pass re-packed, and for every slot when no certified
    /// verifier ran (verification off, a noisy model, or a power mode
    /// without a fixed assignment).
    pub fn schedule(&self) -> (SolveReport, Vec<Option<Vec<f64>>>) {
        let config = self.config.scheduler;
        let root = self.recorder.span("partition");
        let assemble_phase = root.child("assemble");
        let links = self.links();
        // gid lookup by key (keys ascending = gid order).
        let keys: Vec<u64> = self.sites.keys().copied().collect();
        let gid_of = |key: u64| -> usize { keys.binary_search(&key).expect("live key") };

        let assemble = |s: usize| -> ShardPieces {
            let engine = &self.engines[s];
            let graph = engine.snapshot();
            let live = engine.live_slots();
            let mut member_globals = Vec::with_capacity(live.len());
            let mut owned_local = Vec::new();
            for (local, &slot) in live.iter().enumerate() {
                let (key, owned) = self.meta[s][slot].expect("live slot has metadata");
                member_globals.push(gid_of(key));
                if owned {
                    owned_local.push(local);
                }
            }
            ShardPieces {
                member_globals,
                owned_local,
                graph,
                parity: self.tiles.parity(s),
            }
        };
        let pieces: Vec<ShardPieces> = (0..self.engines.len())
            .into_par_iter()
            .map(assemble)
            .collect();
        assemble_phase.finish();

        let mut boundary = vec![false; links.len()];
        for (gid, sites) in self.sites.values().enumerate() {
            boundary[gid] = !sites.ghosts.is_empty();
        }
        let mut owner_of = vec![(0u32, 0u32); links.len()];
        for (pi, piece) in pieces.iter().enumerate() {
            for &local in &piece.owned_local {
                owner_of[piece.member_globals[local]] = (pi as u32, local as u32);
            }
        }
        let mut outcome = pipeline::schedule_pieces(
            &links,
            &pieces,
            &boundary,
            &owner_of,
            config,
            &self.recorder,
        );
        root.finish();
        let totals = std::mem::take(&mut outcome.totals);
        let report = outcome.into_report(&links, config, self.engines.len(), self.radius);
        (report, totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_SHARDS;
    use wagg_schedule::PowerMode;

    fn engine(shards: usize) -> PartitionedEngine {
        PartitionedEngine::new(PartitionedEngineConfig::new(
            SchedulerConfig::new(PowerMode::mean_oblivious()),
            BoundingBox::new(0.0, 0.0, 120.0, 120.0),
            (1.0, 1.5),
            shards,
        ))
    }

    #[test]
    fn inserts_route_to_owner_and_halo_neighbours_only() {
        let mut e = engine(16);
        assert!(e.shard_count() >= 4);
        // A link well inside a tile touches exactly one shard.
        let interior = e.insert_link(Point::new(15.0, 15.0), Point::new(16.0, 15.0));
        assert_eq!(e.ghost_copies(), 0);
        // A link near a tile border is ghosted into the neighbouring shard.
        let tile = e.tiles.tile_size();
        let near = e.insert_link(Point::new(tile - 0.5, 15.0), Point::new(tile + 0.5, 15.0));
        assert!(e.ghost_copies() >= 1);
        assert_eq!(e.len(), 2);
        e.remove_link(interior).unwrap();
        e.remove_link(near).unwrap();
        assert!(e.is_empty());
        assert_eq!(e.ghost_copies(), 0);
    }

    #[test]
    fn unknown_keys_error() {
        let mut e = engine(4);
        assert_eq!(
            e.remove_link(3),
            Err(EngineError::UnknownTraceKey { key: 3 })
        );
        assert_eq!(
            e.relocate_link(3, Point::origin(), Point::on_line(1.0)),
            Err(EngineError::UnknownTraceKey { key: 3 })
        );
    }

    #[test]
    fn relocation_rederives_ownership() {
        let mut e = engine(16);
        let key = e.insert_link(Point::new(10.0, 10.0), Point::new(11.0, 10.0));
        let before = e.sites[&key].owner_shard;
        e.relocate_link(key, Point::new(110.0, 110.0), Point::new(111.0, 110.0))
            .unwrap();
        let after = e.sites[&key].owner_shard;
        assert_ne!(before, after);
        assert_eq!(e.len(), 1);
        let (sharded, _) = e.schedule();
        assert!(sharded.report.schedule.is_partition(1));
    }

    #[test]
    #[should_panic(expected = "exceed the bound")]
    fn shard_counts_past_the_bound_are_rejected() {
        let _ = PartitionedEngineConfig::new(
            SchedulerConfig::new(PowerMode::mean_oblivious()),
            BoundingBox::new(0.0, 0.0, 1e6, 1e6),
            (1.0, 1.5),
            1 << 40,
        );
    }

    /// A configuration built as a struct literal, past
    /// `PartitionedEngineConfig::new`'s checks.
    fn literal(
        extent: BoundingBox,
        length_bounds: (f64, f64),
        target_shards: usize,
    ) -> PartitionedEngineConfig {
        PartitionedEngineConfig {
            scheduler: SchedulerConfig::new(PowerMode::mean_oblivious()),
            extent,
            length_bounds,
            target_shards,
        }
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn literal_configs_with_no_shards_are_rejected() {
        let square = BoundingBox::new(0.0, 0.0, 100.0, 100.0);
        let _ = PartitionedEngine::new(literal(square, (1.0, 1.5), 0));
    }

    #[test]
    #[should_panic(expected = "4097 shards exceed the bound of 4096")]
    fn literal_configs_past_the_shard_bound_are_rejected() {
        let square = BoundingBox::new(0.0, 0.0, 100.0, 100.0);
        let _ = PartitionedEngine::new(literal(square, (1.0, 1.5), MAX_SHARDS + 1));
    }

    #[test]
    #[should_panic(expected = "extent must be finite")]
    fn literal_configs_with_an_infinite_extent_are_rejected() {
        let unbounded = BoundingBox::new(0.0, 0.0, f64::INFINITY, 100.0);
        let _ = PartitionedEngine::with_links(literal(unbounded, (1.0, 1.5), 4), &[]);
    }

    #[test]
    #[should_panic(expected = "length bounds must satisfy")]
    fn literal_configs_with_inverted_bounds_are_rejected() {
        let square = BoundingBox::new(0.0, 0.0, 100.0, 100.0);
        let _ = PartitionedEngine::new(literal(square, (2.0, 1.0), 4));
    }

    #[test]
    #[should_panic(expected = "outside the configured bounds")]
    fn out_of_bounds_lengths_are_rejected() {
        let mut e = engine(4);
        let _ = e.insert_link(Point::new(0.0, 0.0), Point::new(50.0, 0.0));
    }

    #[test]
    fn bulk_seeding_matches_sequential_inserts() {
        let links: Vec<Link> = (0..120)
            .map(|i| {
                let x = (i % 12) as f64 * 9.0 + 1.0;
                let y = (i / 12) as f64 * 11.0 + 1.0;
                Link::new(i, Point::new(x, y), Point::new(x + 1.2, y))
            })
            .collect();
        let config = PartitionedEngineConfig::new(
            SchedulerConfig::new(PowerMode::mean_oblivious()),
            BoundingBox::new(0.0, 0.0, 120.0, 120.0),
            (1.0, 1.5),
            16,
        );
        let mut seq = PartitionedEngine::new(config);
        for l in &links {
            seq.insert_link(l.sender, l.receiver);
        }
        let bulk = PartitionedEngine::with_links(config, &links);
        // Same placements: sites, per-shard occupancy, links and metadata.
        assert_eq!(bulk.len(), seq.len());
        assert_eq!(bulk.next_key, seq.next_key);
        assert_eq!(bulk.links(), seq.links());
        assert_eq!(bulk.ghost_copies(), seq.ghost_copies());
        for s in 0..seq.shard_count() {
            assert_eq!(bulk.shard_len(s), seq.shard_len(s), "shard {s} occupancy");
            assert_eq!(bulk.meta[s], seq.meta[s], "shard {s} metadata");
        }
        for (key, site) in &seq.sites {
            let b = &bulk.sites[key];
            assert_eq!(b.owner_shard, site.owner_shard);
            assert_eq!(b.owner_slot, site.owner_slot);
            assert_eq!(b.ghosts, site.ghosts);
        }
        // Same neighbourhoods and, decisive for snapshot restore, the same
        // schedule slot for slot.
        for key in 0..links.len() as u64 {
            assert_eq!(bulk.neighbor_keys(key), seq.neighbor_keys(key));
        }
        assert_eq!(bulk.schedule(), seq.schedule());
        // Churn after bulk seeding behaves like churn after sequential
        // seeding (slots freed by bulk-built engines recycle identically).
        let mut bulk = bulk;
        for key in (0..24u64).step_by(3) {
            seq.remove_link(key).unwrap();
            bulk.remove_link(key).unwrap();
        }
        let k1 = seq.insert_link(Point::new(60.0, 60.0), Point::new(61.0, 60.0));
        let k2 = bulk.insert_link(Point::new(60.0, 60.0), Point::new(61.0, 60.0));
        assert_eq!(k1, k2);
        assert_eq!(bulk.schedule(), seq.schedule());
    }

    #[test]
    fn boundary_counter_matches_the_pipeline_through_churn() {
        let config = PartitionedEngineConfig::new(
            SchedulerConfig::new(PowerMode::mean_oblivious()),
            BoundingBox::new(0.0, 0.0, 120.0, 120.0),
            (1.0, 1.5),
            16,
        );
        let links: Vec<Link> = (0..150)
            .map(|i| {
                let x = (i % 15) as f64 * 8.0 + 0.5;
                let y = (i / 15) as f64 * 12.0 + 0.5;
                Link::new(i, Point::new(x, y), Point::new(x + 1.2, y))
            })
            .collect();
        let mut e = PartitionedEngine::with_links(config, &links);
        let check = |e: &PartitionedEngine, context: &str| {
            let scan = e.sites.values().filter(|s| !s.ghosts.is_empty()).count();
            assert_eq!(e.boundary, scan, "{context}: counter vs sites");
            assert_eq!(
                e.boundary_link_count(),
                e.schedule().0.sharding.unwrap().boundary_links,
                "{context}: counter vs pipeline"
            );
        };
        check(&e, "after with_links");
        assert!(
            e.boundary_link_count() > 0,
            "the seed straddles tile borders"
        );
        let tile = e.tiles.tile_size();
        // Even steps straddle a tile border, odd ones sit mid-tile.
        let at = |step: u64| {
            let k = (step % 3 + 1) as f64;
            let y = 5.0 + (step * 7 % 100) as f64;
            let x = if step.is_multiple_of(2) {
                k * tile - 0.6
            } else {
                (k - 0.5) * tile
            };
            (Point::new(x, y), Point::new(x + 1.2, y))
        };
        let mut keys: Vec<u64> = (0..links.len() as u64).collect();
        for step in 0..90u64 {
            let (sender, receiver) = at(step);
            match step % 3 {
                0 => keys.push(e.insert_link(sender, receiver)),
                1 => {
                    let key = keys.remove((step as usize * 7) % keys.len());
                    e.remove_link(key).unwrap();
                }
                _ => {
                    let key = keys[(step as usize * 11) % keys.len()];
                    e.relocate_link(key, sender, receiver).unwrap();
                }
            }
            check(&e, &format!("step {step}"));
        }
    }

    #[test]
    fn schedule_is_feasible_under_churn() {
        let mut e = engine(9);
        let mut keys = Vec::new();
        for i in 0..80u64 {
            let x = (i % 10) as f64 * 12.0;
            let y = (i / 10) as f64 * 12.0;
            keys.push(e.insert_link(Point::new(x, y), Point::new(x + 1.0, y)));
        }
        for (round, &k) in keys.iter().enumerate().take(20) {
            if round % 2 == 0 {
                e.remove_link(k).unwrap();
            }
        }
        let links = e.links();
        let (sharded, _) = e.schedule();
        assert!(sharded.report.schedule.is_partition(links.len()));
        let config = e.config().scheduler;
        assert!(sharded
            .report
            .schedule
            .verify(&links, &config.model, config.mode));
    }
}
