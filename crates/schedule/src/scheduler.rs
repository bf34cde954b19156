//! The end-to-end scheduler: conflict-graph coloring plus SINR verification.

use crate::power_mode::PowerMode;
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use wagg_conflict::{greedy_color, ConflictGraph};
use wagg_geometry::logmath::{log_log2, log_star};
use wagg_obs::Recorder;
use wagg_sinr::link::link_diversity;
use wagg_sinr::{Link, PathLossCache, SinrModel};

/// Configuration of the end-to-end scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// The SINR model parameters.
    pub model: SinrModel,
    /// The power-control mode (determines conflict graph and verification).
    pub mode: PowerMode,
    /// Whether to verify every color class against the physical model and split
    /// classes that fail (guarantees a genuinely feasible schedule at the cost of
    /// possibly more slots). Defaults to `true`.
    pub verify_slots: bool,
}

impl SchedulerConfig {
    /// A configuration with the default model (`α = 3`, `β = 1`, noise-free) and the
    /// given power mode, with slot verification enabled.
    pub fn new(mode: PowerMode) -> Self {
        SchedulerConfig {
            model: SinrModel::default(),
            mode,
            verify_slots: true,
        }
    }

    /// Replaces the SINR model.
    pub fn with_model(mut self, model: SinrModel) -> Self {
        self.model = model;
        self
    }

    /// Enables or disables per-slot verification/splitting.
    pub fn with_verification(mut self, verify: bool) -> Self {
        self.verify_slots = verify;
        self
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig::new(PowerMode::GlobalControl)
    }
}

/// The outcome of scheduling a link set: the schedule itself plus the quantities the
/// paper's analysis talks about, ready for the experiment harness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// The verified schedule.
    pub schedule: Schedule,
    /// Number of colors the conflict-graph coloring used, before verification
    /// splitting.
    pub coloring_slots: usize,
    /// Number of slots after verification splitting (equals the schedule length).
    pub verified_slots: usize,
    /// The link diversity `Δ(L)` of the scheduled link set (1.0 for empty sets).
    pub diversity: f64,
    /// `log* Δ` — the paper's bound shape for global power control.
    pub log_star_diversity: u32,
    /// `log log Δ` — the paper's bound shape for oblivious power.
    pub log_log_diversity: f64,
    /// The power mode that was scheduled for.
    pub mode: PowerMode,
    /// Number of links scheduled.
    pub num_links: usize,
}

impl ScheduleReport {
    /// The report of `slots` over `num_links` links scheduled for `mode`:
    /// `verified_slots` is the number of slots, and the two bound shapes
    /// are derived from `diversity`.
    pub fn new(
        slots: Vec<Vec<usize>>,
        coloring_slots: usize,
        diversity: f64,
        mode: PowerMode,
        num_links: usize,
    ) -> Self {
        ScheduleReport {
            verified_slots: slots.len(),
            schedule: Schedule::new(slots),
            coloring_slots,
            diversity,
            log_star_diversity: log_star(diversity),
            log_log_diversity: log_log2(diversity),
            mode,
            num_links,
        }
    }

    /// The achieved aggregation rate `1 / slots`.
    pub fn rate(&self) -> f64 {
        self.schedule.rate()
    }
}

/// The static scheduling kernel: builds the conflict graph matched to the
/// power mode, colors it greedily, and (when `verify_slots` is set) re-checks
/// each color class against the actual SINR condition, splitting classes
/// first-fit in non-increasing length order where necessary.
///
/// This is the primitive `wagg_core::session::Session`'s static backend
/// wraps. Application code should schedule through the session (which also
/// offers the incremental and sharded execution strategies behind the same
/// surface); substrate crates *below* the facade (multihop, latency, fading)
/// call this directly, with `Recorder::disabled()` when they record nothing.
///
/// The conflict-graph build records its `conflict/*` phase spans and the
/// coloring/verification pass records `static/color` / `static/verify` on
/// `rec` (see `wagg-obs`); a disabled recorder records nothing.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::Link;
/// use wagg_schedule::{solve_static, PowerMode, Recorder, SchedulerConfig};
///
/// let links = vec![
///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
///     Link::new(1, Point::new(10.0, 0.0), Point::new(11.0, 0.0)),
///     Link::new(2, Point::new(20.0, 0.0), Point::new(21.0, 0.0)),
/// ];
/// let config = SchedulerConfig::new(PowerMode::Uniform);
/// let report = solve_static(&links, config, &Recorder::disabled());
/// // Three well-separated unit links fit in a single slot.
/// assert_eq!(report.schedule.len(), 1);
/// assert!(report.schedule.verify(&links, &config.model, PowerMode::Uniform));
/// ```
pub fn solve_static(links: &[Link], config: SchedulerConfig, rec: &Recorder) -> ScheduleReport {
    let relation = config.mode.conflict_relation(config.model.alpha());
    let graph = ConflictGraph::build_traced(links, relation, rec);
    schedule_prebuilt_traced(&graph, None, config, rec)
}

/// Schedules the links of an already-built conflict graph, optionally reusing
/// an already-built path-loss cache for the slot probes.
///
/// This is the entry point for callers that maintain the interference state
/// *incrementally* (the `wagg-engine` crate): after a churn or mobility event
/// they materialise their patched adjacency into a [`ConflictGraph`] snapshot
/// and lend their patched per-link path-loss state as `cache`, so rescheduling
/// performs no geometric work beyond the coloring and the slot probes
/// themselves. Under a disabled recorder, [`solve_static`] is exactly
/// `schedule_prebuilt(&build(..), None, config)`.
///
/// When `cache` is `None` and the power mode has a fixed assignment (and the
/// model is noise-free), the cache is built **once** here and shared across
/// every slot-feasibility probe of the run — the seed rebuilt it per
/// `is_feasible_by_affectance` call, i.e. per probe.
///
/// A lent `cache` must hold exactly what `PathLossCache::new` would compute
/// for `graph.links()` (in vertex order) under the assignment of
/// `config.mode` — only the lengths are checked here. The cache kernel is
/// noise-free, so under a noisy model a lent cache is ignored and every
/// probe falls back to the materialised SINR check.
///
/// # Panics
///
/// Panics if the graph was built under a different conflict relation than
/// `config.mode` implies, or if `cache` covers a different number of links.
pub fn schedule_prebuilt(
    graph: &ConflictGraph,
    cache: Option<&PathLossCache<'_>>,
    config: SchedulerConfig,
) -> ScheduleReport {
    schedule_prebuilt_traced(graph, cache, config, &Recorder::disabled())
}

/// [`schedule_prebuilt`] with phase instrumentation: records a `static` span
/// with `color` and `verify` children on `rec`, plus the
/// `static.coloring_slots` / `static.verified_slots` counters. With a
/// disabled recorder, this is exactly [`schedule_prebuilt`].
pub fn schedule_prebuilt_traced(
    graph: &ConflictGraph,
    cache: Option<&PathLossCache<'_>>,
    config: SchedulerConfig,
    rec: &Recorder,
) -> ScheduleReport {
    assert_eq!(
        graph.relation(),
        config.mode.conflict_relation(config.model.alpha()),
        "conflict graph was built for a different power mode"
    );
    let links = graph.links();
    if let Some(cache) = cache {
        assert_eq!(
            cache.links().len(),
            links.len(),
            "path-loss cache covers a different link set"
        );
    }
    // The affectance kernel the cache feeds is noise-free; with noise the
    // probes must evaluate the full SINR quotient per materialised slot.
    let cache = cache.filter(|_| config.model.noise() == 0.0);
    let root = rec.span("static");
    let color_span = root.child("color");
    let coloring = greedy_color(graph);
    let coloring_slots = coloring.num_colors();
    color_span.finish();

    let verify_span = root.child("verify");
    // One shared cache for every slot probe of this run (unless the caller
    // lent one, or the mode/model need per-slot treatment).
    let owned_cache = match cache {
        Some(_) => None,
        None if config.verify_slots => fixed_probe_cache(links, &config),
        None => None,
    };
    let cache = cache.or(owned_cache.as_ref());

    let mut slots: Vec<Vec<usize>> = Vec::new();
    for class in coloring.classes() {
        if class.is_empty() {
            continue;
        }
        if !config.verify_slots {
            slots.push(class);
            continue;
        }
        slots.extend(split_class_into_feasible(links, &class, &config, cache));
    }
    verify_span.finish();
    rec.add("static.coloring_slots", coloring_slots as u64);
    rec.add("static.verified_slots", slots.len() as u64);

    let diversity = link_diversity(links).unwrap_or(1.0);
    ScheduleReport::new(slots, coloring_slots, diversity, config.mode, links.len())
}

/// The shared slot-probe cache for fixed power assignments under a noise-free
/// model; `None` when probes must be evaluated per materialised slot (global
/// power control's spectral test, or a noisy model).
fn fixed_probe_cache<'a>(links: &'a [Link], config: &SchedulerConfig) -> Option<PathLossCache<'a>> {
    if config.model.noise() != 0.0 {
        return None;
    }
    config
        .mode
        .assignment()
        .map(|assignment| PathLossCache::new(&config.model, links, &assignment))
}

/// Whether the subset `members` of `links` can share a slot, probing through
/// the shared `cache` when one is available (identical verdict to
/// [`PowerMode::slot_feasible`] on the materialised subset — see
/// [`PathLossCache::subset_feasible`]) and materialising the subset otherwise.
pub(crate) fn slot_ok(
    links: &[Link],
    members: &[usize],
    config: &SchedulerConfig,
    cache: Option<&PathLossCache<'_>>,
) -> bool {
    if members.len() <= 1 {
        return members.iter().all(|&i| links[i].length() > 0.0);
    }
    if let Some(cache) = cache {
        return cache.subset_feasible(members);
    }
    let slot_links: Vec<Link> = members.iter().map(|&i| links[i]).collect();
    config.mode.slot_feasible(&config.model, &slot_links)
}

/// Splits one candidate slot into SINR-feasible sub-slots by first-fit over links in
/// non-increasing length order. Singleton slots are always feasible (for positive
/// length links), so the split terminates with at most `|class|` sub-slots.
///
/// This is the verification-splitting primitive [`schedule_prebuilt`] applies
/// to every color class; it is public so out-of-crate schedulers (the sharded
/// stitcher in `wagg-partition`) can re-verify *stitched* slots with exactly
/// the semantics the unsharded path has. `class` holds indices into `links`;
/// `cache`, when given, must cover `links` in order (same contract as
/// [`schedule_prebuilt`]) and is only consulted for noise-free models.
///
/// With a (noise-free) cache the first fit is [`PathLossCache::first_fit`],
/// which keeps each sub-slot's running per-member interference sums, so a
/// probe costs O(|slot|). Without one — global power control, a noisy
/// model, or a caller that lends no cache — every probe materialises the
/// grown sub-slot and checks it afresh with [`PowerMode::slot_feasible`].
/// Both give the sub-slots of probing each candidate afresh.
///
/// # Panics
///
/// Panics if `cache` covers a different number of links than `links`.
pub fn split_class_into_feasible(
    links: &[Link],
    class: &[usize],
    config: &SchedulerConfig,
    cache: Option<&PathLossCache<'_>>,
) -> Vec<Vec<usize>> {
    if let Some(cache) = cache {
        assert_eq!(
            cache.links().len(),
            links.len(),
            "path-loss cache covers a different link set"
        );
    }
    // The cache kernel is noise-free; under a noisy model every probe must
    // materialise the slot (the same filter schedule_prebuilt applies).
    let cache = cache.filter(|_| config.model.noise() == 0.0);
    // Fast path: the whole class verifies.
    if slot_ok(links, class, config, cache) {
        return vec![class.to_vec()];
    }

    // First-fit split in non-increasing length order (ties by link id, the
    // same deterministic order `indices_by_decreasing_length` uses).
    let class_order = {
        let mut order = class.to_vec();
        order.sort_by(|&a, &b| {
            links[b]
                .length()
                .total_cmp(&links[a].length())
                .then(links[a].id.cmp(&links[b].id))
        });
        order
    };
    if let Some(cache) = cache {
        return cache.first_fit(&class_order);
    }
    let mut sub_slots: Vec<Vec<usize>> = Vec::new();
    let mut candidate: Vec<usize> = Vec::new();
    for idx in class_order {
        let mut placed = false;
        for slot in sub_slots.iter_mut() {
            candidate.clear();
            candidate.extend_from_slice(slot);
            candidate.push(idx);
            if slot_ok(links, &candidate, config, None) {
                slot.push(idx);
                placed = true;
                break;
            }
        }
        if !placed {
            sub_slots.push(vec![idx]);
        }
    }
    sub_slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::Point;
    use wagg_instances::chains::{doubly_exponential_chain, exponential_chain, uniform_chain};
    use wagg_instances::random::{grid, uniform_square};
    use wagg_sinr::PowerAssignment;

    fn check_report(links: &[Link], config: SchedulerConfig) -> ScheduleReport {
        let report = solve_static(links, config, &Recorder::disabled());
        assert!(report.schedule.is_partition(links.len()));
        assert!(report.schedule.verify(links, &config.model, config.mode));
        assert!(report.verified_slots >= report.coloring_slots.min(report.verified_slots));
        report
    }

    #[test]
    fn empty_link_set_gives_empty_schedule() {
        let report = solve_static(&[], SchedulerConfig::default(), &Recorder::disabled());
        assert!(report.schedule.is_empty());
        assert_eq!(report.num_links, 0);
        assert_eq!(report.diversity, 1.0);
    }

    #[test]
    fn single_link_gets_one_slot() {
        let links = vec![Link::new(0, Point::on_line(0.0), Point::on_line(1.0))];
        for mode in [
            PowerMode::Uniform,
            PowerMode::Linear,
            PowerMode::mean_oblivious(),
            PowerMode::GlobalControl,
        ] {
            let report = check_report(&links, SchedulerConfig::new(mode));
            assert_eq!(report.schedule.len(), 1);
        }
    }

    #[test]
    fn uniform_chain_schedules_in_constant_slots() {
        // Equal-length links on a line: a couple of slots suffice in every mode.
        let inst = uniform_chain(20, 1.0);
        let links = inst.mst_links().unwrap();
        for mode in [PowerMode::mean_oblivious(), PowerMode::GlobalControl] {
            let report = check_report(&links, SchedulerConfig::new(mode));
            assert!(
                report.schedule.len() <= 6,
                "{mode}: {} slots for a uniform chain",
                report.schedule.len()
            );
        }
    }

    #[test]
    fn exponential_chain_needs_many_slots_without_power_control() {
        let inst = exponential_chain(12, 2.0).unwrap();
        let links = inst.mst_links().unwrap();
        let uniform = check_report(&links, SchedulerConfig::new(PowerMode::Uniform));
        let global = check_report(&links, SchedulerConfig::new(PowerMode::GlobalControl));
        // The separation the paper's introduction highlights: uniform power degenerates
        // towards one-link-per-slot, power control keeps the schedule short.
        assert!(uniform.schedule.len() >= links.len() / 2);
        assert!(global.schedule.len() <= 10);
        assert!(global.schedule.len() < uniform.schedule.len());
    }

    #[test]
    fn doubly_exponential_chain_defeats_oblivious_power() {
        let inst = doubly_exponential_chain(6, 0.5, 3.0, 1.0).unwrap();
        let links = inst.mst_links().unwrap();
        let oblivious = check_report(&links, SchedulerConfig::new(PowerMode::mean_oblivious()));
        // Proposition 1: no two links share a slot under P_tau.
        assert_eq!(oblivious.schedule.len(), links.len());
        // Global power control does strictly better on the same instance.
        let global = check_report(&links, SchedulerConfig::new(PowerMode::GlobalControl));
        assert!(global.schedule.len() < oblivious.schedule.len());
    }

    #[test]
    fn random_instances_schedule_near_constant_with_global_power() {
        for seed in [1, 2, 3] {
            let inst = uniform_square(64, 100.0, seed);
            let links = inst.mst_links().unwrap();
            let report = check_report(&links, SchedulerConfig::new(PowerMode::GlobalControl));
            // Theorem 1 / Corollary 1: O(log* Δ) slots; the constant is small.
            assert!(
                report.schedule.len() <= 8 * (report.log_star_diversity.max(1) as usize),
                "seed {seed}: {} slots vs log* Δ = {}",
                report.schedule.len(),
                report.log_star_diversity
            );
        }
    }

    #[test]
    fn grid_schedules_in_constant_slots_every_mode() {
        let inst = grid(6, 6, 1.0);
        let links = inst.mst_links().unwrap();
        for mode in [
            PowerMode::Uniform,
            PowerMode::mean_oblivious(),
            PowerMode::GlobalControl,
        ] {
            let report = check_report(&links, SchedulerConfig::new(mode));
            assert!(
                report.schedule.len() <= 10,
                "{mode}: {} slots on the grid",
                report.schedule.len()
            );
        }
    }

    #[test]
    fn verification_never_lengthens_feasible_colorings_needlessly() {
        // With verification disabled the schedule is exactly the coloring.
        let inst = uniform_square(32, 50.0, 9);
        let links = inst.mst_links().unwrap();
        let config = SchedulerConfig::new(PowerMode::GlobalControl).with_verification(false);
        let report = solve_static(&links, config, &Recorder::disabled());
        assert_eq!(report.coloring_slots, report.schedule.len());
        assert!(report.schedule.is_partition(links.len()));
    }

    #[test]
    fn schedule_mst_end_to_end() {
        let points: Vec<Point> = (0..15)
            .map(|i| Point::new(i as f64, ((i * 3) % 5) as f64))
            .collect();
        let links = wagg_mst::euclidean_mst(&points)
            .unwrap()
            .try_orient_towards(7)
            .unwrap();
        let report = solve_static(
            &links,
            SchedulerConfig::new(PowerMode::mean_oblivious()),
            &Recorder::disabled(),
        );
        assert_eq!(report.num_links, 14);
        assert!(report.schedule.is_partition(14));
        assert!(report.rate() > 0.0);
    }

    #[test]
    fn prebuilt_graph_and_shared_cache_reproduce_schedule_links() {
        let inst = uniform_square(48, 90.0, 21);
        let links = inst.mst_links().unwrap();
        for mode in [
            PowerMode::Uniform,
            PowerMode::mean_oblivious(),
            PowerMode::GlobalControl,
        ] {
            let config = SchedulerConfig::new(mode);
            let direct = solve_static(&links, config, &Recorder::disabled());
            let graph = ConflictGraph::build(&links, mode.conflict_relation(config.model.alpha()));
            let prebuilt = schedule_prebuilt(&graph, None, config);
            assert_eq!(
                direct, prebuilt,
                "{mode}: prebuilt graph changed the schedule"
            );
            if let Some(assignment) = mode.assignment() {
                let cache = PathLossCache::new(&config.model, &links, &assignment);
                let shared = schedule_prebuilt(&graph, Some(&cache), config);
                assert_eq!(direct, shared, "{mode}: lent cache changed the schedule");
            }
        }
    }

    #[test]
    #[should_panic(expected = "different power mode")]
    fn prebuilt_rejects_mismatched_relations() {
        let inst = uniform_square(16, 40.0, 2);
        let links = inst.mst_links().unwrap();
        let graph = ConflictGraph::build(
            &links,
            PowerMode::Uniform.conflict_relation(SinrModel::default().alpha()),
        );
        let _ = schedule_prebuilt(&graph, None, SchedulerConfig::new(PowerMode::GlobalControl));
    }

    #[test]
    fn schedule_mst_propagates_errors() {
        // Degenerate pointsets fail at the MST step, before any scheduling.
        assert!(wagg_mst::euclidean_mst(&[]).is_err());
        let dup = vec![Point::origin(), Point::origin()];
        assert!(wagg_mst::euclidean_mst(&dup).is_err());
    }

    /// The split as a plain first fit: the whole-class check, then every
    /// candidate materialised and checked afresh with
    /// [`PowerMode::slot_feasible`]. The packer must reproduce it exactly.
    fn reference_split(
        links: &[Link],
        class: &[usize],
        config: &SchedulerConfig,
    ) -> Vec<Vec<usize>> {
        let feasible = |members: &[usize]| {
            let slot: Vec<Link> = members.iter().map(|&i| links[i]).collect();
            config.mode.slot_feasible(&config.model, &slot)
        };
        if feasible(class) {
            return vec![class.to_vec()];
        }
        let mut order = class.to_vec();
        order.sort_by(|&a, &b| {
            links[b]
                .length()
                .total_cmp(&links[a].length())
                .then(links[a].id.cmp(&links[b].id))
        });
        let mut slots: Vec<Vec<usize>> = Vec::new();
        for idx in order {
            let fit = slots.iter().position(|slot| {
                let mut candidate = slot.clone();
                candidate.push(idx);
                feasible(&candidate)
            });
            match fit {
                Some(s) => slots[s].push(idx),
                None => slots.push(vec![idx]),
            }
        }
        slots
    }

    /// Link sets whose classes the split must handle exactly as the
    /// reference does, the last one with every edge case of the sum: a
    /// sender on another link's receiver (an `∞` term), a zero-length link
    /// (no weight) and two links sharing an id (skipped as interferers).
    fn split_instances() -> Vec<Vec<Link>> {
        let mut sets = vec![
            exponential_chain(12, 2.0).unwrap().mst_links().unwrap(),
            exponential_chain(18, 1.4).unwrap().mst_links().unwrap(),
            uniform_square(70, 60.0, 5).mst_links().unwrap(),
        ];
        for seed in [1, 2, 3] {
            let inst = wagg_instances::random::clustered(6, 12, 300.0, 8.0, seed);
            sets.push(inst.mst_links().unwrap());
        }
        let at = |x: f64, y: f64| Point::new(x, y);
        sets.push(vec![
            Link::new(0, at(0.0, 0.0), at(1.0, 0.0)),
            Link::new(1, at(1.0, 0.0), at(1.0, 30.0)),
            Link::new(2, at(50.0, 0.0), at(50.0, 0.0)),
            Link::new(3, at(100.0, 0.0), at(101.0, 0.0)),
            Link::new(3, at(100.0, 4.0), at(101.0, 4.0)),
            Link::new(5, at(-30.0, 2.0), at(-32.0, 2.0)),
            Link::new(6, at(8.0, 8.0), at(3.0, 1.0)),
        ]);
        sets
    }

    #[test]
    fn cached_split_matches_fresh_first_fit() {
        let overflowing = SinrModel::new(3.0, 1e-310, 0.0).unwrap();
        let mut rng = wagg_geometry::rng::seeded_rng(11);
        let sets = split_instances();
        let mut split_classes = 0;
        for (n, links) in sets.iter().enumerate() {
            let mut models = vec![
                SinrModel::default(),
                SinrModel::default().with_strong_beta(),
            ];
            if n + 1 == sets.len() {
                // 1/β overflows to ∞: the packer's fresh-probe fallback.
                models.push(overflowing);
            }
            for model in models {
                for mode in [
                    PowerMode::Uniform,
                    PowerMode::Linear,
                    PowerMode::mean_oblivious(),
                ] {
                    let config = SchedulerConfig::new(mode).with_model(model);
                    let cache = PathLossCache::new(&model, links, &mode.assignment().unwrap());
                    let graph = ConflictGraph::build(links, mode.conflict_relation(model.alpha()));
                    let mut classes = greedy_color(&graph).classes();
                    classes.push((0..links.len()).collect());
                    for _ in 0..4 {
                        let mut class: Vec<usize> = (0..links.len())
                            .filter(|_| wagg_geometry::rng::uniform_in(&mut rng, 0.0, 1.0) < 0.5)
                            .collect();
                        class.reverse();
                        classes.push(class);
                    }
                    for class in classes.iter().filter(|c| !c.is_empty()) {
                        let want = reference_split(links, class, &config);
                        split_classes += usize::from(want.len() > 1);
                        assert_eq!(
                            split_class_into_feasible(links, class, &config, Some(&cache)),
                            want,
                            "{mode} beta={} class {class:?}",
                            model.beta()
                        );
                        assert_eq!(
                            split_class_into_feasible(links, class, &config, None),
                            want,
                            "{mode} beta={} class {class:?} (no cache)",
                            model.beta()
                        );
                    }
                }
            }
        }
        assert!(split_classes > 50, "only {split_classes} classes split");
    }

    #[test]
    #[should_panic(expected = "path-loss cache covers a different link set")]
    fn split_rejects_a_cache_over_another_link_set() {
        let links = uniform_square(12, 30.0, 4).mst_links().unwrap();
        let other = uniform_square(20, 30.0, 5).mst_links().unwrap();
        let config = SchedulerConfig::new(PowerMode::Uniform);
        let cache = PathLossCache::new(&config.model, &other, &PowerAssignment::uniform(1.0));
        let class: Vec<usize> = (0..links.len()).collect();
        let _ = split_class_into_feasible(&links, &class, &config, Some(&cache));
    }

    #[test]
    fn report_diversity_fields_are_consistent() {
        let inst = exponential_chain(10, 2.0).unwrap();
        let links = inst.mst_links().unwrap();
        let report = solve_static(
            &links,
            SchedulerConfig::new(PowerMode::GlobalControl),
            &Recorder::disabled(),
        );
        assert!(report.diversity >= 1.0);
        assert_eq!(report.log_star_diversity, log_star(report.diversity));
        assert!((report.log_log_diversity - log_log2(report.diversity)).abs() < 1e-12);
    }
}
