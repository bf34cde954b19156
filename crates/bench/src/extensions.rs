//! The extension experiments E14–E20: the Sec. 3.1 discussion points and
//! Remark 1, made quantitative.
//!
//! E1–E13 (in [`crate::experiments`]) regenerate the paper's own figures and
//! claims; the experiments here cover the extensions the paper discusses but
//! does not evaluate: selection queries, rate-versus-latency, power-limited
//! multi-hop operation, Rayleigh fading, churn repair, approximate MSTs, and
//! the sensitivity of the schedule lengths to the model constants.

use crate::{fmt_f, Scale, Table};
use wagg_aggfn::{median_by_counting, ConvergecastTree, MedianConfig};
use wagg_conflict::{greedy_color, ConflictGraph, ConflictRelation};
use wagg_core::{AggregationProblem, PowerMode};
use wagg_core::{Backend, Session};
use wagg_dynamic::{run_churn_scenario, ChurnConfig, RepairStrategy};
use wagg_fading::{effective_rate, ArqConfig, ArqConvergecast, FadingModel};
use wagg_instances::chains::uniform_chain;
use wagg_instances::random::uniform_square;
use wagg_instances::Instance;
use wagg_latency::compare_rate_latency;
use wagg_mst::approx::{nearest_neighbor_tree, star_tree};
use wagg_mst::euclidean_mst;
use wagg_mst::sparsity::measure_sparsity;
use wagg_multihop::{MultihopConfig, MultihopPipeline};
use wagg_schedule::SchedulerConfig;
use wagg_sinr::Link;

fn sizes(scale: Scale, full: &[usize], quick: &[usize]) -> Vec<usize> {
    match scale {
        Scale::Full => full.to_vec(),
        Scale::Quick => quick.to_vec(),
    }
}

fn solve(inst: &Instance, mode: PowerMode) -> wagg_core::AggregationSolution {
    AggregationProblem::from_instance(inst)
        .with_power_mode(mode)
        .solve()
        .expect("experiment instances are non-degenerate")
}

/// E14 — Sec. 3.1 "Other aggregation functions": the exact median by binary
/// search over counting convergecasts, priced in rounds and slots.
pub fn run_e14(scale: Scale) -> Table {
    let mut table = Table::new(
        "E14",
        "Median by counting aggregations: rounds and slots on the MST schedule (global power)",
        &[
            "n",
            "slots/round",
            "rounds",
            "total slots",
            "slots per sensor",
            "exact",
        ],
    );
    for n in sizes(scale, &[32, 64, 128, 256], &[16, 32]) {
        let inst = uniform_square(n, 400.0, 7 + n as u64);
        let solution = solve(&inst, PowerMode::GlobalControl);
        let tree = ConvergecastTree::from_links(&solution.links).expect("MST links form a tree");
        let readings: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 997) as f64 / 7.0).collect();
        let mut sorted = readings.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite readings"));
        let config = MedianConfig::default().with_schedule_length(solution.slots());
        let report = median_by_counting(&tree, &readings, config).expect("readings cover the tree");
        let exact = report.converged && report.value == sorted[n.div_ceil(2) - 1];
        table.push_row(vec![
            n.to_string(),
            solution.slots().to_string(),
            report.total_rounds.to_string(),
            report.total_slots.to_string(),
            fmt_f(report.slots_per_reading()),
            exact.to_string(),
        ]);
    }
    table
}

/// E15 — Sec. 3.1 "Rate vs. latency": the MST schedule against the
/// matching-based `O(log n)`-level tree.
pub fn run_e15(scale: Scale) -> Table {
    let mut table = Table::new(
        "E15",
        "Rate vs. latency: MST coloring schedule vs. matching tree (global power)",
        &[
            "instance",
            "mst slots",
            "mst rate",
            "mst max latency",
            "mst depth",
            "matching levels",
            "matching slots",
            "matching rate",
            "matching latency",
        ],
    );
    let chain_n = match scale {
        Scale::Full => 64,
        Scale::Quick => 24,
    };
    let square_n = match scale {
        Scale::Full => 128,
        Scale::Quick => 32,
    };
    let instances = vec![
        uniform_chain(chain_n, 1.0),
        uniform_square(square_n, 400.0, 3),
    ];
    for inst in instances {
        let report = compare_rate_latency(
            &inst.points,
            inst.sink,
            SchedulerConfig::new(wagg_schedule::PowerMode::GlobalControl),
        )
        .expect("experiment instances are non-degenerate");
        table.push_row(vec![
            inst.name.clone(),
            report.mst.slots.to_string(),
            fmt_f(report.mst.rate),
            report.mst.max_latency.to_string(),
            report.mst.height.to_string(),
            report.matching.height.to_string(),
            report.matching.slots.to_string(),
            fmt_f(report.matching.rate),
            report.matching.max_latency.to_string(),
        ]);
    }
    table
}

/// E16 — Sec. 3.1 "Power limitations" / "Multi-hop settings": the two-tier
/// leader pipeline against the single-tier MST schedule.
pub fn run_e16(scale: Scale) -> Table {
    let mut table = Table::new(
        "E16",
        "Two-tier multi-hop aggregation: leaders, per-phase slots and overhead vs. the single-tier MST",
        &[
            "cluster radius",
            "leaders",
            "intra links",
            "intra slots",
            "overlay slots",
            "two-tier slots",
            "single-tier slots",
            "overhead",
        ],
    );
    let n = match scale {
        Scale::Full => 150,
        Scale::Quick => 50,
    };
    let inst = uniform_square(n, 800.0, 11);
    for radius in [60.0, 100.0, 160.0, 240.0] {
        let report = MultihopPipeline::new(inst.points.clone(), inst.sink)
            .with_config(MultihopConfig::default().with_cluster_radius(radius))
            .run(PowerMode::GlobalControl)
            .expect("uniform deployments are non-degenerate");
        table.push_row(vec![
            fmt_f(radius),
            report.leader_count.to_string(),
            report.intra_links.to_string(),
            report.intra_slots.to_string(),
            report.overlay_slots.to_string(),
            report.total_slots().to_string(),
            report.single_tier_slots.to_string(),
            fmt_f(report.overhead_vs_single_tier()),
        ]);
    }
    table
}

/// E17 — Sec. 3.1 "Robustness and temporal variability": the effective rate
/// and the ARQ slowdown under Rayleigh fading, per power mode.
pub fn run_e17(scale: Scale) -> Table {
    let mut table = Table::new(
        "E17",
        "Rayleigh fading: effective rate and ARQ wave slowdown per power mode",
        &[
            "power mode",
            "slots",
            "nominal rate",
            "effective rate",
            "degradation",
            "mean success prob",
            "arq slowdown",
            "arq loss rate",
        ],
    );
    let (n, trials) = match scale {
        Scale::Full => (80, 300),
        Scale::Quick => (25, 60),
    };
    let inst = uniform_square(n, 400.0, 5);
    let fading = FadingModel::rayleigh(1.0)
        .with_noise_sigma(0.1)
        .expect("valid sigma");
    for mode in [
        PowerMode::Uniform,
        PowerMode::Oblivious { tau: 0.5 },
        PowerMode::GlobalControl,
    ] {
        let solution = solve(&inst, mode);
        let config = solution.config;
        let rate = effective_rate(
            &solution.links,
            solution.report.schedule(),
            &config.model,
            mode,
            fading,
            trials,
            7,
        )
        .expect("schedule indices are valid");
        let sim = ArqConvergecast::new(&solution.links, solution.report.schedule())
            .expect("MST links form a tree");
        let wave = sim
            .run(
                &config.model,
                mode,
                fading,
                ArqConfig {
                    max_slots: 500_000,
                    seed: 3,
                },
            )
            .expect("slot powers are computable");
        table.push_row(vec![
            mode.to_string(),
            solution.slots().to_string(),
            fmt_f(rate.nominal_rate),
            fmt_f(rate.effective_rate),
            fmt_f(rate.degradation()),
            fmt_f(rate.mean_success_probability),
            fmt_f(wave.slowdown()),
            fmt_f(wave.loss_rate()),
        ]);
    }
    table
}

/// E18 — Sec. 3.1 "Robustness and temporal variability": churn repair, local
/// reattachment versus full rebuild.
pub fn run_e18(scale: Scale) -> Table {
    let mut table = Table::new(
        "E18",
        "Tree repair under churn: links changed and tree stretch, local repair vs. full rebuild",
        &[
            "strategy",
            "events",
            "links changed",
            "mean per event",
            "max slots",
            "final stretch",
            "final alive",
        ],
    );
    let (n, events) = match scale {
        Scale::Full => (120, 40),
        Scale::Quick => (40, 12),
    };
    let inst = uniform_square(n, 600.0, 21);
    for strategy in [RepairStrategy::LocalReattach, RepairStrategy::Rebuild] {
        let summary = run_churn_scenario(
            inst.points.clone(),
            inst.sink,
            SchedulerConfig::new(wagg_schedule::PowerMode::GlobalControl),
            strategy,
            ChurnConfig {
                events,
                failure_probability: 0.6,
                seed: 9,
            },
        )
        .expect("uniform deployments are non-degenerate");
        table.push_row(vec![
            strategy.to_string(),
            summary.events.len().to_string(),
            summary.total_links_changed.to_string(),
            fmt_f(summary.mean_links_changed),
            summary.max_slots.to_string(),
            fmt_f(summary.final_stretch),
            summary.final_alive.to_string(),
        ]);
    }
    table
}

/// One-shot static solve through the session facade.
fn solve_links(links: &[Link], config: SchedulerConfig) -> wagg_schedule::SolveReport {
    Session::builder()
        .scheduler(config)
        .backend(Backend::Static)
        .links(links)
        .build()
        .solve()
}

fn schedule_slots_for(links: &[Link], mode: wagg_schedule::PowerMode) -> usize {
    Session::builder()
        .scheduler(SchedulerConfig::new(mode))
        .backend(Backend::Static)
        .links(links)
        .build()
        .solve()
        .slots()
}

/// E19 — Remark 1: any tree with the Lemma 1 sparsity schedules like the MST;
/// the star tree shows what happens without it.
pub fn run_e19(scale: Scale) -> Table {
    let mut table = Table::new(
        "E19",
        "Remark 1: alternative aggregation trees — Lemma 1 sparsity and schedule lengths",
        &[
            "tree",
            "n",
            "max I(i,T+_i)",
            "slots (global)",
            "slots (oblivious P_1/2)",
            "total length / MST",
        ],
    );
    let n = match scale {
        Scale::Full => 100,
        Scale::Quick => 36,
    };
    let inst = uniform_square(n, 400.0, 13);
    let alpha = 3.0;
    let mst = euclidean_mst(&inst.points).expect("non-degenerate");
    let mst_length = mst.total_length();
    let trees: Vec<(&str, Vec<Link>, f64)> = vec![
        (
            "mst",
            mst.try_orient_towards(inst.sink).expect("sink is valid"),
            mst_length,
        ),
        (
            "nearest-neighbor",
            nearest_neighbor_tree(&inst.points, inst.sink)
                .expect("non-degenerate")
                .try_orient_towards(inst.sink)
                .expect("sink is valid"),
            nearest_neighbor_tree(&inst.points, inst.sink)
                .expect("non-degenerate")
                .total_length(),
        ),
        (
            "star",
            star_tree(&inst.points, inst.sink)
                .expect("non-degenerate")
                .try_orient_towards(inst.sink)
                .expect("sink is valid"),
            star_tree(&inst.points, inst.sink)
                .expect("non-degenerate")
                .total_length(),
        ),
    ];
    for (name, links, total_length) in trees {
        let sparsity = measure_sparsity(&links, alpha).max();
        let global = schedule_slots_for(&links, wagg_schedule::PowerMode::GlobalControl);
        let oblivious =
            schedule_slots_for(&links, wagg_schedule::PowerMode::Oblivious { tau: 0.5 });
        table.push_row(vec![
            name.to_string(),
            n.to_string(),
            fmt_f(sparsity),
            global.to_string(),
            oblivious.to_string(),
            fmt_f(total_length / mst_length),
        ]);
    }
    table
}

/// E20 — sensitivity/ablation: how the schedule length reacts to the SINR
/// threshold β, the oblivious exponent τ, the conflict-graph constant γ, and
/// turning slot verification off.
pub fn run_e20(scale: Scale) -> Table {
    let mut table = Table::new(
        "E20",
        "Ablations: schedule length vs. beta, tau, conflict-graph gamma, and verification",
        &["knob", "setting", "slots", "note"],
    );
    let n = match scale {
        Scale::Full => 128,
        Scale::Quick => 40,
    };
    let inst = uniform_square(n, 400.0, 17);
    let links = inst.mst_links().expect("non-degenerate");

    // β sweep (global power control, verification on).
    for beta in [1.0, 2.0, 4.0] {
        let model = wagg_sinr::SinrModel::new(3.0, beta, 0.0).expect("valid model");
        let config =
            SchedulerConfig::new(wagg_schedule::PowerMode::GlobalControl).with_model(model);
        let slots = solve_links(&links, config).slots();
        table.push_row(vec![
            "beta".into(),
            fmt_f(beta),
            slots.to_string(),
            "global power, alpha = 3".into(),
        ]);
    }

    // τ sweep (oblivious power).
    for tau in [0.25, 0.5, 0.75] {
        let config = SchedulerConfig::new(wagg_schedule::PowerMode::Oblivious { tau });
        let slots = solve_links(&links, config).slots();
        table.push_row(vec![
            "tau".into(),
            fmt_f(tau),
            slots.to_string(),
            "oblivious power P_tau".into(),
        ]);
    }

    // γ sweep on the conflict graph itself (coloring length, no verification):
    // larger γ means a denser conflict graph and a longer (safer) coloring.
    for gamma in [1.0, 2.0, 4.0] {
        let graph = ConflictGraph::build(&links, ConflictRelation::constant(gamma));
        let colors = greedy_color(&graph).num_colors();
        table.push_row(vec![
            "gamma".into(),
            fmt_f(gamma),
            colors.to_string(),
            "G_gamma coloring only (no SINR verification)".into(),
        ]);
    }

    // Verification on/off (global power control).
    for verify in [true, false] {
        let config =
            SchedulerConfig::new(wagg_schedule::PowerMode::GlobalControl).with_verification(verify);
        let slots = solve_links(&links, config).slots();
        table.push_row(vec![
            "verification".into(),
            verify.to_string(),
            slots.to_string(),
            "splitting infeasible color classes".into(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_extension_experiments_produce_tables() {
        for table in [
            run_e14(Scale::Quick),
            run_e19(Scale::Quick),
            run_e20(Scale::Quick),
        ] {
            assert!(!table.rows.is_empty());
            assert!(!table.to_markdown().is_empty());
        }
    }

    #[test]
    fn e14_median_is_exact_at_quick_scale() {
        let table = run_e14(Scale::Quick);
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "true");
        }
    }

    #[test]
    fn e19_star_tree_is_much_worse_than_the_mst() {
        let table = run_e19(Scale::Quick);
        let mst_slots: usize = table.rows[0][3].parse().unwrap();
        let star_slots: usize = table.rows[2][3].parse().unwrap();
        assert!(star_slots > 2 * mst_slots);
    }
}
