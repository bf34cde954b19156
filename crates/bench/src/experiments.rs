//! The experiments E1–E13: one function per figure/claim of the paper.
//!
//! See `DESIGN.md` (experiment index) for the mapping from experiment identifiers to
//! paper artefacts, and `EXPERIMENTS.md` for the recorded paper-vs-measured
//! comparison produced by the `experiments` binary.

use crate::{fmt_f, Scale, Table};
use wagg_core::{AggregationProblem, PowerMode};
use wagg_core::{Backend, Session};
use wagg_distributed::{simulate_distributed, DistributedConfig, DistributedMode};
use wagg_geometry::logmath::{log_log2, log_star};
use wagg_instances::chains::{
    doubly_exponential_chain, exponential_chain, max_representable_points,
};
use wagg_instances::fig1::{fig1_links, fig1_schedule_slots};
use wagg_instances::random::{clustered, grid, uniform_square};
use wagg_instances::recursive::{recursive_instance, RecursiveParams};
use wagg_instances::suboptimal::suboptimal_instance;
use wagg_instances::Instance;
use wagg_mst::kconnect::KConnectedSpanner;
use wagg_mst::sparsity::{measure_sparsity, refine_into_sparse_classes};
use wagg_protocol::{schedule_protocol, ProtocolModel};
use wagg_schedule::multicolor::{cycle5_multicolor_schedule, cycle5_optimal_coloring_slots};
use wagg_schedule::{PowerMode as Mode, Schedule, SchedulerConfig, SolveReport};

/// One-shot static solve through the session facade (the experiment tables
/// all report the static kernel's numbers).
fn solve_links(links: &[wagg_sinr::Link], config: SchedulerConfig) -> SolveReport {
    Session::builder()
        .scheduler(config)
        .backend(Backend::Static)
        .links(links)
        .build()
        .solve()
}
use wagg_sim::{ConvergecastSim, SimConfig};
use wagg_sinr::{PowerAssignment, SinrModel};

fn sizes(scale: Scale, full: &[usize], quick: &[usize]) -> Vec<usize> {
    match scale {
        Scale::Full => full.to_vec(),
        Scale::Quick => quick.to_vec(),
    }
    .into_iter()
    .collect()
}

fn solve(inst: &Instance, mode: PowerMode) -> wagg_core::AggregationSolution {
    AggregationProblem::from_instance(inst)
        .with_power_mode(mode)
        .solve()
        .expect("experiment instances are non-degenerate")
}

/// E1 — Fig. 1 walkthrough: the five-node example's rate, latency and buffers.
pub fn run_e1(_scale: Scale) -> Table {
    let mut table = Table::new(
        "E1",
        "Fig. 1 example: 2-slot periodic schedule on the five-node tree",
        &["quantity", "paper", "measured"],
    );
    let links = fig1_links();
    let schedule = Schedule::new(fig1_schedule_slots().to_vec());
    let sim = ConvergecastSim::new(&links, &schedule).expect("fig1 is a convergecast tree");
    let report = sim.run(SimConfig {
        frame_period: 2,
        num_frames: 50,
        max_slots: 5_000,
    });
    table.push_row(vec![
        "schedule length".into(),
        "2".into(),
        schedule.len().to_string(),
    ]);
    table.push_row(vec!["rate".into(), "1/2".into(), fmt_f(report.throughput)]);
    table.push_row(vec![
        "latency of frame 1".into(),
        "3".into(),
        report.latencies[0].to_string(),
    ]);
    table.push_row(vec![
        "max buffer occupancy".into(),
        "bounded".into(),
        report.max_buffer_occupancy.to_string(),
    ]);
    table
}

/// E2 — Theorem 1, global power control: MST schedule length vs `log* Δ` on random
/// deployments.
pub fn run_e2(scale: Scale) -> Table {
    theorem1_sweep(
        "E2",
        "Theorem 1 (global power control): MST schedule length vs log* Δ",
        PowerMode::GlobalControl,
        scale,
    )
}

/// E3 — Theorem 1, oblivious power: MST schedule length vs `log log Δ`.
pub fn run_e3(scale: Scale) -> Table {
    theorem1_sweep(
        "E3",
        "Theorem 1 (oblivious power P_1/2): MST schedule length vs log log Δ",
        PowerMode::Oblivious { tau: 0.5 },
        scale,
    )
}

fn theorem1_sweep(id: &str, title: &str, mode: PowerMode, scale: Scale) -> Table {
    let mut table = Table::new(
        id,
        title,
        &[
            "n",
            "Δ",
            "log* Δ",
            "log log Δ",
            "slots",
            "rate",
            "slots / bound",
        ],
    );
    for n in sizes(scale, &[32, 64, 128, 256, 512], &[32, 64]) {
        let inst = uniform_square(n, 1_000.0, 42 + n as u64);
        let delta = inst.length_diversity().unwrap();
        let solution = solve(&inst, mode);
        let bound = match mode {
            PowerMode::GlobalControl => log_star(delta).max(1) as f64,
            _ => log_log2(delta).max(1.0),
        };
        table.push_row(vec![
            n.to_string(),
            fmt_f(delta),
            log_star(delta).to_string(),
            fmt_f(log_log2(delta)),
            solution.slots().to_string(),
            fmt_f(solution.rate()),
            fmt_f(solution.slots() as f64 / bound),
        ]);
    }
    table
}

/// E4 — Theorem 2 (key theorem): the chromatic number of `G1(MST)` and the sparsity
/// constant of Lemma 1 are constant across instance families and sizes.
pub fn run_e4(scale: Scale) -> Table {
    let mut table = Table::new(
        "E4",
        "Theorem 2: χ(G1(MST)) and the Lemma 1 sparsity constant are O(1)",
        &[
            "instance",
            "n",
            "Δ",
            "max I(i, T+_i)",
            "refinement classes",
            "greedy χ(G1)",
        ],
    );
    let alpha = 3.0;
    let mut instances: Vec<Instance> = vec![
        grid(6, 6, 1.0),
        exponential_chain(14, 2.0).unwrap(),
        clustered(8, 8, 4_000.0, 1.0, 3),
    ];
    let random_sizes = sizes(scale, &[64, 256], &[48]);
    for n in random_sizes {
        instances.push(uniform_square(n, 500.0, 7 + n as u64));
    }
    for inst in instances {
        let links = inst.mst_links().unwrap();
        let sparsity = measure_sparsity(&links, alpha);
        let classes = refine_into_sparse_classes(&links, alpha);
        let g1 = wagg_conflict::ConflictGraph::build(
            &links,
            wagg_conflict::ConflictRelation::unit_constant(),
        );
        let coloring = wagg_conflict::greedy_color(&g1);
        table.push_row(vec![
            inst.name.clone(),
            inst.len().to_string(),
            fmt_f(inst.length_diversity().unwrap()),
            fmt_f(sparsity.max()),
            classes.len().to_string(),
            coloring.num_colors().to_string(),
        ]);
    }
    table
}

/// E5 — Corollary 1: schedule length vs `n` for uniformly random deployments, both
/// power-control modes.
pub fn run_e5(scale: Scale) -> Table {
    let mut table = Table::new(
        "E5",
        "Corollary 1: random deployments schedule in O(log* n) / O(log log n) slots",
        &[
            "n",
            "Δ",
            "slots (global)",
            "slots (oblivious)",
            "slots (uniform power)",
            "log* n",
            "log log n",
        ],
    );
    for n in sizes(scale, &[32, 64, 128, 256, 512], &[32, 64]) {
        let inst = uniform_square(n, 1_000.0, 100 + n as u64);
        let global = solve(&inst, PowerMode::GlobalControl);
        let oblivious = solve(&inst, PowerMode::Oblivious { tau: 0.5 });
        let uniform = solve(&inst, PowerMode::Uniform);
        table.push_row(vec![
            n.to_string(),
            fmt_f(inst.length_diversity().unwrap()),
            global.slots().to_string(),
            oblivious.slots().to_string(),
            uniform.slots().to_string(),
            log_star(n as f64).to_string(),
            fmt_f(log_log2(n as f64)),
        ]);
    }
    table
}

/// E6 — Proposition 1 / Fig. 2: on the doubly-exponential chain every oblivious
/// scheme is one-link-per-slot (and the measured Δ confirms `n = Θ(log log Δ)`).
pub fn run_e6(scale: Scale) -> Table {
    let mut table = Table::new(
        "E6",
        "Proposition 1 / Fig. 2: oblivious-power lower bound on the doubly-exponential chain",
        &[
            "τ",
            "n",
            "Δ",
            "log log Δ",
            "feasible pairs under P_τ",
            "slots under P_τ",
            "slots (global control)",
        ],
    );
    let model = SinrModel::default();
    let taus: Vec<f64> = match scale {
        Scale::Full => vec![0.3, 0.5, 0.7],
        Scale::Quick => vec![0.5],
    };
    for tau in taus {
        let n = max_representable_points(tau, model.alpha(), model.beta()).min(8);
        let inst = doubly_exponential_chain(n, tau, model.alpha(), model.beta()).unwrap();
        let links = inst.mst_links().unwrap();
        let power = PowerAssignment::oblivious(tau);
        let mut feasible_pairs = 0usize;
        for i in 0..links.len() {
            for j in (i + 1)..links.len() {
                if model.is_feasible(&[links[i], links[j]], &power) {
                    feasible_pairs += 1;
                }
            }
        }
        let oblivious = solve_links(&links, SchedulerConfig::new(Mode::Oblivious { tau }));
        let global = solve_links(&links, SchedulerConfig::new(Mode::GlobalControl));
        let delta = inst.length_diversity().unwrap();
        table.push_row(vec![
            fmt_f(tau),
            n.to_string(),
            fmt_f(delta),
            fmt_f(log_log2(delta)),
            feasible_pairs.to_string(),
            oblivious.slots().to_string(),
            global.slots().to_string(),
        ]);
    }
    table
}

/// E7 — Theorem 4 / Fig. 3: the recursive construction `R_t` — diversity explodes
/// tower-like while the MST schedule length grows with the level.
pub fn run_e7(scale: Scale) -> Table {
    let mut table = Table::new(
        "E7",
        "Theorem 4 / Fig. 3: recursive lower-bound construction R_t (capped copies)",
        &[
            "level t",
            "nodes",
            "Δ",
            "log* Δ",
            "ideal copies (uncapped)",
            "MST slots (global control)",
        ],
    );
    let max_level = match scale {
        Scale::Full => 5,
        Scale::Quick => 3,
    };
    let params = RecursiveParams::default();
    for t in 1..=max_level {
        let rt = recursive_instance(t, params);
        let links = rt.instance.mst_links().unwrap();
        let report = solve_links(&links, SchedulerConfig::new(Mode::GlobalControl));
        let delta = rt.instance.length_diversity().unwrap();
        let ideal = rt
            .ideal_copy_counts
            .last()
            .map(|&c| {
                if c == usize::MAX {
                    "huge".to_string()
                } else {
                    c.to_string()
                }
            })
            .unwrap_or_else(|| "-".to_string());
        table.push_row(vec![
            t.to_string(),
            rt.instance.len().to_string(),
            fmt_f(delta),
            log_star(delta).to_string(),
            ideal,
            report.slots().to_string(),
        ]);
    }
    table
}

/// E8 — Proposition 3 / Fig. 4: the MST is not an optimal aggregation tree for `P_τ` —
/// a designed non-MST tree uses 2 slots while the MST needs ~n.
pub fn run_e8(scale: Scale) -> Table {
    let mut table = Table::new(
        "E8",
        "Proposition 3 / Fig. 4: MST sub-optimality under oblivious power",
        &[
            "τ",
            "levels",
            "nodes",
            "designed tree slots",
            "designed slots P_τ-feasible",
            "MST slots under P_τ",
        ],
    );
    let model = SinrModel::default();
    let configs: Vec<(f64, usize, f64)> = match scale {
        Scale::Full => vec![(0.3, 3, 4.0), (0.3, 4, 4.0), (0.25, 3, 8.0), (0.7, 4, 4.0)],
        Scale::Quick => vec![(0.3, 3, 4.0)],
    };
    for (tau, levels, base) in configs {
        let built = suboptimal_instance(levels, tau, base).expect("representable");
        let power = PowerAssignment::oblivious(tau);
        let feasible = [&built.long_slot, &built.short_slot].iter().all(|slot| {
            let links: Vec<_> = slot.iter().map(|&i| built.designed_tree[i]).collect();
            model.is_feasible(&links, &power)
        });
        let mst_links = built.instance.mst_links().unwrap();
        let mst = solve_links(&mst_links, SchedulerConfig::new(Mode::Oblivious { tau }));
        table.push_row(vec![
            fmt_f(tau),
            levels.to_string(),
            built.instance.len().to_string(),
            "2".into(),
            feasible.to_string(),
            mst.slots().to_string(),
        ]);
    }
    table
}

/// E9 — The motivating separation: exponential chains under the protocol model,
/// uniform power, oblivious power and global power control.
pub fn run_e9(scale: Scale) -> Table {
    let mut table = Table::new(
        "E9",
        "Power-control separation on exponential chains (protocol/uniform vs P_τ vs global)",
        &[
            "n",
            "Δ",
            "protocol-model slots",
            "uniform-power slots",
            "oblivious slots",
            "global-control slots",
        ],
    );
    for n in sizes(scale, &[8, 12, 16, 20, 24], &[8, 12]) {
        let inst = exponential_chain(n, 2.0).unwrap();
        let links = inst.mst_links().unwrap();
        let protocol = schedule_protocol(&links, ProtocolModel::default()).len();
        let uniform = solve_links(&links, SchedulerConfig::new(Mode::Uniform));
        let oblivious = solve_links(&links, SchedulerConfig::new(Mode::Oblivious { tau: 0.5 }));
        let global = solve_links(&links, SchedulerConfig::new(Mode::GlobalControl));
        table.push_row(vec![
            n.to_string(),
            fmt_f(inst.length_diversity().unwrap()),
            protocol.to_string(),
            uniform.slots().to_string(),
            oblivious.slots().to_string(),
            global.slots().to_string(),
        ]);
    }
    table
}

/// E10 — Sec. 3.3: the distributed scheduler's round counts vs the analytical bound.
pub fn run_e10(scale: Scale) -> Table {
    let mut table = Table::new(
        "E10",
        "Sec. 3.3: distributed scheduler — synchronous rounds vs the analytic bound",
        &[
            "n",
            "mode",
            "length classes",
            "rounds (simulated)",
            "analytic bound",
            "schedule length",
        ],
    );
    for n in sizes(scale, &[32, 64, 128, 256], &[32, 64]) {
        let inst = uniform_square(n, 800.0, 55 + n as u64);
        let links = inst.mst_links().unwrap();
        for (mode, label) in [
            (DistributedMode::Oblivious, "oblivious"),
            (DistributedMode::GlobalControl, "global"),
        ] {
            let config = DistributedConfig {
                mode,
                seed: n as u64,
                ..DistributedConfig::default()
            };
            let report = simulate_distributed(&links, config);
            table.push_row(vec![
                n.to_string(),
                label.to_string(),
                report.num_classes.to_string(),
                report.total_rounds.to_string(),
                fmt_f(report.analytic_round_bound),
                report.schedule_length.to_string(),
            ]);
        }
    }
    table
}

/// E11 — Sec. 4 intro: multicoloring beats proper coloring on the 5-cycle (2/5 vs 1/3).
pub fn run_e11(_scale: Scale) -> Table {
    let mut table = Table::new(
        "E11",
        "Sec. 4: fractional (multicoloring) rate vs coloring rate on the 5-cycle",
        &["schedule", "slots per period", "rate"],
    );
    let coloring_slots = cycle5_optimal_coloring_slots();
    table.push_row(vec![
        "optimal proper coloring".into(),
        coloring_slots.to_string(),
        fmt_f(1.0 / coloring_slots as f64),
    ]);
    let multicolor = cycle5_multicolor_schedule();
    table.push_row(vec![
        "paper's periodic multicoloring".into(),
        multicolor.len().to_string(),
        fmt_f(multicolor.sustained_rate(5)),
    ]);
    table
}

/// E12 — Remark 2: k-edge-connected spanners still schedule in few slots.
pub fn run_e12(scale: Scale) -> Table {
    let mut table = Table::new(
        "E12",
        "Remark 2: k-edge-connected spanners (union-style greedy) under global power control",
        &["k", "n", "edges", "slots", "rate"],
    );
    let n = match scale {
        Scale::Full => 48,
        Scale::Quick => 24,
    };
    let inst = uniform_square(n, 300.0, 77);
    for k in 1..=3usize {
        let spanner = KConnectedSpanner::build(&inst.points, k).expect("buildable");
        let links = spanner.orient_arbitrarily();
        let report = solve_links(&links, SchedulerConfig::new(Mode::GlobalControl));
        table.push_row(vec![
            k.to_string(),
            n.to_string(),
            links.len().to_string(),
            report.slots().to_string(),
            fmt_f(report.rate()),
        ]);
    }
    table
}

/// E13 — End-to-end throughput: the convergecast simulator sustains the schedule's
/// rate with bounded buffers and depth-proportional latency.
pub fn run_e13(scale: Scale) -> Table {
    let mut table = Table::new(
        "E13",
        "End-to-end convergecast simulation at the schedule's own rate",
        &[
            "n",
            "mode",
            "slots T",
            "measured throughput",
            "1/T",
            "mean latency",
            "max buffer",
            "all frames done",
        ],
    );
    for n in sizes(scale, &[32, 64, 128], &[24]) {
        let inst = uniform_square(n, 400.0, 31 + n as u64);
        for mode in [PowerMode::Oblivious { tau: 0.5 }, PowerMode::GlobalControl] {
            let solution = solve(&inst, mode);
            let report = solution.simulate(40).expect("convergecast tree");
            table.push_row(vec![
                n.to_string(),
                mode.to_string(),
                solution.slots().to_string(),
                fmt_f(report.throughput),
                fmt_f(solution.rate()),
                fmt_f(report.mean_latency()),
                report.max_buffer_occupancy.to_string(),
                report.all_frames_completed.to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_produce_tables() {
        // E7 at quick scale is still a few seconds; the others are fast. Run the
        // cheapest ones here as a smoke test; the binary covers the rest.
        for table in [run_e1(Scale::Quick), run_e11(Scale::Quick)] {
            assert!(!table.rows.is_empty());
            assert!(!table.to_markdown().is_empty());
        }
    }

    #[test]
    fn e11_shows_the_two_fifths_vs_one_third_gap() {
        let table = run_e11(Scale::Quick);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0][1], "3");
        assert_eq!(table.rows[1][2], "0.400");
    }
}
