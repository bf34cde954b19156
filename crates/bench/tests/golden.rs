//! Golden paper tables: every experiment E1–E20 at `Scale::Quick` must render
//! byte for byte what `experiments --quick` printed to stdout when
//! `golden/experiments_quick.md` was recorded. The schedules, rates and
//! bounds in those tables are the contract the kernels are held to, so a
//! mismatch is a behaviour change, not noise.
//!
//! Re-record only when a change of the paper's numbers is intended:
//!
//! ```text
//! cargo run --release -p wagg-bench --bin experiments -- --quick > crates/bench/tests/golden/experiments_quick.md
//! ```
//!
//! The full-scale tables are pinned the same way by `golden/experiments_full.md`,
//! which `./ci.sh` (full mode) diffs against a release run of `experiments`
//! (re-record with the same command without `--quick`).

use wagg_bench::{report_heading, Scale, EXPERIMENTS};

const GOLDEN: &str = include_str!("golden/experiments_quick.md");

#[test]
fn quick_tables_match_the_golden_file() {
    let mut rendered = report_heading(Scale::Quick);
    for (_, runner) in EXPERIMENTS {
        rendered.push_str(&runner(Scale::Quick).to_markdown());
    }
    if rendered == GOLDEN {
        return;
    }
    let mut want = GOLDEN.lines();
    let mut got = rendered.lines();
    for line in 1.. {
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (w, g) => panic!(
                "golden tables differ at line {line}:\n  golden:   {}\n  rendered: {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of output>")
            ),
        }
    }
}
