//! Runs every experiment (E1–E13 and the extension experiments E14–E20) and
//! prints the resulting Markdown tables.
//!
//! ```text
//! cargo run --release -p wagg-bench --bin experiments            # full scale
//! cargo run --release -p wagg-bench --bin experiments -- --quick # reduced scale
//! cargo run --release -p wagg-bench --bin experiments -- --only E6 E9
//! ```
//!
//! The output is the measured half of `EXPERIMENTS.md`.

use std::env;
use std::time::Instant;
use wagg_bench::{report_heading, Scale, EXPERIMENTS};

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let only: Vec<String> = {
        let mut only = Vec::new();
        let mut take = false;
        for a in &args {
            if a == "--only" {
                take = true;
            } else if take && !a.starts_with("--") {
                only.push(a.to_uppercase());
            } else {
                take = false;
            }
        }
        only
    };

    print!("{}", report_heading(scale));
    for (id, runner) in EXPERIMENTS {
        if !only.is_empty() && !only.iter().any(|o| o == id) {
            continue;
        }
        let started = Instant::now();
        let table = runner(scale);
        let elapsed = started.elapsed();
        print!("{}", table.to_markdown());
        eprintln!("[{id}] finished in {:.2?}", elapsed);
    }
}
