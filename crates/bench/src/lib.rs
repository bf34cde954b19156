//! The experiment harness behind `EXPERIMENTS.md`.
//!
//! The paper is an algorithms/theory paper: its "evaluation" consists of the worked
//! example of Fig. 1, the theorems (schedule-length bounds), and the lower-bound
//! constructions of Figs. 2–4. For each of these artefacts the [`experiments`]
//! module has a `run_eXX` function that regenerates the corresponding quantitative
//! series (schedule lengths, rates, round counts, …) on synthetic instances, and the
//! `experiments` binary prints them as Markdown tables — the measured side of the
//! paper-vs-measured record in `EXPERIMENTS.md`.
//!
//! The [`extensions`] module adds E14–E20: the Sec. 3.1 discussion points (median by
//! counting, rate-vs-latency, power-limited multi-hop, Rayleigh fading, churn
//! repair), Remark 1's approximate trees, and the design-choice ablations.
//!
//! Criterion benchmarks (`benches/experiments.rs`, `benches/pipeline.rs`,
//! `benches/ablations.rs`) time the same code paths at reduced scale.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod extensions;
pub mod gate;

use serde::{Deserialize, Serialize};
use std::fmt;
use wagg_geometry::rng::{seeded_rng, uniform_in};
use wagg_geometry::Point;
use wagg_sinr::Link;

/// Unit links at constant density — the shared workload of the engine and
/// partition bench families and the `partition_profile` bin. One definition,
/// so the tracked `BENCH_*.json` rows and one-shot profile runs stay
/// comparable run over run.
pub fn uniform_unit_links(n: usize, seed: u64) -> Vec<Link> {
    let side = (n as f64).sqrt() * 4.0;
    let mut rng = seeded_rng(seed);
    (0..n)
        .map(|i| {
            let x = uniform_in(&mut rng, 0.0, side);
            let y = uniform_in(&mut rng, 0.0, side);
            let angle = uniform_in(&mut rng, 0.0, std::f64::consts::TAU);
            Link::new(
                i,
                Point::new(x, y),
                Point::new(x + angle.cos(), y + angle.sin()),
            )
        })
        .collect()
}

/// A named experiment entry point.
pub type ExperimentRunner = fn(Scale) -> Table;

/// Every experiment, in the order the `experiments` binary prints them:
/// E1–E13 from [`experiments`], then the extensions E14–E20 from
/// [`extensions`]. The binary, the criterion bench and the golden-table
/// test all run this one list.
pub const EXPERIMENTS: [(&str, ExperimentRunner); 20] = [
    ("E1", experiments::run_e1),
    ("E2", experiments::run_e2),
    ("E3", experiments::run_e3),
    ("E4", experiments::run_e4),
    ("E5", experiments::run_e5),
    ("E6", experiments::run_e6),
    ("E7", experiments::run_e7),
    ("E8", experiments::run_e8),
    ("E9", experiments::run_e9),
    ("E10", experiments::run_e10),
    ("E11", experiments::run_e11),
    ("E12", experiments::run_e12),
    ("E13", experiments::run_e13),
    ("E14", extensions::run_e14),
    ("E15", extensions::run_e15),
    ("E16", extensions::run_e16),
    ("E17", extensions::run_e17),
    ("E18", extensions::run_e18),
    ("E19", extensions::run_e19),
    ("E20", extensions::run_e20),
];

/// The heading the `experiments` binary prints above its tables.
pub fn report_heading(scale: Scale) -> String {
    format!("# Measured experiment results ({scale:?} scale)\n\n")
}

/// How much work an experiment should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Reduced instance sizes, suitable for Criterion timing loops and CI.
    Quick,
    /// The instance sizes reported in `EXPERIMENTS.md`.
    Full,
}

/// A rendered experiment result: an identifier, a caption, and a table of values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Experiment identifier (e.g. `"E2"`).
    pub id: String,
    /// What the experiment reproduces (figure/claim reference plus a caption).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows (same arity as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given identity and headers.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's arity differs from the header arity.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(row);
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out.push('\n');
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

/// Formats a float with three significant decimals for table cells.
pub fn fmt_f(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 1e6 || value.abs() < 1e-3 {
        format!("{value:.3e}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("E0", "sanity", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### E0"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_checked() {
        let mut t = Table::new("E0", "sanity", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(1.5), "1.500");
        assert!(fmt_f(1e9).contains('e'));
        assert!(fmt_f(1e-7).contains('e'));
    }
}
