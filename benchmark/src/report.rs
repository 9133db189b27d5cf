//! What a run prints and writes: every metric by name with its unit, the
//! one-line JSON result the driver reads, and a fuller JSON report (spread
//! over rounds, sample counts, violated checks) under `benchmark/out/` for
//! `repeat.sh` and the committed baseline.

use std::io;
use std::path::{Path, PathBuf};

use einet_trace::json::JsonWriter;

use crate::stats::summarise;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Per-round values behind it (empty for a single measurement).
    pub rounds: Vec<f64>,
    /// Samples the value rests on.
    pub samples: usize,
}

impl Metric {
    /// A metric measured once.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            rounds: Vec::new(),
            samples: 1,
        }
    }

    fn print(&self) {
        print!("{:<26} {:>14.4} {:<8}", self.name, self.value, self.unit);
        if !self.rounds.is_empty() {
            let s = summarise(&self.rounds);
            print!(
                " rounds: median {:.4} q1 {:.4} q3 {:.4} (n {}); {} samples",
                s.median, s.q1, s.q3, s.n, self.samples
            );
        }
        println!();
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// `--trace`.
    pub traced: bool,
    /// Every output check held and nothing failed.
    pub correct: bool,
    /// Requests sent in the timed part.
    pub attempted: usize,
    /// Requests that failed.
    pub failed: usize,
    /// The metrics of this mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Further numbers worth reading, not part of the contract.
    pub diagnostics: Vec<Metric>,
    /// Violated output checks.
    pub violations: Vec<String>,
}

impl Report {
    /// Where the fuller report of this run goes.
    pub fn path(&self) -> PathBuf {
        let suffix = if self.traced { "-traced" } else { "" };
        out_dir().join(format!("report-{}{suffix}.json", self.workload))
    }

    /// Prints the metrics, the verdict on the output checks and — last —
    /// the driver's JSON line.
    pub fn print(&self) {
        for metric in self.metrics.iter().chain(&self.diagnostics) {
            metric.print();
        }
        if self.violations.is_empty() {
            println!("output checks: ok");
        } else {
            println!("output checks: {} violated", self.violations.len());
            for v in self.violations.iter().take(20) {
                println!("  {v}");
            }
        }
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_verdict(&mut w);
        w.key("metrics");
        w.begin_object();
        for m in &self.metrics {
            w.key(m.name);
            w.begin_object();
            w.key("value");
            w.number_f64(m.value);
            w.key("unit");
            w.string(m.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        println!("{}", w.finish());
    }

    fn write_verdict(&self, w: &mut JsonWriter) {
        w.key("correct");
        w.boolean(self.correct);
        w.key("attempted");
        w.number_u64(self.attempted as u64);
        w.key("failed");
        w.number_u64(self.failed as u64);
    }

    /// Writes the fuller report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("workload");
        w.string(self.workload);
        w.key("seed");
        w.number_u64(self.seed);
        w.key("traced");
        w.boolean(self.traced);
        self.write_verdict(&mut w);
        for (key, metrics) in [
            ("metrics", &self.metrics),
            ("diagnostics", &self.diagnostics),
        ] {
            w.key(key);
            w.begin_object();
            for m in metrics {
                w.key(m.name);
                w.begin_object();
                w.key("unit");
                w.string(m.unit);
                w.key("value");
                w.number_f64(m.value);
                if !m.rounds.is_empty() {
                    let s = summarise(&m.rounds);
                    for (k, v) in [("median", s.median), ("q1", s.q1), ("q3", s.q3)] {
                        w.key(k);
                        w.number_f64(v);
                    }
                    w.key("rounds");
                    w.number_u64(s.n as u64);
                }
                w.key("samples");
                w.number_u64(m.samples as u64);
                w.end_object();
            }
            w.end_object();
        }
        w.key("violations");
        w.begin_array();
        for v in &self.violations {
            w.string(v);
        }
        w.end_array();
        w.end_object();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, w.finish() + "\n")
    }
}

/// `benchmark/out/`, next to the crate's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
