//! Everything that renders a snapshot for someone else to read: the
//! Prometheus text exposition, the human-readable `Display` summary, and the
//! reporter thread that writes both artifacts to disk.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::histogram::Bucketed;
use super::snapshot::{MetricsSnapshot, ServeMetrics, SCALARS};

/// `(name, help, value)` of a gauge the exposition computes from the
/// histograms and the rolling window rather than reads from a stored scalar.
type DerivedGauge = (&'static str, &'static str, fn(&MetricsSnapshot) -> f64);

pub(super) const DERIVED_GAUGES: &[DerivedGauge] = &[
    (
        "einet_batch_mean_occupancy",
        "Mean tasks per worker dispatch since start.",
        |s| s.batch.mean_occupancy(),
    ),
    (
        "einet_window_finished",
        "Tasks finished inside the rolling window.",
        |s| s.window.finished as f64,
    ),
    (
        "einet_window_throughput_per_sec",
        "Finished tasks per second over the rolling window.",
        |s| s.window.throughput_per_sec(),
    ),
    (
        "einet_window_slo_attainment",
        "Fraction of deadline-carrying tasks meeting their deadline in the window.",
        |s| s.window.slo_attainment(),
    ),
    (
        "einet_window_service_p50_seconds",
        "Windowed service-latency p50 upper bound.",
        |s| s.window.service.quantile_ms(0.50) / 1e3,
    ),
    (
        "einet_window_service_p99_seconds",
        "Windowed service-latency p99 upper bound.",
        |s| s.window.service.quantile_ms(0.99) / 1e3,
    ),
    (
        "einet_window_batch_occupancy",
        "Mean tasks per worker dispatch over the rolling window.",
        |s| s.window.mean_occupancy(),
    ),
];

impl MetricsSnapshot {
    /// Renders the snapshot in Prometheus text exposition format: task
    /// counters, queue gauges, cumulative-bucket latency histograms, and
    /// the windowed throughput/SLO/latency gauges.
    pub fn to_prom_text(&self) -> String {
        prom_text(&[(&[], self)])
    }
}

/// One labeled snapshot of a Prometheus exposition: every series it
/// contributes carries the labels (e.g. `[("model", "resnet")]`).
pub type PromBlock<'a> = (&'a [(&'a str, &'a str)], &'a MetricsSnapshot);

/// `name{base,extra}` with whichever of the two label groups is non-empty.
fn series(name: &str, base: &str, extra: &str) -> String {
    match (base.is_empty(), extra.is_empty()) {
        (true, true) => name.to_string(),
        (false, true) => format!("{name}{{{base}}}"),
        (true, false) => format!("{name}{{{extra}}}"),
        (false, false) => format!("{name}{{{base},{extra}}}"),
    }
}

fn write_family_header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// One histogram family: cumulative `_bucket` series, `_sum` and `_count`
/// for the histogram `of` picks out of each block.
fn write_histogram_family<H: Bucketed>(
    out: &mut String,
    blocks: &[(String, &MetricsSnapshot)],
    name: &str,
    help: &str,
    of: fn(&MetricsSnapshot) -> &H,
) {
    write_family_header(out, name, help, "histogram");
    let bucket = format!("{name}_bucket");
    for (base, snap) in blocks {
        let (buckets, count, sum, exemplars) = of(snap).parts();
        let mut cumulative = 0u64;
        for (i, in_bucket) in buckets.iter().enumerate() {
            let (le, total) = match H::BOUNDS.get(i) {
                Some(&bound) => {
                    cumulative += in_bucket;
                    (format!("le=\"{}\"", bound as f64 / H::PER_UNIT), cumulative)
                }
                None => ("le=\"+Inf\"".to_string(), count),
            };
            let bucket_series = series(&bucket, base, &le);
            let _ = writeln!(out, "{bucket_series} {total}");
            // Exemplar-style linkage (comment form — the plain text
            // exposition has no native exemplar syntax): the most recent
            // trace id that landed in each bucket, so a slow bucket can be
            // chased to one concrete distributed trace in the streams.
            match exemplars.get(i) {
                Some(&trace) if trace != 0 => {
                    let _ = writeln!(out, "# exemplar {bucket_series} trace_id={trace}");
                }
                _ => {}
            }
        }
        let sum = sum as f64 / H::PER_UNIT;
        let _ = writeln!(out, "{} {sum}", series(&format!("{name}_sum"), base, ""));
        let _ = writeln!(
            out,
            "{} {count}",
            series(&format!("{name}_count"), base, "")
        );
    }
}

/// Renders any number of labeled snapshots as one Prometheus exposition,
/// family-major: each family's `# HELP`/`# TYPE` once, then one group of
/// sample lines per block — the text format requires all lines of a family
/// to be contiguous, which concatenating per-snapshot expositions breaks.
pub fn prom_text(blocks: &[PromBlock<'_>]) -> String {
    // `model="a",tier="b"` — no surrounding braces, so histogram series
    // can append their own `le` label.
    let blocks: Vec<(String, &MetricsSnapshot)> = blocks
        .iter()
        .map(|(labels, snap)| {
            let base: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
                .collect();
            (base.join(","), *snap)
        })
        .collect();
    let mut out = String::with_capacity(2048 * blocks.len().max(1));
    for row in SCALARS {
        write_family_header(&mut out, row.prom, row.help, row.prom_type());
        for (base, snap) in &blocks {
            let name = series(row.prom, base, "");
            let _ = writeln!(out, "{name} {}", row.prom_value(snap));
        }
    }
    write_histogram_family(
        &mut out,
        &blocks,
        "einet_queue_wait_seconds",
        "Admission to dequeue.",
        |s| &s.queue_wait,
    );
    write_histogram_family(
        &mut out,
        &blocks,
        "einet_service_seconds",
        "Dequeue to outcome.",
        |s| &s.service,
    );
    // Batch occupancy: a histogram over dispatch sizes, not latencies.
    write_histogram_family(
        &mut out,
        &blocks,
        "einet_batch_size",
        "Tasks coalesced per worker dispatch.",
        |s| &s.batch,
    );
    for (name, help, value) in DERIVED_GAUGES {
        write_family_header(&mut out, name, help, "gauge");
        for (base, snap) in &blocks {
            let _ = writeln!(out, "{} {}", series(name, base, ""), value(snap));
        }
    }
    out
}

/// A background thread that periodically writes a [`ServeMetrics`] snapshot
/// to disk: always Prometheus text, optionally the JSON artifact too.
///
/// [`MetricsReporter::stop`] performs one final write and joins; dropping
/// without `stop` does the same (errors discarded).
#[derive(Debug)]
pub struct MetricsReporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsReporter {
    /// Spawns the reporter writing every `period` (clamped to ≥ 1 ms).
    pub fn spawn(
        metrics: Arc<ServeMetrics>,
        prom_path: PathBuf,
        json_path: Option<PathBuf>,
        period: Duration,
    ) -> Self {
        let period = period.max(Duration::from_millis(1));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("einet-metrics-reporter".to_string())
            .spawn(move || {
                let write = |snapshot: &MetricsSnapshot| {
                    let _ = std::fs::write(&prom_path, snapshot.to_prom_text());
                    if let Some(json_path) = &json_path {
                        let _ = std::fs::write(json_path, snapshot.to_json());
                    }
                };
                loop {
                    let wake = Instant::now() + period;
                    while Instant::now() < wake && !stop_flag.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(5).min(period));
                    }
                    let stopping = stop_flag.load(Ordering::Relaxed);
                    write(&metrics.snapshot());
                    if stopping {
                        break;
                    }
                }
            })
            .expect("spawn metrics reporter");
        MetricsReporter {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the reporter, waits for its final write, and joins.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsReporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "tasks: submitted {} | completed {} | preempted {} | deadline-expired {} | shed-at-dequeue {} | panicked {} | rejected {}",
            self.submitted,
            self.completed,
            self.preempted,
            self.deadline_expired,
            self.shed_expired_at_dequeue,
            self.panicked,
            self.rejected,
        )?;
        writeln!(
            f,
            "queue: depth {} | high-water {}",
            self.queue_depth, self.queue_high_water
        )?;
        writeln!(
            f,
            "queue-wait: mean {:.2} ms | p50 <= {:.1} ms | p99 <= {:.1} ms",
            self.queue_wait.mean_ms(),
            self.queue_wait.quantile_ms(0.50),
            self.queue_wait.quantile_ms(0.99),
        )?;
        writeln!(
            f,
            "service:    mean {:.2} ms | p50 <= {:.1} ms | p99 <= {:.1} ms",
            self.service.mean_ms(),
            self.service.quantile_ms(0.50),
            self.service.quantile_ms(0.99),
        )?;
        writeln!(
            f,
            "batch: {} dispatches | mean occupancy {:.2} | window occupancy {:.2}",
            self.batch.count,
            self.batch.mean_occupancy(),
            self.window.mean_occupancy(),
        )?;
        write!(
            f,
            "window({:.1}s): finished {} | {:.1}/s | SLO {:.0}% | p50 <= {:.1} ms | p99 <= {:.1} ms",
            self.window.window_ms as f64 / 1e3,
            self.window.finished,
            self.window.throughput_per_sec(),
            self.window.slo_attainment() * 100.0,
            self.window.service.quantile_ms(0.50),
            self.window.service.quantile_ms(0.99),
        )
    }
}
