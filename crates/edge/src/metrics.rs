//! A lock-free serving-metrics registry for the executor pool.
//!
//! Every counter is a relaxed atomic: the registry sits on the admission and
//! completion paths of every task, so it must never contend. Consistency
//! across counters is only guaranteed *at rest* (after the queue drains),
//! which is exactly when reconciliation matters — see
//! [`MetricsSnapshot::reconciles`].
//!
//! Every scalar the registry keeps is declared once, as a row of the
//! `serve_scalars!` table below: the row names the field and says how it is
//! exposed to Prometheus, how it merges and whether old JSON artifacts may
//! lack it. The atomic cell, the [`MetricsSnapshot`] field, the JSON codec,
//! [`MetricsSnapshot::merge`] and the exposition are all driven from that
//! row, so adding a counter is one row plus the recorder that increments it.
//!
//! Besides the cumulative counters the registry keeps a [`RollingWindow`]:
//! sharded time-bucketed statistics over the last ~2 s of finished tasks,
//! answering the questions a dashboard asks about *now* — windowed p50/p99
//! service latency, throughput, and SLO attainment — which cumulative
//! counters smear out over the whole run. [`MetricsSnapshot::to_prom_text`]
//! renders everything in Prometheus exposition format; a
//! [`MetricsReporter`] writes it to disk on a fixed cadence.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use einet_trace::json::{JsonValue, JsonWriter};

/// Upper bounds (µs, inclusive) of the latency histogram buckets; the last
/// bucket is unbounded. Roughly logarithmic from 100 µs to 1 s.
pub const LATENCY_BUCKETS_US: [u64; 13] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

const NUM_BUCKETS: usize = LATENCY_BUCKETS_US.len() + 1;

/// Upper bounds (inclusive) of the batch-occupancy histogram buckets; the
/// last bucket is unbounded.
pub const BATCH_BUCKETS: [u64; 6] = [1, 2, 4, 8, 16, 32];

const NUM_BATCH_BUCKETS: usize = BATCH_BUCKETS.len() + 1;

/// The bucket `value` falls in on a grid of inclusive upper `bounds`; one
/// past the last bound is the unbounded overflow bucket.
fn bucket_index(bounds: &[u64], value: u64) -> usize {
    bounds
        .iter()
        .position(|&bound| value <= bound)
        .unwrap_or(bounds.len())
}

fn load_all<const N: usize>(cells: &[AtomicU64; N]) -> [u64; N] {
    std::array::from_fn(|i| cells[i].load(Ordering::Relaxed))
}

/// What the three histogram kinds share once snapshotted — cumulative
/// latency, batch occupancy, and the rolling window's service latency (a
/// [`HistogramSnapshot`] too): bucket counts on a fixed grid, a count and a
/// sum. The JSON reader, the merger and the Prometheus writer exist once,
/// against this.
trait Bucketed: Default {
    /// Inclusive upper bounds of every bucket but the last, unbounded one.
    const BOUNDS: &'static [u64];
    /// JSON keys of the sum and of the bounds array.
    const SUM_KEY: &'static str;
    const BOUNDS_KEY: &'static str;
    /// The exposition divides bounds and sum by this: 1e6 turns µs into
    /// Prometheus' base unit, seconds.
    const PER_UNIT: f64;
    /// `(buckets, count, sum, exemplars)`. Exemplars are per-bucket trace
    /// ids (0 = none); a kind that keeps none lends an empty slice.
    fn parts(&self) -> (&[u64], u64, u64, &[u64]);
    /// [`Bucketed::parts`], writable.
    fn parts_mut(&mut self) -> (&mut [u64], &mut u64, &mut u64, &mut [u64]);
}

fn write_json_array(w: &mut JsonWriter, key: &str, values: &[u64]) {
    w.key(key);
    w.begin_array();
    for &v in values {
        w.number_u64(v);
    }
    w.end_array();
}

fn json_u64(obj: &JsonValue, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("metrics JSON missing numeric field {key:?}"))
}

/// Writes `h` as a JSON object: count, sum, the kind's `derived` statistics
/// (recomputed, never read back), then the grid and what fell on it.
fn write_json_histogram<H: Bucketed>(w: &mut JsonWriter, h: &H, derived: &[(&str, f64)]) {
    let (buckets, count, sum, exemplars) = h.parts();
    w.begin_object();
    w.key("count");
    w.number_u64(count);
    w.key(H::SUM_KEY);
    w.number_u64(sum);
    for &(key, value) in derived {
        w.key(key);
        w.number_f64(value);
    }
    write_json_array(w, H::BOUNDS_KEY, H::BOUNDS);
    write_json_array(w, "bucket_counts", buckets);
    if !exemplars.is_empty() {
        write_json_array(w, "bucket_exemplars", exemplars);
    }
    w.end_object();
}

/// Reads the histogram object under `key` of `obj`.
fn read_json_histogram<H: Bucketed>(obj: &JsonValue, key: &str) -> Result<H, String> {
    let h = obj
        .get(key)
        .ok_or_else(|| format!("metrics JSON missing histogram {key:?}"))?;
    let counts = h
        .get("bucket_counts")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("histogram {key:?} missing bucket_counts"))?;
    let mut out = H::default();
    let (buckets, count, sum, exemplars) = out.parts_mut();
    if counts.len() != buckets.len() {
        return Err(format!(
            "histogram {key:?} has {} buckets, expected {}",
            counts.len(),
            buckets.len()
        ));
    }
    for (out, c) in buckets.iter_mut().zip(counts) {
        *out = c
            .as_u64()
            .ok_or_else(|| format!("histogram {key:?} has a non-integer bucket count"))?;
    }
    // Absent in artifacts written before exemplar linkage; zeros keep those
    // parseable.
    if let Some(raw) = h.get("bucket_exemplars").and_then(JsonValue::as_array) {
        for (out, e) in exemplars.iter_mut().zip(raw) {
            *out = e.as_u64().unwrap_or(0);
        }
    }
    *count = json_u64(h, "count")?;
    *sum = json_u64(h, H::SUM_KEY)?;
    Ok(out)
}

fn add_buckets(mine: &mut [u64], theirs: &[u64]) {
    for (x, y) in mine.iter_mut().zip(theirs) {
        *x += y;
    }
}

fn merge_histogram<H: Bucketed>(mine: &mut H, theirs: &H) {
    let (buckets, count, sum, exemplars) = mine.parts_mut();
    let (their_buckets, their_count, their_sum, their_exemplars) = theirs.parts();
    add_buckets(buckets, their_buckets);
    *count += their_count;
    *sum += their_sum;
    // Exemplars don't add: keep one representative per bucket, preferring
    // the other snapshot's (arbitrary but deterministic).
    for (x, &y) in exemplars.iter_mut().zip(their_exemplars) {
        if y != 0 {
            *x = y;
        }
    }
}

/// A fixed-bucket batch-occupancy histogram with atomic counters: one
/// observation per worker dispatch, weighted by how many tasks the dispatch
/// coalesced.
#[derive(Debug, Default)]
pub struct BatchHistogram {
    buckets: [AtomicU64; NUM_BATCH_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl BatchHistogram {
    /// Records one dispatch of `size` coalesced tasks.
    pub fn record(&self, size: usize) {
        let size = size as u64;
        self.buckets[bucket_index(&BATCH_BUCKETS, size)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(size, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> BatchSnapshot {
        BatchSnapshot {
            buckets: load_all(&self.buckets),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`BatchHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchSnapshot {
    /// Per-bucket dispatch counts ([`BATCH_BUCKETS`] bounds plus an
    /// overflow bucket).
    pub buckets: [u64; NUM_BATCH_BUCKETS],
    /// Worker dispatches (batches, including size-1 singletons).
    pub count: u64,
    /// Total tasks across all dispatches (Σ batch sizes).
    pub sum: u64,
}

impl BatchSnapshot {
    /// Mean tasks per dispatch (0 when no dispatch has happened).
    pub fn mean_occupancy(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn write_json(&self, w: &mut JsonWriter) {
        write_json_histogram(w, self, &[("mean_occupancy", self.mean_occupancy())]);
    }
}

impl Bucketed for BatchSnapshot {
    const BOUNDS: &'static [u64] = &BATCH_BUCKETS;
    const SUM_KEY: &'static str = "sum";
    const BOUNDS_KEY: &'static str = "bucket_bounds";
    const PER_UNIT: f64 = 1.0;

    fn parts(&self) -> (&[u64], u64, u64, &[u64]) {
        (&self.buckets, self.count, self.sum, &[])
    }

    fn parts_mut(&mut self) -> (&mut [u64], &mut u64, &mut u64, &mut [u64]) {
        (&mut self.buckets, &mut self.count, &mut self.sum, &mut [])
    }
}

/// A fixed-bucket latency histogram with atomic counters.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    /// Most recent cross-process trace id observed per bucket (0 = none) —
    /// exemplar-style linkage so a slow bucket in the Prometheus exposition
    /// can be chased to one concrete distributed trace.
    exemplars: [AtomicU64; NUM_BUCKETS],
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        self.record_traced(latency, 0);
    }

    /// Records one observation attributed to cross-process trace id `trace`
    /// (0 = untraced). A non-zero id becomes the bucket's exemplar: the
    /// most recent trace to land there, exported as a comment next to the
    /// bucket's Prometheus series.
    pub fn record_traced(&self, latency: Duration, trace: u64) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let idx = bucket_index(&LATENCY_BUCKETS_US, us);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        if trace != 0 {
            self.exemplars[idx].store(trace, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: load_all(&self.buckets),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            exemplars: load_all(&self.exemplars),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts ([`LATENCY_BUCKETS_US`] bounds plus an overflow
    /// bucket).
    pub buckets: [u64; NUM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observations in µs.
    pub sum_us: u64,
    /// Most recent cross-process trace id per bucket (0 = none).
    pub exemplars: [u64; NUM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64 / 1e3
        }
    }

    /// Upper-bound estimate (ms) of the `q`-quantile: the bound of the
    /// first bucket at which the cumulative count reaches the rank
    /// `clamp(ceil(q * count), 1, count)`. Returns 0 when empty; `q <= 0`
    /// lands in the first non-empty bucket, `q >= 1` (and NaN) in the last;
    /// the overflow bucket reports the largest finite bound.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        // Clamping the rank keeps q = 0 from targeting rank 0 (met before
        // any bucket, i.e. at whatever bucket happens to be scanned first)
        // and float rounding from asking for more observations than exist.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let bound = LATENCY_BUCKETS_US.get(i).copied().unwrap_or(u64::MAX);
                return bound.min(*LATENCY_BUCKETS_US.last().expect("non-empty")) as f64 / 1e3;
            }
        }
        *LATENCY_BUCKETS_US.last().expect("non-empty") as f64 / 1e3
    }

    fn write_json(&self, w: &mut JsonWriter) {
        let derived = [
            ("mean_ms", self.mean_ms()),
            ("p50_ms", self.quantile_ms(0.50)),
            ("p95_ms", self.quantile_ms(0.95)),
            ("p99_ms", self.quantile_ms(0.99)),
        ];
        write_json_histogram(w, self, &derived);
    }
}

impl Bucketed for HistogramSnapshot {
    const BOUNDS: &'static [u64] = &LATENCY_BUCKETS_US;
    const SUM_KEY: &'static str = "sum_us";
    const BOUNDS_KEY: &'static str = "bucket_bounds_us";
    const PER_UNIT: f64 = 1e6;

    fn parts(&self) -> (&[u64], u64, u64, &[u64]) {
        (&self.buckets, self.count, self.sum_us, &self.exemplars)
    }

    fn parts_mut(&mut self) -> (&mut [u64], &mut u64, &mut u64, &mut [u64]) {
        (
            &mut self.buckets,
            &mut self.count,
            &mut self.sum_us,
            &mut self.exemplars,
        )
    }
}

/// Number of time buckets in a [`RollingWindow`].
pub const NUM_WINDOW_SHARDS: usize = 8;

/// Default length of one window bucket in milliseconds (8 × 250 ms = a 2 s
/// window).
pub const DEFAULT_WINDOW_BUCKET_MS: u64 = 250;

/// One time bucket of the rolling window. `epoch` holds the absolute bucket
/// index + 1 the shard currently represents (0 = never used); a recorder
/// whose bucket index maps here but whose epoch is newer rotates the shard
/// by claiming the epoch via CAS and zeroing the fields.
#[derive(Debug, Default)]
struct WindowShard {
    epoch: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    finished: AtomicU64,
    slo_met: AtomicU64,
    slo_missed: AtomicU64,
    batches: AtomicU64,
    batch_samples: AtomicU64,
}

impl WindowShard {
    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_us.store(0, Ordering::Relaxed);
        self.finished.store(0, Ordering::Relaxed);
        self.slo_met.store(0, Ordering::Relaxed);
        self.slo_missed.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.batch_samples.store(0, Ordering::Relaxed);
    }
}

/// One finished task's contribution to the rolling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSample {
    /// Service latency (µs) for tasks that ran on a worker; `None` for
    /// tasks shed straight out of the queue.
    pub service_us: Option<u64>,
    /// SLO accounting for deadline-carrying tasks: `Some(true)` met,
    /// `Some(false)` missed, `None` when the task had no deadline (or was
    /// preempted — an operator decision, not an SLO failure).
    pub slo: Option<bool>,
}

/// Sharded time-bucketed statistics over the last
/// [`NUM_WINDOW_SHARDS`] × `bucket_ms` of finished tasks.
///
/// Time is injected as a [`Duration`] offset from the owner's start instant,
/// which keeps rotation deterministic under test. Each offset maps to an
/// absolute bucket index (`offset_ms / bucket_ms`); buckets recycle shards
/// round-robin, so a sample and a snapshot only ever see data at most one
/// window old. Rotation is claim-via-CAS: exact when recorders are
/// quiesced (as in tests and at-rest snapshots) and best-effort under
/// concurrency — a recorder racing a rotation can lose its one sample,
/// never corrupt the structure.
#[derive(Debug)]
pub struct RollingWindow {
    bucket_ms: u64,
    shards: [WindowShard; NUM_WINDOW_SHARDS],
}

impl Default for RollingWindow {
    fn default() -> Self {
        RollingWindow::new(DEFAULT_WINDOW_BUCKET_MS)
    }
}

impl RollingWindow {
    /// A window of [`NUM_WINDOW_SHARDS`] buckets of `bucket_ms` each
    /// (clamped to ≥ 1 ms).
    pub fn new(bucket_ms: u64) -> Self {
        RollingWindow {
            bucket_ms: bucket_ms.max(1),
            shards: Default::default(),
        }
    }

    /// Total window span in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.bucket_ms * NUM_WINDOW_SHARDS as u64
    }

    fn bucket_index(&self, offset: Duration) -> u64 {
        u64::try_from(offset.as_millis()).unwrap_or(u64::MAX) / self.bucket_ms
    }

    /// Claims the shard for the bucket `offset` maps to, rotating it if it
    /// still holds an older bucket's data. `None` when the bucket's shard
    /// was already recycled by a newer bucket (the sample is stale).
    fn claim_shard(&self, offset: Duration) -> Option<&WindowShard> {
        let idx = self.bucket_index(offset);
        let shard = &self.shards[(idx % NUM_WINDOW_SHARDS as u64) as usize];
        let want = idx + 1; // stored epoch is index + 1 so 0 means unused
        loop {
            let cur = shard.epoch.load(Ordering::Acquire);
            if cur == want {
                return Some(shard);
            }
            if cur > want {
                return None; // stale: this bucket's shard was already recycled
            }
            if shard
                .epoch
                .compare_exchange(cur, want, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                shard.reset();
                return Some(shard);
            }
        }
    }

    /// Records one finished task at `offset` since the window's time zero.
    /// Samples older than the bucket currently occupying their shard are
    /// dropped (they fell out of the window before being recorded).
    pub fn record_at(&self, offset: Duration, sample: WindowSample) {
        let Some(shard) = self.claim_shard(offset) else {
            return;
        };
        shard.finished.fetch_add(1, Ordering::Relaxed);
        match sample.slo {
            Some(true) => shard.slo_met.fetch_add(1, Ordering::Relaxed),
            Some(false) => shard.slo_missed.fetch_add(1, Ordering::Relaxed),
            None => 0,
        };
        if let Some(us) = sample.service_us {
            shard.buckets[bucket_index(&LATENCY_BUCKETS_US, us)].fetch_add(1, Ordering::Relaxed);
            shard.count.fetch_add(1, Ordering::Relaxed);
            shard.sum_us.fetch_add(us, Ordering::Relaxed);
        }
    }

    /// Records one worker dispatch of `size` coalesced tasks at `offset`
    /// since the window's time zero — the windowed occupancy gauge.
    pub fn record_batch_at(&self, offset: Duration, size: usize) {
        let Some(shard) = self.claim_shard(offset) else {
            return;
        };
        shard.batches.fetch_add(1, Ordering::Relaxed);
        shard
            .batch_samples
            .fetch_add(size as u64, Ordering::Relaxed);
    }

    /// Sums the buckets still inside the window ending at `offset`.
    pub fn snapshot_at(&self, offset: Duration) -> WindowSnapshot {
        let now_idx = self.bucket_index(offset);
        // Live epochs: (now_idx + 1) - (NUM_WINDOW_SHARDS - 1) ..= now_idx + 1.
        let newest = now_idx + 1;
        let oldest = newest.saturating_sub(NUM_WINDOW_SHARDS as u64 - 1);
        let mut snap = WindowSnapshot {
            window_ms: self.window_ms(),
            ..WindowSnapshot::default()
        };
        for shard in &self.shards {
            let epoch = shard.epoch.load(Ordering::Acquire);
            if epoch == 0 || epoch < oldest || epoch > newest {
                continue;
            }
            snap.finished += shard.finished.load(Ordering::Relaxed);
            snap.slo_met += shard.slo_met.load(Ordering::Relaxed);
            snap.slo_missed += shard.slo_missed.load(Ordering::Relaxed);
            snap.batches += shard.batches.load(Ordering::Relaxed);
            snap.batch_samples += shard.batch_samples.load(Ordering::Relaxed);
            snap.service.count += shard.count.load(Ordering::Relaxed);
            snap.service.sum_us += shard.sum_us.load(Ordering::Relaxed);
            add_buckets(&mut snap.service.buckets, &load_all(&shard.buckets));
        }
        snap
    }
}

/// A point-in-time rollup of the live window: what happened in the last
/// [`WindowSnapshot::window_ms`] milliseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Window span in ms.
    pub window_ms: u64,
    /// Tasks that reached any terminal outcome inside the window.
    pub finished: u64,
    /// Deadline-carrying tasks that completed in time.
    pub slo_met: u64,
    /// Deadline-carrying tasks that expired or were shed.
    pub slo_missed: u64,
    /// Worker dispatches inside the window (including size-1 singletons).
    pub batches: u64,
    /// Total tasks across those dispatches (Σ batch sizes).
    pub batch_samples: u64,
    /// Windowed service-latency histogram (serviced tasks only).
    pub service: HistogramSnapshot,
}

impl WindowSnapshot {
    /// Mean tasks per dispatch inside the window (0 with no dispatches).
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_samples as f64 / self.batches as f64
        }
    }

    /// Finished tasks per second over the window span.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.window_ms == 0 {
            0.0
        } else {
            self.finished as f64 * 1e3 / self.window_ms as f64
        }
    }

    /// Fraction of deadline-carrying tasks that met their deadline
    /// (1.0 when the window saw none — nothing violated the SLO).
    pub fn slo_attainment(&self) -> f64 {
        let denom = self.slo_met + self.slo_missed;
        if denom == 0 {
            1.0
        } else {
            self.slo_met as f64 / denom as f64
        }
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("window_ms");
        w.number_u64(self.window_ms);
        w.key("finished");
        w.number_u64(self.finished);
        w.key("slo_met");
        w.number_u64(self.slo_met);
        w.key("slo_missed");
        w.number_u64(self.slo_missed);
        w.key("batches");
        w.number_u64(self.batches);
        w.key("batch_samples");
        w.number_u64(self.batch_samples);
        w.key("mean_occupancy");
        w.number_f64(self.mean_occupancy());
        w.key("throughput_per_sec");
        w.number_f64(self.throughput_per_sec());
        w.key("slo_attainment");
        w.number_f64(self.slo_attainment());
        w.key("service");
        self.service.write_json(w);
        w.end_object();
    }

    fn read_json(obj: &JsonValue, key: &str) -> Result<Self, String> {
        let window = obj
            .get(key)
            .ok_or_else(|| format!("metrics JSON missing {key}"))?;
        Ok(WindowSnapshot {
            window_ms: json_u64(window, "window_ms")?,
            finished: json_u64(window, "finished")?,
            slo_met: json_u64(window, "slo_met")?,
            slo_missed: json_u64(window, "slo_missed")?,
            batches: json_u64(window, "batches")?,
            batch_samples: json_u64(window, "batch_samples")?,
            service: read_json_histogram(window, "service")?,
        })
    }

    fn merge(&mut self, other: &WindowSnapshot) {
        self.window_ms = self.window_ms.max(other.window_ms);
        self.finished += other.finished;
        self.slo_met += other.slo_met;
        self.slo_missed += other.slo_missed;
        self.batches += other.batches;
        self.batch_samples += other.batch_samples;
        merge_histogram(&mut self.service, &other.service);
    }
}

/// How a scalar is typed and scaled in the Prometheus exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PromKind {
    /// A monotonic `counter`, printed as the integer it is.
    Counter,
    /// A `gauge` printed as is.
    Gauge,
    /// A `gauge` stored in µs and printed in seconds, Prometheus' base unit.
    SecondsGauge,
}

/// How a scalar combines when two snapshots merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Merge {
    Sum,
    Max,
}

/// Whether [`MetricsSnapshot::from_json`] insists on a scalar's key or
/// reads a missing one as 0 (rows added after artifacts were already on
/// disk are `Defaulted`, so those artifacts keep parsing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Json {
    Required,
    Defaulted,
}

/// One scalar of the registry: everything the JSON codec, `merge` and the
/// exposition need to know about it. The JSON key is the field name.
struct ScalarRow {
    field: &'static str,
    kind: PromKind,
    prom: &'static str,
    help: &'static str,
    merge: Merge,
    json: Json,
    get: fn(&MetricsSnapshot) -> u64,
    get_mut: fn(&mut MetricsSnapshot) -> &mut u64,
}

impl ScalarRow {
    /// The family's `# TYPE`.
    fn prom_type(&self) -> &'static str {
        match self.kind {
            PromKind::Counter => "counter",
            PromKind::Gauge | PromKind::SecondsGauge => "gauge",
        }
    }

    /// The sample value as the exposition prints it.
    fn prom_value(&self, snap: &MetricsSnapshot) -> String {
        let value = (self.get)(snap);
        match self.kind {
            PromKind::Counter => value.to_string(),
            PromKind::Gauge => (value as f64).to_string(),
            PromKind::SecondsGauge => (value as f64 / 1e6).to_string(),
        }
    }
}

/// Declares the registry's scalars, one row each:
///
/// ```text
/// /// more field doc
/// field: Kind "prometheus_name" "help text", MergeRule, JsonRule;
/// ```
///
/// The help text is also the first paragraph of the snapshot field's doc.
/// `recorded` rows are backed by an atomic in [`ServeMetrics`] that a
/// recorder increments; `sampled` rows exist only in the snapshot and are
/// filled in by [`ServeMetrics::snapshot`]. From the rows the macro
/// generates both structs (rows first, in order, then the histograms) and
/// the `SCALARS` table everything else iterates.
macro_rules! serve_scalars {
    (
        recorded { $( $(#[$rdoc:meta])* $rec:ident: $rkind:ident $rprom:literal $rhelp:literal, $rmerge:ident, $rjson:ident; )+ }
        sampled { $( $(#[$sdoc:meta])* $smp:ident: $skind:ident $sprom:literal $shelp:literal, $smerge:ident, $sjson:ident; )+ }
    ) => {
        /// The pool's serving metrics: task counters, queue gauges and
        /// latency histograms. Shared (`Arc`) between the pool handle and
        /// its workers.
        #[derive(Debug)]
        pub struct ServeMetrics {
            $( $rec: AtomicU64, )+
            started: Instant,
            /// Admission → dequeue.
            pub queue_wait: LatencyHistogram,
            /// Dequeue → outcome.
            pub service: LatencyHistogram,
            /// Tasks per worker dispatch (batch occupancy).
            pub batch: BatchHistogram,
            /// Rolling window over finished tasks (last ~2 s by default).
            pub window: RollingWindow,
        }

        impl Default for ServeMetrics {
            fn default() -> Self {
                ServeMetrics {
                    $( $rec: AtomicU64::new(0), )+
                    started: Instant::now(),
                    queue_wait: LatencyHistogram::default(),
                    service: LatencyHistogram::default(),
                    batch: BatchHistogram::default(),
                    window: RollingWindow::default(),
                }
            }
        }

        impl ServeMetrics {
            fn load_recorded(&self, snap: &mut MetricsSnapshot) {
                $( snap.$rec = self.$rec.load(Ordering::Relaxed); )+
            }
        }

        /// A point-in-time copy of [`ServeMetrics`]. `Default` is all-zero —
        /// the identity for [`MetricsSnapshot::merge`].
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( #[doc = $rhelp] #[doc = ""] $(#[$rdoc])* pub $rec: u64, )+
            $( #[doc = $shelp] #[doc = ""] $(#[$sdoc])* pub $smp: u64, )+
            /// Admission → dequeue latencies.
            pub queue_wait: HistogramSnapshot,
            /// Dequeue → outcome latencies.
            pub service: HistogramSnapshot,
            /// Batch-occupancy histogram (tasks per worker dispatch).
            pub batch: BatchSnapshot,
            /// The live rolling window at snapshot time.
            pub window: WindowSnapshot,
        }

        const SCALARS: &[ScalarRow] = &[
            $( serve_scalars!(@row $rec $rkind $rprom $rhelp $rmerge $rjson), )+
            $( serve_scalars!(@row $smp $skind $sprom $shelp $smerge $sjson), )+
        ];
    };
    (@row $field:ident $kind:ident $prom:literal $help:literal $merge:ident $json:ident) => {
        ScalarRow {
            field: stringify!($field),
            kind: PromKind::$kind,
            prom: $prom,
            help: $help,
            merge: Merge::$merge,
            json: Json::$json,
            get: |s| s.$field,
            get_mut: |s| &mut s.$field,
        }
    };
}

serve_scalars! {
    recorded {
        submitted: Counter "einet_tasks_submitted_total" "Tasks admitted into the queue.", Sum, Required;
        rejected: Counter "einet_tasks_rejected_total" "Submissions bounced with QueueFull.", Sum, Required;
        completed: Counter "einet_tasks_completed_total" "Tasks that ran to the end of their plan.", Sum, Required;
        preempted: Counter "einet_tasks_preempted_total" "Tasks stopped by the shared gate.", Sum, Required;
        deadline_expired: Counter "einet_tasks_deadline_expired_total" "Tasks stopped by their own deadline.", Sum, Required;
        /// This is the cumulative SLO numerator; the denominator is this
        /// plus `deadline_expired` plus `shed_expired_at_dequeue`.
        deadline_met: Counter "einet_tasks_deadline_met_total" "Deadline-carrying tasks that completed in time.", Sum, Required;
        /// The deadline passed while they queued; they never reached a
        /// worker.
        shed_expired_at_dequeue: Counter "einet_tasks_shed_total" "Tasks dropped at dequeue with an already-expired deadline.", Sum, Required;
        panicked: Counter "einet_tasks_panicked_total" "Tasks lost to a worker panic.", Sum, Required;
        queue_depth: Gauge "einet_queue_depth" "Tasks currently waiting in the queue.", Sum, Required;
        /// Merging sums it: per-replica high-water marks need not have
        /// coincided in time, so the sum is an upper bound on the true
        /// aggregate high water.
        queue_high_water: Gauge "einet_queue_high_water" "Deepest the queue has ever been.", Sum, Required;
        /// 0 for pool-only registries.
        open_connections: Gauge "einet_server_open_connections" "Client connections currently open on the serving front-end.", Sum, Defaulted;
        /// 0 for pool-only registries.
        inflight_requests: Gauge "einet_server_inflight_requests" "Wire requests accepted but not yet answered.", Sum, Defaulted;
    }
    sampled {
        /// In µs, taken when the snapshot was. Merging takes the maximum:
        /// the age of the oldest constituent.
        uptime_us: SecondsGauge "einet_uptime_seconds" "Registry age at scrape time.", Max, Required;
    }
}

/// `(name, help, value)` of a gauge the exposition computes from the
/// histograms and the rolling window rather than reads from a stored scalar.
type DerivedGauge = (&'static str, &'static str, fn(&MetricsSnapshot) -> f64);

const DERIVED_GAUGES: &[DerivedGauge] = &[
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

impl ServeMetrics {
    /// Creates an all-zero registry; the rolling window's time zero is now.
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    /// Time since the registry was created — the rolling window's clock.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Accounts a task *before* it is offered to the queue. The increment
    /// must happen-before the enqueue: a worker may dequeue the task and
    /// call [`ServeMetrics::on_dequeued`] before the submitter returns, and
    /// the depth gauge must never underflow.
    pub(crate) fn begin_admission(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// The enqueue succeeded: fold the observed depth into the high-water
    /// mark. (Read back rather than computed from the increment, so a task
    /// already dequeued by a fast worker is not counted as queued.)
    pub(crate) fn commit_admission(&self) {
        let depth = self.queue_depth.load(Ordering::Relaxed);
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// The enqueue was refused: undo [`ServeMetrics::begin_admission`],
    /// recording a rejection when the refusal was backpressure.
    pub(crate) fn abort_admission(&self, rejected: bool) {
        self.submitted.fetch_sub(1, Ordering::Relaxed);
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        if rejected {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One task left the queue for a worker after waiting `wait`. `trace`
    /// is the request's cross-process trace id (0 = untraced) and becomes
    /// the wait bucket's exemplar.
    pub(crate) fn on_dequeued(&self, wait: Duration, trace: u64) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.queue_wait.record_traced(wait, trace);
    }

    /// One task was dropped at dequeue because its deadline had already
    /// passed while it queued: it leaves the queue and records its wait,
    /// but never reaches a worker's service path.
    pub(crate) fn on_shed_expired(&self, wait: Duration, trace: u64) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.queue_wait.record_traced(wait, trace);
        self.shed_expired_at_dequeue.fetch_add(1, Ordering::Relaxed);
        // A shed task always carried a deadline (that is why it was shed):
        // an SLO miss with no service latency.
        self.window.record_at(
            self.started.elapsed(),
            WindowSample {
                service_us: None,
                slo: Some(false),
            },
        );
    }

    /// One task finished with `status` after `service` on the worker.
    /// `had_deadline` feeds the windowed SLO gauge: completed-in-time is a
    /// met SLO, expired a missed one; preemption is an operator decision
    /// and stays out of the attainment ratio.
    pub(crate) fn on_outcome(
        &self,
        status: crate::TaskStatus,
        service: Duration,
        had_deadline: bool,
        trace: u64,
    ) {
        use crate::TaskStatus::*;
        let counter = match status {
            Completed => &self.completed,
            Preempted => &self.preempted,
            DeadlineExpired => &self.deadline_expired,
            // Queue sheds never run on a worker; they are accounted by
            // `on_shed_expired` (which records a wait but no service time).
            // Routing one here would inflate the service histogram and break
            // the serviced() ↔ trace-span reconciliation.
            ShedExpiredInQueue => {
                debug_assert!(false, "shed outcomes go through on_shed_expired");
                return;
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.service.record_traced(service, trace);
        let slo = match status {
            Completed if had_deadline => Some(true),
            DeadlineExpired => Some(false),
            _ => None,
        };
        if slo == Some(true) {
            self.deadline_met.fetch_add(1, Ordering::Relaxed);
        }
        self.window.record_at(
            self.started.elapsed(),
            WindowSample {
                service_us: Some(u64::try_from(service.as_micros()).unwrap_or(u64::MAX)),
                slo,
            },
        );
    }

    /// One worker dispatch coalesced `size` tasks (1 = unbatched).
    pub(crate) fn on_batch(&self, size: usize) {
        self.batch.record(size);
        self.window.record_batch_at(self.started.elapsed(), size);
    }

    /// One client connection was accepted. Exposed for the serving
    /// front-end, which shares this registry type for its ingest gauges.
    pub fn conn_opened(&self) {
        self.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// One client connection was closed (hang-up, error, or shutdown).
    pub fn conn_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// One wire request entered the server (parsed off a connection and not
    /// yet answered).
    pub fn inflight_started(&self) {
        self.inflight_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// One wire request was answered (any response code).
    pub fn inflight_finished(&self) {
        self.inflight_requests.fetch_sub(1, Ordering::Relaxed);
    }

    /// One task died to a worker panic (after `service` on the worker).
    pub(crate) fn on_panicked(&self, service: Duration, trace: u64) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
        self.service.record_traced(service, trace);
        self.window.record_at(
            self.started.elapsed(),
            WindowSample {
                service_us: Some(u64::try_from(service.as_micros()).unwrap_or(u64::MAX)),
                slo: None,
            },
        );
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let uptime = self.started.elapsed();
        let mut snap = MetricsSnapshot {
            uptime_us: u64::try_from(uptime.as_micros()).unwrap_or(u64::MAX),
            queue_wait: self.queue_wait.snapshot(),
            service: self.service.snapshot(),
            batch: self.batch.snapshot(),
            window: self.window.snapshot_at(uptime),
            ..MetricsSnapshot::default()
        };
        self.load_recorded(&mut snap);
        snap
    }
}

impl MetricsSnapshot {
    /// Tasks that have produced a terminal result (any kind).
    pub fn finished(&self) -> u64 {
        self.completed
            + self.preempted
            + self.deadline_expired
            + self.shed_expired_at_dequeue
            + self.panicked
    }

    /// Tasks that actually ran on a worker (finished minus the ones shed
    /// straight out of the queue) — the count the service histogram and the
    /// per-task trace spans see.
    pub fn serviced(&self) -> u64 {
        self.finished() - self.shed_expired_at_dequeue
    }

    /// Serialises the snapshot as a JSON object (the `serve_metrics.json`
    /// artifact), through the same hand-rolled writer as the trace
    /// exporters: the counter rows, the derived `finished` total, the gauge
    /// rows, then the histograms.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        let is_counter = |row: &&ScalarRow| row.kind == PromKind::Counter;
        for row in SCALARS.iter().filter(is_counter) {
            w.key(row.field);
            w.number_u64((row.get)(self));
        }
        w.key("finished");
        w.number_u64(self.finished());
        for row in SCALARS.iter().filter(|row| !is_counter(row)) {
            w.key(row.field);
            w.number_u64((row.get)(self));
        }
        w.key("queue_wait");
        self.queue_wait.write_json(&mut w);
        w.key("service");
        self.service.write_json(&mut w);
        w.key("batch");
        self.batch.write_json(&mut w);
        w.key("window");
        self.window.write_json(&mut w);
        w.end_object();
        w.finish()
    }

    /// Parses a snapshot back from its [`MetricsSnapshot::to_json`] output
    /// (the `serve_metrics.json` artifact). Derived fields (means,
    /// quantiles, `finished`) are recomputed, not read, so
    /// `from_json(to_json(s)) == s`.
    ///
    /// # Errors
    ///
    /// Returns a message on invalid JSON or a missing/mistyped field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = einet_trace::json::parse(text).map_err(|e| format!("invalid metrics JSON: {e}"))?;
        let mut snap = MetricsSnapshot {
            queue_wait: read_json_histogram(&v, "queue_wait")?,
            service: read_json_histogram(&v, "service")?,
            batch: read_json_histogram(&v, "batch")?,
            window: WindowSnapshot::read_json(&v, "window")?,
            ..MetricsSnapshot::default()
        };
        for row in SCALARS {
            *(row.get_mut)(&mut snap) = match row.json {
                Json::Required => json_u64(&v, row.field)?,
                Json::Defaulted => v.get(row.field).and_then(JsonValue::as_u64).unwrap_or(0),
            };
        }
        Ok(snap)
    }

    /// Folds `other` into `self`, scalar by scalar and bucket by bucket —
    /// how a registry aggregates the replicas of one model (or every model
    /// of a registry) into a single fleet-level snapshot.
    ///
    /// Scalars follow their row's merge rule; histogram buckets and window
    /// totals sum exactly, and the window span takes the maximum.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for row in SCALARS {
            let theirs = (row.get)(other);
            let mine = (row.get_mut)(self);
            *mine = match row.merge {
                Merge::Sum => *mine + theirs,
                Merge::Max => (*mine).max(theirs),
            };
        }
        merge_histogram(&mut self.queue_wait, &other.queue_wait);
        merge_histogram(&mut self.service, &other.service);
        merge_histogram(&mut self.batch, &other.batch);
        self.window.merge(&other.window);
    }

    /// Merges any number of snapshots into one (see
    /// [`MetricsSnapshot::merge`] for the semantics of each field).
    pub fn merged<'a>(snaps: impl IntoIterator<Item = &'a MetricsSnapshot>) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for s in snaps {
            out.merge(s);
        }
        out
    }

    /// Renders the snapshot in Prometheus text exposition format: task
    /// counters, queue gauges, cumulative-bucket latency histograms, and
    /// the windowed throughput/SLO/latency gauges.
    pub fn to_prom_text(&self) -> String {
        prom_text(&[(&[], self)])
    }

    /// At rest (queue drained, no task in flight) every admitted task must
    /// be accounted for exactly once.
    pub fn reconciles(&self) -> bool {
        self.queue_depth == 0 && self.finished() == self.submitted
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(50)); // bucket 0 (<=100us)
        h.record(Duration::from_micros(200)); // bucket 1 (<=250us)
        h.record(Duration::from_secs(5)); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[NUM_BUCKETS - 1], 1);
        let expected = (50.0 + 200.0 + 5e6) / 3.0 / 1e3;
        assert!((s.mean_ms() - expected).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(80));
        }
        h.record(Duration::from_millis(40));
        let s = h.snapshot();
        assert!((s.quantile_ms(0.5) - 0.1).abs() < 1e-9, "p50 <= 100us");
        assert!((s.quantile_ms(1.0) - 50.0).abs() < 1e-9, "p100 <= 50ms");
        let empty = LatencyHistogram::default().snapshot();
        assert_eq!(empty.quantile_ms(0.99), 0.0);
        assert_eq!(empty.mean_ms(), 0.0);
    }

    #[test]
    fn counters_reconcile_at_rest() {
        let m = ServeMetrics::new();
        for _ in 0..4 {
            m.begin_admission();
            m.commit_admission();
        }
        m.begin_admission();
        m.abort_admission(true);
        for _ in 0..4 {
            m.on_dequeued(Duration::from_micros(10), 0);
        }
        m.on_outcome(
            crate::TaskStatus::Completed,
            Duration::from_millis(1),
            false,
            0,
        );
        m.on_outcome(
            crate::TaskStatus::Preempted,
            Duration::from_millis(1),
            false,
            0,
        );
        m.on_outcome(
            crate::TaskStatus::DeadlineExpired,
            Duration::from_millis(1),
            true,
            0,
        );
        m.on_panicked(Duration::from_millis(1), 0);
        let s = m.snapshot();
        assert_eq!(s.submitted, 4);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.finished(), 4);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.queue_high_water, 4);
        assert!(s.reconciles());
        assert_eq!(s.queue_wait.count, 4);
        assert_eq!(s.service.count, 4);
        // The display path never panics and mentions every counter family.
        let text = s.to_string();
        for needle in ["submitted", "queue", "service", "p99"] {
            assert!(text.contains(needle), "display missing {needle}");
        }
    }

    #[test]
    fn quantile_edge_cases_are_pinned() {
        // Empty histogram: every quantile is 0.
        let empty = LatencyHistogram::default().snapshot();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(empty.quantile_ms(q), 0.0);
        }
        // Single observation in one bucket: every quantile is that bucket's
        // bound — including q = 0, which used to scan to rank 0 and report
        // the first bucket regardless of where the observation sat.
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(40_000)); // bucket bound 50_000us
        let s = h.snapshot();
        for q in [0.0, 0.25, 1.0] {
            assert!((s.quantile_ms(q) - 50.0).abs() < 1e-9, "q={q}");
        }
        // Out-of-range and NaN q clamp instead of panicking or scanning
        // past the end.
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(80)); // first bucket
        h.record(Duration::from_micros(40_000)); // <=50ms bucket
        let s = h.snapshot();
        assert!((s.quantile_ms(-3.0) - 0.1).abs() < 1e-9, "q<0 -> min");
        assert!((s.quantile_ms(0.0) - 0.1).abs() < 1e-9, "q=0 -> min");
        assert!((s.quantile_ms(7.0) - 50.0).abs() < 1e-9, "q>1 -> max");
        assert!((s.quantile_ms(f64::NAN) - 50.0).abs() < 1e-9, "NaN -> max");
        // The overflow bucket still reports the largest finite bound.
        let h = LatencyHistogram::default();
        h.record(Duration::from_secs(30));
        assert!((h.snapshot().quantile_ms(0.5) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn shed_tasks_count_as_finished_but_not_serviced() {
        let m = ServeMetrics::new();
        for _ in 0..2 {
            m.begin_admission();
            m.commit_admission();
        }
        m.on_dequeued(Duration::from_micros(10), 0);
        m.on_outcome(
            crate::TaskStatus::Completed,
            Duration::from_millis(1),
            true,
            0,
        );
        m.on_shed_expired(Duration::from_millis(3), 0);
        let s = m.snapshot();
        assert_eq!(s.shed_expired_at_dequeue, 1);
        assert_eq!(s.finished(), 2);
        assert_eq!(s.serviced(), 1);
        assert!(s.reconciles());
        // The shed task's wait is recorded, but no service time.
        assert_eq!(s.queue_wait.count, 2);
        assert_eq!(s.service.count, 1);
        assert!(s.to_string().contains("shed-at-dequeue 1"));
    }

    #[test]
    fn snapshot_serialises_to_parseable_json() {
        let m = ServeMetrics::new();
        for _ in 0..3 {
            m.begin_admission();
            m.commit_admission();
            m.on_dequeued(Duration::from_micros(120), 0);
        }
        m.on_outcome(
            crate::TaskStatus::Completed,
            Duration::from_millis(2),
            true,
            0,
        );
        m.on_outcome(
            crate::TaskStatus::Preempted,
            Duration::from_millis(1),
            false,
            0,
        );
        m.on_panicked(Duration::from_millis(4), 0);
        let snap = m.snapshot();
        let v = einet_trace::json::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(v.get("submitted").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("completed").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("panicked").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("finished").unwrap().as_u64(), Some(3));
        let service = v.get("service").unwrap();
        assert_eq!(service.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(
            service
                .get("bucket_counts")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            LATENCY_BUCKETS_US.len() + 1
        );
        let sum = service.get("sum_us").unwrap().as_u64().unwrap();
        assert_eq!(sum, snap.service.sum_us);
    }

    #[test]
    fn unfinished_tasks_fail_reconciliation() {
        let m = ServeMetrics::new();
        m.begin_admission();
        m.commit_admission();
        assert!(!m.snapshot().reconciles());
        m.on_dequeued(Duration::ZERO, 0);
        assert!(!m.snapshot().reconciles(), "in flight, not yet finished");
        m.on_outcome(crate::TaskStatus::Completed, Duration::ZERO, false, 0);
        assert!(m.snapshot().reconciles());
    }

    fn serviced_sample(us: u64, slo: Option<bool>) -> WindowSample {
        WindowSample {
            service_us: Some(us),
            slo,
        }
    }

    #[test]
    fn window_rotates_out_old_buckets_at_boundaries() {
        let w = RollingWindow::new(100); // 8 × 100 ms window
        let at = |ms: u64| Duration::from_millis(ms);
        // One sample in bucket 0, one in bucket 3.
        w.record_at(at(50), serviced_sample(200, Some(true)));
        w.record_at(at(350), serviced_sample(200, Some(false)));
        // Both inside the window at t = 700 ms (buckets 0..=7 live).
        let s = w.snapshot_at(at(700));
        assert_eq!(s.finished, 2);
        assert_eq!((s.slo_met, s.slo_missed), (1, 1));
        assert_eq!(s.service.count, 2);
        // At t = 800 ms the window is buckets 1..=8: bucket 0 just aged out.
        let s = w.snapshot_at(at(800));
        assert_eq!(s.finished, 1, "bucket 0 left the window exactly at 800ms");
        assert_eq!((s.slo_met, s.slo_missed), (0, 1));
        // At t = 1150 ms bucket 3 has aged out too.
        let s = w.snapshot_at(at(1150));
        assert_eq!(s.finished, 0);
        // A new sample recycles bucket 0's shard (index 16 maps to shard 0):
        // the stale contents must not resurface.
        w.record_at(at(1_600), serviced_sample(400, None));
        let s = w.snapshot_at(at(1_600));
        assert_eq!(s.finished, 1);
        assert_eq!(s.service.count, 1);
        assert_eq!((s.slo_met, s.slo_missed), (0, 0));
        // Stale recording into an already-recycled bucket is dropped.
        w.record_at(at(50), serviced_sample(999, Some(true)));
        assert_eq!(w.snapshot_at(at(1_600)).finished, 1, "stale sample dropped");
    }

    #[test]
    fn empty_window_has_zero_quantiles_and_full_slo() {
        let w = RollingWindow::new(100);
        let s = w.snapshot_at(Duration::from_millis(5_000));
        assert_eq!(s.finished, 0);
        assert_eq!(s.service.count, 0);
        assert_eq!(s.service.quantile_ms(0.50), 0.0);
        assert_eq!(s.service.quantile_ms(0.99), 0.0);
        assert_eq!(s.service.mean_ms(), 0.0);
        assert_eq!(s.throughput_per_sec(), 0.0);
        assert_eq!(s.slo_attainment(), 1.0, "no deadline tasks: SLO holds");
    }

    #[test]
    fn window_agrees_with_cumulative_histogram_over_one_window() {
        // Every sample lands inside a single window span, so the windowed
        // histogram must equal a cumulative LatencyHistogram fed the same
        // observations.
        let w = RollingWindow::new(250);
        let cumulative = LatencyHistogram::default();
        let latencies_us = [80, 300, 1_500, 9_000, 40_000, 700_000, 2_000_000];
        for (i, &us) in latencies_us.iter().enumerate() {
            let offset = Duration::from_millis(i as u64 * 200); // all < 2s window
            w.record_at(offset, serviced_sample(us, None));
            cumulative.record(Duration::from_micros(us));
        }
        let windowed = w.snapshot_at(Duration::from_millis(1_400)).service;
        let reference = cumulative.snapshot();
        assert_eq!(windowed, reference, "same buckets, count and sum");
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(windowed.quantile_ms(q), reference.quantile_ms(q));
        }
    }

    #[test]
    fn window_slo_attainment_ratio() {
        let w = RollingWindow::new(250);
        let at = Duration::from_millis(10);
        w.record_at(at, serviced_sample(100, Some(true)));
        w.record_at(at, serviced_sample(100, Some(true)));
        w.record_at(at, serviced_sample(100, Some(false)));
        w.record_at(at, serviced_sample(100, None)); // no deadline: excluded
        let s = w.snapshot_at(at);
        assert_eq!(s.finished, 4);
        assert!((s.slo_attainment() - 2.0 / 3.0).abs() < 1e-12);
        // Throughput covers the whole window span.
        assert!((s.throughput_per_sec() - 4.0 * 1e3 / s.window_ms as f64).abs() < 1e-12);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let m = ServeMetrics::new();
        for _ in 0..5 {
            m.begin_admission();
            m.commit_admission();
        }
        m.begin_admission();
        m.abort_admission(true);
        for _ in 0..4 {
            m.on_dequeued(Duration::from_micros(300), 0);
        }
        m.on_shed_expired(Duration::from_millis(8), 0);
        m.on_outcome(
            crate::TaskStatus::Completed,
            Duration::from_millis(2),
            true,
            0,
        );
        m.on_outcome(
            crate::TaskStatus::Preempted,
            Duration::from_millis(1),
            false,
            0,
        );
        m.on_outcome(
            crate::TaskStatus::DeadlineExpired,
            Duration::from_millis(7),
            true,
            0,
        );
        m.on_panicked(Duration::from_micros(500), 0);
        let snap = m.snapshot();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).expect("round-trip parses");
        assert_eq!(parsed, snap);
        // Malformed inputs fail with a message, not a panic.
        assert!(MetricsSnapshot::from_json("not json").is_err());
        assert!(MetricsSnapshot::from_json("{}").is_err());
        let truncated = snap.to_json().replace("\"window\"", "\"not_window\"");
        assert!(MetricsSnapshot::from_json(&truncated).is_err());
    }

    #[test]
    fn prom_text_exposition_is_well_formed() {
        let m = ServeMetrics::new();
        m.begin_admission();
        m.commit_admission();
        m.on_dequeued(Duration::from_micros(120), 0);
        m.on_outcome(
            crate::TaskStatus::Completed,
            Duration::from_millis(2),
            true,
            0,
        );
        let text = m.snapshot().to_prom_text();
        for needle in [
            "# TYPE einet_tasks_submitted_total counter",
            "einet_tasks_submitted_total 1",
            "einet_tasks_completed_total 1",
            "# TYPE einet_queue_depth gauge",
            "einet_queue_depth 0",
            "# TYPE einet_service_seconds histogram",
            "einet_service_seconds_bucket{le=\"+Inf\"} 1",
            "einet_service_seconds_count 1",
            "einet_window_slo_attainment 1",
            "einet_window_throughput_per_sec",
            "einet_window_service_p99_seconds",
        ] {
            assert!(
                text.contains(needle),
                "prom text missing {needle:?}:\n{text}"
            );
        }
        // Histogram buckets are cumulative: the service sample (2 ms) is
        // present from the 2.5 ms bound onward.
        assert!(text.contains("einet_service_seconds_bucket{le=\"0.001\"} 0"));
        assert!(text.contains("einet_service_seconds_bucket{le=\"0.0025\"} 1"));
        assert!(text.contains("einet_service_seconds_bucket{le=\"1\"} 1"));
    }

    #[test]
    fn labeled_prom_text_tags_every_series() {
        let m = ServeMetrics::new();
        m.begin_admission();
        m.commit_admission();
        m.on_dequeued(Duration::from_micros(120), 0);
        m.on_outcome(
            crate::TaskStatus::Completed,
            Duration::from_millis(2),
            true,
            0,
        );
        let snap = m.snapshot();
        let text = prom_text(&[(&[("model", "alexnet")], &snap)]);
        for needle in [
            "einet_tasks_submitted_total{model=\"alexnet\"} 1",
            "einet_queue_depth{model=\"alexnet\"} 0",
            "einet_service_seconds_bucket{model=\"alexnet\",le=\"+Inf\"} 1",
            "einet_service_seconds_count{model=\"alexnet\"} 1",
            "einet_batch_size_sum{model=\"alexnet\"}",
            "einet_window_slo_attainment{model=\"alexnet\"} 1",
        ] {
            assert!(
                text.contains(needle),
                "labeled prom text missing {needle:?}:\n{text}"
            );
        }
        // Unlabeled series never leak into a labeled exposition.
        assert!(!text.contains("einet_tasks_submitted_total 1"));
        // Quote characters in label values are escaped, not emitted raw.
        let tricky = prom_text(&[(&[("model", "a\"b")], &snap)]);
        assert!(tricky.contains("model=\"a\\\"b\""));
    }

    /// Every line of the exposition that is a sample (not a comment),
    /// reduced to its family: the metric name minus the histogram suffixes.
    fn sample_families(text: &str) -> Vec<&str> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let name = l.split(['{', ' ']).next().expect("metric name");
                ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|suffix| name.strip_suffix(suffix))
                    .unwrap_or(name)
            })
            .collect()
    }

    #[test]
    fn several_blocks_render_family_major() {
        let m = ServeMetrics::new();
        m.begin_admission();
        m.commit_admission();
        m.on_dequeued(Duration::from_micros(120), 77);
        let (a, b) = (m.snapshot(), MetricsSnapshot::default());
        let text = prom_text(&[
            (&[("model", "a")], &a),
            (&[("model", "b")], &b),
            (&[("scope", "ingest")], &b),
        ]);
        // One header pair per family, however many blocks contribute to it.
        let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let mut unique = types.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(types.len(), unique.len(), "a # TYPE line repeats:\n{text}");
        assert_eq!(
            types.len(),
            SCALARS.len() + 3 + DERIVED_GAUGES.len(),
            "one family per scalar row, histogram and derived gauge"
        );
        // All sample lines of a family are contiguous: once the exposition
        // moves on to the next family, the previous one never reappears.
        let mut seen: Vec<&str> = Vec::new();
        for family in sample_families(&text) {
            if seen.last() != Some(&family) {
                assert!(
                    !seen.contains(&family),
                    "family {family} is split by another family:\n{text}"
                );
                seen.push(family);
            }
        }
        // Every block contributes to every family, in the order given.
        let depth: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("einet_queue_depth{"))
            .collect();
        assert_eq!(
            depth,
            [
                "einet_queue_depth{model=\"a\"} 0",
                "einet_queue_depth{model=\"b\"} 0",
                "einet_queue_depth{scope=\"ingest\"} 0",
            ]
        );
        // Exemplar comments stay next to their bucket line.
        assert!(text.contains(
            "einet_queue_wait_seconds_bucket{model=\"a\",le=\"0.00025\"} 1\n\
             # exemplar einet_queue_wait_seconds_bucket{model=\"a\",le=\"0.00025\"} trace_id=77\n"
        ));
    }

    #[test]
    fn snapshots_merge_bucket_by_bucket() {
        let a = ServeMetrics::new();
        a.begin_admission();
        a.commit_admission();
        a.on_dequeued(Duration::from_micros(100), 0);
        a.on_outcome(
            crate::TaskStatus::Completed,
            Duration::from_millis(2),
            true,
            0,
        );
        a.on_batch(1);
        let b = ServeMetrics::new();
        for _ in 0..2 {
            b.begin_admission();
            b.commit_admission();
        }
        b.on_dequeued(Duration::from_micros(900), 0);
        b.begin_admission();
        b.abort_admission(true);
        b.on_outcome(
            crate::TaskStatus::DeadlineExpired,
            Duration::from_millis(7),
            true,
            0,
        );
        b.on_shed_expired(Duration::from_millis(3), 0);
        b.on_batch(2);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let merged = MetricsSnapshot::merged([&sa, &sb]);
        // (Scalar by scalar, the merge rules are checked row by row in
        // `every_scalar_row_round_trips_merges_and_is_exposed`.)
        assert_eq!(merged.finished(), 3);
        assert!(merged.reconciles());
        assert_eq!(merged.queue_wait.count, 3, "2 dequeues + 1 shed wait");
        assert_eq!(
            merged.queue_wait.sum_us,
            sa.queue_wait.sum_us + sb.queue_wait.sum_us
        );
        assert_eq!(merged.service.count, 2);
        assert_eq!(merged.batch.sum, 3);
        assert_eq!(merged.window.finished, 3);
        // Bucket-level addition, not just totals.
        for i in 0..NUM_BUCKETS {
            assert_eq!(
                merged.service.buckets[i],
                sa.service.buckets[i] + sb.service.buckets[i]
            );
        }
        // The identity element really is one.
        let id = MetricsSnapshot::merged([&merged, &MetricsSnapshot::default()]);
        assert_eq!(id, merged);
    }

    #[test]
    fn batch_occupancy_feeds_histogram_window_prom_and_display() {
        let m = ServeMetrics::new();
        m.on_batch(1);
        m.on_batch(4);
        m.on_batch(3);
        let s = m.snapshot();
        assert_eq!(s.batch.count, 3);
        assert_eq!(s.batch.sum, 8);
        assert!((s.batch.mean_occupancy() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.batch.buckets[0], 1, "size 1 in the first bucket");
        assert_eq!(s.batch.buckets[2], 2, "sizes 3 and 4 share the <=4 bucket");
        assert_eq!(s.window.batches, 3);
        assert_eq!(s.window.batch_samples, 8);
        assert!((s.window.mean_occupancy() - 8.0 / 3.0).abs() < 1e-12);
        let text = s.to_prom_text();
        for needle in [
            "# TYPE einet_batch_size histogram",
            "einet_batch_size_bucket{le=\"4\"} 3",
            "einet_batch_size_sum 8",
            "einet_batch_size_count 3",
            "einet_batch_mean_occupancy",
            "einet_window_batch_occupancy",
        ] {
            assert!(text.contains(needle), "prom text missing {needle:?}");
        }
        assert!(s.to_string().contains("mean occupancy"));
        // Empty registries read as zero occupancy, not NaN.
        let empty = ServeMetrics::new().snapshot();
        assert_eq!(empty.batch.mean_occupancy(), 0.0);
        assert_eq!(empty.window.mean_occupancy(), 0.0);
    }

    #[test]
    fn connection_gauges_follow_opens_and_closes() {
        let m = ServeMetrics::new();
        for _ in 0..3 {
            m.conn_opened();
        }
        m.conn_closed();
        m.inflight_started();
        m.inflight_started();
        m.inflight_finished();
        let snap = m.snapshot();
        assert_eq!(snap.open_connections, 2);
        assert_eq!(snap.inflight_requests, 1);
    }

    /// A snapshot whose every scalar row holds a different value
    /// (`base + 10 × row index`), histograms left empty.
    fn distinct_scalars(base: u64) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (i, row) in SCALARS.iter().enumerate() {
            *(row.get_mut)(&mut snap) = base + 10 * i as u64;
        }
        snap
    }

    #[test]
    fn every_scalar_row_round_trips_merges_and_is_exposed() {
        let (a, b) = (distinct_scalars(1_000_003), distinct_scalars(2_000_005));
        let json = a.to_json();
        assert_eq!(MetricsSnapshot::from_json(&json).as_ref(), Ok(&a));
        let parsed = einet_trace::json::parse(&json).expect("valid JSON");
        let merged = MetricsSnapshot::merged([&a, &b]);
        let prom = a.to_prom_text();
        for row in SCALARS {
            let (va, vb) = ((row.get)(&a), (row.get)(&b));
            // JSON: the row's key carries the row's value ...
            assert_eq!(
                parsed.get(row.field).and_then(JsonValue::as_u64),
                Some(va),
                "{} in JSON",
                row.field
            );
            // ... and an artifact without the key parses exactly when the
            // row says it may be missing, reading it as 0.
            let aged = json.replacen(&format!("\"{}\":", row.field), "\"gone\":", 1);
            match (row.json, MetricsSnapshot::from_json(&aged)) {
                (Json::Defaulted, Ok(old)) => assert_eq!((row.get)(&old), 0),
                (Json::Required, Err(e)) => assert!(e.contains(row.field), "{e}"),
                (rule, got) => panic!("{}: {rule:?} but parse gave {got:?}", row.field),
            }
            // Merge: the row's rule.
            let want = match row.merge {
                Merge::Sum => va + vb,
                Merge::Max => va.max(vb),
            };
            assert_eq!((row.get)(&merged), want, "{} merged", row.field);
            // Exposition: one typed family with the row's sample.
            let kind = row.prom_type();
            assert_eq!(
                prom.matches(&format!("# TYPE {} {kind}\n", row.prom))
                    .count(),
                1,
                "{} family header",
                row.prom
            );
            let sample = format!("\n{} {}\n", row.prom, row.prom_value(&a));
            assert!(prom.contains(&sample), "missing {sample:?}:\n{prom}");
        }
        // Field names, JSON keys and Prometheus names are all unique.
        for key in [|r: &ScalarRow| r.field, |r: &ScalarRow| r.prom] {
            let mut names: Vec<&str> = SCALARS.iter().map(key).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), SCALARS.len());
        }
        // The one scaled kind prints seconds, not microseconds.
        let uptime = MetricsSnapshot {
            uptime_us: 2_500_000,
            ..MetricsSnapshot::default()
        };
        assert!(uptime
            .to_prom_text()
            .contains("\neinet_uptime_seconds 2.5\n"));
    }

    #[test]
    fn batch_occupancy_round_trips_through_json() {
        let m = ServeMetrics::new();
        m.on_batch(2);
        m.on_batch(33); // overflow bucket
        let snap = m.snapshot();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).expect("round-trip parses");
        assert_eq!(parsed, snap);
        assert_eq!(parsed.batch.buckets[NUM_BATCH_BUCKETS - 1], 1);
        assert_eq!(parsed.window.batch_samples, 35);
    }

    #[test]
    fn reporter_writes_and_rewrites_artifacts() {
        let dir = std::env::temp_dir().join(format!("einet-reporter-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prom = dir.join("metrics.prom");
        let json = dir.join("metrics.json");
        let metrics = Arc::new(ServeMetrics::new());
        let reporter = MetricsReporter::spawn(
            Arc::clone(&metrics),
            prom.clone(),
            Some(json.clone()),
            Duration::from_millis(10),
        );
        std::thread::sleep(Duration::from_millis(30));
        assert!(prom.exists(), "reporter wrote the prom artifact");
        metrics.begin_admission();
        metrics.commit_admission();
        metrics.on_dequeued(Duration::ZERO, 0);
        metrics.on_outcome(
            crate::TaskStatus::Completed,
            Duration::from_millis(1),
            false,
            0,
        );
        reporter.stop(); // final write sees the completed task
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("einet_tasks_completed_total 1"));
        let parsed = MetricsSnapshot::from_json(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(parsed.completed, 1);
        assert!(parsed.reconciles());
        std::fs::remove_dir_all(&dir).ok();
    }
}
