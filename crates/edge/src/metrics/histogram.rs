//! The fixed-grid histograms — latency and batch occupancy — with their
//! atomic recorders, and what every histogram kind shares once snapshotted:
//! the JSON codec and the merger.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use einet_trace::json::{JsonValue, JsonWriter};

/// Upper bounds (µs, inclusive) of the latency histogram buckets; the last
/// bucket is unbounded. Roughly logarithmic from 100 µs to 1 s.
pub const LATENCY_BUCKETS_US: [u64; 13] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000,
];

pub(super) const NUM_BUCKETS: usize = LATENCY_BUCKETS_US.len() + 1;

/// Upper bounds (inclusive) of the batch-occupancy histogram buckets; the
/// last bucket is unbounded.
pub const BATCH_BUCKETS: [u64; 6] = [1, 2, 4, 8, 16, 32];

pub(super) const NUM_BATCH_BUCKETS: usize = BATCH_BUCKETS.len() + 1;

/// The bucket `value` falls in on a grid of inclusive upper `bounds`; one
/// past the last bound is the unbounded overflow bucket.
pub(super) fn bucket_index(bounds: &[u64], value: u64) -> usize {
    bounds
        .iter()
        .position(|&bound| value <= bound)
        .unwrap_or(bounds.len())
}

pub(super) fn load_all<const N: usize>(cells: &[AtomicU64; N]) -> [u64; N] {
    std::array::from_fn(|i| cells[i].load(Ordering::Relaxed))
}

/// What the three histogram kinds share once snapshotted — cumulative
/// latency, batch occupancy, and the rolling window's service latency (a
/// [`HistogramSnapshot`] too): bucket counts on a fixed grid, a count and a
/// sum. The JSON reader, the merger and the Prometheus writer exist once,
/// against this.
pub(super) trait Bucketed: Default {
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

pub(super) fn json_u64(obj: &JsonValue, key: &str) -> Result<u64, String> {
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
pub(super) fn read_json_histogram<H: Bucketed>(obj: &JsonValue, key: &str) -> Result<H, String> {
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

pub(super) fn add_buckets(mine: &mut [u64], theirs: &[u64]) {
    for (x, y) in mine.iter_mut().zip(theirs) {
        *x += y;
    }
}

pub(super) fn merge_histogram<H: Bucketed>(mine: &mut H, theirs: &H) {
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

    pub(super) fn write_json(&self, w: &mut JsonWriter) {
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

    pub(super) fn write_json(&self, w: &mut JsonWriter) {
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
