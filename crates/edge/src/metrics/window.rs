//! The rolling window: sharded, time-bucketed statistics over the last
//! couple of seconds of finished tasks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use einet_trace::json::{JsonValue, JsonWriter};

use super::histogram::{
    add_buckets, bucket_index, json_u64, load_all, merge_histogram, read_json_histogram,
    HistogramSnapshot, LATENCY_BUCKETS_US, NUM_BUCKETS,
};

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

    pub(super) fn write_json(&self, w: &mut JsonWriter) {
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

    pub(super) fn read_json(obj: &JsonValue, key: &str) -> Result<Self, String> {
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

    pub(super) fn merge(&mut self, other: &WindowSnapshot) {
        self.window_ms = self.window_ms.max(other.window_ms);
        self.finished += other.finished;
        self.slo_met += other.slo_met;
        self.slo_missed += other.slo_missed;
        self.batches += other.batches;
        self.batch_samples += other.batch_samples;
        merge_histogram(&mut self.service, &other.service);
    }
}
