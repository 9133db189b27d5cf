//! The scalar row table, the registry it generates ([`ServeMetrics`]) with
//! its recorders, and the snapshot ([`MetricsSnapshot`]) with its JSON codec
//! and `merge`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use einet_trace::json::{JsonValue, JsonWriter};

use super::histogram::{
    json_u64, merge_histogram, read_json_histogram, BatchHistogram, BatchSnapshot,
    HistogramSnapshot, LatencyHistogram,
};
use super::window::{RollingWindow, WindowSample, WindowSnapshot};

/// How a scalar is typed and scaled in the Prometheus exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PromKind {
    /// A monotonic `counter`, printed as the integer it is.
    Counter,
    /// A `gauge` printed as is.
    Gauge,
    /// A `gauge` stored in µs and printed in seconds, Prometheus' base unit.
    SecondsGauge,
}

/// How a scalar combines when two snapshots merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Merge {
    Sum,
    Max,
}

/// Whether [`MetricsSnapshot::from_json`] insists on a scalar's key or
/// reads a missing one as 0 (rows added after artifacts were already on
/// disk are `Defaulted`, so those artifacts keep parsing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Json {
    Required,
    Defaulted,
}

/// One scalar of the registry: everything the JSON codec, `merge` and the
/// exposition need to know about it. The JSON key is the field name.
pub(super) struct ScalarRow {
    pub(super) field: &'static str,
    pub(super) kind: PromKind,
    pub(super) prom: &'static str,
    pub(super) help: &'static str,
    pub(super) merge: Merge,
    pub(super) json: Json,
    pub(super) get: fn(&MetricsSnapshot) -> u64,
    pub(super) get_mut: fn(&mut MetricsSnapshot) -> &mut u64,
}

impl ScalarRow {
    /// The family's `# TYPE`.
    pub(super) fn prom_type(&self) -> &'static str {
        match self.kind {
            PromKind::Counter => "counter",
            PromKind::Gauge | PromKind::SecondsGauge => "gauge",
        }
    }

    /// The sample value as the exposition prints it.
    pub(super) fn prom_value(&self, snap: &MetricsSnapshot) -> String {
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

        pub(super) const SCALARS: &[ScalarRow] = &[
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

    /// At rest (queue drained, no task in flight) every admitted task must
    /// be accounted for exactly once.
    pub fn reconciles(&self) -> bool {
        self.queue_depth == 0 && self.finished() == self.submitted
    }
}
