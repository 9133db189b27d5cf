//! A lock-free serving-metrics registry for the executor pool.
//!
//! Every counter is a relaxed atomic: the registry sits on the admission and
//! completion paths of every task, so it must never contend. Consistency
//! across counters is only guaranteed *at rest* (after the queue drains),
//! which is exactly when reconciliation matters — see
//! [`MetricsSnapshot::reconciles`].
//!
//! Every scalar the registry keeps is declared once, as a row of the
//! `serve_scalars!` table in `metrics/snapshot.rs`: the row names the field
//! and says how it is exposed to Prometheus, how it merges and whether old
//! JSON artifacts may lack it. The atomic cell, the [`MetricsSnapshot`] field, the JSON codec,
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

mod exposition;
mod histogram;
mod snapshot;
mod window;

pub use exposition::{prom_text, MetricsReporter, PromBlock};
pub use histogram::{
    BatchHistogram, BatchSnapshot, HistogramSnapshot, LatencyHistogram, BATCH_BUCKETS,
    LATENCY_BUCKETS_US,
};
pub use snapshot::{MetricsSnapshot, ServeMetrics};
pub use window::{
    RollingWindow, WindowSample, WindowSnapshot, DEFAULT_WINDOW_BUCKET_MS, NUM_WINDOW_SHARDS,
};

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use einet_trace::json::JsonValue;

    use super::exposition::DERIVED_GAUGES;
    use super::histogram::{NUM_BATCH_BUCKETS, NUM_BUCKETS};
    use super::snapshot::{Json, Merge, ScalarRow, SCALARS};
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
