//! Search-engine experiments: Fig. 4, Table I, Fig. 11, Fig. 12, Fig. 13,
//! Table III.

use std::time::Instant;

use einet_core::eval::{plan_expected, plan_expected_calibrated, plan_ground_truth};
use einet_core::search::{greedy_augment, hybrid_search, random_search};
use einet_core::{expectation, expectation_reference, ExitPlan, SearchEngine, TimeDistribution};
use einet_models::{zoo, BranchSpec, ModelKind};
use einet_predictor::{ActivationCache, CsPredictor};
use einet_profile::{measure_distribution, EtProfile};
use einet_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::configs::{DatasetKind, Scale};
use crate::pipeline::prepare;
use crate::report::{mean, pct, quantile, Report};

/// A deterministic 40-exit profile + confidence list for pure
/// engine-timing experiments (no training needed).
fn engine_fixture() -> (EtProfile, Vec<f32>) {
    let mut rng = SmallRng::seed_from_u64(0xF1);
    let conv: Vec<f64> = (0..40).map(|_| rng.gen_range(0.5..2.0)).collect();
    let branch: Vec<f64> = (0..40).map(|_| rng.gen_range(0.1..0.5)).collect();
    let et = EtProfile::new(conv, branch).expect("fixture profile valid");
    let confs: Vec<f32> = (0..40)
        .map(|i| 0.3 + 0.6 * (i as f32 / 39.0) + rng.gen_range(-0.05..0.05))
        .collect();
    (et, confs)
}

/// Fig. 4: per-sample execution-time distribution of each MSDNet-40 block.
pub fn fig4_block_times(scale: &Scale) -> Report {
    let mut report =
        Report::new("Fig. 4 — per-block execution time distribution (MSDNet-40, wall clock)");
    let mut net = zoo::msdnet40([3, 16, 16], 10, &BranchSpec::paper_default(), 4);
    let n_samples = if scale.id == "full" { 2000 } else { 500 };
    let mut rng = SmallRng::seed_from_u64(4);
    let data: Vec<f32> = (0..n_samples * 3 * 16 * 16)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let samples = Tensor::new(&[n_samples, 3, 16, 16], data).expect("sample shape");
    let dist = measure_distribution(&mut net, &samples);
    let mut widths90 = Vec::new();
    let mut widths95 = Vec::new();
    for (block, times) in dist.iter().enumerate() {
        let w90 = quantile(times, 0.95) - quantile(times, 0.05);
        let w95 = quantile(times, 0.975) - quantile(times, 0.025);
        widths90.push(w90);
        widths95.push(w95);
        if block % 8 == 0 || block == 39 {
            report.row(
                &format!("block {block}"),
                &[
                    ("mean_ms", format!("{:.4}", mean(times))),
                    ("p90_width_ms", format!("{w90:.4}")),
                    ("p95_width_ms", format!("{w95:.4}")),
                ],
            );
        }
    }
    report.line(format!(
        "max 90% spread across blocks: {:.4} ms (paper: < 0.07 ms)",
        widths90.iter().cloned().fold(0.0_f64, f64::max)
    ));
    report.line(format!(
        "max 95% spread across blocks: {:.4} ms (paper: < 0.10 ms)",
        widths95.iter().cloned().fold(0.0_f64, f64::max)
    ));
    report
}

/// Table I: naive (reference) vs optimized implementations of the accuracy
/// expectation and hybrid search, max/avg/min wall time.
pub fn table1_implementation_gap(_scale: &Scale) -> Report {
    let mut report =
        Report::new("Table I — Search Engine implementation gap (reference vs optimized, ms)");
    let (et, confs) = engine_fixture();
    let dist = TimeDistribution::Uniform;
    let plan = ExitPlan::uniform_skip(40, 8);
    let time_batches = |mut f: Box<dyn FnMut()>, iters: usize, batches: usize| -> Vec<f64> {
        (0..batches)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_secs_f64() * 1e3 / iters as f64
            })
            .collect()
    };
    let stats = |xs: &[f64]| {
        (
            xs.iter().cloned().fold(f64::MIN, f64::max),
            mean(xs),
            xs.iter().cloned().fold(f64::MAX, f64::min),
        )
    };
    let rows: Vec<(&str, Vec<f64>)> = vec![
        (
            "expectation/optimized",
            time_batches(
                Box::new({
                    let (et, confs, dist) = (et.clone(), confs.clone(), dist.clone());
                    move || {
                        std::hint::black_box(expectation(&et, &dist, &plan, &confs));
                    }
                }),
                2000,
                10,
            ),
        ),
        (
            "expectation/reference",
            time_batches(
                Box::new({
                    let (et, confs, dist) = (et.clone(), confs.clone(), dist.clone());
                    move || {
                        std::hint::black_box(expectation_reference(&et, &dist, &plan, &confs));
                    }
                }),
                2000,
                10,
            ),
        ),
        (
            "hybrid_search/optimized",
            time_batches(
                Box::new({
                    let (et, confs, dist) = (et.clone(), confs.clone(), dist.clone());
                    move || {
                        let engine = SearchEngine::new(2);
                        std::hint::black_box(engine.search(&et, &dist, &confs, 0, None));
                    }
                }),
                5,
                10,
            ),
        ),
        (
            "hybrid_search/reference",
            time_batches(
                Box::new({
                    let (et, confs, dist) = (et.clone(), confs.clone(), dist.clone());
                    let free: Vec<usize> = (0..40).collect();
                    move || {
                        let eval = |p: &ExitPlan| expectation_reference(&et, &dist, p, &confs);
                        std::hint::black_box(hybrid_search(&ExitPlan::empty(40), &free, 2, &eval));
                    }
                }),
                5,
                10,
            ),
        ),
    ];
    for (name, samples) in rows {
        let (max, avg, min) = stats(&samples);
        report.row(
            name,
            &[
                ("max_ms", format!("{max:.4}")),
                ("avg_ms", format!("{avg:.4}")),
                ("min_ms", format!("{min:.4}")),
            ],
        );
    }
    report
}

/// Fig. 11: calculated accuracy expectation vs measured ground truth for the
/// uniform-skip plan family, MSDNet-40 on the 100-class dataset.
pub fn fig11_expectation_vs_truth(scale: &Scale) -> Report {
    let mut report =
        Report::new("Fig. 11 — accuracy expectation vs ground truth (MSDNet-40, objects100)");
    let dist = TimeDistribution::Uniform;
    let art = prepare(
        ModelKind::MsdNet40,
        DatasetKind::Objects100,
        scale,
        &BranchSpec::paper_default(),
    );
    let tables = art.tables();
    let calibration = art.cs.exit_calibration();
    for skipped in (0..=20).step_by(2) {
        let plan = ExitPlan::uniform_skip(40, skipped);
        let raw = plan_expected(&art.et, &dist, &tables, &plan);
        let expected = plan_expected_calibrated(&art.et, &dist, &tables, &plan, &calibration);
        let truth = plan_ground_truth(&art.et, &dist, &tables, &plan);
        report.row(
            &format!("skip {skipped:>2}"),
            &[
                ("expectation", pct(expected)),
                ("truth", pct(truth)),
                ("gap", format!("{:+.2}pp", (expected - truth) * 100.0)),
                ("raw_expectation", pct(raw)),
            ],
        );
    }
    report.line(
        "expectation uses per-exit calibrated confidences (accuracy/mean-confidence); \
         raw_expectation is the uncalibrated Eq. 5 value"
            .to_string(),
    );
    report
}

/// Fig. 12: hybrid-search quality and time versus the enumeration output
/// budget `m`, on the trained MSDNet-40 profiles.
pub fn fig12_enum_budget(scale: &Scale) -> Report {
    let mut report =
        Report::new("Fig. 12 — hybrid search: expectation and time vs enumeration budget m");
    let art = prepare(
        ModelKind::MsdNet40,
        DatasetKind::Objects100,
        scale,
        &BranchSpec::paper_default(),
    );
    let dist = TimeDistribution::Uniform;
    let confs = art.cs.exit_mean_confidence();
    let n = art.et.num_exits();
    let search = |m: usize| SearchEngine::new(m).search(&art.et, &dist, &confs, 0, None);
    // Warm-up so the first measured row is not polluted by cold caches.
    let _ = search(2);
    for m in [0_usize, 2, 4, 6, 8, 10, 12, 14, 16] {
        let t0 = Instant::now();
        let reps = 5;
        let mut result = (ExitPlan::empty(n), 0.0);
        for _ in 0..reps {
            result = search(m);
        }
        let elapsed = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let (plan, score) = result;
        report.row(
            &format!("m={m:>2}"),
            &[
                ("expectation", pct(score)),
                ("search_ms", format!("{elapsed:.3}")),
                ("outputs", plan.count_executed().to_string()),
            ],
        );
    }
    report
}

/// Fig. 13: the four search methods under different kill-time distributions.
pub fn fig13_distributions(scale: &Scale) -> Report {
    let mut report =
        Report::new("Fig. 13 — search methods under uniform and Gaussian kill-time distributions");
    let art = prepare(
        ModelKind::MsdNet40,
        DatasetKind::Objects100,
        scale,
        &BranchSpec::paper_default(),
    );
    let confs = art.cs.exit_mean_confidence();
    let n = art.et.num_exits();
    let free: Vec<usize> = (0..n).collect();
    for dist in [
        TimeDistribution::Uniform,
        TimeDistribution::gaussian(0.5),
        TimeDistribution::gaussian(1.0),
    ] {
        let eval = |p: &ExitPlan| expectation(&art.et, &dist, p, &confs);
        let baseline = eval(&ExitPlan::full(n));
        let t0 = Instant::now();
        let mut rng = SmallRng::seed_from_u64(13);
        let (_, rand_score) = random_search(&ExitPlan::empty(n), &free, 10_000, &eval, &mut rng);
        let rand_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let (_, greedy_score) =
            greedy_augment(&ExitPlan::empty(n), eval(&ExitPlan::empty(n)), &free, &eval);
        let greedy_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let (_, hybrid_score) = hybrid_search(&ExitPlan::empty(n), &free, 4, &eval);
        let hybrid_ms = t0.elapsed().as_secs_f64() * 1e3;
        report.row(
            &dist.id(),
            &[
                ("baseline", pct(baseline)),
                ("random10k", pct(rand_score)),
                ("greedy", pct(greedy_score)),
                ("hybrid", pct(hybrid_score)),
                (
                    "times_ms",
                    format!("r={rand_ms:.1} g={greedy_ms:.2} h={hybrid_ms:.2}"),
                ),
            ],
        );
    }
    report
}

/// Table III: Activation-Cache inference speedup vs extra memory, per
/// predictor hidden size.
pub fn table3_activation_cache(_scale: &Scale) -> Report {
    let mut report = Report::new(
        "Table III — Activation Cache: inference speedup vs memory (40-exit predictor)",
    );
    const EXITS: usize = 40;
    let confs: Vec<f32> = (0..EXITS)
        .map(|i| 0.3 + 0.6 * (i as f32 / (EXITS - 1) as f32))
        .collect();
    for hidden in [128_usize, 256, 512, 1024, 2048] {
        let p = CsPredictor::new(EXITS, hidden, 3);
        let reps = 200;
        // Naive: full inference per round.
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut input = vec![0.0_f32; EXITS];
            for (i, &cv) in confs.iter().enumerate() {
                input[i] = cv;
                std::hint::black_box(p.infer(&input));
            }
        }
        let naive_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        // Cached: incremental update per round.
        let t0 = Instant::now();
        let mut mem = 0usize;
        for _ in 0..reps {
            let mut cache = ActivationCache::new(&p);
            for (i, &cv) in confs.iter().enumerate() {
                std::hint::black_box(cache.update(&p, i, cv));
            }
            mem = cache.memory_bytes();
        }
        let cached_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        report.row(
            &format!("hidden {hidden:>4}"),
            &[
                ("naive_ms", format!("{naive_ms:.4}")),
                ("cached_ms", format!("{cached_ms:.4}")),
                (
                    "speedup",
                    format!("{:.2}%", (naive_ms - cached_ms) / naive_ms * 100.0),
                ),
                ("memory_kb", format!("{:.2}", mem as f64 / 1024.0)),
            ],
        );
    }
    report
}
