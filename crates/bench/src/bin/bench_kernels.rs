//! Kernel speedup runner: times the naive seed kernels against the blocked,
//! threaded replacements on Fig. 4-scale GEMM and conv-forward shapes and on
//! the products the served zoo models actually run, times two served
//! convolutions solo and stacked, and writes `results/bench_kernels.json`.
//!
//! It also times the serving planner on a 40-exit model against its
//! references, on identical inputs: `SearchEngine::search` (resuming scans)
//! against the same hybrid search over a closure calling `expectation()`,
//! and `CsPredictor::infer` against a serial per-row loop. Plans, scores
//! and predictions must be bit-identical to the references.
//!
//! `--gate` exits non-zero when stacking eight samples through the
//! mid-depth `vgg16_fine` convolution does not cut its per-sample time by
//! [`MIN_STACKED_GAIN`] (a convolution that lowers and multiplies sample by
//! sample measures ≈ 1.0 there), when the search is less than
//! [`MIN_SEARCH_GAIN`] faster than its closure oracle, or when the
//! predictor is less than [`MIN_PREDICT_GAIN`] faster than the serial loop.
//! All three bounds are ratios on one host.
//!
//! Environment:
//! * `EINET_BENCH_BUDGET_MS` — per-case measurement budget (default 300).
//! * `EINET_THREADS` — worker-pool width (default: available parallelism).

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use einet_core::search::hybrid_search;
use einet_core::{expectation, ExitPlan, SearchEngine, TimeDistribution};
use einet_predictor::CsPredictor;
use einet_profile::EtProfile;
use einet_tensor::{mm, num_threads, set_num_threads, Conv2d, Layer, Mode, Tensor};
use einet_trace::json::JsonWriter;

/// `--gate`: least per-sample gain at B=8 of the gated stacked convolution.
const MIN_STACKED_GAIN: f64 = 1.3;
/// `--gate`: the [`StackedConv`] it applies to.
const GATED_CONV: &str = "stacked_vgg16_fine_mid";
/// `--gate`: least speed-up of `SearchEngine::search` over the closure
/// oracle (a search that rescans every candidate measures ≈ 1.0).
const MIN_SEARCH_GAIN: f64 = 2.0;
/// `--gate`: least speed-up of `CsPredictor::infer` over the serial loop.
const MIN_PREDICT_GAIN: f64 = 1.5;
/// Exit count of the planner case (the paper's MSDNet).
const PLANNER_EXITS: usize = 40;

/// The seed's GEMM: i-k-j loop order with the data-dependent zero skip —
/// the baseline every speedup in the report is measured against.
fn naive_mm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0_f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += av * bv;
            }
        }
    }
    c
}

/// The seed's conv forward: fresh im2col allocation + naive GEMM per sample.
#[allow(clippy::too_many_arguments)]
fn naive_conv_forward(
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
    n: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    k: usize,
) -> Vec<f32> {
    let (oh, ow) = (h - k + 1 + 2, w - k + 1 + 2); // pad = 1, stride = 1
    let kk = in_c * k * k;
    let per_in = in_c * h * w;
    let mut out = vec![0.0_f32; n * out_c * oh * ow];
    for i in 0..n {
        let xs = &x[i * per_in..(i + 1) * per_in];
        let mut cols = vec![0.0_f32; kk * oh * ow];
        for ci in 0..in_c {
            for ki in 0..k {
                for kj in 0..k {
                    let row = (ci * k + ki) * k + kj;
                    let base = row * oh * ow;
                    for oi in 0..oh {
                        let ih = (oi + ki) as isize - 1;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        let in_base = (ci * h + ih as usize) * w;
                        for oj in 0..ow {
                            let iw = (oj + kj) as isize - 1;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            cols[base + oi * ow + oj] = xs[in_base + iw as usize];
                        }
                    }
                }
            }
        }
        let y = naive_mm(weight, &cols, out_c, kk, oh * ow);
        let dst = &mut out[i * out_c * oh * ow..(i + 1) * out_c * oh * ow];
        for oc in 0..out_c {
            for v in 0..oh * ow {
                dst[oc * oh * ow + v] = y[oc * oh * ow + v] + bias[oc];
            }
        }
    }
    out
}

/// The serial CS-Predictor forward: one row at a time, inputs ascending,
/// zero inputs skipped in the first layer — the reference whose bits
/// `CsPredictor::infer` must reproduce.
fn naive_predict(params: &[Vec<f32>], input: &[f32]) -> Vec<f32> {
    let layer = |w: &[f32], b: &[f32], x: &[f32], skip_zeros: bool| -> Vec<f32> {
        (0..b.len())
            .map(|r| {
                let mut acc = b[r];
                for (j, &xj) in x.iter().enumerate() {
                    if !(skip_zeros && xj == 0.0) {
                        acc += w[r * x.len() + j] * xj;
                    }
                }
                acc
            })
            .collect()
    };
    let hidden: Vec<f32> = layer(&params[0], &params[1], input, true)
        .into_iter()
        .map(|z| z.max(0.0))
        .collect();
    layer(&params[2], &params[3], &hidden, false)
}

/// The serving planner's two calls timed against their references.
struct PlannerCase {
    search_us: f64,
    search_oracle_us: f64,
    predict_us: f64,
    predict_naive_us: f64,
}

impl PlannerCase {
    fn search_gain(&self) -> f64 {
        self.search_oracle_us / self.search_us
    }

    fn predict_gain(&self) -> f64 {
        self.predict_naive_us / self.predict_us
    }
}

/// Times the replans of one request on a 40-exit model: the initial search
/// and one at each quarter of the depth, with the history so far frozen
/// (confidences rising with depth, as a trained network's do), and the
/// predictor on the outputs of the first half. Panics if a result differs
/// from its reference.
fn time_planner() -> PlannerCase {
    let n = PLANNER_EXITS;
    let mut rng = SmallRng::seed_from_u64(40);
    let conv: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
    let branch: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..0.5)).collect();
    let et = EtProfile::new(conv, branch).expect("planner profile valid");
    let dist = TimeDistribution::Uniform;
    let confs: Vec<f32> = (0..n)
        .map(|i| 0.5 + 0.45 * i as f32 / n as f32 + rng.gen_range(-0.05..0.05))
        .collect();
    let history = ExitPlan::from_bools(&(0..n).map(|i| i % 3 != 1).collect::<Vec<_>>());

    let mut predictor = CsPredictor::new(n, CsPredictor::default_hidden(n), 41);
    let mut params: Vec<Vec<f32>> = Vec::new();
    predictor.visit_params(&mut |p| params.push(p.value.as_slice().to_vec()));
    let input: Vec<f32> = (0..n)
        .map(|i| {
            if i < n / 2 && history.get(i) {
                confs[i]
            } else {
                0.0
            }
        })
        .collect();
    let predicted = predictor.infer(&input);
    let reference = naive_predict(&params, &input);
    assert!(
        predicted
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "CsPredictor::infer differs from the serial loop"
    );

    let engine = SearchEngine::default();
    let oracle = |p: &ExitPlan| expectation(&et, &dist, p, &confs);
    let frozen = [0, n / 4, n / 2, 3 * n / 4];
    let search = || frozen.map(|f| engine.search(&et, &dist, &confs, f, Some(&history)));
    let search_oracle = || {
        frozen.map(|f| {
            let base = ExitPlan::empty(n).with_frozen_prefix(&history, f);
            let free: Vec<usize> = (f..n).collect();
            hybrid_search(&base, &free, engine.enum_outputs(), &oracle)
        })
    };
    for ((plan, score), (want_plan, want_score)) in search().into_iter().zip(search_oracle()) {
        assert!(
            plan == want_plan && score.to_bits() == want_score.to_bits(),
            "SearchEngine::search differs from the closure oracle: \
             {plan} {score} vs {want_plan} {want_score}"
        );
    }

    let per_replan_us = |ms: f64| ms * 1e3 / frozen.len() as f64;
    PlannerCase {
        search_us: per_replan_us(time_median(|| {
            std::hint::black_box(search());
        })),
        search_oracle_us: per_replan_us(time_median(|| {
            std::hint::black_box(search_oracle());
        })),
        predict_us: time_median(|| {
            std::hint::black_box(predictor.infer(std::hint::black_box(&input)));
        }) * 1e3,
        predict_naive_us: time_median(|| {
            std::hint::black_box(naive_predict(&params, std::hint::black_box(&input)));
        }) * 1e3,
    }
}

fn budget() -> Duration {
    std::env::var("EINET_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(Duration::from_millis(300), Duration::from_millis)
}

/// Median wall time per call, auto-scaling the repeat count to the budget.
fn time_median(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let estimate = start.elapsed().max(Duration::from_nanos(100));
    let samples = 9_usize;
    let per_sample = budget().as_nanos() / samples as u128;
    let iters = (per_sample / estimate.as_nanos()).clamp(1, 1_000_000) as u32;
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e3 / f64::from(iters)
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[samples / 2]
}

fn random_data(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0_f32..1.0)).collect()
}

struct Case {
    name: String,
    shape: String,
    naive_ms: f64,
    optimized_ms: f64,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.naive_ms / self.optimized_ms
    }
}

/// One convolution's forward timed on one sample and on a stack of eight.
struct StackedConv {
    name: &'static str,
    shape: String,
    per_sample_b1_us: f64,
    per_sample_b8_us: f64,
}

impl StackedConv {
    /// Per-sample time solo ÷ per-sample time in a batch of eight.
    fn gain_b8(&self) -> f64 {
        self.per_sample_b1_us / self.per_sample_b8_us
    }
}

fn main() {
    if let Ok(t) = std::env::var("EINET_THREADS") {
        set_num_threads(t.parse().unwrap_or(0));
    }
    let gate = std::env::args().any(|a| a == "--gate");
    let mut cases: Vec<Case> = Vec::new();

    // GEMM shapes: (out_c × kk × oh*ow) products of MSDNet/VGG-style blocks
    // at the paper's 16×16 and 32×32 inputs, plus one large square; then
    // the one-sample products the served zoo models run at 16×16 —
    // b_alexnet's first conv, a mid and a deep vgg16_fine conv and its 1×1
    // head, a mid msdnet40 dense conv.
    for (name, m, k, n) in [
        ("gemm_block_shallow", 64, 27, 1024),
        ("gemm_block_mid", 96, 576, 256),
        ("gemm_block_deep", 128, 1152, 64),
        ("gemm_square", 256, 256, 256),
        ("gemm_served_alexnet_conv1", 12, 27, 256),
        ("gemm_served_vgg_mid", 24, 216, 16),
        ("gemm_served_msdnet_dense", 3, 180, 64),
        ("gemm_served_vgg_deep", 32, 288, 1),
        ("gemm_served_vgg_head", 48, 32, 1),
    ] {
        let a = random_data(m * k, 1);
        let b = random_data(k * n, 2);
        eprintln!("timing {name} ({m}x{k}x{n}) ...");
        let naive_ms = time_median(|| {
            std::hint::black_box(naive_mm(&a, &b, m, k, n));
        });
        let optimized_ms = time_median(|| {
            std::hint::black_box(mm(&a, &b, m, k, n));
        });
        cases.push(Case {
            name: name.to_string(),
            shape: format!("{m}x{k}x{n}"),
            naive_ms,
            optimized_ms,
        });
    }

    // Conv forward, Fig. 4 block scale: batch of samples through one conv.
    for (name, batch, in_c, out_c, hw) in [
        ("conv_forward_16x16", 8_usize, 32_usize, 64_usize, 16_usize),
        ("conv_forward_32x32", 4, 16, 32, 32),
    ] {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut conv = Conv2d::new(in_c, out_c, 3, 1, 1, &mut rng);
        let x = Tensor::new(
            &[batch, in_c, hw, hw],
            random_data(batch * in_c * hw * hw, 10),
        )
        .unwrap();
        let (mut weight, mut bias) = (Vec::new(), Vec::new());
        conv.visit_params(&mut |p| {
            if weight.is_empty() {
                weight = p.value.as_slice().to_vec();
            } else {
                bias = p.value.as_slice().to_vec();
            }
        });
        eprintln!("timing {name} (n={batch} {in_c}->{out_c} @{hw}x{hw}) ...");
        let naive_ms = time_median(|| {
            std::hint::black_box(naive_conv_forward(
                x.as_slice(),
                &weight,
                &bias,
                batch,
                in_c,
                hw,
                hw,
                out_c,
                3,
            ));
        });
        let optimized_ms = time_median(|| {
            std::hint::black_box(conv.forward(&x, Mode::Eval));
        });
        cases.push(Case {
            name: name.to_string(),
            shape: format!("n{batch}_c{in_c}to{out_c}_{hw}x{hw}_k3"),
            naive_ms,
            optimized_ms,
        });
    }

    // Served convolutions, one sample against a stack of eight: vgg16_fine's
    // mid-depth conv (block 8 of 14: 32→32 on a 2×2 map) and one of
    // msdnet40's deep dense convs (61→3 on a 4×4 map).
    let mut stacked: Vec<StackedConv> = Vec::new();
    for (name, in_c, out_c, hw) in [
        (GATED_CONV, 32_usize, 32_usize, 2_usize),
        ("stacked_msdnet40_deep_dense", 61, 3, 4),
    ] {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut conv = Conv2d::new(in_c, out_c, 3, 1, 1, &mut rng);
        eprintln!("timing {name} ({in_c}->{out_c} @{hw}x{hw}, B=1 and B=8) ...");
        let mut per_sample_us = |batch: usize| {
            let data = random_data(batch * in_c * hw * hw, 12);
            let x = Tensor::new(&[batch, in_c, hw, hw], data).unwrap();
            let ms = time_median(|| {
                std::hint::black_box(conv.forward(&x, Mode::Eval));
            });
            ms * 1e3 / batch as f64
        };
        stacked.push(StackedConv {
            name,
            shape: format!("c{in_c}to{out_c}_{hw}x{hw}_k3"),
            per_sample_b1_us: per_sample_us(1),
            per_sample_b8_us: per_sample_us(8),
        });
    }

    eprintln!("timing the {PLANNER_EXITS}-exit planner (search, predictor) ...");
    let planner = time_planner();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("benchmark");
    w.string("kernels");
    w.key("threads");
    w.number_u64(num_threads() as u64);
    w.key("budget_ms");
    w.number_u64(budget().as_millis() as u64);
    w.key("cases");
    w.begin_array();
    for c in &cases {
        w.begin_object();
        w.key("name");
        w.string(&c.name);
        w.key("shape");
        w.string(&c.shape);
        w.key("naive_ms");
        w.number_f64(c.naive_ms);
        w.key("optimized_ms");
        w.number_f64(c.optimized_ms);
        w.key("speedup");
        w.number_f64(c.speedup());
        w.end_object();
    }
    w.end_array();
    w.key("stacked_conv");
    w.begin_array();
    for c in &stacked {
        w.begin_object();
        w.key("name");
        w.string(c.name);
        w.key("shape");
        w.string(&c.shape);
        w.key("per_sample_b1_us");
        w.number_f64(c.per_sample_b1_us);
        w.key("per_sample_b8_us");
        w.number_f64(c.per_sample_b8_us);
        w.key("gain_b8");
        w.number_f64(c.gain_b8());
        w.end_object();
    }
    w.end_array();
    w.key("planner");
    w.begin_object();
    w.key("exits");
    w.number_u64(PLANNER_EXITS as u64);
    w.key("search_us");
    w.number_f64(planner.search_us);
    w.key("search_oracle_us");
    w.number_f64(planner.search_oracle_us);
    w.key("search_gain");
    w.number_f64(planner.search_gain());
    w.key("predict_us");
    w.number_f64(planner.predict_us);
    w.key("predict_naive_us");
    w.number_f64(planner.predict_naive_us);
    w.key("predict_gain");
    w.number_f64(planner.predict_gain());
    w.end_object();
    w.end_object();
    let json = w.finish() + "\n";

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/bench_kernels.json", &json).expect("write results/bench_kernels.json");

    println!(
        "{:<24} {:>12} {:>14} {:>9}",
        "case", "naive ms", "optimized ms", "speedup"
    );
    for c in &cases {
        println!(
            "{:<24} {:>12.4} {:>14.4} {:>8.2}x",
            c.name,
            c.naive_ms,
            c.optimized_ms,
            c.speedup()
        );
    }
    println!(
        "\n{:<28} {:>12} {:>12} {:>9}",
        "stacked conv (per sample)", "B=1 us", "B=8 us", "gain"
    );
    for c in &stacked {
        println!(
            "{:<28} {:>12.3} {:>12.3} {:>8.2}x",
            c.name,
            c.per_sample_b1_us,
            c.per_sample_b8_us,
            c.gain_b8()
        );
    }
    println!(
        "\n{:<28} {:>12} {:>12} {:>9}",
        "planner (40 exits)", "served us", "ref us", "gain"
    );
    println!(
        "{:<28} {:>12.2} {:>12.2} {:>8.2}x",
        "search (per replan)",
        planner.search_us,
        planner.search_oracle_us,
        planner.search_gain()
    );
    println!(
        "{:<28} {:>12.2} {:>12.2} {:>8.2}x",
        "predict",
        planner.predict_us,
        planner.predict_naive_us,
        planner.predict_gain()
    );
    println!(
        "\nwrote results/bench_kernels.json ({} threads)",
        num_threads()
    );

    if gate {
        let gated = stacked
            .iter()
            .find(|c| c.name == GATED_CONV)
            .expect("the gated conv is timed above");
        if gated.gain_b8() < MIN_STACKED_GAIN {
            eprintln!(
                "gate: {GATED_CONV} per-sample gain at B=8 is {:.2}, below {MIN_STACKED_GAIN}: \
                 stacking no longer amortises the convolution",
                gated.gain_b8()
            );
            std::process::exit(1);
        }
        println!(
            "gate: {GATED_CONV} gain {:.2} >= {MIN_STACKED_GAIN}",
            gated.gain_b8()
        );
        let planner_gates = [
            ("search", planner.search_gain(), MIN_SEARCH_GAIN),
            ("predict", planner.predict_gain(), MIN_PREDICT_GAIN),
        ];
        for (name, gain, min) in planner_gates {
            if gain < min {
                eprintln!(
                    "gate: planner {name} is {gain:.2}x its reference, below {min}x: \
                     the serving planner lost its speed-up"
                );
                std::process::exit(1);
            }
            println!("gate: planner {name} gain {gain:.2} >= {min}");
        }
    }
}
