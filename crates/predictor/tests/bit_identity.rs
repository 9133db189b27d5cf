//! `CsPredictor::infer` accumulates several rows side by side; each output
//! must still carry exactly the bits of a plain per-row loop (bias first,
//! inputs ascending, zero inputs skipped in the first layer only) — for
//! widths that are and are not multiples of the block, for inputs with
//! zeros anywhere, and through the Activation Cache's output layer.

use einet_predictor::{ActivationCache, CsPredictor};
use einet_tensor::Layer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The predictor's parameters, copied out: `(w1, b1, w2, b2)`.
struct Weights {
    w1: Vec<f32>,
    b1: Vec<f32>,
    w2: Vec<f32>,
    b2: Vec<f32>,
}

/// A predictor with random non-zero biases (fresh ones start at zero), and
/// a copy of its weights.
fn predictor(exits: usize, hidden: usize, seed: u64) -> (CsPredictor, Weights) {
    let mut p = CsPredictor::new(exits, hidden, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB1A5);
    let mut params: Vec<Vec<f32>> = Vec::new();
    p.visit_params(&mut |param| {
        let values = param.value.as_mut_slice();
        if params.len() % 2 == 1 {
            for v in values.iter_mut() {
                *v = rng.gen_range(-0.5..0.5);
            }
        }
        params.push(values.to_vec());
    });
    let [w1, b1, w2, b2]: [Vec<f32>; 4] = params.try_into().expect("two linear layers");
    (p, Weights { w1, b1, w2, b2 })
}

/// The serial reference for one layer: every output row is its bias plus
/// the products in ascending input order.
fn naive_layer(w: &[f32], b: &[f32], x: &[f32], skip_zeros: bool) -> Vec<f32> {
    let width = x.len();
    (0..b.len())
        .map(|r| {
            let mut acc = b[r];
            for (j, &xj) in x.iter().enumerate() {
                if skip_zeros && xj == 0.0 {
                    continue;
                }
                acc += w[r * width + j] * xj;
            }
            acc
        })
        .collect()
}

fn naive_output(wt: &Weights, hidden: &[f32]) -> Vec<f32> {
    naive_layer(&wt.w2, &wt.b2, hidden, false)
}

fn naive_infer(wt: &Weights, input: &[f32]) -> Vec<f32> {
    let hidden: Vec<f32> = naive_layer(&wt.w1, &wt.b1, input, true)
        .into_iter()
        .map(|z| z.max(0.0))
        .collect();
    naive_output(wt, &hidden)
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: output {k}: {g} vs {w}");
    }
}

const SHAPES: [(usize, usize); 6] = [(1, 1), (3, 7), (13, 30), (21, 128), (40, 256), (9, 16)];

#[test]
fn infer_and_predict_masked_match_the_serial_loop() {
    let mut rng = SmallRng::seed_from_u64(7);
    for (exits, hidden) in SHAPES {
        let (p, wt) = predictor(exits, hidden, exits as u64 * 131 + hidden as u64);
        for trial in 0..20 {
            // Zeros at arbitrary positions, from none to all.
            let zero_share = f64::from(trial % 5) / 4.0;
            let executed: Vec<Option<f32>> = (0..exits)
                .map(|_| (!rng.gen_bool(zero_share)).then(|| rng.gen_range(0.0..1.0)))
                .collect();
            let input: Vec<f32> = executed.iter().map(|c| c.unwrap_or(0.0)).collect();
            let what = format!("{exits}x{hidden} trial {trial}");
            let want = naive_infer(&wt, &input);
            assert_bits(&p.infer(&input), &want, &what);
            let masked: Vec<f32> = want
                .iter()
                .zip(&executed)
                .map(|(&o, e)| e.unwrap_or(o.clamp(0.0, 1.0)))
                .collect();
            assert_bits(&p.predict_masked(&executed), &masked, &what);
        }
    }
}

#[test]
fn activation_cache_reads_match_the_serial_output_layer() {
    let mut rng = SmallRng::seed_from_u64(11);
    for (exits, hidden) in SHAPES {
        let (p, wt) = predictor(exits, hidden, 3 + exits as u64);
        let mut cache = ActivationCache::new(&p);
        // The cache's pre-activations, updated column by column as it does.
        let mut z1 = wt.b1.clone();
        let mut order: Vec<usize> = (0..exits).collect();
        order.rotate_left(exits / 3);
        for (step, &exit) in order.iter().enumerate() {
            let confidence = if step % 4 == 1 {
                0.0
            } else {
                rng.gen_range(0.0..1.0)
            };
            if confidence != 0.0 {
                for (h, z) in z1.iter_mut().enumerate() {
                    *z += wt.w1[h * exits + exit] * confidence;
                }
            }
            let hidden: Vec<f32> = z1.iter().map(|&z| z.max(0.0)).collect();
            let want = naive_output(&wt, &hidden);
            let what = format!("{exits}x{} step {step}", wt.b1.len());
            assert_bits(&cache.update(&p, exit, confidence), &want, &what);
            assert_bits(&cache.read(&p), &want, &what);
        }
    }
}
