//! Batched plan execution must be invisible: running one plan over a
//! stacked batch produces, for every sample, **bit-identical** outputs to
//! running the same plan over that sample alone. This is the contract the
//! serving-side batch coalescer (`einet-edge`) relies on — batching is a
//! throughput lever, never an accuracy or determinism knob.

use einet_models::{zoo, BranchSpec, ModelKind, MultiExitNet};
use einet_tensor::{Mode, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_batch(shape: [usize; 3], batch: usize, seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = batch * shape[0] * shape[1] * shape[2];
    Tensor::new(
        &[batch, shape[0], shape[1], shape[2]],
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
    .unwrap()
}

/// Derives a pseudo-random but deterministic plan with at least one exit.
fn plan_for(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut plan: Vec<bool> = (0..n).map(|_| rng.gen_range(0.0..1.0) < 0.5).collect();
    if !plan.iter().any(|&b| b) {
        plan[n - 1] = true;
    }
    plan
}

fn assert_bit_identical(kind: &str, batch: usize, shape: [usize; 3], seed: u64) {
    let spec = BranchSpec::paper_default();
    let mut net: MultiExitNet = match kind {
        "alex" => ModelKind::BAlexNet.build(shape, 10, &spec, seed + 3),
        _ => zoo::flex_vgg16(shape, 10, &spec, seed + 3),
    };
    let n = net.num_exits();
    let plan = plan_for(n, seed);
    let x = random_batch(shape, batch, seed);
    let batched = net.forward_plan_batch(&x, &plan);
    assert_eq!(batched.len(), batch);
    for (j, b) in batched.iter().enumerate() {
        let solo = net.forward_plan(&x.batch_slice(j, j + 1), &plan);
        assert_eq!(b.len(), solo.len(), "{kind} b={batch} sample {j}");
        for (bo, so) in b.iter().zip(solo.iter()) {
            assert_eq!(bo.exit, so.exit, "{kind} b={batch} sample {j}");
            assert_eq!(
                bo.predicted, so.predicted,
                "{kind} b={batch} sample {j} exit {}",
                bo.exit
            );
            assert_eq!(
                bo.confidence.to_bits(),
                so.confidence.to_bits(),
                "{kind} b={batch} sample {j} exit {}: {} vs {}",
                bo.exit,
                bo.confidence,
                so.confidence
            );
        }
    }
}

#[test]
fn batched_execution_is_bit_identical_per_sample() {
    for (batch, seed) in [(1, 11_u64), (2, 12), (3, 13), (4, 14), (7, 15)] {
        assert_bit_identical("alex", batch, [1, 16, 16], seed);
    }
}

#[test]
fn batched_execution_is_bit_identical_on_vgg() {
    for (batch, seed) in [(2, 21_u64), (5, 22)] {
        assert_bit_identical("vgg", batch, [3, 16, 16], seed);
    }
}

#[test]
fn batch_of_one_equals_single_sample_path() {
    // The degenerate batch must follow the exact same code path contract.
    assert_bit_identical("alex", 1, [1, 16, 16], 31);
}

#[test]
fn served_models_stack_bit_identically_at_every_exit() {
    // The two models the serving benchmark runs stacked or deep. vgg16-fine
    // ends in 1×1-spatial convolutions and a 1×1 head, where a sample is a
    // single column of the lowered batch; msdnet40 is made of 3-channel
    // dense convolutions and 1×1 transitions. Raw logits, not the softmax
    // maximum: a confidence can hide a differing bit in a losing class.
    for (kind, seed) in [(ModelKind::Vgg16Fine, 41_u64), (ModelKind::MsdNet40, 42)] {
        let shape = [3, 16, 16];
        let mut net = kind.build(shape, 10, &BranchSpec::paper_default(), seed);
        for batch in [2, 3, 8] {
            let x = random_batch(shape, batch, seed + batch as u64);
            let stacked = net.forward_all(&x, Mode::Eval);
            assert_eq!(stacked.len(), net.num_exits());
            for j in 0..batch {
                let solo = net.forward_all(&x.batch_slice(j, j + 1), Mode::Eval);
                for (exit, (s, b)) in solo.iter().zip(&stacked).enumerate() {
                    let same = s
                        .as_slice()
                        .iter()
                        .zip(b.row(j))
                        .all(|(s, b)| s.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "{} b={batch} sample {j} exit {exit}: {:?} vs {:?}",
                        kind.id(),
                        s.as_slice(),
                        b.row(j)
                    );
                }
            }
        }
    }
}
