//! Properties of the blocked, threaded GEMM kernels:
//!
//! 1. every variant matches a naive f32 reference within 1e-4 (relative)
//!    across random shapes, including non-multiple-of-tile and degenerate
//!    ones (`m = 1`, `k = 1`);
//! 2. results are **bit-identical** across worker counts, for the raw
//!    kernels and for the batch-threaded layer forwards built on them;
//! 3. the batch-wide convolution is invisible: a stacked forward equals the
//!    per-sample forwards, and a `Train` forward + backward leaves the
//!    gradients a per-sample im2col reference produces, all bit for bit.

use einet_tensor::{
    mm, mm_a_bt, mm_at_b, set_num_threads, BatchNorm2d, Conv2d, Layer, MaxPool2d, Mode, Param,
    Tensor,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mm_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0_f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0_f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0_f32; x.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

fn random_data(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-2.0_f32..2.0)).collect()
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-4_f32 * w.abs().max(1.0);
        assert!(
            (g - w).abs() <= tol,
            "{what}: element {i}: got {g}, want {w} (tol {tol})"
        );
    }
}

/// Shapes spanning the serial tier, the blocked tier, tile-edge cases and
/// degenerate extents.
fn shape() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        (1_usize..=8, 1_usize..=8, 1_usize..=8), // tiny / serial tier
        (1_usize..=2, 30_usize..=70, 30_usize..=70), // m = 1..2 rows
        (30_usize..=70, 1_usize..=2, 30_usize..=70), // k = 1..2 depth
        (30_usize..=90, 30_usize..=90, 30_usize..=90), // blocked tier
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn mm_matches_reference(((m, k, n), seed) in (shape(), 0_u64..1 << 32)) {
        let a = random_data(m * k, seed);
        let b = random_data(k * n, seed ^ 0xABCD_EF01);
        let want = mm_ref(&a, &b, m, k, n);
        assert_close(&mm(&a, &b, m, k, n), &want, "mm");
    }

    #[test]
    fn mm_a_bt_matches_reference(((m, k, n), seed) in (shape(), 0_u64..1 << 32)) {
        let a = random_data(m * k, seed);
        let bt = random_data(n * k, seed ^ 0x1357_9BDF); // stored [n, k]
        let b = transpose(&bt, n, k); // logical [k, n]
        let want = mm_ref(&a, &b, m, k, n);
        assert_close(&mm_a_bt(&a, &bt, m, k, n), &want, "mm_a_bt");
    }

    #[test]
    fn mm_at_b_matches_reference(((m, k, n), seed) in (shape(), 0_u64..1 << 32)) {
        let at = random_data(k * m, seed); // stored [k, m]
        let b = random_data(k * n, seed ^ 0x2468_ACE0);
        let a = transpose(&at, k, m); // logical [m, k]
        let want = mm_ref(&a, &b, m, k, n);
        assert_close(&mm_at_b(&at, &b, m, k, n), &want, "mm_at_b");
    }
}

/// Runs `f` under each worker count and asserts the outputs are bitwise
/// equal to the single-worker result. Restores the default afterwards.
fn assert_thread_invariant(mut f: impl FnMut() -> Vec<f32>, what: &str) {
    set_num_threads(1);
    let baseline = f();
    for threads in [2, 3, 4, 8] {
        set_num_threads(threads);
        let got = f();
        set_num_threads(0);
        assert_eq!(
            baseline.len(),
            got.len(),
            "{what}: length @ {threads} workers"
        );
        for (i, (a, b)) in baseline.iter().zip(&got).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{what}: element {i} differs at {threads} workers: {a} vs {b}"
            );
        }
    }
    set_num_threads(0);
}

#[test]
fn gemm_bit_identical_across_thread_counts() {
    // 150*130*140 ≈ 2.7M MACs: well above both the blocked and the
    // threading thresholds.
    let (m, k, n) = (150, 130, 140);
    let a = random_data(m * k, 11);
    let b = random_data(k * n, 22);
    let bt = random_data(n * k, 33);
    let at = random_data(k * m, 44);
    assert_thread_invariant(|| mm(&a, &b, m, k, n), "mm");
    assert_thread_invariant(|| mm_a_bt(&a, &bt, m, k, n), "mm_a_bt");
    assert_thread_invariant(|| mm_at_b(&at, &b, m, k, n), "mm_at_b");
}

#[test]
fn conv_forward_bit_identical_across_thread_counts() {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut conv = Conv2d::new(8, 16, 3, 1, 1, &mut rng);
    let x = Tensor::new(&[4, 8, 32, 32], random_data(4 * 8 * 32 * 32, 55)).unwrap();
    assert_thread_invariant(
        || conv.forward(&x, Mode::Eval).as_slice().to_vec(),
        "conv2d forward",
    );
}

#[test]
fn maxpool_forward_bit_identical_across_thread_counts() {
    let mut pool = MaxPool2d::new(2, 2);
    let x = Tensor::new(&[4, 64, 32, 32], random_data(4 * 64 * 32 * 32, 66)).unwrap();
    assert_thread_invariant(
        || pool.forward(&x, Mode::Eval).as_slice().to_vec(),
        "maxpool forward",
    );
}

#[test]
fn batchnorm_eval_bit_identical_across_thread_counts() {
    let mut bn = BatchNorm2d::new(16);
    // A train pass first so the running stats are non-trivial.
    let warm = Tensor::new(&[2, 16, 8, 8], random_data(2 * 16 * 8 * 8, 77)).unwrap();
    bn.forward(&warm, Mode::Train);
    let x = Tensor::new(&[4, 16, 48, 48], random_data(4 * 16 * 48 * 48, 88)).unwrap();
    assert_thread_invariant(
        || bn.forward(&x, Mode::Eval).as_slice().to_vec(),
        "batchnorm eval forward",
    );
}

#[test]
fn degenerate_extents_stay_finite_and_exact() {
    // m = 1 single row against a large B.
    let (k, n) = (64, 48);
    let a = random_data(k, 3);
    let b = random_data(k * n, 4);
    assert_close(&mm(&a, &b, 1, k, n), &mm_ref(&a, &b, 1, k, n), "mm m=1");
    // k = 1: outer product.
    let a = random_data(40, 5);
    let b = random_data(50, 6);
    assert_close(&mm(&a, &b, 40, 1, 50), &mm_ref(&a, &b, 40, 1, 50), "mm k=1");
    // n = 1: matrix-vector.
    let a = random_data(40 * 30, 7);
    let b = random_data(30, 8);
    assert_close(&mm(&a, &b, 40, 30, 1), &mm_ref(&a, &b, 40, 30, 1), "mm n=1");
}

/// The per-sample convolution this crate used before lowering went
/// batch-wide, kept as the reference the batched layer must reproduce bit
/// for bit: one im2col and one product per sample in the forward pass; in
/// the backward pass `dW`, `db` and the input gradient accumulated sample by
/// sample, in batch order. Products are naive `p = 0..k` chains ([`mm_ref`]),
/// which is also what pins the kernels' determinism contract.
struct PerSampleConv {
    weight: Vec<f32>, // [out_c, in_c*k*k]
    bias: Vec<f32>,
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
}

/// What a forward + backward pass leaves behind.
struct ConvPass {
    out: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    dx: Vec<f32>,
}

impl PerSampleConv {
    fn out_dim(&self, d: usize) -> usize {
        (d + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Input offset (within one plane) read by tap `(ki, kj)` at output
    /// `(oi, oj)`, or `None` in the padding.
    fn tap(
        &self,
        h: usize,
        w: usize,
        (ki, kj): (usize, usize),
        (oi, oj): (usize, usize),
    ) -> Option<usize> {
        let ih = (oi * self.stride + ki).checked_sub(self.pad)?;
        let iw = (oj * self.stride + kj).checked_sub(self.pad)?;
        (ih < h && iw < w).then_some(ih * w + iw)
    }

    /// `[in_c*k*k, oh*ow]` columns of one `[in_c, h, w]` sample.
    fn im2col(&self, x: &[f32], h: usize, w: usize) -> Vec<f32> {
        let (oh, ow) = (self.out_dim(h), self.out_dim(w));
        let mut cols = vec![0.0_f32; self.in_c * self.k * self.k * oh * ow];
        for (row, col_row) in cols.chunks_mut(oh * ow).enumerate() {
            let (ci, ki, kj) = (row / (self.k * self.k), row / self.k % self.k, row % self.k);
            for (pos, v) in col_row.iter_mut().enumerate() {
                if let Some(src) = self.tap(h, w, (ki, kj), (pos / ow, pos % ow)) {
                    *v = x[ci * h * w + src];
                }
            }
        }
        cols
    }

    fn forward_backward(&self, x: &[f32], n: usize, h: usize, w: usize, grad: &[f32]) -> ConvPass {
        let (oh, ow) = (self.out_dim(h), self.out_dim(w));
        let (ohw, kk) = (oh * ow, self.in_c * self.k * self.k);
        let (per_in, per_out) = (self.in_c * h * w, self.out_c * ohw);
        let mut pass = ConvPass {
            out: Vec::new(),
            dw: vec![0.0; self.out_c * kk],
            db: vec![0.0; self.out_c],
            dx: vec![0.0; n * per_in],
        };
        for i in 0..n {
            let cols = self.im2col(&x[i * per_in..(i + 1) * per_in], h, w);
            let mut y = mm_ref(&self.weight, &cols, self.out_c, kk, ohw);
            for (row, &b) in y.chunks_mut(ohw).zip(&self.bias) {
                row.iter_mut().for_each(|v| *v += b);
            }
            pass.out.extend_from_slice(&y);
            let gi = &grad[i * per_out..(i + 1) * per_out];
            // dW += dY · colsᵀ
            let dw = mm_ref(gi, &transpose(&cols, kk, ohw), self.out_c, ohw, kk);
            pass.dw.iter_mut().zip(&dw).for_each(|(a, &d)| *a += d);
            // db += row sums of dY
            for (d, row) in pass.db.iter_mut().zip(gi.chunks(ohw)) {
                let mut s = 0.0_f32;
                row.iter().for_each(|&v| s += v);
                *d += s;
            }
            // dCols = Wᵀ · dY, scattered back through the taps (col2im).
            let dcols = mm_ref(
                &transpose(&self.weight, self.out_c, kk),
                gi,
                kk,
                self.out_c,
                ohw,
            );
            let dx = &mut pass.dx[i * per_in..(i + 1) * per_in];
            for (row, col_row) in dcols.chunks(ohw).enumerate() {
                let (ci, ki, kj) = (row / (self.k * self.k), row / self.k % self.k, row % self.k);
                for (pos, &v) in col_row.iter().enumerate() {
                    if let Some(dst) = self.tap(h, w, (ki, kj), (pos / ow, pos % ow)) {
                        dx[ci * h * w + dst] += v;
                    }
                }
            }
        }
        pass
    }
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {i}: {g} vs {w}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn batched_conv_matches_the_per_sample_reference(
        ((in_c, out_c, k), (stride, pad), (h, w, n), seed) in (
            (1_usize..=5, 1_usize..=40, prop_oneof![Just(1_usize), Just(3_usize)]),
            (1_usize..=2, 0_usize..=1),
            (1_usize..=9, 1_usize..=9, 1_usize..=9),
            0_u64..1 << 32,
        )
            .prop_filter("kernel fits the padded input", |((_, _, k), (_, pad), (h, w, _), _)| {
                h + 2 * pad >= *k && w + 2 * pad >= *k
            })
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, &mut rng);
        let mut params: Vec<Vec<f32>> = Vec::new();
        conv.visit_params(&mut |p: &mut Param| {
            if p.value.shape().len() == 1 {
                // The bias starts at zero; make it count.
                p.value = Tensor::from_vec(random_data(p.value.len(), seed ^ 0xB1A5));
            }
            params.push(p.value.as_slice().to_vec());
        });
        let reference = PerSampleConv {
            weight: params[0].clone(),
            bias: params[1].clone(),
            in_c,
            out_c,
            k,
            stride,
            pad,
        };
        let x = Tensor::new(&[n, in_c, h, w], random_data(n * in_c * h * w, seed ^ 0x1234)).unwrap();
        let out_len = n * out_c * reference.out_dim(h) * reference.out_dim(w);
        let grad = random_data(out_len, seed ^ 0x9876);
        let want = reference.forward_backward(x.as_slice(), n, h, w, &grad);

        for threads in [1, 2, 4] {
            set_num_threads(threads);
            // Stacked forward == the per-sample forwards, in either mode.
            let stacked = conv.forward(&x, Mode::Eval);
            assert_same_bits(stacked.as_slice(), &want.out, "stacked forward vs reference");
            for j in 0..n {
                let solo = conv.forward(&x.batch_slice(j, j + 1), Mode::Eval);
                let per = solo.len();
                assert_same_bits(
                    solo.as_slice(),
                    &stacked.as_slice()[j * per..(j + 1) * per],
                    "solo forward vs its slice of the stacked one",
                );
            }
            // Train forward + backward == the reference's gradients.
            conv.zero_grad();
            let y = conv.forward(&x, Mode::Train);
            assert_same_bits(y.as_slice(), &want.out, "train forward");
            let dx = conv.backward(&Tensor::new(y.shape(), grad.clone()).unwrap());
            assert_same_bits(dx.as_slice(), &want.dx, "input grad");
            let mut grads: Vec<Vec<f32>> = Vec::new();
            conv.visit_params(&mut |p: &mut Param| grads.push(p.grad.as_slice().to_vec()));
            assert_same_bits(&grads[0], &want.dw, "weight grad");
            assert_same_bits(&grads[1], &want.db, "bias grad");
        }
        set_num_threads(0);
    }
}
