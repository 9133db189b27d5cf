//! 2-D convolution lowered to one batch-wide GEMM.

use rand::rngs::SmallRng;

use crate::init::kaiming_uniform;
use crate::layer::{Layer, Mode, Param};
use crate::matmul::{mm_a_bt, mm_at_b, mm_packed_into, PackedB};
use crate::tensor::Tensor;

/// A 2-D convolution layer over `[n, c, h, w]` tensors.
///
/// The forward pass lowers the **whole batch** into one column matrix
/// `[in_c·k·k, n·oh·ow]` (im2col; sample `i` owns columns
/// `i·oh·ow .. (i+1)·oh·ow`) and multiplies it by the weights in a single
/// GEMM, so the weights are packed once per call and a batch of tiny feature
/// maps still fills the kernel's vector lanes. The matrix is written straight
/// into the GEMM's packed operand layout ([`PackedB`]) — there is no
/// row-major intermediate — and is retained across calls: as scratch
/// (repeated same-shape forwards, the elastic executor's steady state,
/// allocate nothing but their output) and, after a [`Mode::Train`] forward,
/// for the backward pass.
///
/// Every output element is one `p = 0..in_c·k·k` accumulation chain over its
/// own column (see `matmul.rs`), so a sample's output does not depend on
/// which other samples share the batch, bit for bit.
///
/// # Example
///
/// ```
/// use einet_tensor::{Conv2d, Layer, Mode, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let x = Tensor::zeros(&[2, 3, 8, 8]);
/// let y = conv.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 8, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param, // [out_c, in_c*kh*kw]
    bias: Param,   // [out_c]
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// The lowered batch, `[in_c*k*k, n*oh*ow]`.
    cols: PackedB,
    /// Lowering scratch: one sample's column-shifted planes.
    shifted: Vec<f32>,
    /// The GEMM result `[out_c, n*oh*ow]` of a multi-sample batch, before it
    /// is regrouped by sample.
    product: Vec<f32>,
    /// Input shape of the last `Train` forward; empty when there is nothing
    /// to back-propagate.
    cached_in_shape: Vec<usize>,
}

impl Conv2d {
    /// Creates a convolution with a square `k`×`k` kernel.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_c`, `out_c`, `k`, `stride` is zero.
    pub fn new(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(
            in_c > 0 && out_c > 0 && k > 0 && stride > 0,
            "conv2d: zero dim"
        );
        let fan_in = in_c * k * k;
        Conv2d {
            weight: Param::new(kaiming_uniform(&[out_c, fan_in], fan_in, rng)),
            bias: Param::new(Tensor::zeros(&[out_c])),
            in_c,
            out_c,
            k,
            stride,
            pad,
            cols: PackedB::default(),
            shifted: Vec::new(),
            product: Vec::new(),
            cached_in_shape: Vec::new(),
        }
    }

    /// Output spatial size for an input spatial size.
    fn out_dim(&self, d: usize) -> usize {
        (d + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_c
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Lowers an `[n, in_c, h, w]` batch into `self.cols` (already shaped).
    ///
    /// Row `(ci, ki, kj)` of the lowered matrix holds, for every output
    /// position, the input element kernel tap `(ki, kj)` of channel `ci`
    /// reads there, or zero in the padding. Per sample, [`shift_planes`]
    /// first gathers `k` column-shifted copies of every plane whose rows are
    /// grouped by their phase modulo the stride; the `oh` rows a tap reads
    /// are then consecutive in one of them, so each sample's part of a
    /// lowered row is one contiguous copy, whatever the stride — with no
    /// per-element bounds test and no zero-fill.
    fn lower(&mut self, x: &[f32], h: usize, w: usize) {
        let (c, k, stride, pad) = (self.in_c, self.k, self.stride, self.pad);
        let (oh, ow) = (self.out_dim(h), self.out_dim(w));
        let per_sample = oh * ow;
        let hp = h + 2 * pad;
        // Phases below `hp % stride` hold one row more than the others.
        let (phase_rows, long_phases) = (hp / stride, hp % stride);
        // A stride-1 1×1 kernel's only shifted copy is the input itself.
        let in_place = k == 1 && stride == 1 && pad == 0;
        // The borders are zeroed here, once, and never written again.
        self.shifted.clear();
        if !in_place {
            self.shifted.resize(k * c * hp * ow, 0.0);
        }
        for (i, sample) in x.chunks_exact(c * h * w).enumerate() {
            let shifted = if in_place {
                sample
            } else {
                shift_planes(sample, c, w, stride, pad, ow, &mut self.shifted);
                &self.shifted
            };
            let mut row = self.cols.cursor(0, i * per_sample);
            for ci in 0..c {
                // Padded row `ki` is row `ki / stride` of phase `ki % stride`.
                let (mut phase, mut phase_row) = (0, 0);
                for _ki in 0..k {
                    let first = phase * phase_rows + phase.min(long_phases) + phase_row;
                    for kj in 0..k {
                        let taps = ((kj * c + ci) * hp + first) * ow;
                        self.cols.write_row(row, &shifted[taps..taps + per_sample]);
                        row = row.below(1);
                    }
                    phase += 1;
                    if phase == stride {
                        (phase, phase_row) = (0, phase_row + 1);
                    }
                }
            }
        }
    }
}

/// Writes one sample's `c` input planes `[h, w]` into `shifted`, laid out
/// `[k, c, h + 2*pad, ow]`: copy `kj` of plane `ci` holds element
/// `(r, oj*stride + kj)` of the zero-padded plane at column `oj` of the row
/// that stands for `r`. Rows are grouped by phase: first those with
/// `r % stride == 0` in ascending order, then `r % stride == 1`, and so on.
/// Only in-range elements are written; the caller zeroes the rest once per
/// geometry.
fn shift_planes(
    sample: &[f32],
    c: usize,
    w: usize,
    stride: usize,
    pad: usize,
    ow: usize,
    shifted: &mut [f32],
) {
    let h = sample.len() / (c * w);
    let hp = h + 2 * pad;
    for (kj, copies) in shifted.chunks_exact_mut(c * hp * ow).enumerate() {
        // Output columns lo..hi read inside the input row.
        let lo = pad.saturating_sub(kj).div_ceil(stride);
        let hi = (w + pad).saturating_sub(kj).div_ceil(stride).min(ow);
        if lo >= hi {
            continue;
        }
        let first = lo * stride + kj - pad;
        let mut rows = copies.chunks_exact_mut(ow);
        for plane in sample.chunks_exact(h * w) {
            for phase in 0..stride {
                for r in (phase..hp).step_by(stride) {
                    let dst = rows.next().expect("one row per padded row");
                    if r < pad || r >= h + pad {
                        continue;
                    }
                    let (dst, src) = (&mut dst[lo..hi], &plane[(r - pad) * w + first..]);
                    if stride == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Reverses the lowering of one sample: scatters `[c*k*k, oh*ow]` column
/// gradients back into an image gradient.
#[allow(clippy::too_many_arguments)]
pub(crate) fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    out: &mut [f32],
) {
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    for ci in 0..c {
        for ki in 0..k {
            for kj in 0..k {
                let row = (ci * k + ki) * k + kj;
                let base = row * oh * ow;
                for oi in 0..oh {
                    let ih = (oi * stride + ki) as isize - pad as isize;
                    if ih < 0 || ih >= h as isize {
                        continue;
                    }
                    let out_base = (ci * h + ih as usize) * w;
                    for oj in 0..ow {
                        let iw = (oj * stride + kj) as isize - pad as isize;
                        if iw < 0 || iw >= w as isize {
                            continue;
                        }
                        out[out_base + iw as usize] += cols[base + oi * ow + oj];
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "conv2d expects [n,c,h,w]");
        assert_eq!(shape[1], self.in_c, "conv2d channel mismatch");
        let (n, h, w) = (shape[0], shape[2], shape[3]);
        let per_sample = self.out_dim(h) * self.out_dim(w);
        let per_out = self.out_c * per_sample;
        let kk = self.in_c * self.k * self.k;
        self.cols.reshape(self.out_c, kk, n * per_sample);
        self.lower(input.as_slice(), h, w);
        let wt = self.weight.value.as_slice();
        let b = self.bias.value.as_slice();
        let mut out = vec![0.0_f32; n * per_out];
        if n == 1 {
            // One sample's `[out_c, oh*ow]` product is the output itself.
            mm_packed_into(wt, &self.cols, &mut out, self.out_c);
            for (row, &bias) in out.chunks_mut(per_sample).zip(b) {
                for v in row {
                    *v += bias;
                }
            }
        } else {
            self.product.resize(n * per_out, 0.0);
            mm_packed_into(wt, &self.cols, &mut self.product, self.out_c);
            // Regroup `[out_c, n, oh*ow]` by sample, adding the bias on the way.
            for (i, sample) in out.chunks_mut(per_out.max(1)).enumerate() {
                let rows = self.product.chunks(n * per_sample);
                for ((dst, src), &bias) in sample.chunks_mut(per_sample).zip(rows).zip(b) {
                    let src = &src[i * per_sample..(i + 1) * per_sample];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = s + bias;
                    }
                }
            }
        }
        self.cached_in_shape.clear();
        if mode == Mode::Train {
            self.cached_in_shape.extend_from_slice(shape);
        }
        Tensor::new(&[n, self.out_c, self.out_dim(h), self.out_dim(w)], out)
            .expect("conv output shape consistent")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(
            !self.cached_in_shape.is_empty(),
            "conv2d backward without forward"
        );
        let in_shape = std::mem::take(&mut self.cached_in_shape);
        let (n, h, w) = (in_shape[0], in_shape[2], in_shape[3]);
        let per_sample = self.out_dim(h) * self.out_dim(w);
        let per_out = self.out_c * per_sample;
        let kk = self.in_c * self.k * self.k;
        let g = grad_output.as_slice();
        assert_eq!(g.len(), n * per_out, "conv2d grad shape");
        let per_in = self.in_c * h * w;
        let mut grad_in = vec![0.0_f32; n * per_in];
        let wt = self.weight.value.as_slice();
        // Sample by sample, in batch order: `dW` and `db` are sums over the
        // batch and this fixes the order their terms are added in.
        let mut cols = vec![0.0_f32; kk * per_sample];
        for i in 0..n {
            let gi = &g[i * per_out..(i + 1) * per_out];
            // Sample i's `[kk, oh*ow]` block of the lowered batch.
            let top = self.cols.cursor(0, i * per_sample);
            for (p, row) in cols.chunks_mut(per_sample.max(1)).enumerate() {
                self.cols.read_row(top.below(p), row);
            }
            // dW += dY * cols^T  (out_c x kk)
            let dw = mm_a_bt(gi, &cols, self.out_c, per_sample, kk);
            self.weight.grad.add_scaled(&Tensor::from_vec(dw), 1.0);
            // db += row sums of dY
            let db = self.bias.grad.as_mut_slice();
            for (d, row) in db.iter_mut().zip(gi.chunks(per_sample.max(1))) {
                let mut s = 0.0;
                for &v in row {
                    s += v;
                }
                *d += s;
            }
            // dCols = W^T * dY (kk x oh*ow), then col2im.
            let dcols = mm_at_b(wt, gi, kk, self.out_c, per_sample);
            col2im(
                &dcols,
                self.in_c,
                h,
                w,
                self.k,
                self.stride,
                self.pad,
                &mut grad_in[i * per_in..(i + 1) * per_in],
            );
        }
        Tensor::new(&in_shape, grad_in).expect("conv grad shape consistent")
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Param)) {
        visit(&mut self.weight);
        visit(&mut self.bias);
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![
            input[0],
            self.out_c,
            self.out_dim(input[2]),
            self.out_dim(input[3]),
        ]
    }

    fn flops(&self, input: &[usize]) -> u64 {
        let oh = self.out_dim(input[2]) as u64;
        let ow = self.out_dim(input[3]) as u64;
        let kk = (self.in_c * self.k * self.k) as u64;
        input[0] as u64 * self.out_c as u64 * oh * ow * kk
    }

    fn kind(&self) -> &'static str {
        "conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn forward_shape_with_padding() {
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng());
        let x = Tensor::zeros(&[3, 2, 5, 5]);
        assert_eq!(conv.forward(&x, Mode::Eval).shape(), &[3, 4, 5, 5]);
        assert_eq!(conv.output_shape(&[3, 2, 5, 5]), vec![3, 4, 5, 5]);
    }

    #[test]
    fn forward_shape_strided() {
        let mut conv = Conv2d::new(1, 2, 3, 2, 1, &mut rng());
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        assert_eq!(conv.forward(&x, Mode::Eval).shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and bias 0 is the identity.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng());
        conv.visit_params(&mut |p| {
            if p.value.len() == 1 {
                p.value.as_mut_slice()[0] = 1.0;
            }
        });
        // bias is also len-1; set weight=1, bias=0 explicitly.
        let mut first = true;
        conv.visit_params(&mut |p| {
            p.value.as_mut_slice()[0] = if first { 1.0 } else { 0.0 };
            first = false;
        });
        let x = Tensor::new(&[1, 1, 2, 2], vec![1.0, -2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    /// The lowered batch as a plain `[kk, n*oh*ow]` matrix.
    fn lowered(conv: &mut Conv2d, x: &Tensor) -> Vec<f32> {
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let cols_n = n * conv.out_dim(h) * conv.out_dim(w);
        let kk = conv.in_c * conv.k * conv.k;
        conv.cols.reshape(conv.out_c, kk, cols_n);
        conv.lower(x.as_slice(), h, w);
        let mut out = vec![0.0; kk * cols_n];
        for (p, row) in out.chunks_mut(cols_n).enumerate() {
            conv.cols.read_row(conv.cols.cursor(p, 0), row);
        }
        out
    }

    #[test]
    fn lowering_col2im_roundtrip_is_a_bijection_for_1x1() {
        // With k=1, stride=1, pad=0 the mapping is a bijection.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng());
        let x = Tensor::new(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let cols = lowered(&mut conv, &x);
        assert_eq!(cols, x.as_slice());
        let mut back = vec![0.0; 4];
        col2im(&cols, 1, 2, 2, 1, 1, 0, &mut back);
        assert_eq!(back, x.as_slice());
    }

    #[test]
    fn lowering_matches_the_definition() {
        // Every (stride, pad, k) the zoo uses, batched, on maps small enough
        // that samples share panels and large enough that they span several;
        // the buffer is reused between geometries, so stale contents from
        // the previous one must never show through.
        let mut r = rng();
        for &(c, out_c, k, stride, pad, h, w, n) in &[
            (2, 3, 3, 1, 1, 5, 4, 3),
            (3, 8, 3, 2, 1, 8, 8, 2),
            (2, 40, 3, 1, 1, 1, 1, 5),
            (4, 5, 1, 1, 0, 3, 3, 4),
            (3, 4, 1, 2, 0, 5, 5, 2),
            (1, 2, 3, 2, 0, 7, 6, 1),
        ] {
            let mut conv = Conv2d::new(c, out_c, k, stride, pad, &mut r);
            // Dirty the scratch with another geometry first.
            lowered(&mut conv, &Tensor::filled(&[2, c, h + 1, w + 2], f32::NAN));
            let x = kaiming_uniform(&[n * c * h * w], 4, &mut r)
                .reshaped(&[n, c, h, w])
                .unwrap();
            let cols = lowered(&mut conv, &x);
            let (oh, ow) = (conv.out_dim(h), conv.out_dim(w));
            let cols_n = n * oh * ow;
            for p in 0..c * k * k {
                let (ci, ki, kj) = (p / (k * k), p / k % k, p % k);
                for col in 0..cols_n {
                    let (i, oi, oj) = (col / (oh * ow), col / ow % oh, col % ow);
                    let (ih, iw) = (oi * stride + ki, oj * stride + kj);
                    let want = if ih < pad || iw < pad || ih >= h + pad || iw >= w + pad {
                        0.0
                    } else {
                        x.at4(i, ci, ih - pad, iw - pad)
                    };
                    assert_eq!(
                        cols[p * cols_n + col].to_bits(),
                        want.to_bits(),
                        "conv {c}->{out_c} k{k} s{stride} p{pad} on {n}x{h}x{w}: row {p} col {col}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "conv2d backward without forward")]
    fn backward_after_an_eval_forward_panics() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng());
        let x = Tensor::zeros(&[2, 1, 4, 4]);
        // A stale Train forward must not survive the Eval one either.
        conv.forward(&x, Mode::Train);
        let y = conv.forward(&x, Mode::Eval);
        conv.backward(&Tensor::zeros(y.shape()));
    }

    #[test]
    fn gradient_check_finite_difference() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut r);
        let x = kaiming_uniform(&[1, 2, 4, 4], 4, &mut r)
            .reshaped(&[1, 2, 4, 4])
            .unwrap();
        // Loss = sum(forward(x)). Analytic input gradient:
        let y = conv.forward(&x, Mode::Train);
        let ones = Tensor::filled(y.shape(), 1.0);
        let gx = conv.backward(&ones);
        // Numeric check on a handful of coordinates.
        let eps = 1e-3_f32;
        for &idx in &[0usize, 5, 13, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let sp: f32 = conv.forward(&xp, Mode::Eval).as_slice().iter().sum();
            let sm: f32 = conv.forward(&xm, Mode::Eval).as_slice().iter().sum();
            let num = (sp - sm) / (2.0 * eps);
            let ana = gx.as_slice()[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn weight_gradient_check() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut r);
        let x = kaiming_uniform(&[1, 1, 5, 5], 25, &mut r)
            .reshaped(&[1, 1, 5, 5])
            .unwrap();
        let y = conv.forward(&x, Mode::Train);
        let ones = Tensor::filled(y.shape(), 1.0);
        conv.backward(&ones);
        let mut grads = Vec::new();
        conv.visit_params(&mut |p| grads.push((p.value.clone(), p.grad.clone())));
        let (wv, wg) = grads[0].clone();
        let eps = 1e-3_f32;
        for &idx in &[0usize, 4, 9] {
            let mut wp = wv.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = wv.clone();
            wm.as_mut_slice()[idx] -= eps;
            let set = |val: &Tensor, conv: &mut Conv2d| {
                let mut first = true;
                let val = val.clone();
                conv.visit_params(&mut |p| {
                    if first {
                        p.value = val.clone();
                        first = false;
                    }
                });
            };
            set(&wp, &mut conv);
            let sp: f32 = conv.forward(&x, Mode::Eval).as_slice().iter().sum();
            set(&wm, &mut conv);
            let sm: f32 = conv.forward(&x, Mode::Eval).as_slice().iter().sum();
            set(&wv, &mut conv);
            let num = (sp - sm) / (2.0 * eps);
            assert!(
                (num - wg.as_slice()[idx]).abs() < 1e-2,
                "weight grad mismatch at {idx}"
            );
        }
    }

    #[test]
    fn flops_scale_with_batch() {
        let conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng());
        assert_eq!(conv.flops(&[2, 2, 8, 8]), 2 * conv.flops(&[1, 2, 8, 8]));
        assert!(conv.flops(&[1, 2, 8, 8]) > 0);
    }
}
