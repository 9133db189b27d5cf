//! The CS-Predictor network.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use einet_tensor::{Dropout, Layer, Linear, Mode, Param, ReLu, Tensor};

/// A lightweight fully-connected confidence-score predictor:
/// `n → hidden → n` with ReLU and dropout after the input and hidden layers
/// (Section IV-C2 of the paper).
///
/// # Example
///
/// ```
/// use einet_predictor::CsPredictor;
///
/// let p = CsPredictor::new(5, 32, 1);
/// let out = p.infer(&[0.4, 0.0, 0.0, 0.0, 0.0]);
/// assert_eq!(out.len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct CsPredictor {
    l1: Linear,
    relu: ReLu,
    dropout: Dropout,
    l2: Linear,
    num_exits: usize,
    hidden: usize,
}

impl CsPredictor {
    /// Creates a predictor for `num_exits` exits with the given hidden width.
    ///
    /// # Panics
    ///
    /// Panics if `num_exits` or `hidden` is zero.
    pub fn new(num_exits: usize, hidden: usize, seed: u64) -> Self {
        assert!(
            num_exits > 0 && hidden > 0,
            "predictor dims must be positive"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        CsPredictor {
            l1: Linear::new(num_exits, hidden, &mut rng),
            relu: ReLu::new(),
            dropout: Dropout::new(0.1, seed ^ 0x6472_6f70),
            l2: Linear::new(hidden, num_exits, &mut rng),
            num_exits,
            hidden,
        }
    }

    /// The paper scales the hidden width to the exit count (2048/1024 for
    /// ~30+ branches, 256/128 for fewer); this edge-scale default keeps the
    /// same proportionality.
    pub fn default_hidden(num_exits: usize) -> usize {
        if num_exits >= 30 {
            256
        } else if num_exits >= 10 {
            128
        } else {
            64
        }
    }

    /// Number of exits (input and output width).
    pub fn num_exits(&self) -> usize {
        self.num_exits
    }

    /// Hidden-layer width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Deterministic inference for a single confidence vector (no dropout,
    /// no training caches). `input` uses 0 at unexecuted exits.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != num_exits`.
    pub fn infer(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.num_exits, "input width mismatch");
        let mut hidden = vec![0.0_f32; self.hidden];
        affine(
            self.l1.weight().as_slice(),
            self.l1.bias().as_slice(),
            input,
            Inputs::SkipZeros,
            &mut hidden,
        );
        for h in &mut hidden {
            *h = h.max(0.0);
        }
        self.output_from_hidden(&hidden)
    }

    /// Computes the output layer from activated hidden values.
    pub(crate) fn output_from_hidden(&self, hidden: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0_f32; self.num_exits];
        affine(
            self.l2.weight().as_slice(),
            self.l2.bias().as_slice(),
            hidden,
            Inputs::All,
            &mut out,
        );
        out
    }

    /// Eq. 1 of the paper: `O' = O·M + L·M̄`. Runs the predictor on the
    /// partial confidence list and splices the already-known scores back in.
    ///
    /// `executed[i]` is `Some(confidence)` for exits that have produced a
    /// result and `None` otherwise. The returned full list is what the
    /// accuracy-expectation algorithm consumes.
    ///
    /// # Panics
    ///
    /// Panics if `executed.len() != num_exits`.
    pub fn predict_masked(&self, executed: &[Option<f32>]) -> Vec<f32> {
        assert_eq!(executed.len(), self.num_exits, "input width mismatch");
        let input: Vec<f32> = executed.iter().map(|c| c.unwrap_or(0.0)).collect();
        let mut out = self.infer(&input);
        for (o, e) in out.iter_mut().zip(executed.iter()) {
            if let Some(known) = e {
                *o = *known;
            } else {
                *o = o.clamp(0.0, 1.0);
            }
        }
        out
    }

    /// Borrow of the input layer (used by the [`crate::ActivationCache`]).
    pub(crate) fn input_layer(&self) -> &Linear {
        &self.l1
    }
}

/// Which inputs [`affine`] accumulates.
#[derive(Clone, Copy, PartialEq)]
enum Inputs {
    /// Every input, zeros included (adding `w·0` can flip a `-0.0` sum).
    All,
    /// Non-zero inputs only: an unexecuted exit contributes nothing.
    SkipZeros,
}

/// Rows accumulated side by side: independent dependency chains, so the
/// adds of one row overlap the latency of the others.
const LANES: usize = 8;

/// `out[r] = bias[r] + Σⱼ weight[r][j]·x[j]`, summed for each row exactly as
/// a serial loop would — bias first, then `j` ascending — so results are
/// bit-identical to it. Rows run [`LANES`] at a time over tiles of [`LANES`]
/// inputs; a tile loads each row's weights once and keeps a skipped input's
/// sum out by selection rather than by branch, so it vectorises across rows.
fn affine(weight: &[f32], bias: &[f32], x: &[f32], inputs: Inputs, out: &mut [f32]) {
    let width = x.len();
    assert_eq!(weight.len(), out.len() * width, "weight shape mismatch");
    assert_eq!(bias.len(), out.len(), "bias shape mismatch");
    let skip = inputs == Inputs::SkipZeros;
    let tiled = width - width % LANES;
    let mut rows = weight.chunks_exact(width);
    let mut blocks = out.chunks_exact_mut(LANES);
    for (block, b) in (&mut blocks).zip(bias.chunks_exact(LANES)) {
        let r: [&[f32]; LANES] = std::array::from_fn(|_| rows.next().expect("row"));
        let mut acc: [f32; LANES] = b.try_into().expect("lane block");
        for j0 in (0..tiled).step_by(LANES) {
            let xs: &[f32; LANES] = x[j0..j0 + LANES].try_into().expect("tile");
            let tile: [&[f32; LANES]; LANES] =
                std::array::from_fn(|k| r[k][j0..j0 + LANES].try_into().expect("tile"));
            for (jj, &xj) in xs.iter().enumerate() {
                for (a, w) in acc.iter_mut().zip(&tile) {
                    let sum = *a + w[jj] * xj;
                    *a = if skip && xj == 0.0 { *a } else { sum };
                }
            }
        }
        for j in tiled..width {
            let xj = x[j];
            if skip && xj == 0.0 {
                continue;
            }
            for (a, row) in acc.iter_mut().zip(&r) {
                *a += row[j] * xj;
            }
        }
        block.copy_from_slice(&acc);
    }
    let tail = blocks.into_remainder();
    let done = bias.len() - tail.len();
    for (r, o) in (done..).zip(tail) {
        let row = &weight[r * width..(r + 1) * width];
        let mut acc = bias[r];
        for (&w, &xj) in row.iter().zip(x) {
            if skip && xj == 0.0 {
                continue;
            }
            acc += w * xj;
        }
        *o = acc;
    }
}

impl Layer for CsPredictor {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let h = self.l1.forward(input, mode);
        let h = self.relu.forward(&h, mode);
        let h = self.dropout.forward(&h, mode);
        self.l2.forward(&h, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = self.l2.backward(grad_output);
        let g = self.dropout.backward(&g);
        let g = self.relu.backward(&g);
        self.l1.backward(&g)
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Param)) {
        self.l1.visit_params(visit);
        self.l2.visit_params(visit);
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input[0], self.num_exits]
    }

    fn flops(&self, input: &[usize]) -> u64 {
        input[0] as u64 * (2 * self.num_exits * self.hidden) as u64
    }

    fn kind(&self) -> &'static str {
        "cs_predictor"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_matches_layer_forward_in_eval() {
        let mut p = CsPredictor::new(4, 16, 3);
        let input = vec![0.5, 0.25, 0.0, 0.0];
        let fast = p.infer(&input);
        let t = Tensor::new(&[1, 4], input).unwrap();
        let slow = p.forward(&t, Mode::Eval);
        for (a, b) in fast.iter().zip(slow.as_slice()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn predict_masked_keeps_known_scores() {
        let p = CsPredictor::new(3, 8, 1);
        let out = p.predict_masked(&[Some(0.77), None, None]);
        assert_eq!(out[0], 0.77);
        assert!(out[1..].iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn predict_masked_clamps_future() {
        let p = CsPredictor::new(3, 8, 2);
        let out = p.predict_masked(&[None, None, None]);
        assert!(out.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn default_hidden_scales_with_exits() {
        assert_eq!(CsPredictor::default_hidden(40), 256);
        assert_eq!(CsPredictor::default_hidden(14), 128);
        assert_eq!(CsPredictor::default_hidden(3), 64);
    }

    #[test]
    fn flops_counts_both_layers() {
        let p = CsPredictor::new(4, 10, 1);
        assert_eq!(p.flops(&[1, 4]), 2 * 4 * 10);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn infer_rejects_wrong_width() {
        CsPredictor::new(3, 8, 1).infer(&[0.0; 4]);
    }
}
