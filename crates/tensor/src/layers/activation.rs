//! Activation layers.

use crate::layer::{Layer, Mode};
use crate::tensor::Tensor;

/// Rectified linear unit, applied element-wise.
#[derive(Debug, Default, Clone)]
pub struct ReLu {
    /// Which inputs of the last `Train` forward were positive; `None` when
    /// there is nothing to back-propagate.
    mask: Option<Vec<bool>>,
}

impl ReLu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReLu::default()
    }
}

impl Layer for ReLu {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.mask =
            (mode == Mode::Train).then(|| input.as_slice().iter().map(|&v| v > 0.0).collect());
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .filter(|mask| mask.len() == grad_output.len())
            .expect("relu backward without matching forward");
        let data = grad_output
            .as_slice()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::new(grad_output.shape(), data).expect("relu grad shape consistent")
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }

    fn kind(&self) -> &'static str {
        "relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Row-wise softmax over `[n, k]` tensors.
///
/// Training uses [`crate::softmax_cross_entropy`] directly on logits; this
/// layer exists for inference paths that need calibrated probabilities (the
/// confidence scores of EINet are "the maximum softmax value" — Section III
/// of the paper).
#[derive(Debug, Default, Clone)]
pub struct Softmax {
    cached_output: Option<Tensor>,
}

impl Softmax {
    /// Creates a softmax layer.
    pub fn new() -> Self {
        Softmax::default()
    }
}

impl Layer for Softmax {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let out = crate::loss::softmax_rows(input);
        self.cached_output = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .take()
            .expect("softmax backward without forward");
        let shape = y.shape().to_vec();
        let (n, k) = (shape[0], shape[1]);
        let mut grad = vec![0.0_f32; n * k];
        let yv = y.as_slice();
        let g = grad_output.as_slice();
        for i in 0..n {
            let row_y = &yv[i * k..(i + 1) * k];
            let row_g = &g[i * k..(i + 1) * k];
            let dot: f32 = row_y.iter().zip(row_g.iter()).map(|(&a, &b)| a * b).sum();
            for j in 0..k {
                grad[i * k + j] = row_y[j] * (row_g[j] - dot);
            }
        }
        Tensor::new(&shape, grad).expect("softmax grad shape consistent")
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }

    fn kind(&self) -> &'static str {
        "softmax"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut relu = ReLu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0]);
        assert_eq!(relu.forward(&x, Mode::Eval).as_slice(), &[0.0, 0.0, 2.0]);
        let y = relu.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let g = relu.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0]));
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "relu backward without matching forward")]
    fn relu_backward_after_an_eval_forward_panics() {
        let mut relu = ReLu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0]);
        // A stale Train forward must not survive the Eval one either.
        relu.forward(&x, Mode::Train);
        relu.forward(&x, Mode::Eval);
        relu.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0]));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut sm = Softmax::new();
        let x = Tensor::new(&[2, 3], vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]).unwrap();
        let y = sm.forward(&x, Mode::Eval);
        for i in 0..2 {
            let s: f32 = y.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Uniform logits give uniform probabilities.
        assert!((y.at2(1, 0) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_gradient_check() {
        let mut sm = Softmax::new();
        let x = Tensor::new(&[1, 3], vec![0.3, -0.8, 0.5]).unwrap();
        // Loss = y[0] (picks first probability).
        let y = sm.forward(&x, Mode::Eval);
        let mut g = Tensor::zeros(&[1, 3]);
        g.as_mut_slice()[0] = 1.0;
        let gx = sm.backward(&g);
        let eps = 1e-3_f32;
        for idx in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let yp = sm.forward(&xp, Mode::Eval).as_slice()[0];
            sm.cached_output = None;
            let ym = sm.forward(&xm, Mode::Eval).as_slice()[0];
            sm.cached_output = None;
            let num = (yp - ym) / (2.0 * eps);
            assert!((num - gx.as_slice()[idx]).abs() < 1e-3);
        }
        let _ = y;
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut sm = Softmax::new();
        let a = sm.forward(
            &Tensor::new(&[1, 3], vec![1.0, 2.0, 3.0]).unwrap(),
            Mode::Eval,
        );
        let b = sm.forward(
            &Tensor::new(&[1, 3], vec![101.0, 102.0, 103.0]).unwrap(),
            Mode::Eval,
        );
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}
