//! Fully-connected layer.

use rand::rngs::SmallRng;

use crate::init::kaiming_uniform;
use crate::layer::{Layer, Mode, Param};
use crate::matmul::{mm, mm_a_bt, mm_at_b};
use crate::tensor::Tensor;

/// A fully-connected (affine) layer: `y = x Wᵀ + b` over `[n, in]` tensors.
///
/// # Example
///
/// ```
/// use einet_tensor::{Layer, Linear, Mode, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let mut fc = Linear::new(8, 4, &mut rng);
/// let y = fc.forward(&Tensor::zeros(&[3, 8]), Mode::Eval);
/// assert_eq!(y.shape(), &[3, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param, // [out, in]
    bias: Param,   // [out]
    in_f: usize,
    out_f: usize,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer mapping `in_f` features to `out_f`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_f: usize, out_f: usize, rng: &mut SmallRng) -> Self {
        assert!(in_f > 0 && out_f > 0, "linear: zero dim");
        Linear {
            weight: Param::new(kaiming_uniform(&[out_f, in_f], in_f, rng)),
            bias: Param::new(Tensor::zeros(&[out_f])),
            in_f,
            out_f,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_f
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_f
    }

    /// Read-only view of the weight matrix (`[out, in]`, row-major).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Read-only view of the bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 2, "linear expects [n, features]");
        assert_eq!(shape[1], self.in_f, "linear feature mismatch");
        let n = shape[0];
        let mut out = mm_a_bt(
            input.as_slice(),
            self.weight.value.as_slice(),
            n,
            self.in_f,
            self.out_f,
        );
        let b = self.bias.value.as_slice();
        for i in 0..n {
            for j in 0..self.out_f {
                out[i * self.out_f + j] += b[j];
            }
        }
        self.cached_input = (mode == Mode::Train).then(|| input.clone());
        Tensor::new(&[n, self.out_f], out).expect("linear output shape consistent")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("linear backward without forward");
        let n = input.shape()[0];
        let g = grad_output.as_slice();
        assert_eq!(g.len(), n * self.out_f, "linear grad shape");
        // dW += dYᵀ X  ([out, in])
        let dw = mm_at_b(g, input.as_slice(), self.out_f, n, self.in_f);
        self.weight.grad.add_scaled(&Tensor::from_vec(dw), 1.0);
        // db += column sums of dY
        {
            let db = self.bias.grad.as_mut_slice();
            for i in 0..n {
                for j in 0..self.out_f {
                    db[j] += g[i * self.out_f + j];
                }
            }
        }
        // dX = dY W ([n, in])
        let dx = mm(g, self.weight.value.as_slice(), n, self.out_f, self.in_f);
        Tensor::new(&[n, self.in_f], dx).expect("linear grad shape consistent")
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Param)) {
        visit(&mut self.weight);
        visit(&mut self.bias);
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input[0], self.out_f]
    }

    fn flops(&self, input: &[usize]) -> u64 {
        input[0] as u64 * self.in_f as u64 * self.out_f as u64
    }

    fn kind(&self) -> &'static str {
        "linear"
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
        SmallRng::seed_from_u64(3)
    }

    #[test]
    fn forward_matches_manual_affine() {
        let mut fc = Linear::new(2, 2, &mut rng());
        // Set W = [[1, 2], [3, 4]], b = [10, 20].
        let mut idx = 0;
        fc.visit_params(&mut |p| {
            if idx == 0 {
                p.value = Tensor::new(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
            } else {
                p.value = Tensor::from_vec(vec![10.0, 20.0]);
            }
            idx += 1;
        });
        let x = Tensor::new(&[1, 2], vec![1.0, 1.0]).unwrap();
        let y = fc.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn gradient_check() {
        let mut r = rng();
        let mut fc = Linear::new(3, 2, &mut r);
        let x = kaiming_uniform(&[2, 3], 3, &mut r)
            .reshaped(&[2, 3])
            .unwrap();
        let y = fc.forward(&x, Mode::Train);
        let gx = fc.backward(&Tensor::filled(y.shape(), 1.0));
        let eps = 1e-3_f32;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let sp: f32 = fc.forward(&xp, Mode::Train).as_slice().iter().sum();
            let sm: f32 = fc.forward(&xm, Mode::Train).as_slice().iter().sum();
            let num = (sp - sm) / (2.0 * eps);
            assert!(
                (num - gx.as_slice()[idx]).abs() < 1e-2,
                "input grad mismatch at {idx}"
            );
        }
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut fc = Linear::new(2, 2, &mut rng());
        let x = Tensor::new(&[1, 2], vec![1.0, 1.0]).unwrap();
        let g = Tensor::new(&[1, 2], vec![1.0, 1.0]).unwrap();
        fc.forward(&x, Mode::Train);
        fc.backward(&g);
        let mut first_norm = 0.0;
        fc.visit_params(&mut |p| first_norm += p.grad.sq_norm());
        fc.forward(&x, Mode::Train);
        fc.backward(&g);
        let mut second_norm = 0.0;
        fc.visit_params(&mut |p| second_norm += p.grad.sq_norm());
        assert!(
            second_norm > first_norm * 3.9,
            "gradients should accumulate"
        );
        fc.zero_grad();
        let mut zero_norm = 0.0;
        fc.visit_params(&mut |p| zero_norm += p.grad.sq_norm());
        assert_eq!(zero_norm, 0.0);
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_without_forward_panics() {
        let mut fc = Linear::new(2, 2, &mut rng());
        fc.backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "linear backward without forward")]
    fn backward_after_an_eval_forward_panics() {
        let mut fc = Linear::new(2, 2, &mut rng());
        let x = Tensor::zeros(&[1, 2]);
        // A stale Train forward must not survive the Eval one either.
        fc.forward(&x, Mode::Train);
        fc.forward(&x, Mode::Eval);
        fc.backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    fn flops_count() {
        let fc = Linear::new(16, 4, &mut rng());
        assert_eq!(fc.flops(&[2, 16]), 2 * 16 * 4);
    }
}
