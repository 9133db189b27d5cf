//! Sequential layer container.

use crate::layer::{Layer, Mode, Param};
use crate::tensor::Tensor;

/// An ordered stack of layers that is itself a [`Layer`].
///
/// This is the building block for backbones, *conv parts* and exit branches
/// in the EINet model zoo.
///
/// # Example
///
/// ```
/// use einet_tensor::{Flatten, Layer, Linear, Mode, ReLu, Sequential, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Flatten::new());
/// net.push(Linear::new(12, 5, &mut rng));
/// net.push(ReLu::new());
/// let y = net.forward(&Tensor::zeros(&[2, 3, 2, 2]), Mode::Eval);
/// assert_eq!(y.shape(), &[2, 5]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends an already-boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the contained layers.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Layer> {
        self.layers.iter().map(|b| b.as_ref())
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return input.clone();
        };
        let mut x = first.forward(input, mode);
        for layer in layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(visit);
        }
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let mut shape = input.to_vec();
        for layer in &self.layers {
            shape = layer.output_shape(&shape);
        }
        shape
    }

    fn flops(&self, input: &[usize]) -> u64 {
        let mut shape = input.to_vec();
        let mut total = 0;
        for layer in &self.layers {
            total += layer.flops(&shape);
            shape = layer.output_shape(&shape);
        }
        total
    }

    fn kind(&self) -> &'static str {
        "sequential"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::activation::ReLu;
    use crate::layers::linear::Linear;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_net() -> Sequential {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut net = Sequential::new();
        net.push(Linear::new(4, 8, &mut rng));
        net.push(ReLu::new());
        net.push(Linear::new(8, 2, &mut rng));
        net
    }

    #[test]
    fn forward_chains_layers() {
        let mut net = small_net();
        let y = net.forward(&Tensor::zeros(&[3, 4]), Mode::Eval);
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(net.output_shape(&[3, 4]), vec![3, 2]);
    }

    #[test]
    fn backward_returns_input_grad() {
        let mut net = small_net();
        let x = Tensor::filled(&[1, 4], 0.5);
        let y = net.forward(&x, Mode::Train);
        let g = net.backward(&Tensor::filled(y.shape(), 1.0));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    #[should_panic(expected = "linear backward without forward")]
    fn backward_after_an_eval_forward_panics() {
        // The container keeps nothing of its own; its layers refuse.
        let mut net = small_net();
        let x = Tensor::filled(&[1, 4], 0.5);
        net.forward(&x, Mode::Train);
        let y = net.forward(&x, Mode::Eval);
        net.backward(&Tensor::filled(y.shape(), 1.0));
    }

    #[test]
    fn param_count_sums_layers() {
        let mut net = small_net();
        // 4*8+8 + 8*2+2 = 58
        assert_eq!(net.param_count(), 58);
    }

    #[test]
    fn flops_sum_layers() {
        let net = small_net();
        assert_eq!(net.flops(&[1, 4]), 4 * 8 + 8 * 2);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        let x = Tensor::from_vec(vec![1.0, 2.0]);
        assert_eq!(net.forward(&x, Mode::Eval).as_slice(), x.as_slice());
        assert!(net.is_empty());
    }
}
