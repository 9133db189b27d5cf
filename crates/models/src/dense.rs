//! Densely-connected convolution layers (the DenseNet/MSDNet building
//! block).

use rand::rngs::SmallRng;

use einet_tensor::{BatchNorm2d, Conv2d, Layer, Mode, Param, ReLu, Tensor};

/// A dense unit: `y = concat(x, relu(bn(conv(x))))` along the channel axis.
///
/// Every unit appends `growth` new feature channels while passing all input
/// channels straight through, so shallow features (and their gradients)
/// reach every depth directly — the property that lets MSDNet train its many
/// deep classifiers. This is the conv primitive of the MSDNet-like backbone
/// in [`crate::zoo::msdnet`].
#[derive(Debug, Clone)]
pub struct DenseConv {
    conv: Conv2d,
    bn: BatchNorm2d,
    relu: ReLu,
    in_c: usize,
    growth: usize,
    cached_shape: Vec<usize>,
}

impl DenseConv {
    /// Creates a dense unit adding `growth` channels to `in_c` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `in_c` or `growth` is zero.
    pub fn new(in_c: usize, growth: usize, rng: &mut SmallRng) -> Self {
        assert!(in_c > 0 && growth > 0, "dense conv dims must be positive");
        DenseConv {
            conv: Conv2d::new(in_c, growth, 3, 1, 1, rng),
            bn: BatchNorm2d::new(growth),
            relu: ReLu::new(),
            in_c,
            growth,
            cached_shape: Vec::new(),
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_c
    }

    /// Channels added by this unit.
    pub fn growth(&self) -> usize {
        self.growth
    }
}

impl Layer for DenseConv {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "dense conv expects [n,c,h,w]");
        assert_eq!(shape[1], self.in_c, "dense conv channel mismatch");
        let (n, h, w) = (shape[0], shape[2], shape[3]);
        self.cached_shape = shape.to_vec();
        let new = self.conv.forward(input, mode);
        let new = self.bn.forward(&new, mode);
        let new = self.relu.forward(&new, mode);
        // Channel concat: [n, in_c + growth, h, w], each sample's
        // passthrough planes then its new ones, appended in order.
        let out_c = self.in_c + self.growth;
        let hw = h * w;
        let mut out = Vec::with_capacity(n * out_c * hw);
        let passthrough = input.as_slice().chunks_exact(self.in_c * hw);
        for (x, nv) in passthrough.zip(new.as_slice().chunks_exact(self.growth * hw)) {
            out.extend_from_slice(x);
            out.extend_from_slice(nv);
        }
        Tensor::new(&[n, out_c, h, w], out).expect("dense concat shape consistent")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(
            !self.cached_shape.is_empty(),
            "dense conv backward without forward"
        );
        let shape = self.cached_shape.clone();
        let (n, h, w) = (shape[0], shape[2], shape[3]);
        let hw = h * w;
        let out_c = self.in_c + self.growth;
        let g = grad_output.as_slice();
        assert_eq!(g.len(), n * out_c * hw, "dense grad shape");
        // Split the gradient into the passthrough part and the new-feature
        // part.
        let mut g_pass = vec![0.0_f32; n * self.in_c * hw];
        let mut g_new = vec![0.0_f32; n * self.growth * hw];
        for ni in 0..n {
            let src = &g[ni * out_c * hw..(ni + 1) * out_c * hw];
            g_pass[ni * self.in_c * hw..(ni + 1) * self.in_c * hw]
                .copy_from_slice(&src[..self.in_c * hw]);
            g_new[ni * self.growth * hw..(ni + 1) * self.growth * hw]
                .copy_from_slice(&src[self.in_c * hw..]);
        }
        let g_new = Tensor::new(&[n, self.growth, h, w], g_new).expect("split shape consistent");
        let g_new = self.relu.backward(&g_new);
        let g_new = self.bn.backward(&g_new);
        let g_conv = self.conv.backward(&g_new);
        let mut g_in = Tensor::new(&[n, self.in_c, h, w], g_pass).expect("split shape consistent");
        g_in.add_scaled(&g_conv, 1.0);
        self.cached_shape.clear();
        g_in
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Param)) {
        self.conv.visit_params(visit);
        self.bn.visit_params(visit);
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input[0], self.in_c + self.growth, input[2], input[3]]
    }

    fn flops(&self, input: &[usize]) -> u64 {
        self.conv.flops(input) + self.bn.flops(&self.conv.output_shape(input))
    }

    fn kind(&self) -> &'static str {
        "dense_conv"
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
        SmallRng::seed_from_u64(41)
    }

    #[test]
    fn concat_grows_channels() {
        let mut d = DenseConv::new(4, 3, &mut rng());
        let x = Tensor::zeros(&[2, 4, 5, 5]);
        let y = d.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 7, 5, 5]);
        assert_eq!(d.output_shape(&[2, 4, 5, 5]), vec![2, 7, 5, 5]);
    }

    #[test]
    fn passthrough_channels_are_exact_copies() {
        let mut d = DenseConv::new(2, 2, &mut rng());
        let x = Tensor::new(&[1, 2, 2, 2], (0..8).map(|v| v as f32).collect()).unwrap();
        let y = d.forward(&x, Mode::Eval);
        assert_eq!(&y.as_slice()[..8], x.as_slice());
    }

    #[test]
    fn gradient_reaches_input_through_both_paths() {
        let mut d = DenseConv::new(2, 2, &mut rng());
        let x = Tensor::filled(&[1, 2, 3, 3], 0.5);
        let y = d.forward(&x, Mode::Train);
        let g = d.backward(&Tensor::filled(y.shape(), 1.0));
        assert_eq!(g.shape(), x.shape());
        // The passthrough guarantees at least gradient 1 everywhere.
        assert!(g.as_slice().iter().all(|&v| v.is_finite()));
        assert!(g.max_abs() >= 1.0);
    }

    #[test]
    fn gradient_check() {
        let mut d = DenseConv::new(1, 1, &mut rng());
        let x = Tensor::new(&[1, 1, 2, 2], vec![0.3, -0.4, 0.8, 0.1]).unwrap();
        let w: Vec<f32> = (0..8).map(|i| 0.1 * (i as f32 + 1.0)).collect();
        let y = d.forward(&x, Mode::Train);
        let gx = d.backward(&Tensor::new(y.shape(), w.clone()).unwrap());
        let loss = |d: &mut DenseConv, x: &Tensor| -> f32 {
            d.forward(x, Mode::Train)
                .as_slice()
                .iter()
                .zip(&w)
                .map(|(&a, &b)| a * b)
                .sum()
        };
        let eps = 1e-3;
        for idx in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (loss(&mut d, &xp) - loss(&mut d, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.as_slice()[idx]).abs() < 5e-2,
                "dense grad mismatch at {idx}: {num} vs {}",
                gx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn flops_positive() {
        let d = DenseConv::new(8, 4, &mut rng());
        assert!(d.flops(&[1, 8, 4, 4]) > 0);
    }
}
