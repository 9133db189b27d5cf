//! Pooling layers.

use crate::layer::{Layer, Mode};
use crate::parallel::{for_each_chunk, num_threads, PAR_MIN_WORK};
use crate::tensor::Tensor;

/// Max pooling over non-overlapping or strided windows of `[n, c, h, w]`.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    k: usize,
    stride: usize,
    /// Flat input index of every output's maximum in the last `Train`
    /// forward; `None` when there is nothing to back-propagate.
    argmax: Option<Vec<usize>>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max pool with window `k` and stride `stride`.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `stride` is zero.
    pub fn new(k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0, "maxpool: zero dim");
        MaxPool2d {
            k,
            stride,
            argmax: None,
            in_shape: Vec::new(),
        }
    }

    fn out_dim(&self, d: usize) -> usize {
        if d < self.k {
            0
        } else {
            (d - self.k) / self.stride + 1
        }
    }
}

/// One `(sample, channel)` plane of a max-pool forward: its index, its
/// output and, when training, its slice of the argmax record.
type PlaneJob<'a> = (usize, &'a mut [f32], Option<&'a mut [usize]>);

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "maxpool expects [n,c,h,w]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (oh, ow) = (self.out_dim(h), self.out_dim(w));
        assert!(oh > 0 && ow > 0, "maxpool window larger than input");
        let x = input.as_slice();
        let mut out = vec![0.0_f32; n * c * oh * ow];
        let mut argmax = (mode == Mode::Train).then(|| vec![0_usize; n * c * oh * ow]);
        self.in_shape = shape.to_vec();
        let (k, stride) = (self.k, self.stride);
        let work = n * c * oh * ow * k * k;
        let threads = if work >= PAR_MIN_WORK {
            num_threads()
        } else {
            1
        };
        // One job per (sample, channel) plane; `c` planes per chunk so a
        // chunk is one sample.
        let mut argmax_planes = argmax.iter_mut().flat_map(|a| a.chunks_mut(oh * ow));
        let mut jobs: Vec<PlaneJob<'_>> = out
            .chunks_mut(oh * ow)
            .enumerate()
            .map(|(nc, o)| (nc, o, argmax_planes.next()))
            .collect();
        for_each_chunk(&mut jobs, c, threads, |_, chunk| {
            for (nc, o, a) in chunk.iter_mut() {
                let src = &x[*nc * h * w..(*nc + 1) * h * w];
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ki in 0..k {
                            for kj in 0..k {
                                let ih = oi * stride + ki;
                                let iw = oj * stride + kj;
                                let v = src[ih * w + iw];
                                if v > best {
                                    best = v;
                                    best_idx = ih * w + iw;
                                }
                            }
                        }
                        o[oi * ow + oj] = best;
                        if let Some(a) = a {
                            a[oi * ow + oj] = *nc * h * w + best_idx;
                        }
                    }
                }
            }
        });
        self.argmax = argmax;
        Tensor::new(&[n, c, oh, ow], out).expect("maxpool output shape consistent")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let argmax = self
            .argmax
            .take()
            .filter(|argmax| argmax.len() == grad_output.len())
            .expect("maxpool backward without matching forward");
        let mut grad_in = vec![0.0_f32; self.in_shape.iter().product()];
        for (o, &src_idx) in argmax.iter().enumerate() {
            grad_in[src_idx] += grad_output.as_slice()[o];
        }
        Tensor::new(&self.in_shape, grad_in).expect("maxpool grad shape consistent")
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![
            input[0],
            input[1],
            self.out_dim(input[2]),
            self.out_dim(input[3]),
        ]
    }

    fn flops(&self, input: &[usize]) -> u64 {
        // Comparisons, counted as one op per window element.
        let oh = self.out_dim(input[2]) as u64;
        let ow = self.out_dim(input[3]) as u64;
        input[0] as u64 * input[1] as u64 * oh * ow * (self.k * self.k) as u64
    }

    fn kind(&self) -> &'static str {
        "maxpool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling: `[n, c, h, w]` → `[n, c]`.
#[derive(Debug, Default, Clone)]
pub struct GlobalAvgPool {
    in_shape: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global average pool.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "gap expects [n,c,h,w]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        self.in_shape = shape.to_vec();
        let x = input.as_slice();
        let mut out = vec![0.0_f32; n * c];
        let hw = (h * w) as f32;
        for nc in 0..n * c {
            out[nc] = x[nc * h * w..(nc + 1) * h * w].iter().sum::<f32>() / hw;
        }
        Tensor::new(&[n, c], out).expect("gap output shape consistent")
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "gap backward without forward");
        let (h, w) = (self.in_shape[2], self.in_shape[3]);
        let hw = (h * w) as f32;
        let mut grad_in = vec![0.0_f32; self.in_shape.iter().product()];
        for (nc, &g) in grad_output.as_slice().iter().enumerate() {
            for v in grad_in[nc * h * w..(nc + 1) * h * w].iter_mut() {
                *v = g / hw;
            }
        }
        Tensor::new(&self.in_shape, grad_in).expect("gap grad shape consistent")
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input[0], input[1]]
    }

    fn flops(&self, input: &[usize]) -> u64 {
        input.iter().product::<usize>() as u64
    }

    fn kind(&self) -> &'static str {
        "global_avg_pool"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_max() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::new(
            &[1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::new(&[1, 1, 2, 2], vec![1.0, 9.0, 2.0, 3.0]).unwrap();
        pool.forward(&x, Mode::Train);
        let g = pool.backward(&Tensor::new(&[1, 1, 1, 1], vec![5.0]).unwrap());
        assert_eq!(g.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "maxpool backward without matching forward")]
    fn maxpool_backward_after_an_eval_forward_panics() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::new(&[1, 1, 2, 2], vec![1.0, 9.0, 2.0, 3.0]).unwrap();
        // A stale Train forward must not survive the Eval one either.
        pool.forward(&x, Mode::Train);
        pool.forward(&x, Mode::Eval);
        pool.backward(&Tensor::new(&[1, 1, 1, 1], vec![5.0]).unwrap());
    }

    #[test]
    fn gap_averages_and_distributes() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::new(&[1, 2, 1, 2], vec![2.0, 4.0, 10.0, 30.0]).unwrap();
        let y = gap.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.as_slice(), &[3.0, 20.0]);
        let g = gap.backward(&Tensor::new(&[1, 2], vec![2.0, 4.0]).unwrap());
        assert_eq!(g.as_slice(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "window larger than input")]
    fn maxpool_rejects_tiny_input() {
        let mut pool = MaxPool2d::new(4, 4);
        pool.forward(&Tensor::zeros(&[1, 1, 2, 2]), Mode::Eval);
    }
}
