//! Pooling and reshaping layers for NCHW tensors.

use crate::layer::{Layer, Mode};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

fn shape4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.ndim(), 4, "expected NCHW tensor, got {:?}", t.shape());
    (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3])
}

/// Non-overlapping max pooling with a square window.
///
/// # Examples
///
/// ```
/// use neuspin_nn::{MaxPool2d, Layer, Mode, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut pool = MaxPool2d::new(2);
/// let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
/// let y = pool.forward(&x, Mode::Eval, &mut rng);
/// assert_eq!(y.shape(), &[1, 1, 2, 2]);
/// assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool with the given square window (also the stride).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self { window, argmax: vec![], in_shape: vec![] }
    }

    /// The pooling window size.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, _mode: Mode, _rng: &mut StdRng) -> Tensor {
        let (n, c, h, w) = shape4(input);
        let k = self.window;
        assert!(h % k == 0 && w % k == 0, "input {h}x{w} not divisible by window {k}");
        let (oh, ow) = (h / k, w / k);
        self.in_shape = input.shape().to_vec();
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        self.argmax = vec![0; n * c * oh * ow];
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        // The window's first element, so a window nothing
                        // beats (all −∞ or NaN) keeps its gradient here.
                        let mut best_idx = ((ni * c + ci) * h + oy * k) * w + ox * k;
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy * k + ky;
                                let ix = ox * k + kx;
                                let src = ((ni * c + ci) * h + iy) * w + ix;
                                if input[src] > best {
                                    best = input[src];
                                    best_idx = src;
                                }
                            }
                        }
                        let o = ((ni * c + ci) * oh + oy) * ow + ox;
                        out[o] = best;
                        self.argmax[o] = best_idx;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward before forward");
        let mut grad_in = Tensor::zeros(&self.in_shape);
        for (o, &src) in self.argmax.iter().enumerate() {
            grad_in[src] += grad_out[o];
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// Non-overlapping average pooling with a square window.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    window: usize,
    in_shape: Vec<usize>,
}

impl AvgPool2d {
    /// Creates an average pool with the given square window.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self { window, in_shape: vec![] }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, input: &Tensor, _mode: Mode, _rng: &mut StdRng) -> Tensor {
        let (n, c, h, w) = shape4(input);
        let k = self.window;
        assert!(h % k == 0 && w % k == 0, "input {h}x{w} not divisible by window {k}");
        let (oh, ow) = (h / k, w / k);
        self.in_shape = input.shape().to_vec();
        let norm = 1.0 / (k * k) as f32;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut s = 0.0;
                        for ky in 0..k {
                            for kx in 0..k {
                                s += input[((ni * c + ci) * h + oy * k + ky) * w + ox * k + kx];
                            }
                        }
                        out[((ni * c + ci) * oh + oy) * ow + ox] = s * norm;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.in_shape.is_empty(), "backward before forward");
        let (n, c, h, w) = (self.in_shape[0], self.in_shape[1], self.in_shape[2], self.in_shape[3]);
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        let norm = 1.0 / (k * k) as f32;
        let mut grad_in = Tensor::zeros(&self.in_shape);
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out[((ni * c + ci) * oh + oy) * ow + ox] * norm;
                        for ky in 0..k {
                            for kx in 0..k {
                                grad_in[((ni * c + ci) * h + oy * k + ky) * w + ox * k + kx] += g;
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "AvgPool2d"
    }
}

/// Flattens NCHW to `[N, C·H·W]` (identity gradient).
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _mode: Mode, _rng: &mut StdRng) -> Tensor {
        self.in_shape = input.shape().to_vec();
        let n = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        input.reshape(&[n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.reshape(&self.in_shape)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let mut r = rng();
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0], &[1, 1, 2, 2]);
        let y = pool.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y.as_slice(), &[5.0]);
        let g = pool.backward(&Tensor::ones(&[1, 1, 1, 1]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_routes_unbeaten_window_to_its_own_first_element() {
        // The second sample is all −∞: no element beats the start value,
        // so its gradient must stay in that window, not leak to sample 0.
        let mut r = rng();
        let mut pool = MaxPool2d::new(2);
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0, ninf, ninf, ninf, ninf], &[2, 1, 2, 2]);
        let y = pool.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y.as_slice(), &[5.0, ninf]);
        let g = pool.backward(&Tensor::from_vec(vec![1.0, 7.0], &[2, 1, 1, 1]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn avgpool_spreads_gradient() {
        let mut r = rng();
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 6.0], &[1, 1, 2, 2]);
        let y = pool.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y.as_slice(), &[3.0]);
        let g = pool.backward(&Tensor::ones(&[1, 1, 1, 1]));
        assert_eq!(g.as_slice(), &[0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut r = rng();
        let mut f = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let y = f.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y.shape(), &[2, 12]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn maxpool_rejects_nondivisible() {
        let mut r = rng();
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::zeros(&[1, 1, 3, 3]);
        let _ = pool.forward(&x, Mode::Eval, &mut r);
    }

    #[test]
    fn pools_channelwise_independence() {
        let mut r = rng();
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_fn(&[1, 2, 2, 2], |i| if i < 4 { i as f32 } else { 100.0 + i as f32 });
        let y = pool.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.as_slice(), &[3.0, 107.0]);
    }
}
