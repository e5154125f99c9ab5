//! Dropout-family layers, each corresponding to one NeuSpin hardware
//! design point:
//!
//! | Layer | Drops | RNG draws per pass | Hardware (paper §) |
//! |---|---|---|---|
//! | [`Dropout`] | single neurons | one per activation | SpinDrop (III-A1) |
//! | [`SpatialDropout`] | whole feature maps | one per channel | Spatial-SpinDrop (III-A2) |
//! | [`ScaleDrop`] | the layer's scale vector | **one** per layer | SpinScaleDrop (III-A3) |
//!
//! (Per-weight DropConnect lives in [`crate::linear::DropConnectLinear`];
//! affine dropout is built into [`crate::norm::InvertedNorm`].)
//!
//! The RNG-draw counts are the quantity the paper's energy story is
//! built on: every Bernoulli draw is one SET→read→RESET cycle of a
//! stochastic MTJ.

use crate::layer::{Layer, Mode, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::RngExt;

/// Classic element-wise (per-neuron) inverted dropout.
///
/// Active in `Train` **and** `Sample` modes — keeping dropout on at
/// inference is what turns the network into an MC-dropout posterior
/// sampler (Gal & Ghahramani 2016, the paper's reference \[5\]).
///
/// # Examples
///
/// ```
/// use neuspin_nn::{Dropout, Layer, Mode, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let mut drop = Dropout::new(0.5);
/// let x = Tensor::ones(&[1, 100]);
/// let y = drop.forward(&x, Mode::Sample, &mut rng);
/// let kept = y.as_slice().iter().filter(|&&v| v != 0.0).count();
/// assert!(kept > 25 && kept < 75);
/// ```
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "p must be in [0, 1), got {p}");
        Self { p, mask: None }
    }

    /// The drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// RNG draws per stochastic pass for an input with `activations`
    /// elements per sample: one per activation.
    pub fn rng_draws_per_pass(&self, activations: usize) -> usize {
        activations
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, mode: Mode, rng: &mut StdRng) -> Tensor {
        if !mode.stochastic() || self.p == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let mut mask = self.mask.take().unwrap_or_default();
        mask.resize_to(input.shape());
        // One pass: draw, record the mask, scale the input.
        let out: Vec<f32> = input
            .as_slice()
            .iter()
            .zip(mask.as_mut_slice())
            .map(|(&x, m)| {
                *m = if rng.random::<f32>() < keep { 1.0 / keep } else { 0.0 };
                x * *m
            })
            .collect();
        self.mask = Some(mask);
        Tensor::from_vec(out, input.shape())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            None => grad_out.clone(),
            Some(mask) => grad_out * mask,
        }
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

/// Spatial dropout: drops entire channels/feature maps of an NCHW
/// tensor (on `[N, F]` inputs it degrades to per-feature dropout).
///
/// One Bernoulli draw per channel per sample — for a conv layer with
/// `C` output maps this cuts the RNG count from `C·H·W` to `C`, the
/// `K·K` = 9× module reduction the paper reports for 3×3 kernels.
#[derive(Debug, Clone)]
pub struct SpatialDropout {
    p: f32,
    mask: Option<Tensor>,
}

impl SpatialDropout {
    /// Creates a spatial-dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "p must be in [0, 1), got {p}");
        Self { p, mask: None }
    }

    /// The drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// RNG draws per stochastic pass: one per channel.
    pub fn rng_draws_per_pass(&self, channels: usize) -> usize {
        channels
    }
}

impl Layer for SpatialDropout {
    fn forward(&mut self, input: &Tensor, mode: Mode, rng: &mut StdRng) -> Tensor {
        if !mode.stochastic() || self.p == 0.0 {
            self.mask = None;
            return input.clone();
        }
        let keep = 1.0 - self.p;
        let (n, c, spatial) = match input.ndim() {
            2 => (input.shape()[0], input.shape()[1], 1),
            4 => (input.shape()[0], input.shape()[1], input.shape()[2] * input.shape()[3]),
            _ => panic!("SpatialDropout expects [N,F] or [N,C,H,W], got {:?}", input.shape()),
        };
        let mut mask = Tensor::zeros(input.shape());
        for ni in 0..n {
            for ci in 0..c {
                let v = if rng.random::<f32>() < keep { 1.0 / keep } else { 0.0 };
                for si in 0..spatial {
                    mask[(ni * c + ci) * spatial + si] = v;
                }
            }
        }
        let out = input * &mask;
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            None => grad_out.clone(),
            Some(mask) => grad_out * mask,
        }
    }

    fn name(&self) -> &'static str {
        "SpatialDropout"
    }
}

/// Scale dropout (SpinScaleDrop, §III-A3): a learnable per-feature scale
/// vector `s` modulates the activations; with probability `p` the whole
/// vector is *dropped to identity* (scale modulation, not zeroing).
/// Exactly **one** Bernoulli draw per layer per pass.
///
/// The scale vector is trained by gradient descent with the paper's
/// regularizer pulling it positive and centred at one
/// (`λ · Σ (s_j − 1)²`, see [`Layer::reg_loss`]).
#[derive(Debug, Clone)]
pub struct ScaleDrop {
    scale: Param,
    p: f32,
    kept: bool,
    input: Option<Tensor>,
    features: usize,
}

impl ScaleDrop {
    /// Creates the layer over `features` features/channels with drop
    /// probability `p`. The scale vector initialises to ones.
    ///
    /// # Panics
    ///
    /// Panics if `features == 0` or `p ∉ [0, 1)`.
    pub fn new(features: usize, p: f32) -> Self {
        assert!(features > 0, "features must be positive");
        assert!((0.0..1.0).contains(&p), "p must be in [0, 1), got {p}");
        Self { scale: Param::new(Tensor::ones(&[features])), p, kept: true, input: None, features }
    }

    /// Layer-dependent adaptive probability from the paper: larger
    /// layers get closer to the base probability, small layers are
    /// dropped more rarely: `p = base · min(1, log10(params)/6)`.
    pub fn adaptive_p(base: f32, layer_params: usize) -> f32 {
        let magnitude = (layer_params.max(1) as f32).log10() / 6.0;
        (base * magnitude.min(1.0)).clamp(0.0, 0.99)
    }

    /// The drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// The learnable scale vector.
    pub fn scale(&self) -> &Tensor {
        &self.scale.value
    }

    /// RNG draws per stochastic pass: always exactly 1.
    pub fn rng_draws_per_pass(&self) -> usize {
        1
    }

    fn layout(&self, shape: &[usize]) -> (usize, usize) {
        match shape.len() {
            2 => (shape[1], 1),
            4 => (shape[1], shape[2] * shape[3]),
            _ => panic!("ScaleDrop expects [N,F] or [N,C,H,W], got {shape:?}"),
        }
    }
}

impl Layer for ScaleDrop {
    fn forward(&mut self, input: &Tensor, mode: Mode, rng: &mut StdRng) -> Tensor {
        let (f, spatial) = self.layout(input.shape());
        assert_eq!(f, self.features, "feature mismatch: {f} vs {}", self.features);
        self.kept = !(mode.stochastic() && self.p > 0.0 && rng.random::<f32>() < self.p);
        self.input = Some(input.clone());
        if !self.kept {
            return input.clone(); // scale modulated to identity
        }
        let n = input.shape()[0];
        let mut out = Tensor::zeros(input.shape());
        for ni in 0..n {
            for fi in 0..f {
                let s = self.scale.value[fi];
                for si in 0..spatial {
                    let i = (ni * f + fi) * spatial + si;
                    out[i] = input[i] * s;
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.input.as_ref().expect("backward before forward");
        if !self.kept {
            return grad_out.clone();
        }
        let (f, spatial) = self.layout(grad_out.shape());
        let n = grad_out.shape()[0];
        let mut grad_in = Tensor::zeros(grad_out.shape());
        for fi in 0..f {
            let s = self.scale.value[fi];
            let mut ds = 0.0f32;
            for ni in 0..n {
                for si in 0..spatial {
                    let i = (ni * f + fi) * spatial + si;
                    ds += grad_out[i] * input[i];
                    grad_in[i] = grad_out[i] * s;
                }
            }
            self.scale.grad[fi] += ds;
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        f("scale", &mut self.scale);
    }

    fn reg_loss(&mut self, strength: f32) -> f32 {
        // λ Σ (s − 1)², pulling the scale positive and centred at one.
        let mut loss = 0.0;
        for j in 0..self.features {
            let d = self.scale.value[j] - 1.0;
            loss += d * d;
            self.scale.grad[j] += 2.0 * strength * d;
        }
        strength * loss
    }

    fn name(&self) -> &'static str {
        "ScaleDrop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn dropout_identity_in_eval() {
        let mut r = rng();
        let mut d = Dropout::new(0.8);
        let x = Tensor::ones(&[2, 10]);
        assert_eq!(d.forward(&x, Mode::Eval, &mut r), x);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut r = rng();
        let mut d = Dropout::new(0.3);
        let x = Tensor::ones(&[1, 2000]);
        let y = d.forward(&x, Mode::Train, &mut r);
        assert!((y.mean() - 1.0).abs() < 0.1, "inverted scaling keeps E[y]=x");
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut r = rng();
        let mut d = Dropout::new(0.5);
        let x = Tensor::ones(&[1, 50]);
        let y = d.forward(&x, Mode::Train, &mut r);
        let g = d.backward(&Tensor::ones(&[1, 50]));
        assert_eq!(g, y, "gradient mask equals forward mask for unit input/grad");
    }

    #[test]
    fn spatial_dropout_drops_whole_channels() {
        let mut r = rng();
        let mut d = SpatialDropout::new(0.5);
        let x = Tensor::ones(&[1, 8, 4, 4]);
        let y = d.forward(&x, Mode::Sample, &mut r);
        for ci in 0..8 {
            let ch: Vec<f32> = (0..16).map(|si| y[ci * 16 + si]).collect();
            let all_zero = ch.iter().all(|&v| v == 0.0);
            let all_kept = ch.iter().all(|&v| (v - 2.0).abs() < 1e-6);
            assert!(all_zero || all_kept, "channel {ci} must drop atomically: {ch:?}");
        }
    }

    #[test]
    fn spatial_dropout_2d_acts_per_feature() {
        let mut r = rng();
        let mut d = SpatialDropout::new(0.5);
        let x = Tensor::ones(&[4, 64]);
        let y = d.forward(&x, Mode::Sample, &mut r);
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 0 && zeros < 256);
    }

    #[test]
    fn scale_drop_kept_path_scales() {
        let mut r = rng();
        let mut d = ScaleDrop::new(3, 0.0);
        d.scale.value = Tensor::from_vec(vec![2.0, 0.5, 1.0], &[3]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = d.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y.as_slice(), &[2.0, 1.0, 3.0]);
    }

    #[test]
    fn scale_drop_dropped_path_is_identity() {
        let mut r = rng();
        // p ≈ 1 → essentially always dropped in stochastic mode.
        let mut d = ScaleDrop::new(3, 0.99);
        d.scale.value = Tensor::from_vec(vec![5.0, 5.0, 5.0], &[3]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let mut identity_seen = false;
        for _ in 0..50 {
            let y = d.forward(&x, Mode::Sample, &mut r);
            if y == x {
                identity_seen = true;
                break;
            }
        }
        assert!(identity_seen, "dropped scale must modulate to identity");
    }

    #[test]
    fn scale_drop_gradients() {
        let mut r = rng();
        let mut d = ScaleDrop::new(2, 0.0);
        d.scale.value = Tensor::from_vec(vec![2.0, 3.0], &[2]);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let _ = d.forward(&x, Mode::Train, &mut r);
        let g = d.backward(&Tensor::ones(&[1, 2]));
        assert_eq!(g.as_slice(), &[2.0, 3.0], "dx = g·s");
        assert_eq!(d.scale.grad.as_slice(), &[1.0, 2.0], "ds = g·x");
    }

    #[test]
    fn scale_drop_regularizer_pulls_to_one() {
        let mut d = ScaleDrop::new(2, 0.0);
        d.scale.value = Tensor::from_vec(vec![2.0, 0.5], &[2]);
        let loss = d.reg_loss(0.1);
        assert!((loss - 0.1 * (1.0 + 0.25)) < 1e-6);
        assert!(d.scale.grad[0] > 0.0, "s > 1 pushed down");
        assert!(d.scale.grad[1] < 0.0, "s < 1 pushed up");
    }

    #[test]
    fn adaptive_p_grows_with_layer_size() {
        let small = ScaleDrop::adaptive_p(0.2, 100);
        let large = ScaleDrop::adaptive_p(0.2, 1_000_000);
        assert!(small < large);
        assert!((large - 0.2).abs() < 1e-6, "saturates at base for 1e6 params");
    }

    #[test]
    fn rng_draw_counts_match_paper_hierarchy() {
        let d = Dropout::new(0.1);
        let s = SpatialDropout::new(0.1);
        let sc = ScaleDrop::new(64, 0.1);
        // Conv layer with 64 maps of 8×8: 4096 activations.
        assert_eq!(d.rng_draws_per_pass(64 * 8 * 8), 4096);
        assert_eq!(s.rng_draws_per_pass(64), 64);
        assert_eq!(sc.rng_draws_per_pass(), 1);
    }
}
