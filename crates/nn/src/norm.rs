//! Normalization layers: batch normalization and NeuSpin's *inverted
//! normalization with affine dropout* (the self-healing layer of
//! §III-A4).
//!
//! Inverted normalization swaps the usual order: the learnable affine
//! transform `a = γ·x + β` is applied **first** (γ, β are treated
//! exactly like weights, trained by gradient descent), and the
//! normalization — statistic computation and whitening — happens
//! **after**, with *per-sample* statistics. Per-sample statistics are
//! what makes the layer self-healing on CIM hardware: a multiplicative
//! conductance drift or additive column offset introduced by the
//! crossbar is renormalized away sample by sample, with no dependence on
//! stored running statistics that the drift would invalidate.
//!
//! Affine dropout adds stochasticity for Bayesian inference: with
//! probability `p` the whole γ vector is replaced by ones, and
//! (independently) the whole β vector by zeros — *scalar* masks, so the
//! layer needs only two RNG draws per pass regardless of width.

use crate::layer::{Layer, Mode, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::RngExt;

const EPS: f32 = 1e-5;

/// Batch normalization over `[N, F]` (per feature) or `[N, C, H, W]`
/// (per channel), with running statistics for inference.
///
/// # Examples
///
/// ```
/// use neuspin_nn::{BatchNorm, Layer, Mode, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut bn = BatchNorm::new(4);
/// let x = Tensor::from_fn(&[8, 4], |i| i as f32);
/// let y = bn.forward(&x, Mode::Train, &mut rng);
/// // Each feature column is whitened.
/// assert!(y.mean().abs() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    // Caches for backward.
    xhat: Option<Tensor>,
    inv_std: Vec<f32>,
    group: usize,
    features: usize,
}

impl BatchNorm {
    /// Creates a batch-norm layer over `features` features/channels.
    ///
    /// # Panics
    ///
    /// Panics if `features == 0`.
    pub fn new(features: usize) -> Self {
        assert!(features > 0, "features must be positive");
        Self {
            gamma: Param::new(Tensor::ones(&[features])),
            beta: Param::new(Tensor::zeros(&[features])),
            running_mean: vec![0.0; features],
            running_var: vec![1.0; features],
            momentum: 0.1,
            xhat: None,
            inv_std: vec![],
            group: 0,
            features,
        }
    }

    /// Number of normalized features/channels.
    pub fn features(&self) -> usize {
        self.features
    }

    /// `(feature_count, elements_per_feature_per_sample)` for a given
    /// input shape.
    fn layout(&self, shape: &[usize]) -> (usize, usize) {
        match shape.len() {
            2 => (shape[1], 1),
            4 => (shape[1], shape[2] * shape[3]),
            _ => panic!("BatchNorm expects [N,F] or [N,C,H,W], got {shape:?}"),
        }
    }
}

impl Layer for BatchNorm {
    fn forward(&mut self, input: &Tensor, mode: Mode, _rng: &mut StdRng) -> Tensor {
        let (f, spatial) = self.layout(input.shape());
        assert_eq!(f, self.features, "feature mismatch: {f} vs {}", self.features);
        let n = input.shape()[0];
        let group = n * spatial; // elements normalized together per feature
        self.group = group;
        let x = input.as_slice();
        // The elements of feature `fi`, sample-major then spatial.
        let planes = |fi: usize| (0..n).flat_map(move |ni| &x[(ni * f + fi) * spatial..][..spatial]);

        let (mean, var): (Vec<f32>, Vec<f32>) = if mode.batch_stats() {
            let batch: Vec<(f32, f32)> = (0..f)
                .map(|fi| {
                    let mut s = 0.0;
                    for &v in planes(fi) {
                        s += v;
                    }
                    let mean = s / group as f32;
                    let mut var = 0.0;
                    for &v in planes(fi) {
                        let d = v - mean;
                        var += d * d;
                    }
                    (mean, var / group as f32)
                })
                .collect();
            // Update running statistics.
            for (fi, &(mean, var)) in batch.iter().enumerate() {
                self.running_mean[fi] = (1.0 - self.momentum) * self.running_mean[fi] + self.momentum * mean;
                self.running_var[fi] = (1.0 - self.momentum) * self.running_var[fi] + self.momentum * var;
            }
            batch.into_iter().unzip()
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        self.inv_std = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let mut xhat = self.xhat.take().unwrap_or_default();
        xhat.resize_to(input.shape());
        let mut out = Tensor::zeros(input.shape());
        if spatial > 0 && f > 0 {
            let params = mean.iter().zip(&self.inv_std).zip(self.gamma.value.as_slice().iter().zip(self.beta.value.as_slice()));
            let planes = x.chunks_exact(spatial).zip(xhat.as_mut_slice().chunks_exact_mut(spatial)).zip(out.as_mut_slice().chunks_exact_mut(spatial));
            for (((x, h), o), ((&mean, &inv), (&g, &b))) in planes.zip(params.cycle()) {
                for ((&x, h), o) in x.iter().zip(h.iter_mut()).zip(o.iter_mut()) {
                    let v = (x - mean) * inv;
                    *h = v;
                    *o = g * v + b;
                }
            }
        }
        self.xhat = Some(xhat);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let xhat = self.xhat.as_ref().expect("backward before forward");
        let (f, spatial) = self.layout(grad_out.shape());
        let n = grad_out.shape()[0];
        let m = self.group as f32;
        let (g_all, h_all) = (grad_out.as_slice(), xhat.as_slice());
        let plane = |fi: usize, ni: usize| (ni * f + fi) * spatial..(ni * f + fi + 1) * spatial;

        let mut grad_in = Tensor::zeros(grad_out.shape());
        for fi in 0..f {
            let mut sum_g = 0.0f32;
            let mut sum_gh = 0.0f32;
            for ni in 0..n {
                for (&g, &h) in g_all[plane(fi, ni)].iter().zip(&h_all[plane(fi, ni)]) {
                    sum_g += g;
                    sum_gh += g * h;
                }
            }
            self.beta.grad[fi] += sum_g;
            self.gamma.grad[fi] += sum_gh;
            let gs = self.gamma.value[fi] * self.inv_std[fi];
            let mean_g = sum_g / m;
            for ni in 0..n {
                let range = plane(fi, ni);
                let dst = &mut grad_in.as_mut_slice()[range.clone()];
                for ((d, &g), &h) in dst.iter_mut().zip(&g_all[range.clone()]).zip(&h_all[range]) {
                    *d = gs * (g - mean_g - h * sum_gh / m);
                }
            }
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        f("gamma", &mut self.gamma);
        f("beta", &mut self.beta);
    }

    fn name(&self) -> &'static str {
        "BatchNorm"
    }
}

/// Inverted normalization with optional affine dropout (§III-A4).
///
/// Forward (per sample `i`, features `j` — for NCHW inputs the feature
/// axis is the channel and statistics run over `C·H·W`):
///
/// ```text
/// a_ij = γ_j · x_ij + β_j          (affine FIRST; γ, β are weights)
/// y_ij = (a_ij − μ_i) / σ_i        (per-sample whitening, NO affine after)
/// ```
///
/// With affine dropout probability `p > 0` and a stochastic
/// [`Mode`], two scalar Bernoulli masks are drawn per pass: if the
/// weight mask drops, γ is replaced by **ones**; if the bias mask drops,
/// β is replaced by **zeros**. Two RNG draws per layer per pass — the
/// entire point of the design versus per-element dropout.
///
/// # Examples
///
/// ```
/// use neuspin_nn::{InvertedNorm, Layer, Mode, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let mut layer = InvertedNorm::new(8, 0.2);
/// let x = Tensor::from_fn(&[4, 8], |i| (i as f32).cos());
/// let y = layer.forward(&x, Mode::Sample, &mut rng);
/// assert_eq!(y.shape(), &[4, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct InvertedNorm {
    gamma: Param,
    beta: Param,
    /// Affine-dropout probability (0 disables the dropout entirely).
    p: f32,
    // Caches.
    input: Option<Tensor>,
    y: Option<Tensor>,
    inv_std: Vec<f32>,
    gamma_kept: bool,
    beta_kept: bool,
    features: usize,
}

impl InvertedNorm {
    /// Creates the layer over `features` features/channels with affine
    /// dropout probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `features == 0` or `p ∉ [0, 1)`.
    pub fn new(features: usize, p: f32) -> Self {
        assert!(features > 0, "features must be positive");
        assert!((0.0..1.0).contains(&p), "p must be in [0, 1), got {p}");
        Self {
            gamma: Param::new(Tensor::ones(&[features])),
            beta: Param::new(Tensor::zeros(&[features])),
            p,
            input: None,
            y: None,
            inv_std: vec![],
            gamma_kept: true,
            beta_kept: true,
            features,
        }
    }

    /// Number of features/channels.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Affine-dropout probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// RNG draws per stochastic pass (always 2: scalar masks).
    pub fn rng_draws_per_pass(&self) -> usize {
        2
    }

    fn layout(&self, shape: &[usize]) -> (usize, usize) {
        match shape.len() {
            2 => (shape[1], 1),
            4 => (shape[1], shape[2] * shape[3]),
            _ => panic!("InvertedNorm expects [N,F] or [N,C,H,W], got {shape:?}"),
        }
    }
}

impl Layer for InvertedNorm {
    fn forward(&mut self, input: &Tensor, mode: Mode, rng: &mut StdRng) -> Tensor {
        let (f, spatial) = self.layout(input.shape());
        assert_eq!(f, self.features, "feature mismatch: {f} vs {}", self.features);
        let n = input.shape()[0];
        let m = (f * spatial) as f32;
        let idx = |ni: usize, fi: usize, si: usize| (ni * f + fi) * spatial + si;

        // Affine dropout: scalar masks.
        if self.p > 0.0 && mode.stochastic() {
            self.gamma_kept = rng.random::<f32>() >= self.p;
            self.beta_kept = rng.random::<f32>() >= self.p;
        } else {
            self.gamma_kept = true;
            self.beta_kept = true;
        }

        let mut a = Tensor::zeros(input.shape());
        for ni in 0..n {
            for fi in 0..f {
                let g = if self.gamma_kept { self.gamma.value[fi] } else { 1.0 };
                let b = if self.beta_kept { self.beta.value[fi] } else { 0.0 };
                for si in 0..spatial {
                    let i = idx(ni, fi, si);
                    a[i] = g * input[i] + b;
                }
            }
        }

        // Per-sample whitening over all features.
        let mut out = Tensor::zeros(input.shape());
        self.inv_std = vec![0.0; n];
        for ni in 0..n {
            let mut mean = 0.0f32;
            for fi in 0..f {
                for si in 0..spatial {
                    mean += a[idx(ni, fi, si)];
                }
            }
            mean /= m;
            let mut var = 0.0f32;
            for fi in 0..f {
                for si in 0..spatial {
                    let d = a[idx(ni, fi, si)] - mean;
                    var += d * d;
                }
            }
            var /= m;
            let inv = 1.0 / (var + EPS).sqrt();
            self.inv_std[ni] = inv;
            for fi in 0..f {
                for si in 0..spatial {
                    let i = idx(ni, fi, si);
                    out[i] = (a[i] - mean) * inv;
                }
            }
        }
        self.input = Some(input.clone());
        self.y = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.input.as_ref().expect("backward before forward");
        let y = self.y.as_ref().expect("backward before forward");
        let (f, spatial) = self.layout(grad_out.shape());
        let n = grad_out.shape()[0];
        let m = (f * spatial) as f32;
        let idx = |ni: usize, fi: usize, si: usize| (ni * f + fi) * spatial + si;

        // Layer-norm backward per sample: da = inv_std · (g − mean(g) − y · mean(g·y)).
        let mut da = Tensor::zeros(grad_out.shape());
        for ni in 0..n {
            let mut mean_g = 0.0f32;
            let mut mean_gy = 0.0f32;
            for fi in 0..f {
                for si in 0..spatial {
                    let i = idx(ni, fi, si);
                    mean_g += grad_out[i];
                    mean_gy += grad_out[i] * y[i];
                }
            }
            mean_g /= m;
            mean_gy /= m;
            let inv = self.inv_std[ni];
            for fi in 0..f {
                for si in 0..spatial {
                    let i = idx(ni, fi, si);
                    da[i] = inv * (grad_out[i] - mean_g - y[i] * mean_gy);
                }
            }
        }

        // Through the affine: dγ_j = Σ da·x (if kept), dβ_j = Σ da (if kept),
        // dx = da · γ_eff.
        let mut grad_in = Tensor::zeros(grad_out.shape());
        for fi in 0..f {
            let g_eff = if self.gamma_kept { self.gamma.value[fi] } else { 1.0 };
            let mut dg = 0.0f32;
            let mut db = 0.0f32;
            for ni in 0..n {
                for si in 0..spatial {
                    let i = idx(ni, fi, si);
                    dg += da[i] * input[i];
                    db += da[i];
                    grad_in[i] = da[i] * g_eff;
                }
            }
            if self.gamma_kept {
                self.gamma.grad[fi] += dg;
            }
            if self.beta_kept {
                self.beta.grad[fi] += db;
            }
        }
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        f("gamma", &mut self.gamma);
        f("beta", &mut self.beta);
    }

    fn name(&self) -> &'static str {
        "InvertedNorm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{grad_check_input, grad_check_params};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    #[test]
    fn batchnorm_whitens_in_train_mode() {
        let mut r = rng();
        let mut bn = BatchNorm::new(3);
        let x = Tensor::from_fn(&[16, 3], |i| (i as f32 * 1.7) % 5.0 + (i % 3) as f32 * 10.0);
        let y = bn.forward(&x, Mode::Train, &mut r);
        for fi in 0..3 {
            let col: Vec<f32> = (0..16).map(|n| y[n * 3 + fi]).collect();
            let mean: f32 = col.iter().sum::<f32>() / 16.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut r = rng();
        let mut bn = BatchNorm::new(2);
        let x = Tensor::from_fn(&[32, 2], |i| i as f32 * 0.1);
        // Several training passes to accumulate running stats.
        for _ in 0..50 {
            let _ = bn.forward(&x, Mode::Train, &mut r);
        }
        let y_eval = bn.forward(&x, Mode::Eval, &mut r);
        let y_sample = bn.forward(&x, Mode::Sample, &mut r);
        assert_eq!(y_eval, y_sample, "Eval and Sample use the same running stats");
        // Running stats converged to batch stats, so eval ≈ train output.
        let y_train = bn.forward(&x, Mode::Train, &mut r);
        let diff = (&y_eval - &y_train).map(f32::abs).max();
        assert!(diff < 0.05, "diff {diff}");
    }

    #[test]
    fn batchnorm_grad_check_2d() {
        let mut bn = BatchNorm::new(3);
        // Non-trivial gamma/beta.
        bn.gamma.value = Tensor::from_vec(vec![1.5, 0.5, 2.0], &[3]);
        bn.beta.value = Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]);
        let x = Tensor::from_fn(&[5, 3], |i| (i as f32 * 0.77).sin());
        assert!(grad_check_input(&mut bn, &x, Mode::Train, 1, 1e-2) < 2e-2);
        assert!(grad_check_params(&mut bn, &x, Mode::Train, 1, 1e-2) < 2e-2);
    }

    #[test]
    fn batchnorm_4d_shapes() {
        let mut r = rng();
        let mut bn = BatchNorm::new(4);
        let x = Tensor::from_fn(&[2, 4, 3, 3], |i| (i as f32 * 0.3).cos());
        let y = bn.forward(&x, Mode::Train, &mut r);
        assert_eq!(y.shape(), x.shape());
        let g = bn.backward(&y);
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn inverted_norm_output_is_whitened_per_sample() {
        let mut r = rng();
        let mut layer = InvertedNorm::new(8, 0.0);
        let x = Tensor::from_fn(&[4, 8], |i| (i as f32 * 0.9).sin() * 3.0 + 1.0);
        let y = layer.forward(&x, Mode::Eval, &mut r);
        for ni in 0..4 {
            let row: Vec<f32> = (0..8).map(|j| y[ni * 8 + j]).collect();
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn inverted_norm_self_heals_input_scaling() {
        // The self-healing property: a global multiplicative drift on the
        // input (conductance variation) leaves the output unchanged.
        let mut r = rng();
        let mut layer = InvertedNorm::new(8, 0.0);
        let x = Tensor::from_fn(&[2, 8], |i| (i as f32 * 0.5).cos());
        let y1 = layer.forward(&x, Mode::Eval, &mut r);
        let drifted = &x * 1.37; // 37 % conductance drift
        let y2 = layer.forward(&drifted, Mode::Eval, &mut r);
        let diff = (&y1 - &y2).map(f32::abs).max();
        assert!(diff < 1e-4, "scaling must be healed, diff {diff}");
    }

    #[test]
    fn inverted_norm_grad_check() {
        let mut layer = InvertedNorm::new(4, 0.0);
        layer.gamma.value = Tensor::from_vec(vec![1.2, 0.8, 1.5, 0.6], &[4]);
        layer.beta.value = Tensor::from_vec(vec![0.1, -0.3, 0.2, 0.0], &[4]);
        let x = Tensor::from_fn(&[3, 4], |i| (i as f32 * 0.63).sin());
        assert!(grad_check_input(&mut layer, &x, Mode::Eval, 1, 1e-2) < 2e-2);
        assert!(grad_check_params(&mut layer, &x, Mode::Eval, 1, 1e-2) < 2e-2);
    }

    #[test]
    fn affine_dropout_grad_check_with_masks_active() {
        // Under a fixed seed the scalar masks are reproducible, so the
        // finite-difference check remains valid in Sample mode.
        let mut layer = InvertedNorm::new(4, 0.5);
        let x = Tensor::from_fn(&[3, 4], |i| (i as f32 * 0.41).cos());
        assert!(grad_check_input(&mut layer, &x, Mode::Sample, 3, 1e-2) < 2e-2);
    }

    #[test]
    fn affine_dropout_is_stochastic_in_sample_mode() {
        let mut r = rng();
        let mut layer = InvertedNorm::new(6, 0.5);
        // Make γ, β distinctive so dropping them changes the output.
        layer.gamma.value = Tensor::from_fn(&[6], |i| 1.0 + i as f32);
        layer.beta.value = Tensor::from_fn(&[6], |i| i as f32 * 0.5);
        let x = Tensor::from_fn(&[1, 6], |i| (i as f32 * 0.7).sin());
        let outputs: Vec<Tensor> =
            (0..20).map(|_| layer.forward(&x, Mode::Sample, &mut r)).collect();
        let distinct = outputs
            .iter()
            .any(|o| (o - &outputs[0]).map(f32::abs).max() > 1e-6);
        assert!(distinct, "affine dropout must vary outputs across samples");
    }

    #[test]
    fn affine_dropout_inactive_in_eval() {
        let mut r = rng();
        let mut layer = InvertedNorm::new(6, 0.5);
        layer.gamma.value = Tensor::from_fn(&[6], |i| 1.0 + i as f32);
        let x = Tensor::from_fn(&[1, 6], |i| (i as f32 * 0.7).sin());
        let y1 = layer.forward(&x, Mode::Eval, &mut r);
        let y2 = layer.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y1, y2);
    }

    #[test]
    fn dropped_gamma_receives_no_gradient() {
        use rand::SeedableRng;
        let mut layer = InvertedNorm::new(4, 0.999);
        let x = Tensor::from_fn(&[2, 4], |i| i as f32 * 0.3 + 0.1);
        // With p≈1 both masks drop (probability (0.999)² per draw pair).
        let mut r = StdRng::seed_from_u64(5);
        let y = layer.forward(&x, Mode::Sample, &mut r);
        assert!(!layer.gamma_kept && !layer.beta_kept, "masks should have dropped");
        layer.zero_grad();
        let _ = layer.backward(&y);
        assert_eq!(layer.gamma.grad.sum(), 0.0);
        assert_eq!(layer.beta.grad.sum(), 0.0);
    }
}
