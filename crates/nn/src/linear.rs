//! Fully-connected layers: real-valued, binary (XNOR-style), and
//! DropConnect variants.

use crate::conv::{binarize_into, row_scales, ste_accumulate};
use crate::gemm::{gemm, Lhs, Rhs};
use crate::init::kaiming_uniform;
use crate::layer::{Layer, Mode, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::RngExt;

/// A dense affine layer: `y = x Wᵀ + b`, weights `[out, in]`.
///
/// # Examples
///
/// ```
/// use neuspin_nn::{Linear, Layer, Mode, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut layer = Linear::new(4, 3, &mut rng);
/// let x = Tensor::ones(&[2, 4]);
/// let y = layer.forward(&x, Mode::Eval, &mut rng);
/// assert_eq!(y.shape(), &[2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    input: Option<Tensor>,
    /// The forward weight transposed to `[in, out]`.
    weight_t: Tensor,
    /// The weight gradient of the last backward pass.
    grad_w: Tensor,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        assert!(in_features > 0 && out_features > 0, "dimensions must be positive");
        Self {
            weight: Param::new(kaiming_uniform(&[out_features, in_features], in_features, rng)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            input: None,
            weight_t: Tensor::default(),
            grad_w: Tensor::default(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Borrows the weight matrix `[out, in]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Borrows the bias vector `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }
}

/// Keeps a copy of the forward input for backward, in the buffer of
/// the last one.
fn cache_input(slot: &mut Option<Tensor>, input: &Tensor) {
    slot.get_or_insert_with(Tensor::default).copy_from(input);
}

/// `input · weight_t + bias` with `weight_t` the `[in, out]` transpose
/// of the forward weight; the bias is added after each sum.
fn affine(input: &Tensor, weight_t: &Tensor, bias: &Tensor) -> Tensor {
    let mut out = input.matmul(weight_t);
    for row in out.as_mut_slice().chunks_exact_mut(bias.len()) {
        for (o, &b) in row.iter_mut().zip(bias.as_slice()) {
            *o += b;
        }
    }
    out
}

/// The backward pass of `y = x · Wᵀ + b` for forward weight `weight`
/// (`[out, in]`): `dW = gradᵀ · x` into `grad_w`, `db += Σ_batch grad`,
/// and the returned `dx = grad · W`.
fn affine_backward(grad_out: &Tensor, input: &Tensor, weight: &Tensor, grad_w: &mut Tensor, bias_grad: &mut Tensor) -> Tensor {
    let (n, f) = (grad_out.shape()[0], grad_out.shape()[1]);
    let i = input.shape()[1];
    grad_w.resize_to(&[f, i]);
    grad_w.as_mut_slice().fill(0.0);
    gemm(Lhs::Cols { data: grad_out.as_slice(), ld: f }, f, n, &Rhs::new(input.as_slice(), i), grad_w.as_mut_slice());
    for (j, bg) in bias_grad.as_mut_slice().iter_mut().enumerate() {
        let mut s = 0.0;
        for row in grad_out.as_slice().chunks_exact(f) {
            s += row[j];
        }
        *bg += s;
    }
    grad_out.matmul(weight)
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, _mode: Mode, _rng: &mut StdRng) -> Tensor {
        assert_eq!(input.ndim(), 2, "Linear expects [N, in], got {:?}", input.shape());
        assert_eq!(input.shape()[1], self.in_features(), "feature mismatch");
        cache_input(&mut self.input, input);
        self.weight.value.transpose_into(&mut self.weight_t);
        affine(input, &self.weight_t, &self.bias.value)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.input.as_ref().expect("backward before forward");
        let grad_in = affine_backward(grad_out, input, &self.weight.value, &mut self.grad_w, &mut self.bias.grad);
        self.weight.grad.axpy(1.0, &self.grad_w);
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        f("weight", &mut self.weight);
        f("bias", &mut self.bias);
    }

    fn name(&self) -> &'static str {
        "Linear"
    }
}

/// A binary-weight dense layer (XNOR-style).
///
/// Weights are stored full-precision ("latent weights") and binarized on
/// every forward pass: `W_b = α · sign(W)` with one scale `α` per output
/// row (`α = mean |W_row|`). Gradients use the straight-through
/// estimator, clipped where `|w| > 1`. This is the layer that maps
/// directly onto a NeuSpin MTJ crossbar: the `sign` bits go into the
/// 2-cell differential bit-cells and `α` folds into the digital
/// periphery.
#[derive(Debug, Clone)]
pub struct BinaryLinear {
    weight: Param,
    bias: Param,
    input: Option<Tensor>,
    binarized: Option<Tensor>,
    alphas: Vec<f32>,
    /// `binarized` transposed to `[in, out]`.
    binarized_t: Tensor,
    /// The gradient w.r.t. the binarized weights of the last backward.
    grad_wb: Tensor,
}

impl BinaryLinear {
    /// Creates a layer with Kaiming-uniform latent weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        assert!(in_features > 0 && out_features > 0, "dimensions must be positive");
        Self {
            weight: Param::new(kaiming_uniform(&[out_features, in_features], in_features, rng)),
            bias: Param::new(Tensor::zeros(&[out_features])),
            input: None,
            binarized: None,
            alphas: vec![0.0; out_features],
            binarized_t: Tensor::default(),
            grad_wb: Tensor::default(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// The latent (full-precision) weights.
    pub fn latent_weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The sign pattern of the current weights (+1 / −1), the bits a
    /// crossbar would store.
    pub fn sign_weights(&self) -> Tensor {
        self.weight.value.map(|w| if w >= 0.0 { 1.0 } else { -1.0 })
    }

    /// Per-output-row binarization scales α (mean |w|).
    pub fn scales(&self) -> Vec<f32> {
        row_scales(&self.weight.value)
    }

    /// Borrows the bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }
}

impl Layer for BinaryLinear {
    fn forward(&mut self, input: &Tensor, _mode: Mode, _rng: &mut StdRng) -> Tensor {
        assert_eq!(input.ndim(), 2, "BinaryLinear expects [N, in], got {:?}", input.shape());
        assert_eq!(input.shape()[1], self.in_features(), "feature mismatch");
        cache_input(&mut self.input, input);
        self.alphas = self.scales();
        let wb = self.binarized.get_or_insert_with(Tensor::default);
        binarize_into(&self.weight.value, &self.alphas, wb, &mut self.binarized_t);
        affine(input, &self.binarized_t, &self.bias.value)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.input.as_ref().expect("backward before forward");
        let wb = self.binarized.as_ref().expect("backward before forward");
        let grad_in = affine_backward(grad_out, input, wb, &mut self.grad_wb, &mut self.bias.grad);
        ste_accumulate(&mut self.weight, &self.grad_wb, &self.alphas);
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        f("weight", &mut self.weight);
        f("bias", &mut self.bias);
    }

    fn name(&self) -> &'static str {
        "BinaryLinear"
    }
}

/// A DropConnect dense layer: an independent Bernoulli mask is applied
/// to every *weight* on each stochastic pass (MC-DropConnect, one of the
/// Bayesian baselines the paper compares module counts against — it
/// needs one RNG per weight).
#[derive(Debug, Clone)]
pub struct DropConnectLinear {
    inner: Linear,
    /// Per-weight drop probability.
    p: f32,
    mask: Option<Tensor>,
}

impl DropConnectLinear {
    /// Creates the layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(in_features: usize, out_features: usize, p: f32, rng: &mut StdRng) -> Self {
        assert!((0.0..1.0).contains(&p), "p must be in [0, 1), got {p}");
        Self { inner: Linear::new(in_features, out_features, rng), p, mask: None }
    }

    /// The drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Number of Bernoulli draws (RNG invocations) per stochastic pass:
    /// one per weight.
    pub fn rng_draws_per_pass(&self) -> usize {
        self.inner.weight.value.len()
    }
}

impl Layer for DropConnectLinear {
    fn forward(&mut self, input: &Tensor, mode: Mode, rng: &mut StdRng) -> Tensor {
        if !mode.stochastic() || self.p == 0.0 {
            self.mask = None;
            return self.inner.forward(input, mode, rng);
        }
        let keep = 1.0 - self.p;
        let mask = Tensor::from_fn(self.inner.weight.value.shape(), |_| {
            if rng.random::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let masked = &self.inner.weight.value * &mask;
        cache_input(&mut self.inner.input, input);
        masked.transpose_into(&mut self.inner.weight_t);
        let out = affine(input, &self.inner.weight_t, &self.inner.bias.value);
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.mask.take() {
            None => self.inner.backward(grad_out),
            Some(mask) => {
                let masked = &self.inner.weight.value * &mask;
                let inner = &mut self.inner;
                let input = inner.input.as_ref().expect("backward before forward");
                let grad_in = affine_backward(grad_out, input, &masked, &mut inner.grad_w, &mut inner.bias.grad);
                inner.weight.grad.axpy(1.0, &(&inner.grad_w * &mask));
                grad_in
            }
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        self.inner.visit_params(f);
    }

    fn name(&self) -> &'static str {
        "DropConnectLinear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{grad_check_input, grad_check_params};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn linear_forward_shape_and_values() {
        let mut r = rng();
        let mut l = Linear::new(3, 2, &mut r);
        // Set known weights.
        l.weight.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &[2, 3]);
        l.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = l.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y.as_slice(), &[1.5, 1.5]);
    }

    #[test]
    fn linear_grad_check() {
        let mut r = rng();
        let mut l = Linear::new(4, 3, &mut r);
        let x = Tensor::from_fn(&[2, 4], |i| (i as f32 * 0.37).sin());
        assert!(grad_check_input(&mut l, &x, Mode::Eval, 1, 1e-2) < 1e-2);
        assert!(grad_check_params(&mut l, &x, Mode::Eval, 1, 1e-2) < 1e-2);
    }

    #[test]
    fn binary_linear_uses_sign_weights() {
        let mut r = rng();
        let mut l = BinaryLinear::new(2, 1, &mut r);
        l.weight.value = Tensor::from_vec(vec![0.3, -0.7], &[1, 2]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(&x, Mode::Eval, &mut r);
        // α = (0.3 + 0.7)/2 = 0.5; y = 0.5·(+1) + 0.5·(−1) = 0.
        assert!((y[0] - 0.0).abs() < 1e-6);
        assert_eq!(l.sign_weights().as_slice(), &[1.0, -1.0]);
        assert!((l.scales()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn binary_linear_ste_masks_large_weights() {
        let mut r = rng();
        let mut l = BinaryLinear::new(2, 1, &mut r);
        l.weight.value = Tensor::from_vec(vec![0.5, 2.0], &[1, 2]);
        let x = Tensor::ones(&[1, 2]);
        let _ = l.forward(&x, Mode::Train, &mut r);
        let _ = l.backward(&Tensor::ones(&[1, 1]));
        assert_ne!(l.weight.grad[0], 0.0, "in-range weight gets gradient");
        assert_eq!(l.weight.grad[1], 0.0, "|w| > 1 is clipped by STE");
    }

    #[test]
    fn binary_linear_trains_toward_targets() {
        // A sanity check that STE training reduces loss on a toy task.
        let mut r = rng();
        let mut l = BinaryLinear::new(4, 2, &mut r);
        let x = Tensor::from_fn(&[8, 4], |i| ((i * 31 % 17) as f32 / 8.5) - 1.0);
        let target = Tensor::from_fn(&[8, 2], |i| if i % 2 == 0 { 1.0 } else { -1.0 });
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            l.zero_grad();
            let y = l.forward(&x, Mode::Train, &mut r);
            let diff = &y - &target;
            last_loss = 0.5 * diff.norm_sq();
            first_loss.get_or_insert(last_loss);
            let _ = l.backward(&diff);
            l.visit_params(&mut |_, p| {
                let g = p.grad.clone();
                p.value.axpy(-0.05, &g);
            });
        }
        assert!(last_loss < 0.5 * first_loss.unwrap(), "{last_loss} vs {first_loss:?}");
    }

    #[test]
    fn dropconnect_eval_is_deterministic() {
        let mut r = rng();
        let mut l = DropConnectLinear::new(5, 3, 0.5, &mut r);
        let x = Tensor::ones(&[1, 5]);
        let y1 = l.forward(&x, Mode::Eval, &mut r);
        let y2 = l.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y1, y2);
    }

    #[test]
    fn dropconnect_sample_is_stochastic() {
        let mut r = rng();
        let mut l = DropConnectLinear::new(16, 4, 0.5, &mut r);
        let x = Tensor::ones(&[1, 16]);
        let y1 = l.forward(&x, Mode::Sample, &mut r);
        let y2 = l.forward(&x, Mode::Sample, &mut r);
        assert_ne!(y1, y2, "two MC samples should differ");
    }

    #[test]
    fn dropconnect_mask_preserves_expectation() {
        let mut r = rng();
        let mut l = DropConnectLinear::new(32, 1, 0.3, &mut r);
        let x = Tensor::ones(&[1, 32]);
        let reference = l.forward(&x, Mode::Eval, &mut r)[0];
        let mut acc = 0.0;
        let n = 3000;
        for _ in 0..n {
            acc += l.forward(&x, Mode::Sample, &mut r)[0];
        }
        let mc = acc / n as f32;
        assert!((mc - reference).abs() < 0.1, "MC mean {mc} vs reference {reference}");
    }

    #[test]
    fn dropconnect_rng_draw_count() {
        let mut r = rng();
        let l = DropConnectLinear::new(10, 4, 0.2, &mut r);
        assert_eq!(l.rng_draws_per_pass(), 40);
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn linear_rejects_wrong_width() {
        let mut r = rng();
        let mut l = Linear::new(3, 2, &mut r);
        let x = Tensor::ones(&[1, 4]);
        let _ = l.forward(&x, Mode::Eval, &mut r);
    }
}
