//! 2-D convolution layers (real-valued and binary) via im2col.
//!
//! Tensors are NCHW. The im2col lowering is also exactly how the CIM
//! compiler maps convolutions onto crossbars (mapping strategy ① of
//! Fig. 1 unrolls each `K×K×C_in` kernel into one crossbar column), so
//! the same code path documents both the software and the hardware view.

use crate::gemm::{gemm, Lhs, Rhs};
use crate::init::kaiming_uniform;
use crate::layer::{Layer, Mode, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// Spatial geometry of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel side K.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each side.
    pub padding: usize,
}

impl ConvGeometry {
    /// Output spatial size for an input of side `h`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit.
    pub fn out_size(&self, h: usize) -> usize {
        let padded = h + 2 * self.padding;
        assert!(padded >= self.kernel, "kernel {} larger than padded input {}", self.kernel, padded);
        (padded - self.kernel) / self.stride + 1
    }

    /// Unrolled patch length `C_in · K · K` (the crossbar column height
    /// under mapping strategy ①).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Lowers NCHW input `[n, c, h, w]` to a patch matrix
/// `[n·oh·ow, c·k·k]` (im2col).
pub fn im2col(input: &Tensor, geo: &ConvGeometry) -> Tensor {
    let mut col = Tensor::default();
    im2col_into(input, geo, &mut col);
    col
}

/// The kernel taps `lo..hi` of a window starting at `origin` that land
/// inside an axis of length `len` (an empty range when none do).
fn taps(origin: isize, k: usize, len: usize) -> (usize, usize) {
    let lo = (-origin).clamp(0, k as isize) as usize;
    let hi = (len as isize - origin).clamp(lo as isize, k as isize) as usize;
    (lo, hi)
}

/// [`im2col`] into a caller-provided patch matrix: `col` is resized in
/// place and every element written (padding positions read `0.0`), so
/// repeated calls at one input shape are allocation-free and
/// bit-identical to `im2col`.
pub fn im2col_into(input: &Tensor, geo: &ConvGeometry, col: &mut Tensor) {
    let (n, c, h, w) = shape4(input);
    assert_eq!(c, geo.in_channels, "channel mismatch");
    let (oh, ow) = (geo.out_size(h), geo.out_size(w));
    let (k, s, p) = (geo.kernel, geo.stride, geo.padding as isize);
    let patch = geo.patch_len();
    col.resize_to(&[n * oh * ow, patch]);
    if col.is_empty() {
        return;
    }
    for (x, rows) in input.as_slice().chunks_exact(c * h * w).zip(col.as_mut_slice().chunks_exact_mut(oh * ow * patch)) {
        for (pos, row) in rows.chunks_exact_mut(patch).enumerate() {
            let (y0, x0) = (((pos / ow) * s) as isize - p, ((pos % ow) * s) as isize - p);
            let ((ky_lo, ky_hi), (kx_lo, kx_hi)) = (taps(y0, k, h), taps(x0, k, w));
            for (plane, taps_c) in x.chunks_exact(h * w).zip(row.chunks_exact_mut(k * k)) {
                for (ky, dst) in taps_c.chunks_exact_mut(k).enumerate() {
                    if ky < ky_lo || ky >= ky_hi || kx_lo == kx_hi {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &plane[(y0 + ky as isize) as usize * w..][..w];
                    let src = &src[(x0 + kx_lo as isize) as usize..][..kx_hi - kx_lo];
                    dst[..kx_lo].fill(0.0);
                    for (d, &v) in dst[kx_lo..kx_hi].iter_mut().zip(src) {
                        *d = v;
                    }
                    dst[kx_hi..].fill(0.0);
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatters patch-matrix gradients back to an
/// NCHW gradient of shape `[n, c, h, w]`.
pub fn col2im(grad_col: &Tensor, geo: &ConvGeometry, n: usize, h: usize, w: usize) -> Tensor {
    let (oh, ow) = (geo.out_size(h), geo.out_size(w));
    let patch = geo.patch_len();
    assert_eq!(grad_col.shape(), &[n * oh * ow, patch], "grad_col shape mismatch");
    let mut grad_in = Tensor::zeros(&[n, geo.in_channels, h, w]);
    if !grad_in.is_empty() {
        let plane = geo.in_channels * h * w;
        for (src, dst) in grad_col.as_slice().chunks_exact(oh * ow * patch).zip(grad_in.as_mut_slice().chunks_exact_mut(plane)) {
            col2im_sample(src, geo, h, w, dst);
        }
    }
    grad_in
}

/// [`col2im`] of one sample: adds the `[oh·ow, c·k·k]` patch gradients
/// `src` into the `[c, h, w]` gradient `dst`. Every input element takes
/// its contributions in ascending output position, as the seed loop.
fn col2im_sample(src: &[f32], geo: &ConvGeometry, h: usize, w: usize, dst: &mut [f32]) {
    let ow = geo.out_size(w);
    let (k, s, p) = (geo.kernel, geo.stride, geo.padding as isize);
    for (pos, row) in src.chunks_exact(geo.patch_len()).enumerate() {
        let (y0, x0) = (((pos / ow) * s) as isize - p, ((pos % ow) * s) as isize - p);
        let ((ky_lo, ky_hi), (kx_lo, kx_hi)) = (taps(y0, k, h), taps(x0, k, w));
        if kx_lo == kx_hi {
            continue;
        }
        for (plane, taps_c) in dst.chunks_exact_mut(h * w).zip(row.chunks_exact(k * k)) {
            for ky in ky_lo..ky_hi {
                let d = &mut plane[(y0 + ky as isize) as usize * w..][..w];
                let d = &mut d[(x0 + kx_lo as isize) as usize..][..kx_hi - kx_lo];
                for (d, &v) in d.iter_mut().zip(&taps_c[ky * k + kx_lo..ky * k + kx_hi]) {
                    *d += v;
                }
            }
        }
    }
}

fn shape4(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(t.ndim(), 4, "expected NCHW tensor, got {:?}", t.shape());
    (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3])
}

/// A real-valued 2-D convolution.
///
/// # Examples
///
/// ```
/// use neuspin_nn::{Conv2d, Layer, Mode, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut conv = Conv2d::new(1, 4, 3, 1, 1, &mut rng);
/// let x = Tensor::ones(&[2, 1, 8, 8]);
/// let y = conv.forward(&x, Mode::Eval, &mut rng);
/// assert_eq!(y.shape(), &[2, 4, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    geo: ConvGeometry,
    weight: Param,
    bias: Param,
    /// The last forward input's patch matrix (its buffer is reused).
    col: Option<Tensor>,
    in_hw: (usize, usize, usize),
    /// The forward kernel matrix transposed to `[c·k·k, cout]`.
    weight_t: Tensor,
    /// One sample's `[oh·ow, cout]` product or `[oh·ow, c·k·k]` patch
    /// gradient.
    block: Vec<f32>,
    /// The kernel gradient of the last backward pass.
    grad_w: Tensor,
}

impl Conv2d {
    /// Creates a convolution `in_channels → out_channels` with a square
    /// `kernel`, `stride` and `padding`.
    ///
    /// # Panics
    ///
    /// Panics on zero channels, kernel, or stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
        let geo = ConvGeometry { in_channels, out_channels, kernel, stride, padding };
        let fan_in = geo.patch_len();
        Self {
            weight: Param::new(kaiming_uniform(&[out_channels, fan_in], fan_in, rng)),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            geo,
            col: None,
            in_hw: (0, 0, 0),
            weight_t: Tensor::default(),
            block: Vec::new(),
            grad_w: Tensor::default(),
        }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geo
    }

    /// The weight matrix `[out_channels, in_channels·K·K]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Convolves `input` with the kernel matrix held transposed in
    /// `weight_t`: per sample, the patch rows times `weight_t`, written
    /// into the NCHW output with the bias added after each sum.
    fn forward_transposed(&mut self, input: &Tensor) -> Tensor {
        let (n, _c, h, w) = shape4(input);
        self.in_hw = (n, h, w);
        let (oh, ow) = (self.geo.out_size(h), self.geo.out_size(w));
        let (ohw, cout, patch) = (oh * ow, self.geo.out_channels, self.geo.patch_len());
        let mut col = self.col.take().unwrap_or_default();
        im2col_into(input, &self.geo, &mut col);
        let mut out = Tensor::zeros(&[n, cout, oh, ow]);
        let rhs = Rhs::new(self.weight_t.as_slice(), cout);
        let bias = self.bias.value.as_slice();
        self.block.resize(ohw * cout, 0.0);
        for (col_n, out_n) in col.as_slice().chunks_exact(ohw * patch).zip(out.as_mut_slice().chunks_exact_mut(cout * ohw)) {
            self.block.fill(0.0);
            gemm(Lhs::Rows { data: col_n, ld: patch }, ohw, patch, &rhs, &mut self.block);
            for (co, (plane, &b)) in out_n.chunks_exact_mut(ohw).zip(bias).enumerate() {
                for (o, sums) in plane.iter_mut().zip(self.block.chunks_exact(cout)) {
                    *o = sums[co] + b;
                }
            }
        }
        self.col = Some(col);
        out
    }

    /// ∂L/∂input for the forward kernel matrix `weight` (`None`: the
    /// layer's own), adding the bias gradient and leaving the kernel
    /// gradient in `grad_w`. Sums run over samples, then positions,
    /// the seed's row order.
    fn backward_with(&mut self, grad_out: &Tensor, weight: Option<&Tensor>) -> Tensor {
        let col = self.col.as_ref().expect("backward before forward");
        let weight = weight.unwrap_or(&self.weight.value);
        let (n, h, w) = self.in_hw;
        let (oh, ow) = (self.geo.out_size(h), self.geo.out_size(w));
        let (ohw, cout, patch) = (oh * ow, self.geo.out_channels, self.geo.patch_len());
        let c = self.geo.in_channels;
        assert_eq!(grad_out.shape(), &[n, cout, oh, ow], "grad_out shape mismatch");
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        self.grad_w.resize_to(&[cout, patch]);
        self.grad_w.as_mut_slice().fill(0.0);
        if n == 0 {
            return grad_in;
        }
        let g = grad_out.as_slice();
        for (co, bias_grad) in self.bias.grad.as_mut_slice().iter_mut().enumerate() {
            let mut s = 0.0;
            for g_n in g.chunks_exact(cout * ohw) {
                for &v in &g_n[co * ohw..][..ohw] {
                    s += v;
                }
            }
            *bias_grad += s;
        }
        let rhs = Rhs::new(weight.as_slice(), patch);
        self.block.resize(ohw * patch, 0.0);
        let samples = g.chunks_exact(cout * ohw).zip(col.as_slice().chunks_exact(ohw * patch));
        for ((g_n, col_n), dst) in samples.zip(grad_in.as_mut_slice().chunks_exact_mut(c * h * w)) {
            // The kernel gradient gᵀ·col, one sample's rows at a time.
            gemm(Lhs::Rows { data: g_n, ld: ohw }, cout, ohw, &Rhs::new(col_n, patch), self.grad_w.as_mut_slice());
            // The patch gradient g·W, scattered back to the input.
            self.block.fill(0.0);
            gemm(Lhs::Cols { data: g_n, ld: ohw }, ohw, cout, &rhs, &mut self.block);
            col2im_sample(&self.block, &self.geo, h, w, dst);
        }
        grad_in
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _mode: Mode, _rng: &mut StdRng) -> Tensor {
        self.weight.value.transpose_into(&mut self.weight_t);
        self.forward_transposed(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let grad_in = self.backward_with(grad_out, None);
        self.weight.grad.axpy(1.0, &self.grad_w);
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        f("weight", &mut self.weight);
        f("bias", &mut self.bias);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

/// A binary-weight convolution (XNOR-style): kernels are binarized to
/// `α_o · sign(W_o)` per output channel, gradients flow through the
/// straight-through estimator. The sign kernels are what a NeuSpin
/// crossbar stores.
#[derive(Debug, Clone)]
pub struct BinaryConv2d {
    inner: Conv2d,
    alphas: Vec<f32>,
    binarized: Option<Tensor>,
}

impl BinaryConv2d {
    /// Creates the layer; arguments as [`Conv2d::new`].
    ///
    /// # Panics
    ///
    /// Panics on zero channels, kernel, or stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            inner: Conv2d::new(in_channels, out_channels, kernel, stride, padding, rng),
            alphas: vec![0.0; out_channels],
            binarized: None,
        }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.inner.geo
    }

    /// Latent (full-precision) kernel matrix.
    pub fn latent_weight(&self) -> &Tensor {
        &self.inner.weight.value
    }

    /// Sign pattern of the kernels (+1 / −1) — the crossbar bits.
    pub fn sign_weights(&self) -> Tensor {
        self.inner.weight.value.map(|w| if w >= 0.0 { 1.0 } else { -1.0 })
    }

    /// Per-output-channel binarization scales.
    pub fn scales(&self) -> Vec<f32> {
        row_scales(&self.inner.weight.value)
    }
}

impl Layer for BinaryConv2d {
    fn forward(&mut self, input: &Tensor, _mode: Mode, _rng: &mut StdRng) -> Tensor {
        self.alphas = self.scales();
        let mut wb = self.binarized.take().unwrap_or_default();
        binarize_into(&self.inner.weight.value, &self.alphas, &mut wb, &mut self.inner.weight_t);
        self.binarized = Some(wb);
        self.inner.forward_transposed(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let wb = self.binarized.as_ref().expect("backward before forward");
        let grad_in = self.inner.backward_with(grad_out, Some(wb));
        ste_accumulate(&mut self.inner.weight, &self.inner.grad_w, &self.alphas);
        grad_in
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        self.inner.visit_params(f);
    }

    fn name(&self) -> &'static str {
        "BinaryConv2d"
    }
}

/// Per-row binarization scales `α_r = mean |w_r|` of a `[rows, cols]`
/// weight matrix.
pub(crate) fn row_scales(weight: &Tensor) -> Vec<f32> {
    let cols = weight.shape()[1];
    weight.as_slice().chunks_exact(cols).map(|row| row.iter().map(|w| w.abs()).sum::<f32>() / cols as f32).collect()
}

/// `wb = α_r · sign(w)` of a `[rows, cols]` latent weight matrix in
/// one pass, then its `[cols, rows]` transpose into `wb_t`.
pub(crate) fn binarize_into(weight: &Tensor, alphas: &[f32], wb: &mut Tensor, wb_t: &mut Tensor) {
    let cols = weight.shape()[1];
    wb.resize_to(weight.shape());
    let rows = weight.as_slice().chunks_exact(cols).zip(wb.as_mut_slice().chunks_exact_mut(cols));
    for ((src, dst), &a) in rows.zip(alphas) {
        for (d, &w) in dst.iter_mut().zip(src) {
            let sign = if w >= 0.0 { 1.0 } else { -1.0 };
            *d = sign * a;
        }
    }
    wb.transpose_into(wb_t);
}

/// The straight-through estimator with clipping: `∂L/∂w ≈ ∂L/∂w_b ·
/// α_r · 1{|w| ≤ 1}`, added into the latent weight's gradient.
pub(crate) fn ste_accumulate(weight: &mut Param, grad_wb: &Tensor, alphas: &[f32]) {
    let cols = weight.value.shape()[1];
    let rows = weight.value.as_slice().chunks_exact(cols).zip(weight.grad.as_mut_slice().chunks_exact_mut(cols));
    for (((w_row, g_row), gb_row), &a) in rows.zip(grad_wb.as_slice().chunks_exact(cols)).zip(alphas) {
        for ((&w, g), &gb) in w_row.iter().zip(g_row).zip(gb_row) {
            if w.abs() <= 1.0 {
                *g += gb * a;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{grad_check_input, grad_check_params};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    #[test]
    fn geometry_output_sizes() {
        let g = ConvGeometry { in_channels: 3, out_channels: 8, kernel: 3, stride: 1, padding: 1 };
        assert_eq!(g.out_size(16), 16);
        let g2 = ConvGeometry { kernel: 3, stride: 2, padding: 0, ..g };
        assert_eq!(g2.out_size(7), 3);
        assert_eq!(g.patch_len(), 27);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1×1 kernel, stride 1: col equals a channel-last reshuffle.
        let geo = ConvGeometry { in_channels: 2, out_channels: 1, kernel: 1, stride: 1, padding: 0 };
        let x = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let col = im2col(&x, &geo);
        assert_eq!(col.shape(), &[4, 2]);
        // Pixel (0,0): channels 0 and 4.
        assert_eq!(col.row(0), &[0.0, 4.0]);
        assert_eq!(col.row(3), &[3.0, 7.0]);
    }

    #[test]
    fn im2col_into_rezeros_dirty_buffer() {
        let geo = ConvGeometry { in_channels: 2, out_channels: 1, kernel: 3, stride: 1, padding: 1 };
        let x = Tensor::from_fn(&[1, 2, 5, 5], |i| (i as f32 * 0.7).sin());
        let expect = im2col(&x, &geo);
        // A dirty buffer of the wrong shape: _into must resize and
        // re-zero so padding positions read 0, not stale data.
        let mut col = Tensor::full(&[3, 3], 9.0);
        im2col_into(&x, &geo, &mut col);
        assert_eq!(col, expect);
        let cap = col.as_slice().len();
        im2col_into(&x, &geo, &mut col);
        assert_eq!(col, expect);
        assert_eq!(col.as_slice().len(), cap);
    }

    /// The seed's im2col and col2im loops, kept as the oracle: every
    /// (position, channel, tap) in order, out-of-image taps skipped.
    fn seed_im2col_col2im(x: &Tensor, g: &Tensor, geo: &ConvGeometry) -> (Vec<f32>, Vec<f32>) {
        let (n, c, h, w) = shape4(x);
        let (oh, ow) = (geo.out_size(h), geo.out_size(w));
        let (k, s, p) = (geo.kernel, geo.stride, geo.padding as isize);
        let patch = geo.patch_len();
        let mut col = vec![0.0f32; n * oh * ow * patch];
        let mut back = vec![0.0f32; x.len()];
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((ni * oh + oy) * ow + ox) * patch;
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = (oy * s + ky) as isize - p;
                            for kx in 0..k {
                                let ix = (ox * s + kx) as isize - p;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let src = ((ni * c + ci) * h + iy as usize) * w + ix as usize;
                                let dst = row + (ci * k + ky) * k + kx;
                                col[dst] = x[src];
                                back[src] += g[dst];
                            }
                        }
                    }
                }
            }
        }
        (col, back)
    }

    #[test]
    fn im2col_and_col2im_match_seed_loops_bit_for_bit() {
        // Strides 1–2 and paddings up to past the kernel, where whole
        // windows fall outside the image; col2im sums in the seed's order.
        for (kernel, stride, padding) in [(1, 1, 0), (3, 1, 1), (3, 2, 1), (2, 2, 0), (3, 1, 4), (1, 2, 2)] {
            let geo = ConvGeometry { in_channels: 2, out_channels: 1, kernel, stride, padding };
            let x = Tensor::from_fn(&[2, 2, 5, 4], |i| (i as f32 * 0.37).sin());
            let col = im2col(&x, &geo);
            let g = Tensor::from_fn(col.shape(), |i| (i as f32 * 0.61).cos() * 1e3);
            let (want_col, want_back) = seed_im2col_col2im(&x, &g, &geo);
            let label = format!("k {kernel} s {stride} p {padding}");
            assert!(col.as_slice().iter().zip(&want_col).all(|(a, b)| a.to_bits() == b.to_bits()), "{label}: im2col");
            let back = col2im(&g, &geo, 2, 5, 4);
            assert!(back.as_slice().iter().zip(&want_back).all(|(a, b)| a.to_bits() == b.to_bits()), "{label}: col2im");
        }
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity.
        let geo = ConvGeometry { in_channels: 2, out_channels: 1, kernel: 3, stride: 1, padding: 1 };
        let x = Tensor::from_fn(&[1, 2, 5, 5], |i| (i as f32 * 0.7).sin());
        let col = im2col(&x, &geo);
        let y = Tensor::from_fn(col.shape(), |i| (i as f32 * 0.3).cos());
        let lhs: f32 = col.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, &geo, 1, 5, 5);
        let rhs: f32 = x.as_slice().iter().zip(back.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_known_values() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r);
        conv.weight.value = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 4]);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_fn(&[1, 1, 3, 3], |i| i as f32);
        let y = conv.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // Sums of 2×2 patches of [[0..2],[3..5],[6..8]].
        assert_eq!(y.as_slice(), &[8.0, 12.0, 20.0, 24.0]);
    }

    #[test]
    fn conv_grad_check() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut r);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| (i as f32 * 0.13).sin());
        assert!(grad_check_input(&mut conv, &x, Mode::Eval, 1, 1e-2) < 2e-2);
        assert!(grad_check_params(&mut conv, &x, Mode::Eval, 1, 1e-2) < 2e-2);
    }

    #[test]
    fn conv_stride_grad_check() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 3, 2, 1, &mut r);
        let x = Tensor::from_fn(&[2, 1, 5, 5], |i| ((i * 7 % 11) as f32 / 5.0) - 1.0);
        assert!(grad_check_input(&mut conv, &x, Mode::Eval, 1, 1e-2) < 2e-2);
    }

    #[test]
    fn binary_conv_output_uses_signs() {
        let mut r = rng();
        let mut conv = BinaryConv2d::new(1, 1, 2, 1, 0, &mut r);
        conv.inner.weight.value = Tensor::from_vec(vec![0.4, -0.2, 0.6, -0.8], &[1, 4]);
        conv.inner.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv.forward(&x, Mode::Eval, &mut r);
        // α = 0.5, signs (+,−,+,−) → y = 0.5·(1−1+1−1) = 0.
        assert!((y[0]).abs() < 1e-6);
        assert_eq!(conv.sign_weights().as_slice(), &[1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn binary_conv_backward_runs_and_clips() {
        let mut r = rng();
        let mut conv = BinaryConv2d::new(1, 1, 2, 1, 0, &mut r);
        conv.inner.weight.value = Tensor::from_vec(vec![0.4, -3.0, 0.6, -0.8], &[1, 4]);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let _ = conv.forward(&x, Mode::Train, &mut r);
        let _ = conv.backward(&Tensor::ones(&[1, 1, 1, 1]));
        assert_eq!(conv.inner.weight.grad[1], 0.0, "|w|>1 clipped");
        assert_ne!(conv.inner.weight.grad[0], 0.0);
    }

    #[test]
    fn param_count_matches() {
        let mut r = rng();
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut r);
        assert_eq!(conv.param_count(), 8 * 27 + 8);
    }
}
