//! Hardware execution blocks.
//!
//! A compiled [`HardwareModel`](crate::HardwareModel) is a pipeline of
//! these blocks: crossbar-backed layers (binary conv / FC, SpinBayes
//! multi-instance FC), digital periphery (norms, activations, pooling,
//! the final classifier), and the stochastic units built from
//! [`neuspin_cim`] dropout modules. Every block tallies its operations
//! for the energy model.

use neuspin_cim::{
    Arbiter, ArbiterState, Crossbar, CrossbarState, MlcCrossbar, MlcCrossbarState, OpCounter,
    SpinDropModule,
};
use neuspin_device::SpinRngState;
use neuspin_nn::conv::{im2col_into, ConvGeometry};
use neuspin_nn::Tensor;
use rand::rngs::StdRng;

/// Welford accumulator for per-feature calibration statistics.
///
/// Fields are crate-visible so the checkpoint module can capture and
/// restore the accumulator exactly (a restored die must resume
/// calibration mid-stream bit for bit).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FeatureStats {
    pub(crate) count: u64,
    pub(crate) mean: Vec<f64>,
    pub(crate) m2: Vec<f64>,
}

impl FeatureStats {
    fn ensure(&mut self, f: usize) {
        if self.mean.len() != f {
            self.mean = vec![0.0; f];
            self.m2 = vec![0.0; f];
            self.count = 0;
        }
    }

    fn push(&mut self, feature: usize, x: f64) {
        // count tracks pushes per feature (uniform across features).
        let delta = x - self.mean[feature];
        self.mean[feature] += delta / self.count as f64;
        self.m2[feature] += delta * (x - self.mean[feature]);
    }

    fn mean_var(&self, feature: usize) -> (f32, f32) {
        let var = if self.count > 1 {
            self.m2[feature] / (self.count - 1) as f64
        } else {
            1.0
        };
        (self.mean[feature] as f32, var.max(1e-6) as f32)
    }
}

fn layout(shape: &[usize]) -> (usize, usize, usize) {
    match shape.len() {
        2 => (shape[0], shape[1], 1),
        4 => (shape[0], shape[1], shape[2] * shape[3]),
        _ => panic!("expected [N,F] or [N,C,H,W], got {shape:?}"),
    }
}

/// A binary-crossbar convolution: sign weights in the array, per-channel
/// α scales and biases applied digitally.
#[derive(Debug, Clone)]
pub struct HwConv {
    pub(crate) xbar: Crossbar,
    pub(crate) geo: ConvGeometry,
    pub(crate) alphas: Vec<f32>,
    pub(crate) bias: Vec<f32>,
    pub(crate) local: OpCounter,
    /// Reused im2col staging buffer (forward-plan scratch).
    pub(crate) col: Tensor,
    /// Reused crossbar output buffer (forward-plan scratch).
    pub(crate) ybuf: Vec<f64>,
}

impl HwConv {
    /// Convolves `x` into `out`, with the im2col staging and crossbar
    /// output held in block-owned scratch, so steady-state calls perform
    /// no heap allocation.
    pub(crate) fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, rng: &mut StdRng) {
        let (n, _c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (oh, ow) = (self.geo.out_size(h), self.geo.out_size(w));
        let cout = self.geo.out_channels;
        im2col_into(x, &self.geo, &mut self.col);
        let positions = n * oh * ow;
        if self.ybuf.len() != positions * cout {
            self.ybuf.clear();
            self.ybuf.resize(positions * cout, 0.0);
        }
        // One batched crossbar call for all im2col positions: same
        // matvec sequence (and RNG stream) as a per-position loop.
        self.xbar.matmul_into(self.col.as_slice(), positions, &mut self.ybuf, rng);
        out.resize_to(&[n, cout, oh, ow]);
        for pos in 0..positions {
            let row = &self.ybuf[pos * cout..(pos + 1) * cout];
            let (ni, rem) = (pos / (oh * ow), pos % (oh * ow));
            let (oy, ox) = (rem / ow, rem % ow);
            for (co, &v) in row.iter().enumerate() {
                out[((ni * cout + co) * oh + oy) * ow + ox] =
                    v as f32 * self.alphas[co] + self.bias[co];
            }
        }
        self.local.digital_ops += (positions * cout) as u64;
    }

    /// Bytes of reusable forward-plan scratch held by this block.
    pub(crate) fn scratch_bytes(&self) -> usize {
        self.col.capacity() * std::mem::size_of::<f32>()
            + self.ybuf.capacity() * std::mem::size_of::<f64>()
            + self.xbar.scratch_bytes()
    }

    pub(crate) fn counter(&self) -> OpCounter {
        let mut c = *self.xbar.counter();
        c.merge(&self.local);
        c
    }

}

/// A binary-crossbar fully-connected layer.
#[derive(Debug, Clone)]
pub struct HwFc {
    pub(crate) xbar: Crossbar,
    pub(crate) alphas: Vec<f32>,
    pub(crate) bias: Vec<f32>,
    pub(crate) local: OpCounter,
    /// Reused crossbar output buffer (forward-plan scratch).
    pub(crate) ybuf: Vec<f64>,
}

impl HwFc {
    /// The FC layer into `out`; the crossbar output lives in
    /// block-owned scratch, so steady-state calls are allocation-free.
    pub(crate) fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, rng: &mut StdRng) {
        assert_eq!(x.ndim(), 2, "HwFc expects [N, F]");
        let n = x.shape()[0];
        let o = self.alphas.len();
        if self.ybuf.len() != n * o {
            self.ybuf.clear();
            self.ybuf.resize(n * o, 0.0);
        }
        self.xbar.matmul_into(x.as_slice(), n, &mut self.ybuf, rng);
        out.resize_to(&[n, o]);
        for ni in 0..n {
            let row = &self.ybuf[ni * o..(ni + 1) * o];
            for (j, &v) in row.iter().enumerate() {
                out[ni * o + j] = v as f32 * self.alphas[j] + self.bias[j];
            }
        }
        self.local.digital_ops += (n * o) as u64;
    }

    /// Bytes of reusable forward-plan scratch held by this block.
    pub(crate) fn scratch_bytes(&self) -> usize {
        self.ybuf.capacity() * std::mem::size_of::<f64>() + self.xbar.scratch_bytes()
    }

    pub(crate) fn counter(&self) -> OpCounter {
        let mut c = *self.xbar.counter();
        c.merge(&self.local);
        c
    }

}

/// The SpinBayes multi-instance FC layer: `N` quantized crossbars and a
/// stochastic Arbiter choosing one per forward pass (Fig. 3).
#[derive(Debug, Clone)]
pub struct HwFcSpinBayes {
    pub(crate) xbars: Vec<MlcCrossbar>,
    pub(crate) arbiter: Arbiter,
    pub(crate) bias: Vec<f32>,
    pub(crate) out_features: usize,
    pub(crate) local: OpCounter,
    /// Reused per-row crossbar output buffer (forward-plan scratch).
    pub(crate) ybuf: Vec<f64>,
}

impl HwFcSpinBayes {
    /// The arbiter-selected instance's FC layer into `out` (instance 0
    /// on deterministic passes); the per-row matvec output lives in
    /// block-owned scratch.
    pub(crate) fn forward_into(
        &mut self,
        x: &Tensor,
        out: &mut Tensor,
        stochastic: bool,
        rng: &mut StdRng,
    ) {
        assert_eq!(x.ndim(), 2, "HwFcSpinBayes expects [N, F]");
        let (n, f) = (x.shape()[0], x.shape()[1]);
        let o = self.out_features;
        let before = self.arbiter.bits_used();
        let selected = if stochastic { self.arbiter.select(rng) } else { 0 };
        self.local.rng_bits += self.arbiter.bits_used() - before;
        if self.ybuf.len() != o {
            self.ybuf.clear();
            self.ybuf.resize(o, 0.0);
        }
        let xbar = &mut self.xbars[selected];
        out.resize_to(&[n, o]);
        for ni in 0..n {
            xbar.matvec_into(&x.as_slice()[ni * f..(ni + 1) * f], &mut self.ybuf, rng);
            for (j, &v) in self.ybuf.iter().enumerate() {
                out[ni * o + j] = v as f32 + self.bias[j];
            }
        }
        self.local.digital_ops += (n * o) as u64;
    }

    /// Bytes of reusable forward-plan scratch held by this block.
    pub(crate) fn scratch_bytes(&self) -> usize {
        self.ybuf.capacity() * std::mem::size_of::<f64>()
            + self.xbars.iter().map(|xb| xb.scratch_bytes()).sum::<usize>()
    }

    pub(crate) fn counter(&self) -> OpCounter {
        let mut c = self.local;
        for xb in &self.xbars {
            c.merge(xb.counter());
        }
        c
    }

}

/// The final classifier, executed in the digital periphery.
#[derive(Debug, Clone)]
pub struct HwDigitalFc {
    pub(crate) weight: Tensor, // [o, i]
    pub(crate) bias: Vec<f32>,
    pub(crate) local: OpCounter,
    /// Cached transpose of `weight`, built on the first planned call.
    /// Safe to cache: classifier weights are fixed at compile time and
    /// untouched by fault management (which targets crossbars only).
    pub(crate) weight_t: Tensor,
}

impl HwDigitalFc {
    /// The classifier into `out`, reusing a cached weight transpose.
    pub(crate) fn forward_into(&mut self, x: &Tensor, out: &mut Tensor) {
        let (o, i) = (self.weight.shape()[0], self.weight.shape()[1]);
        if self.weight_t.shape() != [i, o] {
            self.weight_t = self.weight.transpose();
        }
        x.matmul_into(&self.weight_t, out);
        let n = out.shape()[0];
        for ni in 0..n {
            for j in 0..o {
                out[ni * o + j] += self.bias[j];
            }
        }
        self.local.digital_ops += (x.len() * o) as u64;
    }

    /// Bytes of reusable forward-plan scratch held by this block.
    pub(crate) fn scratch_bytes(&self) -> usize {
        self.weight_t.capacity() * std::mem::size_of::<f32>()
    }
}

/// Digital batch-norm with *hardware-calibrated* statistics: the mean
/// and variance are measured at this pipeline position by calibration
/// passes run on the compiled hardware, so they absorb programming-time
/// crossbar variation (the standard CIM deployment flow).
#[derive(Debug, Clone)]
pub struct HwNorm {
    pub(crate) gamma: Vec<f32>,
    pub(crate) beta: Vec<f32>,
    pub(crate) mean: Vec<f32>,
    pub(crate) var: Vec<f32>,
    pub(crate) stats: FeatureStats,
    pub(crate) local: OpCounter,
}

impl HwNorm {
    /// Normalizes `x` into `out`. A calibrating pass first folds `x`
    /// into the running statistics and normalizes with the update.
    pub(crate) fn forward_into(&mut self, x: &Tensor, out: &mut Tensor, calibrating: bool) {
        let (n, f, spatial) = layout(x.shape());
        assert_eq!(f, self.gamma.len(), "feature mismatch");
        if calibrating {
            self.stats.ensure(f);
            for ni in 0..n {
                for si in 0..spatial {
                    self.stats.count += 1;
                    for fi in 0..f {
                        let v = x[(ni * f + fi) * spatial + si] as f64;
                        self.stats.push(fi, v);
                    }
                }
            }
            for fi in 0..f {
                let (m, v) = self.stats.mean_var(fi);
                self.mean[fi] = m;
                self.var[fi] = v;
            }
        }
        out.resize_to(x.shape());
        for ni in 0..n {
            for fi in 0..f {
                let inv = 1.0 / (self.var[fi] + 1e-5).sqrt();
                let (g, b, m) = (self.gamma[fi], self.beta[fi], self.mean[fi]);
                for si in 0..spatial {
                    let i = (ni * f + fi) * spatial + si;
                    out[i] = g * (x[i] - m) * inv + b;
                }
            }
        }
        self.local.digital_ops += x.len() as u64;
    }
}

/// Digital inverted normalization (affine first, per-sample whitening
/// after) with optional hardware affine-dropout modules. Needs no
/// calibration — the self-healing property.
#[derive(Debug, Clone)]
pub struct HwInvNorm {
    pub(crate) gamma: Vec<f32>,
    pub(crate) beta: Vec<f32>,
    /// Affine-dropout modules for (γ, β); `None` when p = 0.
    pub(crate) modules: Option<(SpinDropModule, SpinDropModule)>,
    pub(crate) local: OpCounter,
    /// Reused per-sample affine buffer (forward-plan scratch).
    pub(crate) abuf: Vec<f32>,
}

impl HwInvNorm {
    /// Affine (with sampled γ/β dropout on stochastic passes), then
    /// per-sample whitening, into `out`. The per-sample affine staging
    /// lives in block-owned scratch; the affine loop fully overwrites it
    /// each sample, so reuse cannot leak values between samples.
    pub(crate) fn forward_into(
        &mut self,
        x: &Tensor,
        out: &mut Tensor,
        stochastic: bool,
        rng: &mut StdRng,
    ) {
        let (n, f, spatial) = layout(x.shape());
        assert_eq!(f, self.gamma.len(), "feature mismatch");
        let (gamma_kept, beta_kept) = match (&mut self.modules, stochastic) {
            (Some((mg, mb)), true) => {
                self.local.rng_bits += 2;
                (!mg.sample(rng), !mb.sample(rng))
            }
            _ => (true, true),
        };
        let m_elems = (f * spatial) as f32;
        if self.abuf.len() != f * spatial {
            self.abuf.clear();
            self.abuf.resize(f * spatial, 0.0);
        }
        out.resize_to(x.shape());
        for ni in 0..n {
            // Affine first.
            for fi in 0..f {
                let g = if gamma_kept { self.gamma[fi] } else { 1.0 };
                let b = if beta_kept { self.beta[fi] } else { 0.0 };
                for si in 0..spatial {
                    self.abuf[fi * spatial + si] = g * x[(ni * f + fi) * spatial + si] + b;
                }
            }
            // Per-sample whitening.
            let mean: f32 = self.abuf.iter().sum::<f32>() / m_elems;
            let var: f32 =
                self.abuf.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / m_elems;
            let inv = 1.0 / (var + 1e-5).sqrt();
            for (idx, &v) in self.abuf.iter().enumerate() {
                let fi = idx / spatial;
                let si = idx % spatial;
                out[(ni * f + fi) * spatial + si] = (v - mean) * inv;
            }
        }
        self.local.digital_ops += 2 * x.len() as u64;
        self.local.sram_accesses += 2 * f as u64; // γ and β reads
    }

    /// Bytes of reusable forward-plan scratch held by this block.
    pub(crate) fn scratch_bytes(&self) -> usize {
        self.abuf.capacity() * std::mem::size_of::<f32>()
    }
}

/// Hardware stochastic (dropout) units.
#[derive(Debug, Clone)]
pub enum HwDropout {
    /// One SpinDrop module per neuron (gates one word-line pair each).
    PerNeuron {
        /// The per-neuron modules.
        modules: Vec<SpinDropModule>,
        /// Design drop probability (for the inverted-dropout rescale).
        p: f32,
    },
    /// One module per feature map, gating a row group via the decoder.
    PerChannel {
        /// The per-channel modules.
        modules: Vec<SpinDropModule>,
        /// Design drop probability.
        p: f32,
    },
    /// The single per-layer scale-dropout module + SRAM scale vector:
    /// one decision per pass bypasses the scale vector or applies it.
    Scale {
        /// The layer's one module.
        module: SpinDropModule,
        /// Trained scale vector (SRAM contents).
        scale: Vec<f32>,
        /// Local op tallies: the module's one bit per decision, and one
        /// SRAM read per scale entry whenever the vector is applied.
        local: OpCounter,
    },
    /// Sub-set VI: gaussian scale samples from the learned posterior.
    ViScale {
        /// Posterior means.
        mu: Vec<f32>,
        /// Posterior standard deviations.
        sigma: Vec<f32>,
        /// Stochastic bits charged per gaussian sample.
        bits_per_sample: u32,
        /// Local op tallies.
        local: OpCounter,
        /// Reused sampled-scale buffer (forward-plan scratch).
        scratch: Vec<f32>,
    },
}

impl HwDropout {
    /// The stochastic unit into `out`. Deterministic passes copy the
    /// input through (or apply the mean scale); the ViScale posterior
    /// samples live in variant-owned scratch.
    pub(crate) fn forward_into(
        &mut self,
        x: &Tensor,
        out: &mut Tensor,
        stochastic: bool,
        rng: &mut StdRng,
    ) {
        let (n, f, spatial) = layout(x.shape());
        match self {
            HwDropout::PerNeuron { modules, p } => {
                if !stochastic {
                    out.copy_from(x);
                    return;
                }
                assert_eq!(modules.len(), f * spatial, "one module per neuron");
                let keep_scale = 1.0 / (1.0 - *p);
                out.resize_to(x.shape());
                for ni in 0..n {
                    for (mi, module) in modules.iter_mut().enumerate() {
                        let dropped = module.sample(rng);
                        let i = ni * f * spatial + mi;
                        out[i] = if dropped { 0.0 } else { x[i] * keep_scale };
                    }
                }
            }
            HwDropout::PerChannel { modules, p } => {
                if !stochastic {
                    out.copy_from(x);
                    return;
                }
                assert_eq!(modules.len(), f, "one module per channel");
                let keep_scale = 1.0 / (1.0 - *p);
                out.resize_to(x.shape());
                for ni in 0..n {
                    for (fi, module) in modules.iter_mut().enumerate() {
                        let dropped = module.sample(rng);
                        for si in 0..spatial {
                            let i = (ni * f + fi) * spatial + si;
                            out[i] = if dropped { 0.0 } else { x[i] * keep_scale };
                        }
                    }
                }
            }
            HwDropout::Scale { module, scale, local } => {
                if stochastic {
                    local.rng_bits += 1;
                }
                let dropped = stochastic && module.sample(rng);
                if !dropped {
                    local.sram_accesses += scale.len() as u64;
                }
                if dropped {
                    out.copy_from(x); // scale modulated to identity
                    return;
                }
                assert_eq!(scale.len(), f, "scale length mismatch");
                out.resize_to(x.shape());
                for ni in 0..n {
                    for (fi, &s) in scale.iter().enumerate() {
                        for si in 0..spatial {
                            let i = (ni * f + fi) * spatial + si;
                            out[i] = x[i] * s;
                        }
                    }
                }
            }
            HwDropout::ViScale { mu, sigma, bits_per_sample, local, scratch } => {
                assert_eq!(mu.len(), f, "scale length mismatch");
                scratch.clear();
                if stochastic {
                    local.rng_bits += u64::from(*bits_per_sample) * f as u64;
                    scratch.extend((0..f).map(|j| {
                        mu[j] + sigma[j] * neuspin_device::stats::standard_normal(rng) as f32
                    }));
                } else {
                    scratch.extend_from_slice(mu);
                }
                local.sram_accesses += 2 * f as u64;
                out.resize_to(x.shape());
                for ni in 0..n {
                    for (fi, &s) in scratch.iter().enumerate() {
                        for si in 0..spatial {
                            let i = (ni * f + fi) * spatial + si;
                            out[i] = x[i] * s;
                        }
                    }
                }
            }
        }
    }

    /// Bytes of reusable forward-plan scratch held by this unit.
    pub(crate) fn scratch_bytes(&self) -> usize {
        match self {
            HwDropout::ViScale { scratch, .. } => {
                scratch.capacity() * std::mem::size_of::<f32>()
            }
            _ => 0,
        }
    }

    pub(crate) fn counter(&self) -> OpCounter {
        match self {
            HwDropout::PerNeuron { modules, .. } | HwDropout::PerChannel { modules, .. } => {
                OpCounter {
                    rng_bits: modules.iter().map(|m| m.bits_used()).sum(),
                    ..OpCounter::new()
                }
            }
            HwDropout::Scale { local, .. } => *local,
            HwDropout::ViScale { local, .. } => *local,
        }
    }
}

/// One stage of the compiled hardware pipeline.
#[derive(Debug, Clone)]
pub enum HwBlock {
    /// Binary crossbar convolution.
    Conv(HwConv),
    /// Binary crossbar FC layer.
    Fc(HwFc),
    /// SpinBayes multi-instance FC layer.
    FcSpinBayes(HwFcSpinBayes),
    /// Digital final classifier.
    DigitalFc(HwDigitalFc),
    /// Calibrated digital batch norm.
    Norm(HwNorm),
    /// Inverted normalization (+ affine dropout).
    InvNorm(HwInvNorm),
    /// Hard-tanh activation (digital).
    HardTanh,
    /// Non-overlapping max pool.
    MaxPool(usize),
    /// NCHW → `[N, F]` flatten.
    Flatten,
    /// A stochastic dropout unit.
    Dropout(HwDropout),
}

impl HwBlock {
    /// Executes the block, writing the activation into `out` (resized
    /// as needed; its previous contents never leak into the result).
    /// `calibrating` folds the input into the norm statistics.
    pub(crate) fn forward_into(
        &mut self,
        x: &Tensor,
        out: &mut Tensor,
        stochastic: bool,
        calibrating: bool,
        rng: &mut StdRng,
    ) {
        match self {
            HwBlock::Conv(b) => b.forward_into(x, out, rng),
            HwBlock::Fc(b) => b.forward_into(x, out, rng),
            HwBlock::FcSpinBayes(b) => b.forward_into(x, out, stochastic, rng),
            HwBlock::DigitalFc(b) => b.forward_into(x, out),
            HwBlock::Norm(b) => b.forward_into(x, out, calibrating),
            HwBlock::InvNorm(b) => b.forward_into(x, out, stochastic, rng),
            HwBlock::HardTanh => {
                out.resize_to(x.shape());
                for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *o = v.clamp(-1.0, 1.0);
                }
            }
            HwBlock::MaxPool(k) => max_pool_into(x, *k, out),
            HwBlock::Flatten => {
                let n = x.shape()[0];
                let rest: usize = x.shape()[1..].iter().product();
                out.copy_from(x);
                out.reshape_in_place(&[n, rest]);
            }
            HwBlock::Dropout(d) => d.forward_into(x, out, stochastic, rng),
        }
    }

    /// Bytes of reusable forward-plan scratch held by this block
    /// (activation ping-pong buffers are owned by the model, not the
    /// blocks, and accounted there).
    pub(crate) fn scratch_bytes(&self) -> usize {
        match self {
            HwBlock::Conv(b) => b.scratch_bytes(),
            HwBlock::Fc(b) => b.scratch_bytes(),
            HwBlock::FcSpinBayes(b) => b.scratch_bytes(),
            HwBlock::DigitalFc(b) => b.scratch_bytes(),
            HwBlock::InvNorm(b) => b.scratch_bytes(),
            HwBlock::Dropout(d) => d.scratch_bytes(),
            _ => 0,
        }
    }

    /// The binary crossbar of a `Conv` or `Fc` block; `None` for every
    /// other block (SpinBayes' MLC arrays included).
    pub(crate) fn crossbar(&self) -> Option<&Crossbar> {
        match self {
            HwBlock::Conv(b) => Some(&b.xbar),
            HwBlock::Fc(b) => Some(&b.xbar),
            _ => None,
        }
    }

    /// Mutable access to the binary crossbar (see [`HwBlock::crossbar`]).
    pub(crate) fn crossbar_mut(&mut self) -> Option<&mut Crossbar> {
        match self {
            HwBlock::Conv(b) => Some(&mut b.xbar),
            HwBlock::Fc(b) => Some(&mut b.xbar),
            _ => None,
        }
    }

    /// A static label for telemetry span/trace annotations.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            HwBlock::Conv(_) => "conv",
            HwBlock::Fc(_) => "fc",
            HwBlock::FcSpinBayes(_) => "fc_spinbayes",
            HwBlock::DigitalFc(_) => "digital_fc",
            HwBlock::Norm(_) => "norm",
            HwBlock::InvNorm(_) => "inv_norm",
            HwBlock::HardTanh => "hard_tanh",
            HwBlock::MaxPool(_) => "max_pool",
            HwBlock::Flatten => "flatten",
            HwBlock::Dropout(_) => "dropout",
        }
    }

    /// The block's accumulated op counts.
    pub(crate) fn counter(&self) -> OpCounter {
        match self {
            HwBlock::Conv(b) => b.counter(),
            HwBlock::Fc(b) => b.counter(),
            HwBlock::FcSpinBayes(b) => b.counter(),
            HwBlock::DigitalFc(b) => b.local,
            HwBlock::Norm(b) => b.local,
            HwBlock::InvNorm(b) => b.local,
            HwBlock::Dropout(d) => d.counter(),
            _ => OpCounter::new(),
        }
    }
}

/// The mutable state of one pipeline block — everything a block can
/// accumulate after compilation (device state, RNG stream positions,
/// calibration statistics, op tallies). Captured by
/// [`HwBlock::export_state`] and reapplied by [`HwBlock::import_state`]
/// onto the matching block of a twin pipeline compiled by the same
/// deterministic constructor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BlockState {
    Conv { xbar: CrossbarState, local: OpCounter },
    Fc { xbar: CrossbarState, local: OpCounter },
    FcSpinBayes { xbars: Vec<MlcCrossbarState>, arbiter: ArbiterState, local: OpCounter },
    DigitalFc { local: OpCounter },
    Norm { mean: Vec<f32>, var: Vec<f32>, stats: FeatureStats, local: OpCounter },
    InvNorm { modules: Option<(SpinRngState, SpinRngState)>, local: OpCounter },
    DropPerNeuron { modules: Vec<SpinRngState> },
    DropPerChannel { modules: Vec<SpinRngState> },
    DropScale { module: SpinRngState, local: OpCounter },
    DropViScale { local: OpCounter },
    /// HardTanh / MaxPool / Flatten — nothing to capture.
    Stateless,
}

impl BlockState {
    /// A short label for mismatch diagnostics (the full state can hold
    /// megabytes of device data — never printed).
    fn kind(&self) -> &'static str {
        match self {
            BlockState::Conv { .. } => "conv",
            BlockState::Fc { .. } => "fc",
            BlockState::FcSpinBayes { .. } => "fc_spinbayes",
            BlockState::DigitalFc { .. } => "digital_fc",
            BlockState::Norm { .. } => "norm",
            BlockState::InvNorm { .. } => "inv_norm",
            BlockState::DropPerNeuron { .. } => "dropout_per_neuron",
            BlockState::DropPerChannel { .. } => "dropout_per_channel",
            BlockState::DropScale { .. } => "dropout_scale",
            BlockState::DropViScale { .. } => "dropout_vi_scale",
            BlockState::Stateless => "stateless",
        }
    }
}

impl HwBlock {
    /// Captures the block's complete mutable state.
    pub(crate) fn export_state(&self) -> BlockState {
        match self {
            HwBlock::Conv(b) => {
                BlockState::Conv { xbar: b.xbar.export_state(), local: b.local }
            }
            HwBlock::Fc(b) => BlockState::Fc { xbar: b.xbar.export_state(), local: b.local },
            HwBlock::FcSpinBayes(b) => BlockState::FcSpinBayes {
                xbars: b.xbars.iter().map(MlcCrossbar::export_state).collect(),
                arbiter: b.arbiter.state(),
                local: b.local,
            },
            HwBlock::DigitalFc(b) => BlockState::DigitalFc { local: b.local },
            HwBlock::Norm(b) => BlockState::Norm {
                mean: b.mean.clone(),
                var: b.var.clone(),
                stats: b.stats.clone(),
                local: b.local,
            },
            HwBlock::InvNorm(b) => BlockState::InvNorm {
                modules: b.modules.as_ref().map(|(g, be)| (g.rng_state(), be.rng_state())),
                local: b.local,
            },
            HwBlock::Dropout(HwDropout::PerNeuron { modules, .. }) => BlockState::DropPerNeuron {
                modules: modules.iter().map(SpinDropModule::rng_state).collect(),
            },
            HwBlock::Dropout(HwDropout::PerChannel { modules, .. }) => {
                BlockState::DropPerChannel {
                    modules: modules.iter().map(SpinDropModule::rng_state).collect(),
                }
            }
            HwBlock::Dropout(HwDropout::Scale { module, local, .. }) => {
                BlockState::DropScale { module: module.rng_state(), local: *local }
            }
            HwBlock::Dropout(HwDropout::ViScale { local, .. }) => {
                BlockState::DropViScale { local: *local }
            }
            HwBlock::HardTanh | HwBlock::MaxPool(_) | HwBlock::Flatten => BlockState::Stateless,
        }
    }

    /// Reapplies a captured state onto this block. The block must be
    /// the same pipeline stage of a twin compiled from the same
    /// constructor inputs.
    ///
    /// # Errors
    ///
    /// Refuses a state whose variant does not match the block kind, or
    /// whose crossbar, module or feature populations differ. A block
    /// with several crossbars may be partly overwritten when a later
    /// one refuses: import into a copy to keep the original.
    pub(crate) fn import_state(&mut self, state: &BlockState) -> Result<(), String> {
        let population = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("checkpoint {what} population mismatch"))
            }
        };
        match (self, state) {
            (HwBlock::Conv(b), BlockState::Conv { xbar, local }) => {
                b.xbar.import_state(xbar)?;
                b.local = *local;
            }
            (HwBlock::Fc(b), BlockState::Fc { xbar, local }) => {
                b.xbar.import_state(xbar)?;
                b.local = *local;
            }
            (HwBlock::FcSpinBayes(b), BlockState::FcSpinBayes { xbars, arbiter, local }) => {
                population(b.xbars.len() == xbars.len(), "SpinBayes instance")?;
                b.arbiter.restore_state(arbiter)?;
                for (x, s) in b.xbars.iter_mut().zip(xbars) {
                    x.import_state(s)?;
                }
                b.local = *local;
            }
            (HwBlock::DigitalFc(b), BlockState::DigitalFc { local }) => b.local = *local,
            (HwBlock::Norm(b), BlockState::Norm { mean, var, stats, local }) => {
                let f = b.gamma.len();
                population(
                    mean.len() == f && var.len() == f && stats.mean.len() == stats.m2.len(),
                    "norm feature",
                )?;
                b.mean = mean.clone();
                b.var = var.clone();
                b.stats = stats.clone();
                b.local = *local;
            }
            (HwBlock::InvNorm(b), BlockState::InvNorm { modules, local }) => {
                match (&mut b.modules, modules) {
                    (Some((g, be)), Some((gs, bs))) => {
                        g.restore_rng_state(gs);
                        be.restore_rng_state(bs);
                    }
                    (None, None) => {}
                    _ => return Err("checkpoint InvNorm module presence mismatch".to_string()),
                }
                b.local = *local;
            }
            (
                HwBlock::Dropout(HwDropout::PerNeuron { modules, .. }),
                BlockState::DropPerNeuron { modules: states },
            )
            | (
                HwBlock::Dropout(HwDropout::PerChannel { modules, .. }),
                BlockState::DropPerChannel { modules: states },
            ) => {
                population(modules.len() == states.len(), "dropout module")?;
                for (m, s) in modules.iter_mut().zip(states) {
                    m.restore_rng_state(s);
                }
            }
            (
                HwBlock::Dropout(HwDropout::Scale { module, local, .. }),
                BlockState::DropScale { module: state, local: l },
            ) => {
                module.restore_rng_state(state);
                *local = *l;
            }
            (
                HwBlock::Dropout(HwDropout::ViScale { local, .. }),
                BlockState::DropViScale { local: l },
            ) => *local = *l,
            (HwBlock::HardTanh | HwBlock::MaxPool(_) | HwBlock::Flatten, BlockState::Stateless) => {
            }
            (block, state) => {
                return Err(format!(
                    "checkpoint block state '{}' does not match pipeline block '{}'",
                    state.kind(),
                    block.kind()
                ))
            }
        }
        Ok(())
    }
}

fn max_pool_into(x: &Tensor, k: usize, out: &mut Tensor) {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert!(h % k == 0 && w % k == 0, "pool window must divide input");
    let (oh, ow) = (h / k, w / k);
    out.resize_to(&[n, c, oh, ow]);
    for ni in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..k {
                        for kx in 0..k {
                            let v = x[((ni * c + ci) * h + oy * k + ky) * w + ox * k + kx];
                            best = best.max(v);
                        }
                    }
                    out[((ni * c + ci) * oh + oy) * ow + ox] = best;
                }
            }
        }
    }
}
