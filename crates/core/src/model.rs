//! The compiled hardware model: compile → calibrate → predict.

use crate::blocks::{
    BlockState, FeatureStats, HwBlock, HwConv, HwDigitalFc, HwDropout, HwFc, HwFcSpinBayes,
    HwInvNorm, HwNorm,
};
use crate::extract::TrainedParams;
use crate::json::ToJson;
use crate::pool::ThreadPool;
use neuspin_bayes::{
    entropy_threshold_for_coverage, pass_seeds, quantize, ArchConfig, McAccumulator, Method,
    Predictive, SpinBayesConfig,
};
use neuspin_cim::{
    fault_aware_remap, march_test, repair_columns, Arbiter, BistConfig, Crossbar, CrossbarConfig,
    KernelPolicy, MlcCrossbar, OpCounter, ScaleDropModule, SpatialDropModule, SpinDropModule,
};
use neuspin_device::stats::LogNormal;
use neuspin_device::{AgingConfig, AgingReport};
use neuspin_energy::{EnergyBreakdown, EnergyModel, Joules};
use neuspin_nn::conv::ConvGeometry;
use neuspin_nn::{softmax_into, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::{SeedableRng, SplitMix64};

fn softplus(x: f32) -> f32 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Hardware deployment configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareConfig {
    /// Crossbar process corner, defects, noise, ADC.
    pub crossbar: CrossbarConfig,
    /// Monte-Carlo passes per prediction (0 = use the method profile's
    /// publication setting; typically set lower for simulation speed).
    pub passes: usize,
    /// SpinBayes posterior configuration.
    pub spinbayes: SpinBayesConfig,
    /// Bits charged per gaussian sample in the VI scale sampler.
    pub vi_bits_per_sample: u32,
    /// Post-fabrication closed-loop tuning of the dropout modules:
    /// measurement bits per bisection step (0 disables tuning and
    /// leaves every module at its variation-skewed open-loop bias).
    pub module_tuning_bits: u32,
    /// Spare columns fabricated per binary crossbar for redundancy
    /// repair (0 = no spares; see
    /// [`HardwareModel::fault_management`]).
    pub spare_cols: usize,
}

impl Default for HardwareConfig {
    fn default() -> Self {
        Self {
            crossbar: CrossbarConfig::default(),
            passes: 16,
            spinbayes: SpinBayesConfig::default(),
            vi_bits_per_sample: 4,
            module_tuning_bits: 150,
            spare_cols: 0,
        }
    }
}

/// A network compiled onto the spintronic CIM simulator.
///
/// Built from a *trained* software model via [`HardwareModel::compile`];
/// run [`HardwareModel::calibrate`] once after compilation (and after
/// any drift injection, if re-calibration is part of the scenario being
/// studied), then [`HardwareModel::predict`].
#[derive(Debug, Clone)]
pub struct HardwareModel {
    blocks: Vec<HwBlock>,
    method: Method,
    passes: usize,
    baseline: OpCounter,
    /// Op counts merged back from parallel worker clones (their blocks'
    /// counters advanced off-model); folded into
    /// [`HardwareModel::raw_counter`].
    extra: OpCounter,
    energy_model: EnergyModel,
    /// Forward-plan ping-pong activation pair: each block writes into
    /// one while reading the other, so a steady-state planned pass
    /// allocates nothing.
    ping: Tensor,
    pong: Tensor,
    /// Per-pass softmax scratch for the planned MC engines.
    probs: Tensor,
    /// The input shape the current forward plan was sized for.
    plan_shape: Vec<usize>,
    /// Times the plan was (re)built — grows only when the input batch
    /// shape changes between passes.
    plan_rebuilds: u64,
}

/// The complete mutable state of a compiled pipeline — per-block device
/// and RNG state plus the model-level op-counter windows. Captured by
/// [`HardwareModel::export_state`] and reapplied by
/// [`HardwareModel::import_state`] onto a twin compiled by the same
/// deterministic constructor (same trained weights, architecture,
/// hardware config, and seed). Forward-plan scratch (`ping`/`pong`,
/// plan shape) is derived per batch and deliberately not captured.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ModelState {
    pub(crate) blocks: Vec<BlockState>,
    pub(crate) baseline: OpCounter,
    pub(crate) extra: OpCounter,
}

impl HardwareModel {
    /// Compiles a trained method-CNN (from [`neuspin_bayes::build_cnn`])
    /// onto crossbars drawn from `config.crossbar`'s process corner.
    ///
    /// # Panics
    ///
    /// Panics if the trained model's parameters do not match `arch`.
    pub fn compile(
        trained: &mut Sequential,
        method: Method,
        arch: &ArchConfig,
        config: &HardwareConfig,
        rng: &mut StdRng,
    ) -> Self {
        let params = TrainedParams::from_model(trained, arch);
        let corner = config.crossbar.corner;
        let mut blocks: Vec<HwBlock> = Vec::new();

        let conv_geo = |c_in: usize, c_out: usize| ConvGeometry {
            in_channels: c_in,
            out_channels: c_out,
            kernel: 3,
            stride: 1,
            padding: 1,
        };

        // Block builder helpers -------------------------------------------------
        let make_conv = |idx: usize, c_in: usize, c_out: usize, rng: &mut StdRng| -> HwConv {
            let (signs, alphas) = params.binarized(idx);
            let (o, i) = (c_out, c_in * 9);
            let layout = TrainedParams::to_crossbar_layout(&signs, o, i);
            HwConv {
                xbar: Crossbar::program_with_spares(
                    &layout,
                    i,
                    o,
                    config.spare_cols,
                    &config.crossbar,
                    rng,
                ),
                geo: conv_geo(c_in, c_out),
                alphas,
                bias: params.biases[idx].as_slice().to_vec(),
                local: OpCounter::new(),
                col: Tensor::default(),
                ybuf: Vec::new(),
            }
        };

        let norm_block = |norm_idx: usize, p: f32, rng: &mut StdRng| -> HwBlock {
            let gamma = params.gammas[norm_idx].as_slice().to_vec();
            let beta = params.betas[norm_idx].as_slice().to_vec();
            if method == Method::AffineDropout {
                let modules = if p > 0.0 {
                    let mk = |rng: &mut StdRng| {
                        let mut m = SpinDropModule::new(p as f64, corner, rng);
                        if config.module_tuning_bits > 0 {
                            m.tune(config.module_tuning_bits, 0.02, rng);
                        }
                        m
                    };
                    Some((mk(rng), mk(rng)))
                } else {
                    None
                };
                HwBlock::InvNorm(HwInvNorm {
                    gamma,
                    beta,
                    modules,
                    local: OpCounter::new(),
                    abuf: Vec::new(),
                })
            } else {
                let f = gamma.len();
                HwBlock::Norm(HwNorm {
                    gamma,
                    beta,
                    mean: vec![0.0; f],
                    var: vec![1.0; f],
                    stats: FeatureStats::default(),
                    local: OpCounter::new(),
                })
            }
        };

        let mut scale_idx = 0usize;
        let mut vi_idx = 0usize;
        let mut dropout_block =
            |features: usize, rng: &mut StdRng| -> Option<HwBlock> {
                match method {
                    Method::SpinDrop => Some(HwBlock::Dropout(HwDropout::PerNeuron {
                        modules: (0..features)
                            .map(|_| {
                                let mut m = SpinDropModule::new(arch.p as f64, corner, rng);
                                if config.module_tuning_bits > 0 {
                                    m.tune(config.module_tuning_bits, 0.02, rng);
                                }
                                m
                            })
                            .collect(),
                        p: arch.p,
                    })),
                    Method::SpatialSpinDrop => None, // built separately (needs channel count)
                    Method::SpinScaleDrop => {
                        let scale = params.scales[scale_idx].as_slice().to_vec();
                        scale_idx += 1;
                        let mut module =
                            ScaleDropModule::new(arch.p as f64, scale.len(), corner, rng);
                        if config.module_tuning_bits > 0 {
                            module.tune(config.module_tuning_bits, 0.02, rng);
                        }
                        Some(HwBlock::Dropout(HwDropout::Scale {
                            module,
                            scale,
                            local: OpCounter::new(),
                        }))
                    }
                    Method::SubsetVi => {
                        let mu = params.mus[vi_idx].as_slice().to_vec();
                        let sigma: Vec<f32> =
                            params.rhos[vi_idx].as_slice().iter().map(|&r| softplus(r)).collect();
                        vi_idx += 1;
                        Some(HwBlock::Dropout(HwDropout::ViScale {
                            mu,
                            sigma,
                            bits_per_sample: config.vi_bits_per_sample,
                            local: OpCounter::new(),
                            scratch: Vec::new(),
                        }))
                    }
                    _ => None,
                }
            };

        let spatial_block = |channels: usize, rows_gated: usize, rng: &mut StdRng| -> HwBlock {
            HwBlock::Dropout(HwDropout::PerChannel {
                modules: (0..channels)
                    .map(|_| {
                        let mut m =
                            SpatialDropModule::new(arch.p as f64, rows_gated, corner, rng);
                        if config.module_tuning_bits > 0 {
                            m.tune(config.module_tuning_bits, 0.02, rng);
                        }
                        m
                    })
                    .collect(),
                p: arch.p,
            })
        };

        // --- conv block 1 ---
        blocks.push(HwBlock::Conv(make_conv(0, 1, arch.c1, rng)));
        blocks.push(norm_block(0, arch.p, rng));
        blocks.push(HwBlock::HardTanh);
        let act1 = arch.c1 * arch.side * arch.side;
        if method == Method::SpatialSpinDrop {
            blocks.push(spatial_block(arch.c1, 9, rng));
        } else if let Some(b) = dropout_block(act1, rng) {
            blocks.push(b);
        }
        blocks.push(HwBlock::MaxPool(2));

        // --- conv block 2 ---
        blocks.push(HwBlock::Conv(make_conv(1, arch.c1, arch.c2, rng)));
        blocks.push(norm_block(1, arch.p, rng));
        blocks.push(HwBlock::HardTanh);
        let act2 = arch.c2 * (arch.side / 2) * (arch.side / 2);
        if method == Method::SpatialSpinDrop {
            blocks.push(spatial_block(arch.c2, 9, rng));
        } else if let Some(b) = dropout_block(act2, rng) {
            blocks.push(b);
        }
        blocks.push(HwBlock::MaxPool(2));

        // --- FC stage ---
        blocks.push(HwBlock::Flatten);
        if method == Method::SpinBayes {
            // Multi-instance quantized crossbars around the *latent*
            // fc1 weights, arbiter-selected.
            let w = &params.weights[2];
            let sb = &config.spinbayes;
            let rms = (w.norm_sq() / w.len() as f32).sqrt();
            // Clip the level ladder at 3·rms: spending levels on the
            // outlier tail would starve the bulk of the distribution
            // (the paper's design-time bit-precision exploration).
            let w_max = (3.0 * rms).min(w.map(f32::abs).max()).max(1e-6) as f64;
            let sigma = sb.rel_sigma * rms;
            let (o, i) = (arch.hidden, arch.flat_features());
            let mut xbars = Vec::with_capacity(sb.instances);
            for k in 0..sb.instances {
                let mut inst = vec![0.0f32; o * i];
                for r in 0..o {
                    for c in 0..i {
                        let base = w[r * i + c];
                        let perturbed = if k == 0 {
                            base
                        } else {
                            base + sigma
                                * neuspin_device::stats::standard_normal(rng) as f32
                        };
                        // Crossbar layout: rows = inputs.
                        inst[c * o + r] =
                            quantize(perturbed, sb.levels, w_max as f32);
                    }
                }
                xbars.push(MlcCrossbar::program(
                    &inst,
                    i,
                    o,
                    sb.levels - 1,
                    w_max,
                    &config.crossbar,
                    rng,
                ));
            }
            blocks.push(HwBlock::FcSpinBayes(HwFcSpinBayes {
                xbars,
                arbiter: Arbiter::new(sb.instances, corner, rng),
                bias: params.biases[2].as_slice().to_vec(),
                out_features: arch.hidden,
                local: OpCounter::new(),
                ybuf: Vec::new(),
            }));
        } else {
            let (signs, alphas) = params.binarized(2);
            let (o, i) = (arch.hidden, arch.flat_features());
            let layout = TrainedParams::to_crossbar_layout(&signs, o, i);
            blocks.push(HwBlock::Fc(HwFc {
                xbar: Crossbar::program_with_spares(
                    &layout,
                    i,
                    o,
                    config.spare_cols,
                    &config.crossbar,
                    rng,
                ),
                alphas,
                bias: params.biases[2].as_slice().to_vec(),
                local: OpCounter::new(),
                ybuf: Vec::new(),
            }));
        }
        blocks.push(norm_block(2, arch.p, rng));
        blocks.push(HwBlock::HardTanh);
        if method == Method::SpatialSpinDrop {
            blocks.push(spatial_block(arch.hidden, 1, rng));
        } else if let Some(b) = dropout_block(arch.hidden, rng) {
            blocks.push(b);
        }

        // Final classifier in the digital periphery.
        blocks.push(HwBlock::DigitalFc(HwDigitalFc {
            weight: params.weights[3].clone(),
            bias: params.biases[3].as_slice().to_vec(),
            local: OpCounter::new(),
            weight_t: Tensor::default(),
        }));

        let mut model = Self {
            blocks,
            method,
            passes: config.passes.max(1),
            baseline: OpCounter::new(),
            extra: OpCounter::new(),
            energy_model: EnergyModel::default(),
            ping: Tensor::default(),
            pong: Tensor::default(),
            probs: Tensor::default(),
            plan_shape: Vec::new(),
            plan_rebuilds: 0,
        };
        model.baseline = model.raw_counter();
        model
    }

    /// The method this model implements.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Monte-Carlo passes per prediction.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Sets the MC pass count.
    ///
    /// # Panics
    ///
    /// Panics if `passes == 0`.
    pub fn set_passes(&mut self, passes: usize) {
        assert!(passes > 0, "passes must be positive");
        self.passes = passes;
    }

    /// (Re)sizes the forward plan for input `shape`. Returns whether a
    /// rebuild happened: the pass that follows a rebuild regrows every
    /// scratch buffer once; subsequent same-shape passes reuse them.
    fn plan_for(&mut self, shape: &[usize]) -> bool {
        if self.plan_shape == shape {
            return false;
        }
        self.plan_shape.clear();
        self.plan_shape.extend_from_slice(shape);
        self.plan_rebuilds += 1;
        if crate::telemetry::metrics_enabled() {
            crate::telemetry::counter("plan_rebuilds_total").inc();
        }
        true
    }

    /// One hardware forward pass. Activations ping-pong between two
    /// persistent buffers and every block writes through its
    /// `forward_into`, so a steady-state pass (same batch shape as the
    /// previous one) touches the heap zero times. With telemetry on, the
    /// pass emits one span per pipeline block carrying the block's
    /// op-counter delta, plus a whole-pass span with the energy charged
    /// to this forward; spans draw no randomness, so traced and untraced
    /// runs are bit-identical. The result lives in an internal buffer;
    /// clone it if it must outlive the next pass.
    pub fn forward_planned(
        &mut self,
        x: &Tensor,
        stochastic: bool,
        rng: &mut StdRng,
    ) -> &Tensor {
        let rebuilt = self.plan_for(x.shape());
        let traced = crate::telemetry::active();
        let mut span = crate::span!("hw_forward", batch = x.shape()[0]);
        let before = traced.then(|| self.raw_counter());
        self.run_blocks(x, stochastic, false, traced, rng);
        if rebuilt && crate::telemetry::metrics_enabled() {
            crate::telemetry::gauge("scratch_bytes").set(self.scratch_bytes() as f64);
        }
        if let Some(before) = before {
            let delta = self.raw_counter().since(&before);
            // Recorded as a field only: the per-block spans already
            // folded these ops into the registry rollup.
            span.record("ops", delta.to_json());
            span.record("energy_j", self.energy_model.energy_of(&delta).0);
        }
        &self.pong
    }

    /// The one block loop, shared by [`HardwareModel::forward_planned`]
    /// and [`HardwareModel::calibrate`]: each block reads one plan
    /// buffer and writes the other, leaving the output in `self.pong`.
    /// `traced` wraps every block in an `hw_block` span.
    fn run_blocks(
        &mut self,
        x: &Tensor,
        stochastic: bool,
        calibrating: bool,
        traced: bool,
        rng: &mut StdRng,
    ) {
        let mut a = std::mem::take(&mut self.ping);
        let mut b = std::mem::take(&mut self.pong);
        for (layer, block) in self.blocks.iter_mut().enumerate() {
            let src = if layer == 0 { x } else { &b };
            let span = traced.then(|| {
                (crate::span!("hw_block", layer = layer, kind = block.kind()), block.counter())
            });
            block.forward_into(src, &mut a, stochastic, calibrating, rng);
            if let Some((mut span, before)) = span {
                span.record_ops(&block.counter().since(&before));
            }
            std::mem::swap(&mut a, &mut b);
        }
        self.ping = a;
        self.pong = b;
    }

    /// Bytes currently held by the forward plan's scratch arenas: the
    /// ping-pong activation pair, the softmax buffer, and every block's
    /// private scratch. Exported as the `scratch_bytes` gauge when a
    /// plan rebuild grows them.
    pub fn scratch_bytes(&self) -> usize {
        (self.ping.capacity() + self.pong.capacity() + self.probs.capacity()) * 4
            + self.blocks.iter().map(|b| b.scratch_bytes()).sum::<usize>()
    }

    /// Times the forward plan has been (re)built (see
    /// [`HardwareModel::forward_planned`]); a steady stream of
    /// same-shape batches holds this at 1.
    pub fn plan_rebuilds(&self) -> u64 {
        self.plan_rebuilds
    }

    /// Calibrates the digital norm statistics by running `rounds`
    /// deterministic hardware passes over `inputs` (the standard CIM
    /// deployment flow; absorbs programming-time variation). A no-op for
    /// the inverted-norm method, which needs no stored statistics.
    /// Runs the forward-plan block loop without rebuilding the plan or
    /// emitting spans.
    pub fn calibrate(&mut self, inputs: &Tensor, rounds: usize, rng: &mut StdRng) {
        for _ in 0..rounds.max(1) {
            self.run_blocks(inputs, false, true, false, rng);
        }
    }

    /// Bayesian prediction: `passes` stochastic hardware passes through
    /// the planned zero-allocation path, aggregated by the shared MC
    /// machinery ([`neuspin_bayes::McAccumulator`]).
    pub fn predict(&mut self, inputs: &Tensor, rng: &mut StdRng) -> Predictive {
        let stochastic = self.method.is_bayesian();
        let passes = if stochastic { self.passes } else { 1 };
        let mut acc = McAccumulator::new();
        let mut probs = std::mem::take(&mut self.probs);
        for _ in 0..passes {
            let logits = self.forward_planned(inputs, stochastic, rng);
            softmax_into(logits, &mut probs);
            acc.push(&probs);
        }
        self.probs = probs;
        acc.finish()
    }

    /// Seeded sequential Bayesian prediction: like
    /// [`HardwareModel::predict`], but every MC pass runs on its own RNG
    /// stream derived from `seed` (the [`neuspin_bayes::pass_seeds`]
    /// schedule) instead of one shared ambient stream. The reference
    /// path [`HardwareModel::predict_par`] is bit-identical to, at any
    /// thread count. Runs through the planned zero-allocation forward.
    pub fn predict_seeded(&mut self, inputs: &Tensor, seed: u64) -> Predictive {
        let stochastic = self.method.is_bayesian();
        let passes = if stochastic { self.passes } else { 1 };
        let mut span = crate::span!("predict", engine = "seq", passes = passes);
        self.seeded_passes(inputs, seed, passes, stochastic, &mut span)
    }

    /// Deterministic parallel Bayesian prediction: the MC passes fan out
    /// over `pool` workers, each pass on the same per-pass RNG stream
    /// [`HardwareModel::predict_seeded`] would give it, reduced in pass
    /// order — so the returned [`Predictive`] is bit-identical for any
    /// thread count. Runs [`HardwareModel::predict_par_in`] on a fresh
    /// [`ReplicaBank`]: the replicas are cloned for this call only, and
    /// their op counters and sense-margin statistics are merged back
    /// into `self`, keeping energy accounting and the health monitor
    /// accurate.
    pub fn predict_par(&mut self, inputs: &Tensor, seed: u64, pool: &ThreadPool) -> Predictive {
        self.predict_par_in(inputs, seed, pool, &mut ReplicaBank::new())
    }

    /// [`HardwareModel::predict_par`] over persistent replicas: the
    /// workers run on `bank`'s replicas — cloned on the calling thread
    /// when the bank is (re)attached — and after every call each
    /// replica's op-counter and sense-margin deltas are folded into
    /// `self`. Bit-identical to [`HardwareModel::predict_seeded`] at any
    /// thread count; a steady-state call clones nothing.
    ///
    /// Call [`ReplicaBank::invalidate`] after any mutation of `self`
    /// (fault management, drift, scrub, recalibration) so the next call
    /// re-clones from the updated weights.
    pub fn predict_par_in(
        &mut self,
        inputs: &Tensor,
        seed: u64,
        pool: &ThreadPool,
        bank: &mut ReplicaBank,
    ) -> Predictive {
        let stochastic = self.method.is_bayesian();
        let passes = if stochastic { self.passes } else { 1 };
        let mut span = crate::span!("predict", engine = "par", passes = passes);
        // Nothing to fan out: run the seeded loop inline (no clone, no
        // merge). Same RNG schedule, reduction order, and trace bytes as
        // the pooled path, so results stay bit-identical across thread
        // counts.
        if passes == 1 || pool.threads() == 1 {
            return self.seeded_passes(inputs, seed, passes, stochastic, &mut span);
        }
        let workers = pool.threads().min(passes);
        bank.ensure(self, workers);
        let pred = crate::pool::mc_predict_par(
            pool,
            passes,
            seed,
            &mut bank.replicas,
            |rep: &mut Replica, _, rng| rep.model.forward_planned(inputs, stochastic, rng).clone(),
        );
        // Resync: fold each replica's counter delta since its last sync
        // and its margin accumulators into the live model, then reset
        // both. Replica margins are zeroed at every clone and sync, so
        // the sums are exact per-replica totals and warm and freshly
        // cloned banks merge bit-identically (the checkpoint/restore
        // battery holds this at any thread count).
        let counter_delta = OpCounter::merged(
            bank.replicas.iter().map(|r| r.model.raw_counter().since(&r.counter_base)),
        );
        let mut margin_sums = vec![(0.0f64, 0u64); self.crossbar_margins().len()];
        for rep in &mut bank.replicas {
            for (sum, part) in margin_sums.iter_mut().zip(rep.model.crossbar_margins()) {
                sum.0 += part.0;
                sum.1 += part.1;
            }
            rep.model.reset_sense_margins();
            rep.counter_base = rep.model.raw_counter();
        }
        self.extra.merge(&counter_delta);
        self.merge_crossbar_margins(&margin_sums);
        bank.syncs += 1;
        if crate::telemetry::metrics_enabled() {
            crate::telemetry::counter("replica_syncs_total").inc();
        }
        // Field only: replica-side block spans already fed the rollup.
        span.record("ops", counter_delta.to_json());
        span.record("energy_j", self.energy_model.energy_of(&counter_delta).0);
        pred
    }

    /// The seeded sequential loop behind [`HardwareModel::predict_seeded`]
    /// and the unpooled branch of [`HardwareModel::predict_par_in`]:
    /// pass `t` runs on the `pass_seeds(seed, passes)[t]` stream with
    /// its softmax inside the `mc_pass` span — exactly where the pooled
    /// workers put it — so the emitted trace byte-compares with every
    /// thread count. Records the ops and energy of all passes on `span`.
    fn seeded_passes(
        &mut self,
        inputs: &Tensor,
        seed: u64,
        passes: usize,
        stochastic: bool,
        span: &mut crate::telemetry::SpanGuard,
    ) -> Predictive {
        let base_counter = self.raw_counter();
        let seeds = pass_seeds(seed, passes);
        let mut acc = McAccumulator::new();
        let mut probs = std::mem::take(&mut self.probs);
        for (t, &pass_seed) in seeds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(pass_seed);
            {
                let _pass = crate::span!("mc_pass", pass = t);
                let logits = self.forward_planned(inputs, stochastic, &mut rng);
                softmax_into(logits, &mut probs);
            }
            acc.push(&probs);
        }
        self.probs = probs;
        let delta = self.raw_counter().since(&base_counter);
        span.record("ops", delta.to_json());
        span.record("energy_j", self.energy_model.energy_of(&delta).0);
        acc.finish()
    }

    /// Per-crossbar sense-margin accumulators `(sum, count)` in pipeline
    /// order — the snapshot/merge format of the parallel engine.
    fn crossbar_margins(&self) -> Vec<(f64, u64)> {
        let mut parts = Vec::new();
        for block in &self.blocks {
            if let Some(xbar) = block.crossbar() {
                parts.push(xbar.sense_margin_parts());
            } else if let HwBlock::FcSpinBayes(b) = block {
                parts.extend(b.xbars.iter().map(MlcCrossbar::sense_margin_parts));
            }
        }
        parts
    }

    /// Folds per-crossbar sense-margin deltas (same order as
    /// [`HardwareModel::crossbar_margins`]) back into the live model.
    fn merge_crossbar_margins(&mut self, deltas: &[(f64, u64)]) {
        let mut it = deltas.iter();
        let mut next = || *it.next().expect("margin delta count mismatch");
        for block in &mut self.blocks {
            if let Some(xbar) = block.crossbar_mut() {
                let (sum, count) = next();
                xbar.merge_sense_margin(sum, count);
            } else if let HwBlock::FcSpinBayes(b) = block {
                for xb in &mut b.xbars {
                    let (sum, count) = next();
                    xb.merge_sense_margin(sum, count);
                }
            }
        }
    }

    /// Sets the evaluation-kernel routing policy on every binary
    /// crossbar (see [`neuspin_cim::KernelPolicy`]). All policies are
    /// bit-identical; `Auto` (the default) lets noiseless ternary tiles
    /// take the packed XNOR/popcount fast path.
    pub fn set_kernel_policy(&mut self, policy: KernelPolicy) {
        for xbar in self.blocks.iter_mut().filter_map(HwBlock::crossbar_mut) {
            xbar.set_kernel_policy(policy);
        }
    }

    /// Total evaluations served by the packed XNOR/popcount kernel
    /// across all binary crossbars (see
    /// [`neuspin_cim::Crossbar::packed_calls`]). Worker clones do not
    /// merge this diagnostic, so assert engagement on sequential runs.
    pub fn packed_call_count(&self) -> u64 {
        self.blocks.iter().filter_map(HwBlock::crossbar).map(Crossbar::packed_calls).sum()
    }

    /// Calibrates the abstention threshold on held-out inputs: runs one
    /// predictive pass and returns the entropy level that keeps at
    /// least `coverage` of these (assumed healthy-hardware) samples.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is outside `(0, 1]` or `calib` is empty.
    pub fn calibrate_abstention(
        &mut self,
        calib: &Tensor,
        coverage: f64,
        rng: &mut StdRng,
    ) -> f64 {
        let pred = self.predict(calib, rng);
        entropy_threshold_for_coverage(&pred.entropy, coverage)
    }

    /// Runs the production-test half of the fault-management loop over
    /// every binary crossbar: march-test BIST (estimated defect map),
    /// spare-column repair, and fault-aware remapping that routes the
    /// highest-α output channels onto the cleanest physical columns.
    /// Run it after compilation and *before* [`HardwareModel::calibrate`]
    /// (the remap changes each line's IR-drop position, which
    /// calibration then absorbs).
    ///
    /// Deterministic given the RNG seed: same die + same seed ⇒ same
    /// estimate, same repair decisions, same remap.
    pub fn fault_management(
        &mut self,
        bist: &BistConfig,
        rng: &mut StdRng,
    ) -> FaultManagementReport {
        let _span = crate::span!("fault_management");
        let mut layers = Vec::new();
        for (layer, block) in self.blocks.iter_mut().enumerate() {
            let (xbar, alphas): (&mut Crossbar, &[f32]) = match block {
                HwBlock::Conv(b) => (&mut b.xbar, &b.alphas),
                HwBlock::Fc(b) => (&mut b.xbar, &b.alphas),
                _ => continue,
            };
            let report = manage_crossbar(xbar, alphas, bist, rng);
            if crate::telemetry::active() {
                crate::trace_event!(
                    "layer_fault",
                    layer = layer,
                    flagged = report.flagged as u64,
                    repaired = report.repaired as u64,
                    unrepaired = report.unrepaired as u64,
                    remapped = report.remapped
                );
                crate::telemetry::counter("bist_flagged_total").add(report.flagged as u64);
                crate::telemetry::counter("repairs_total").add(report.repaired as u64);
                crate::telemetry::counter("remaps_total").add(u64::from(report.remapped));
            }
            layers.push(report);
        }
        FaultManagementReport { layers }
    }

    /// Read-only BIST audit over every binary crossbar: runs the march
    /// test (which restores array contents exactly — post-audit
    /// effective weights are bit-identical) without repairing or
    /// remapping, and returns `(flagged, known_defects)` per crossbar.
    /// Used as the re-commission gate when a restored die rejoins a
    /// fleet: a healthy restore flags no more cells than the die's
    /// known fabricated defect population (plus estimator slack).
    pub fn bist_audit(&mut self, bist: &BistConfig, rng: &mut StdRng) -> Vec<(usize, usize)> {
        self.blocks
            .iter_mut()
            .filter_map(HwBlock::crossbar_mut)
            .map(|xbar| (march_test(xbar, bist, rng).flagged(), xbar.defects().defect_count()))
            .collect()
    }

    /// Mean sense margin over every crossbar since the last
    /// [`HardwareModel::reset_sense_margins`] — the hardware-side
    /// signal for [`crate::HealthMonitor`]. Crossbars that have not
    /// evaluated yet contribute 0.
    pub fn mean_sense_margin(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for block in &self.blocks {
            if let Some(xbar) = block.crossbar() {
                sum += xbar.mean_sense_margin();
                n += 1;
            } else if let HwBlock::FcSpinBayes(b) = block {
                for xb in &b.xbars {
                    sum += xb.mean_sense_margin();
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Starts a fresh sense-margin window on every crossbar.
    pub fn reset_sense_margins(&mut self) {
        for block in &mut self.blocks {
            if let Some(xbar) = block.crossbar_mut() {
                xbar.reset_sense_margin();
            } else if let HwBlock::FcSpinBayes(b) = block {
                b.xbars.iter_mut().for_each(MlcCrossbar::reset_sense_margin);
            }
        }
    }

    fn raw_counter(&self) -> OpCounter {
        let mut c = OpCounter::merged(self.blocks.iter().map(|b| b.counter()));
        c.merge(&self.extra);
        c
    }

    /// Op counts since the last [`HardwareModel::reset_counter`] (or
    /// compilation), excluding programming costs.
    pub fn counter(&self) -> OpCounter {
        self.raw_counter().since(&self.baseline)
    }

    /// Starts a fresh counting window.
    pub fn reset_counter(&mut self) {
        self.baseline = self.raw_counter();
    }

    /// Energy of the current counting window.
    pub fn energy(&self) -> Joules {
        self.energy_model.energy_of(&self.counter())
    }

    /// Energy breakdown of the current counting window.
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        self.energy_model.breakdown(&self.counter())
    }

    /// Injects multiplicative in-field conductance drift into every
    /// crossbar: each cell's effective weight is scaled by an
    /// independent lognormal factor of sigma `sigma` (plus a global
    /// factor `global`). Models retention loss / temperature drift
    /// *after* calibration — the self-healing scenario of §III-A4.
    pub fn inject_drift(&mut self, global: f64, sigma: f64, rng: &mut StdRng) {
        let dist = LogNormal::from_median_sigma(1.0, sigma.max(1e-12));
        for block in &mut self.blocks {
            match block {
                HwBlock::Conv(b) => drift_crossbar(&mut b.xbar, global, &dist, rng),
                HwBlock::Fc(b) => drift_crossbar(&mut b.xbar, global, &dist, rng),
                HwBlock::FcSpinBayes(b) => {
                    for xb in &mut b.xbars {
                        drift_mlc(xb, global, &dist, rng);
                    }
                }
                _ => {}
            }
        }
    }

    /// Attaches the temporal degradation engine to every binary
    /// crossbar (see [`neuspin_cim::Crossbar::enable_aging`]), with a
    /// distinct per-layer seed derived from `config.seed`. The current
    /// stored contents become each array's golden scrub reference, so
    /// call this after compilation (and any fault-management remap).
    ///
    /// SpinBayes MLC arrays are left out, mirroring
    /// [`HardwareModel::fault_management`]: the lifetime machinery
    /// covers the binary SpinDrop family first.
    pub fn enable_aging(&mut self, config: &AgingConfig) {
        for (i, block) in self.blocks.iter_mut().enumerate() {
            if let Some(xbar) = block.crossbar_mut() {
                // Mixing in the block index gives each layer its own stream.
                xbar.enable_aging(&AgingConfig {
                    seed: config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..config.clone()
                });
            }
        }
    }

    /// Whether [`HardwareModel::enable_aging`] has attached the engine.
    pub fn aging_enabled(&self) -> bool {
        self.blocks.iter().filter_map(HwBlock::crossbar).any(Crossbar::aging_enabled)
    }

    /// Advances every aged crossbar's virtual clock by `dt_hours` (see
    /// [`neuspin_cim::Crossbar::advance_time`]) and merges the per-layer
    /// reports.
    ///
    /// # Panics
    ///
    /// Panics if aging was never enabled.
    pub fn advance_time(&mut self, dt_hours: f64) -> AgingReport {
        assert!(self.aging_enabled(), "advance_time requires enable_aging");
        let mut total = AgingReport::default();
        for xbar in self.blocks.iter_mut().filter_map(HwBlock::crossbar_mut) {
            total.merge(&xbar.advance_time(dt_hours));
        }
        total
    }

    /// Scrubs every aged crossbar back to its golden contents (see
    /// [`neuspin_cim::Crossbar::scrub`]); returns the total number of
    /// decayed cells refreshed. The write energy is tallied like any
    /// reprogram and lands in [`HardwareModel::energy`].
    ///
    /// # Panics
    ///
    /// Panics if aging was never enabled.
    pub fn scrub(&mut self) -> usize {
        assert!(self.aging_enabled(), "scrub requires enable_aging");
        self.blocks.iter_mut().filter_map(HwBlock::crossbar_mut).map(Crossbar::scrub).sum()
    }

    /// Captures the pipeline's complete mutable state (see
    /// [`ModelState`]).
    pub(crate) fn export_state(&self) -> ModelState {
        ModelState {
            blocks: self.blocks.iter().map(HwBlock::export_state).collect(),
            baseline: self.baseline,
            extra: self.extra,
        }
    }

    /// Reapplies a captured state onto this pipeline. The model must be
    /// a twin: compiled by the same constructor from the same inputs
    /// (and with aging enabled if the captured state carries aging).
    /// The forward plan is invalidated — the next planned pass rebuilds
    /// it for its batch shape, which perturbs only the
    /// `plan_rebuilds` diagnostic, never outputs or RNG streams.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline length or any block kind/population
    /// differs from the captured state.
    pub(crate) fn import_state(&mut self, state: &ModelState) {
        assert_eq!(
            self.blocks.len(),
            state.blocks.len(),
            "checkpoint pipeline length mismatch"
        );
        for (block, s) in self.blocks.iter_mut().zip(&state.blocks) {
            block.import_state(s);
        }
        self.baseline = state.baseline;
        self.extra = state.extra;
        self.plan_shape.clear();
    }

    /// Chaos hook: flips the stored sign of `flips` pseudo-randomly
    /// chosen (non-defective) binary-crossbar cells — transient upsets
    /// beyond the aging model's retention/disturb machinery. Cell
    /// choices come from a dedicated SplitMix64 stream over `seed`;
    /// model and evaluation RNG streams are untouched, and no op-energy
    /// is tallied (radiation is free). Returns the number of cells
    /// actually flipped (defective targets are skipped, not redrawn).
    pub fn flip_stored_weight_bits(&mut self, flips: usize, seed: u64) -> usize {
        let mut targets: Vec<&mut Crossbar> =
            self.blocks.iter_mut().filter_map(HwBlock::crossbar_mut).collect();
        if targets.is_empty() {
            return 0;
        }
        let mut stream = SplitMix64::new(seed);
        let mut flipped = 0;
        for _ in 0..flips {
            let which = (stream.next_u64() % targets.len() as u64) as usize;
            let xbar = &mut targets[which];
            let row = (stream.next_u64() % xbar.rows() as u64) as usize;
            let col = (stream.next_u64() % xbar.cols() as u64) as usize;
            if xbar.flip_stored_sign(row, col) {
                flipped += 1;
            }
        }
        flipped
    }

    /// A human-readable description of the compiled pipeline: one line
    /// per stage with crossbar dimensions and module counts.
    pub fn summary(&self) -> String {
        let mut lines = Vec::new();
        for (i, block) in self.blocks.iter().enumerate() {
            let desc = match block {
                HwBlock::Conv(b) => format!(
                    "crossbar conv {}×{} (binary, α+bias digital)",
                    b.xbar.rows(),
                    b.xbar.cols()
                ),
                HwBlock::Fc(b) => {
                    format!("crossbar fc {}×{} (binary)", b.xbar.rows(), b.xbar.cols())
                }
                HwBlock::FcSpinBayes(b) => format!(
                    "SpinBayes fc: {} instances of {}×{} ({} levels) + arbiter",
                    b.xbars.len(),
                    b.xbars[0].rows(),
                    b.xbars[0].cols(),
                    b.xbars[0].levels()
                ),
                HwBlock::DigitalFc(b) => format!(
                    "digital fc {}×{}",
                    b.weight.shape()[1],
                    b.weight.shape()[0]
                ),
                HwBlock::Norm(b) => format!("calibrated norm ({} features)", b.gamma.len()),
                HwBlock::InvNorm(b) => format!(
                    "inverted norm ({} features{})",
                    b.gamma.len(),
                    if b.modules.is_some() { ", affine dropout" } else { "" }
                ),
                HwBlock::HardTanh => "hard-tanh".to_string(),
                HwBlock::MaxPool(k) => format!("max-pool {k}×{k}"),
                HwBlock::Flatten => "flatten".to_string(),
                HwBlock::Dropout(HwDropout::PerNeuron { modules, p }) => {
                    format!("SpinDrop: {} modules (p={p})", modules.len())
                }
                HwBlock::Dropout(HwDropout::PerChannel { modules, p }) => {
                    format!("Spatial-SpinDrop: {} modules (p={p})", modules.len())
                }
                HwBlock::Dropout(HwDropout::Scale { scale, .. }) => {
                    format!("ScaleDrop: 1 module, {}-entry SRAM scale", scale.len())
                }
                HwBlock::Dropout(HwDropout::ViScale { mu, .. }) => {
                    format!("VI scale sampler: {} gaussians/pass", mu.len())
                }
            };
            lines.push(format!("  [{i:>2}] {desc}"));
        }
        format!(
            "{} on CIM ({} stochastic modules, {} MC passes):\n{}",
            self.method,
            self.stochastic_module_count(),
            self.passes,
            lines.join("\n")
        )
    }

    /// Number of stochastic modules instantiated (the hardware-cost
    /// figure behind the paper's module-count comparisons).
    pub fn stochastic_module_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| match b {
                HwBlock::Dropout(HwDropout::PerNeuron { modules, .. }) => modules.len(),
                HwBlock::Dropout(HwDropout::PerChannel { modules, .. }) => modules.len(),
                HwBlock::Dropout(HwDropout::Scale { .. }) => 1,
                HwBlock::Dropout(HwDropout::ViScale { mu, .. }) => mu.len(),
                HwBlock::InvNorm(n) if n.modules.is_some() => 2,
                HwBlock::FcSpinBayes(b) => b.arbiter.bits_per_draw(),
                _ => 0,
            })
            .sum()
    }
}

/// Per-worker model replicas for [`HardwareModel::predict_par_in`]:
/// cloned from the serving model on the calling thread at attach time
/// (or after [`ReplicaBank::invalidate`]) and reused across calls, so
/// steady-state parallel prediction clones nothing.
/// [`HardwareModel::predict_par`] runs on a fresh bank per call. Each
/// replica tracks the op-counter baseline of its last sync and keeps
/// its sense-margin accumulators zeroed between syncs.
#[derive(Debug, Default)]
pub struct ReplicaBank {
    replicas: Vec<Replica>,
    syncs: u64,
}

#[derive(Debug)]
struct Replica {
    model: HardwareModel,
    counter_base: OpCounter,
}

impl ReplicaBank {
    /// An empty bank; replicas are cloned lazily on first parallel use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the bank currently holds no replicas.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Times replica deltas have been merged back into a live model.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Drops every replica: the next parallel call re-clones from the
    /// live model. Call after any mutation of the source model (fault
    /// management, drift, scrub, aging, recalibration, remapping) — a
    /// stale replica would otherwise keep serving the old weights.
    pub fn invalidate(&mut self) {
        self.replicas.clear();
    }

    /// Commissions `workers` replicas of `src` unless that many are
    /// already attached. A replica's counter baseline starts at `src`'s
    /// current tally (a clone carries it), so the first sync reports
    /// only ops the replicas themselves performed; margin accumulators
    /// are zeroed so every sync folds an exact zero-based sum
    /// (bit-identical whether the bank is warm or freshly cloned).
    ///
    /// The clones are made here, on the calling thread, not on the
    /// short-lived pool workers: a model cloned on a worker lands in
    /// that thread's malloc arena, which keeps the pages resident after
    /// the clone is dropped.
    fn ensure(&mut self, src: &HardwareModel, workers: usize) {
        if self.replicas.len() == workers {
            return;
        }
        self.replicas.clear();
        self.replicas.extend((0..workers).map(|_| {
            let mut model = src.clone();
            model.reset_sense_margins();
            Replica { model, counter_base: src.raw_counter() }
        }));
    }
}

/// Per-crossbar outcome of [`HardwareModel::fault_management`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerFaultReport {
    /// Crossbar shape.
    pub rows: usize,
    /// Crossbar shape.
    pub cols: usize,
    /// Cells the BIST flagged as defective (estimate, physical
    /// coordinates).
    pub flagged: usize,
    /// Columns repaired with a spare.
    pub repaired: usize,
    /// Columns that needed a spare and got none.
    pub unrepaired: usize,
    /// Spares discarded as born-defective.
    pub dirty_spares: usize,
    /// Spares still unused after repair.
    pub spares_left: usize,
    /// Whether a non-identity fault-aware remap was applied.
    pub remapped: bool,
}

/// Aggregate outcome of [`HardwareModel::fault_management`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultManagementReport {
    /// One entry per binary crossbar, in pipeline order.
    pub layers: Vec<LayerFaultReport>,
}

impl FaultManagementReport {
    /// Total BIST-flagged cells.
    pub fn total_flagged(&self) -> usize {
        self.layers.iter().map(|l| l.flagged).sum()
    }

    /// Fraction of repair-needing columns that got a spare (1 when no
    /// column needed one).
    pub fn repair_success_rate(&self) -> f64 {
        let repaired: usize = self.layers.iter().map(|l| l.repaired).sum();
        let needed = repaired + self.layers.iter().map(|l| l.unrepaired).sum::<usize>();
        if needed == 0 {
            1.0
        } else {
            repaired as f64 / needed as f64
        }
    }

    /// Whether any crossbar was left with unrepaired hard faults.
    pub fn degraded(&self) -> bool {
        self.layers.iter().any(|l| l.unrepaired > 0)
    }
}

/// BIST → repair → fault-aware remap on one binary crossbar. Output
/// columns are ranked by |α| (each column's contribution is scaled by
/// its channel α, so high-α channels matter most); rows carry equal
/// binary weight and are ranked by damage only.
fn manage_crossbar(
    xbar: &mut Crossbar,
    alphas: &[f32],
    bist: &BistConfig,
    rng: &mut StdRng,
) -> LayerFaultReport {
    let report = march_test(xbar, bist, rng);
    let flagged = report.flagged();
    let mut estimated = report.estimated;
    let repair = repair_columns(xbar, &mut estimated);
    let (rows, cols) = (xbar.rows(), xbar.cols());
    let mut importance = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            importance[r * cols + c] = alphas.get(c).map_or(1.0, |a| a.abs());
        }
    }
    let remap = fault_aware_remap(&estimated, &importance, rows, cols);
    let remapped = !remap.is_identity();
    if remapped {
        xbar.apply_remap(remap.row_src, remap.col_src);
    }
    LayerFaultReport {
        rows,
        cols,
        flagged,
        repaired: repair.repaired.len(),
        unrepaired: repair.unrepaired.len(),
        dirty_spares: repair.dirty_spares,
        spares_left: xbar.available_spares(),
        remapped,
    }
}

fn drift_crossbar(
    xbar: &mut Crossbar,
    global: f64,
    dist: &LogNormal,
    rng: &mut StdRng,
) {
    xbar.apply_drift(|w| w * global * dist.sample(rng));
}

fn drift_mlc(xbar: &mut MlcCrossbar, global: f64, dist: &LogNormal, rng: &mut StdRng) {
    xbar.apply_drift(|w| w * global * dist.sample(rng));
}
