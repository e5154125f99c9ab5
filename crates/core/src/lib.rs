//! # neuspin-core — the hardware/software co-design runtime
//!
//! The paper's primary contribution, as an executable pipeline:
//!
//! 1. **Train** a Bayesian binary network in software
//!    ([`neuspin_bayes::build_cnn`] + [`neuspin_nn::fit`]).
//! 2. **Compile** it onto the spintronic CIM simulator
//!    ([`HardwareModel::compile`]): binary weights → differential MTJ
//!    crossbars; each method's stochastic element → the matching
//!    MTJ dropout module (SpinDrop / Spatial / Scale / Arbiter);
//!    normalization → digital periphery.
//! 3. **Calibrate** the digital norm statistics on the compiled
//!    hardware ([`HardwareModel::calibrate`]).
//! 4. **Predict** with hardware-in-the-loop Monte-Carlo passes
//!    ([`HardwareModel::predict`]), tallying every device event for the
//!    energy model.
//!
//! Reliability scenarios — process variation, manufacturing defects,
//! post-calibration drift — are scripted by [`reliability::sweep`].
//!
//! ## Example
//!
//! ```no_run
//! use neuspin_bayes::{build_cnn, ArchConfig, Method};
//! use neuspin_core::{HardwareConfig, HardwareModel};
//! use neuspin_data::digits::{dataset, DigitStyle};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let arch = ArchConfig::default();
//! let mut model = build_cnn(Method::SpinDrop, &arch, &mut rng);
//! // ... train `model` with neuspin_nn::fit ...
//! let data = dataset(128, &DigitStyle::default(), &mut rng);
//! let mut hw = HardwareModel::compile(
//!     &mut model, Method::SpinDrop, &arch, &HardwareConfig::default(), &mut rng);
//! hw.calibrate(&data.inputs, 2, &mut rng);
//! let pred = hw.predict(&data.inputs, &mut rng);
//! println!("hardware accuracy: {:.2}%", 100.0 * pred.accuracy(&data.labels));
//! println!("energy: {}", hw.energy());
//! ```

pub mod blocks;
#[cfg(test)]
mod blocks_tests;
pub mod chaos;
pub mod checkpoint;
pub mod dist;
pub mod extract;
pub mod flight;
#[cfg(test)]
mod golden_tests;
#[cfg(test)]
mod golden_training_tests;
pub mod health;
pub mod json;
pub mod model;
pub mod pool;
pub mod reliability;
pub mod report;
pub mod rng;
pub mod runtime;
pub mod serve;
pub mod telemetry;
#[cfg(test)]
pub(crate) mod testutil;

pub use chaos::{ChaosConfig, ChaosPlan, ChaosSite};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use extract::TrainedParams;
pub use health::{HealthConfig, HealthMonitor, HealthPolicy};
pub use json::{Json, ToJson};
pub use model::{FaultManagementReport, HardwareConfig, HardwareModel, LayerFaultReport, ReplicaBank};
pub use pool::{mc_predict_par, ThreadPool};
pub use reliability::{reliability_base, sweep, SweepConfig, SweepKind, SweepPoint};
pub use report::{CorruptionResult, OodResult, Series, Table1Row};
pub use runtime::{
    BistGateReport, RecoveryAction, RecoveryEvent, ServeReport, StepReport, Supervisor,
    SupervisorConfig,
};
pub use flight::FlightEvent;
pub use serve::fleet::{DieFleet, DieStatus, FleetError};
pub use serve::trace::{RequestId, RequestTrace, SloTracker};
pub use serve::{serve, DrainReport, ServeConfig, ServerHandle, StatsSnapshot};
pub use telemetry::{Counter, Gauge, Histogram, MetricsSnapshot, SpanGuard, TraceEvent};

#[cfg(test)]
mod tests {
    use super::*;
    use neuspin_bayes::{build_cnn, ArchConfig, Method};
    use neuspin_cim::CrossbarConfig;
    use neuspin_nn::{Mode, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arch() -> ArchConfig {
        ArchConfig::default()
    }

    fn ideal_config() -> HardwareConfig {
        HardwareConfig {
            crossbar: CrossbarConfig::ideal(),
            passes: 4,
            ..HardwareConfig::default()
        }
    }

    #[test]
    fn compile_and_forward_all_methods() {
        let a = arch();
        let x = Tensor::from_fn(&[2, 1, 16, 16], |i| ((i * 13 % 29) as f32 / 14.5) - 1.0);
        for method in Method::ALL {
            let mut rng = StdRng::seed_from_u64(7);
            let mut sw = build_cnn(
                if method == Method::SpinBayes { Method::Deterministic } else { method },
                &a,
                &mut rng,
            );
            let mut hw = HardwareModel::compile(&mut sw, method, &a, &ideal_config(), &mut rng);
            hw.calibrate(&x, 1, &mut rng);
            let y = hw.forward_planned(&x, method.is_bayesian(), &mut rng);
            assert_eq!(y.shape(), &[2, 10], "{method}");
            assert!(y.all_finite(), "{method}");
        }
    }

    #[test]
    fn ideal_hardware_matches_software_on_deterministic_model() {
        // With an ideal crossbar (no variation/noise/ADC) the hardware
        // forward must agree with the software model's Eval forward up
        // to calibrated-vs-running norm statistics. Compare argmax
        // decisions over a batch after calibrating on the same batch.
        let a = arch();
        let mut rng = StdRng::seed_from_u64(11);
        let mut sw = build_cnn(Method::Deterministic, &a, &mut rng);
        let x = Tensor::from_fn(&[16, 1, 16, 16], |i| ((i * 31 % 101) as f32 / 50.5) - 1.0);
        // A few software train passes to set running stats.
        for _ in 0..30 {
            let _ = sw.forward(&x, Mode::Train, &mut rng);
        }
        let sw_logits = sw.forward(&x, Mode::Eval, &mut rng);
        let mut hw = HardwareModel::compile(&mut sw, Method::Deterministic, &a, &ideal_config(), &mut rng);
        hw.calibrate(&x, 3, &mut rng);
        let hw_logits = hw.forward_planned(&x, false, &mut rng);
        let agree = sw_logits
            .argmax_rows()
            .iter()
            .zip(hw_logits.argmax_rows())
            .filter(|(a, b)| **a == *b)
            .count();
        assert!(agree >= 14, "ideal hardware must track software: {agree}/16");
    }

    #[test]
    fn bayesian_hardware_prediction_is_stochastic() {
        let a = arch();
        let mut rng = StdRng::seed_from_u64(13);
        let mut sw = build_cnn(Method::SpinDrop, &a, &mut rng);
        let mut hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &a, &ideal_config(), &mut rng);
        let x = Tensor::from_fn(&[2, 1, 16, 16], |i| (i as f32 * 0.037).sin());
        hw.calibrate(&x, 1, &mut rng);
        let y1 = hw.forward_planned(&x, true, &mut rng).clone();
        let y2 = hw.forward_planned(&x, true, &mut rng);
        assert_ne!(&y1, y2, "dropout modules must vary the output");
        let pred = hw.predict(&x, &mut rng);
        assert_eq!(pred.passes, 4);
        assert!(pred.mutual_information.iter().any(|&mi| mi >= 0.0));
    }

    #[test]
    fn energy_accounting_counts_rng_for_dropout_methods() {
        let a = arch();
        let x = Tensor::from_fn(&[1, 1, 16, 16], |i| (i as f32 * 0.05).cos());
        let mut energies = Vec::new();
        for method in [Method::Deterministic, Method::SpinDrop, Method::SpinScaleDrop] {
            let mut rng = StdRng::seed_from_u64(17);
            let mut sw = build_cnn(method, &a, &mut rng);
            let mut hw = HardwareModel::compile(&mut sw, method, &a, &ideal_config(), &mut rng);
            hw.calibrate(&x, 1, &mut rng);
            hw.reset_counter();
            let _ = hw.predict(&x, &mut rng);
            let c = hw.counter();
            if method == Method::Deterministic {
                assert_eq!(c.rng_bits, 0);
            } else {
                assert!(c.rng_bits > 0, "{method} must consume RNG bits");
            }
            energies.push((method, hw.energy().0));
        }
        // SpinDrop (per-neuron bits × 4 passes) must dwarf ScaleDrop.
        let spindrop = energies[1].1;
        let scaledrop = energies[2].1;
        assert!(spindrop > scaledrop, "{spindrop} vs {scaledrop}");
    }

    #[test]
    fn module_counts_follow_method_hierarchy() {
        let a = arch();
        let x = Tensor::zeros(&[1, 1, 16, 16]);
        let _ = x;
        let mut counts = std::collections::HashMap::new();
        for method in [Method::SpinDrop, Method::SpatialSpinDrop, Method::SpinScaleDrop] {
            let mut rng = StdRng::seed_from_u64(19);
            let mut sw = build_cnn(method, &a, &mut rng);
            let hw = HardwareModel::compile(&mut sw, method, &a, &ideal_config(), &mut rng);
            counts.insert(method, hw.stochastic_module_count());
        }
        let sd = counts[&Method::SpinDrop];
        let sp = counts[&Method::SpatialSpinDrop];
        let sc = counts[&Method::SpinScaleDrop];
        assert!(sd > sp && sp > sc, "{sd} > {sp} > {sc} expected");
        assert_eq!(sc, 3, "one scale module per layer");
        // conv maps (8 + 16) + fc features (64) = 88 spatial modules.
        assert_eq!(sp, 88);
    }

    #[test]
    fn drift_injection_changes_outputs() {
        let a = arch();
        let mut rng = StdRng::seed_from_u64(23);
        let mut sw = build_cnn(Method::Deterministic, &a, &mut rng);
        let mut hw = HardwareModel::compile(&mut sw, Method::Deterministic, &a, &ideal_config(), &mut rng);
        let x = Tensor::from_fn(&[2, 1, 16, 16], |i| (i as f32 * 0.021).sin());
        hw.calibrate(&x, 1, &mut rng);
        let before = hw.forward_planned(&x, false, &mut rng).clone();
        hw.inject_drift(0.8, 0.2, &mut rng);
        let after = hw.forward_planned(&x, false, &mut rng);
        assert_ne!(&before, after, "drift must perturb the computation");
        assert!(after.all_finite());
    }

    #[test]
    fn summary_describes_pipeline() {
        let a = arch();
        let mut rng = StdRng::seed_from_u64(31);
        let mut sw = build_cnn(Method::SpinScaleDrop, &a, &mut rng);
        let hw = HardwareModel::compile(&mut sw, Method::SpinScaleDrop, &a, &ideal_config(), &mut rng);
        let s = hw.summary();
        assert!(s.contains("ScaleDrop: 1 module"), "{s}");
        assert!(s.contains("crossbar conv 9×8"), "{s}");
        assert!(s.contains("crossbar fc 256×64"), "{s}");
        assert!(s.contains("digital fc 64×10"), "{s}");
    }

    #[test]
    fn fault_management_flags_repairs_and_stays_finite() {
        let a = arch();
        let mut rng = StdRng::seed_from_u64(41);
        let mut sw = build_cnn(Method::SpinDrop, &a, &mut rng);
        let config = HardwareConfig {
            crossbar: CrossbarConfig {
                defect_rates: neuspin_device::DefectRates {
                    short: 0.005,
                    open: 0.005,
                    ..neuspin_device::DefectRates::none()
                },
                read_noise: 0.02,
                ..CrossbarConfig::default()
            },
            spare_cols: 4,
            passes: 4,
            ..HardwareConfig::default()
        };
        let mut hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &a, &config, &mut rng);
        let report = hw.fault_management(&neuspin_cim::BistConfig::default(), &mut rng);
        assert_eq!(report.layers.len(), 3, "two conv + one fc crossbar");
        assert!(report.total_flagged() > 0, "0.5 % hard faults must be seen");
        assert!(report.layers.iter().any(|l| l.repaired > 0), "{report:?}");
        let rate = report.repair_success_rate();
        assert!((0.0..=1.0).contains(&rate));
        let x = Tensor::from_fn(&[2, 1, 16, 16], |i| (i as f32 * 0.03).sin());
        hw.calibrate(&x, 1, &mut rng);
        let y = hw.forward_planned(&x, true, &mut rng);
        assert!(y.all_finite());
    }

    #[test]
    fn gated_prediction_and_health_monitor_loop() {
        let a = arch();
        let mut rng = StdRng::seed_from_u64(43);
        let mut sw = build_cnn(Method::SpinDrop, &a, &mut rng);
        let mut hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &a, &ideal_config(), &mut rng);
        let x = Tensor::from_fn(&[8, 1, 16, 16], |i| ((i * 7 % 23) as f32 / 11.5) - 1.0);
        hw.calibrate(&x, 1, &mut rng);

        let threshold = hw.calibrate_abstention(&x, 0.75, &mut rng);
        assert!(threshold.is_finite() && threshold > 0.0);
        let pred = hw.predict(&x, &mut rng);
        let gated = pred.gate(threshold);
        assert_eq!(gated.accepted.len(), 8);
        assert!(gated.coverage() > 0.0);
        assert!(pred.entropy.iter().all(|h| h.is_finite()));

        // Feed the monitor a healthy baseline, then wreck the hardware.
        let mut monitor = HealthMonitor::new(HealthConfig { window: 2, ..Default::default() });
        hw.reset_sense_margins();
        let healthy = hw.predict(&x, &mut rng);
        let healthy_entropy =
            healthy.entropy.iter().sum::<f64>() / healthy.entropy.len() as f64;
        monitor.observe(healthy_entropy, hw.mean_sense_margin());
        monitor.freeze_baseline();
        assert_eq!(monitor.policy(), HealthPolicy::Healthy);

        hw.inject_drift(0.3, 0.4, &mut rng); // severe conductance collapse
        hw.reset_sense_margins();
        let sick = hw.predict(&x, &mut rng);
        let sick_entropy = sick.entropy.iter().sum::<f64>() / sick.entropy.len() as f64;
        monitor.observe(sick_entropy, hw.mean_sense_margin());
        monitor.observe(sick_entropy, hw.mean_sense_margin());
        assert!(monitor.drift_detected(), "70 % margin loss must be seen");
        assert!(monitor.policy() > HealthPolicy::Healthy, "{:?}", monitor.policy());
    }

    /// A compiled noisy Bayesian model for the planned-engine batteries
    /// (noise keeps the packed kernel out, exercising the scalar
    /// scratch paths).
    fn noisy_bayesian_model(seed: u64) -> HardwareModel {
        let a = arch();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sw = build_cnn(Method::SpinDrop, &a, &mut rng);
        let config = HardwareConfig {
            crossbar: CrossbarConfig {
                read_noise: 0.03,
                ir_drop: 0.02,
                ..CrossbarConfig::default()
            },
            passes: 4,
            ..HardwareConfig::default()
        };
        let mut hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &a, &config, &mut rng);
        let x = Tensor::from_fn(&[4, 1, 16, 16], |i| (i as f32 * 0.029).sin());
        hw.calibrate(&x, 1, &mut rng);
        hw
    }

    fn assert_predictive_bits_eq(a: &neuspin_bayes::Predictive, b: &neuspin_bayes::Predictive) {
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.mean_probs.shape(), b.mean_probs.shape());
        for (x, y) in a.mean_probs.as_slice().iter().zip(b.mean_probs.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.entropy.iter().zip(&b.entropy) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.mutual_information.iter().zip(&b.mutual_information) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.variance.iter().zip(&b.variance) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn plan_invalidation_rebuilds_and_stays_bit_identical() {
        let mut hw = noisy_bayesian_model(103);
        assert_eq!(hw.plan_rebuilds(), 0, "calibration builds no plan");
        let shapes: [&[usize]; 4] =
            [&[4, 1, 16, 16], &[2, 1, 16, 16], &[4, 1, 16, 16], &[1, 1, 16, 16]];
        for (i, shape) in shapes.iter().enumerate() {
            let x = Tensor::from_fn(shape, |j| ((j * 13 + i) as f32 * 0.017).cos());
            let got = hw.predict_seeded(&x, 40 + i as u64);
            // Ground truth: a fresh model that only ever saw this shape.
            let mut fresh = noisy_bayesian_model(103);
            let want = fresh.predict_seeded(&x, 40 + i as u64);
            assert_predictive_bits_eq(&got, &want);
            assert_eq!(hw.plan_rebuilds(), i as u64 + 1, "each shape change rebuilds");
            assert!(hw.scratch_bytes() > 0, "arenas must be warm after a pass");
            let _ = hw.predict_seeded(&x, 50 + i as u64);
            assert_eq!(hw.plan_rebuilds(), i as u64 + 1, "a steady shape reuses the plan");
        }
    }

    #[test]
    fn predict_par_short_circuits_to_bit_identical_sequential() {
        let x = Tensor::from_fn(&[3, 1, 16, 16], |i| (i as f32 * 0.041).sin());
        let mut reference = noisy_bayesian_model(107);
        let want = reference.predict_seeded(&x, 99);
        for threads in [1usize, 2, 4] {
            let mut hw = noisy_bayesian_model(107);
            let pool = ThreadPool::new(threads);
            let got = hw.predict_par(&x, 99, &pool);
            assert_predictive_bits_eq(&got, &want);
            assert_eq!(hw.counter(), reference.counter(), "{threads} threads");
        }
        // passes == 1 also short-circuits, on any pool width.
        let mut one = noisy_bayesian_model(107);
        one.set_passes(1);
        let mut one_ref = one.clone();
        let a = one.predict_par(&x, 3, &ThreadPool::new(4));
        let b = one_ref.predict_seeded(&x, 3);
        assert_predictive_bits_eq(&a, &b);
    }

    #[test]
    fn replica_bank_matches_single_worker_ground_truth() {
        let mut served = noisy_bayesian_model(109);
        let mut truth = served.clone();
        let pool = ThreadPool::new(4);
        let mut bank = ReplicaBank::new();
        // N interleaved serve calls over two request shapes.
        for i in 0..6u64 {
            let n = if i % 2 == 0 { 3 } else { 2 };
            let x = Tensor::from_fn(&[n, 1, 16, 16], |j| ((j as u64 + 31 * i) as f32 * 0.013).sin());
            let got = served.predict_par_in(&x, 700 + i, &pool, &mut bank);
            let want = truth.predict_seeded(&x, 700 + i);
            assert_predictive_bits_eq(&got, &want);
        }
        assert_eq!(bank.len(), 4, "one persistent replica per pool worker");
        assert_eq!(bank.syncs(), 6, "every call resyncs the deltas");
        // Counters must match the sequential ground truth exactly; the
        // margin trajectory up to reassociation of the f64 sums.
        assert_eq!(served.counter(), truth.counter());
        let (a, b) = (served.mean_sense_margin(), truth.mean_sense_margin());
        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        // Invalidation drops the replicas; the next call re-clones and
        // still matches ground truth.
        bank.invalidate();
        assert!(bank.is_empty());
        let x = Tensor::from_fn(&[3, 1, 16, 16], |j| (j as f32 * 0.019).cos());
        let got = served.predict_par_in(&x, 900, &pool, &mut bank);
        let want = truth.predict_seeded(&x, 900);
        assert_predictive_bits_eq(&got, &want);
        assert_eq!(bank.len(), 4);
    }

    #[test]
    fn counter_window_resets() {
        let a = arch();
        let mut rng = StdRng::seed_from_u64(29);
        let mut sw = build_cnn(Method::Deterministic, &a, &mut rng);
        let mut hw = HardwareModel::compile(&mut sw, Method::Deterministic, &a, &ideal_config(), &mut rng);
        let x = Tensor::zeros(&[1, 1, 16, 16]);
        assert_eq!(hw.counter().cell_reads, 0, "programming excluded from window");
        let _ = hw.forward_planned(&x, false, &mut rng);
        let after_one = hw.counter().cell_reads;
        assert!(after_one > 0);
        hw.reset_counter();
        assert_eq!(hw.counter().cell_reads, 0);
    }
}

