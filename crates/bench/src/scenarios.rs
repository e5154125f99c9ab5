//! Shared scenario builders.
//!
//! The reliability campaigns (`exp_selfheal`, `exp_faultmgmt`,
//! `exp_lifetime`) stress the same physical knobs — programming
//! variation, manufacturing defects, post-calibration drift — and for
//! years-of-service studies the same defect-rate → [`DefectRates`] and
//! defect-rate → [`HardwareConfig`] recipes. This module is the single
//! place those recipes live, so the experiments agree on what
//! "defect rate 0.01" means.
//!
//! It also holds the throughput workload — [`throughput_model`],
//! [`batch_inputs`], [`analog_tile`] and [`PREDICT_SEED`] —
//! which `exp_throughput` times and `exp_observe` re-times and traces:
//! `exp_observe`'s overhead gate compares against `exp_throughput`'s
//! numbers, so both must build the very same model, inputs and tile.

use crate::Setup;
use neuspin_bayes::{ArchConfig, Method};
use neuspin_cim::{BistConfig, Crossbar, CrossbarConfig};
use neuspin_core::{reliability_base, HardwareConfig, HardwareModel, SweepKind};
use neuspin_data::digits::dataset;
use neuspin_device::DefectRates;
use neuspin_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One named severity sweep: which non-ideality axis to stress and the
/// grid of severities to stress it at.
#[derive(Debug, Clone)]
pub struct SeverityScenario {
    /// Human-readable axis name (used in tables and JSON).
    pub name: &'static str,
    /// Which hardware knob the severity scales.
    pub kind: SweepKind,
    /// Severity grid, mildest first.
    pub severities: Vec<f64>,
}

/// The canonical three severity sweeps of the self-healing study
/// (§III-A4): programming-time variation, manufacturing defects, and
/// post-calibration common-mode drift.
pub fn severity_scenarios() -> Vec<SeverityScenario> {
    vec![
        SeverityScenario {
            name: "programming variation σ",
            kind: SweepKind::Variation,
            severities: vec![0.0, 0.05, 0.1, 0.15, 0.2, 0.3],
        },
        SeverityScenario {
            name: "defect rate",
            kind: SweepKind::Defects,
            severities: vec![0.0, 0.005, 0.01, 0.02, 0.05],
        },
        SeverityScenario {
            name: "post-calibration common-mode drift",
            kind: SweepKind::Drift,
            severities: vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        },
    ]
}

/// Splits a total hard-fault rate evenly between shorts (stuck-on) and
/// opens (stuck-off) — the convention every fault campaign uses.
pub fn hard_fault_rates(rate: f64) -> DefectRates {
    DefectRates {
        short: rate / 2.0,
        open: rate / 2.0,
        ..DefectRates::none()
    }
}

/// The reliability-study hardware config with a given total hard-fault
/// rate, spare-column budget, and MC pass count, everything else at
/// [`reliability_base`] settings.
pub fn faulty_hardware_config(defect_rate: f64, spare_cols: usize, passes: usize) -> HardwareConfig {
    let base = reliability_base();
    HardwareConfig {
        crossbar: CrossbarConfig {
            defect_rates: hard_fault_rates(defect_rate),
            ..base.crossbar
        },
        spare_cols,
        passes,
        ..base
    }
}

/// MC seed of every throughput-workload prediction.
pub const PREDICT_SEED: u64 = 0x7457_0001;

/// The throughput CNN at paper-scale layer widths (NeuSpin's backbones
/// are VGG-small-class networks, not 8-channel toys: the conv-2 and FC
/// crossbars then have hundreds of word lines, the regime the row-major
/// kernel targets), trained for one epoch — accuracy is irrelevant here
/// — and compiled under the full non-ideality model (defects, 5 % read
/// noise, 6-bit ADCs, IR drop), then fault-managed and calibrated.
/// Returns the die and the setup [`batch_inputs`] draws from.
pub fn throughput_model(fast: bool) -> (HardwareModel, Setup) {
    let setup = if fast {
        Setup {
            arch: ArchConfig { c1: 16, c2: 32, hidden: 128, ..ArchConfig::default() },
            epochs: 1,
            train_images: 256,
            test_images: 64,
            calib_images: 32,
            passes: 6,
            ..Setup::quick()
        }
    } else {
        Setup {
            arch: ArchConfig { c1: 32, c2: 64, hidden: 256, ..ArchConfig::default() },
            epochs: 1,
            passes: 12,
            ..Setup::quick()
        }
    };
    let (train, calib, _test) = setup.datasets();
    eprintln!("training SpinDrop backbone ...");
    let mut model = setup.train(Method::SpinDrop, &train);
    let hw_config = HardwareConfig {
        crossbar: CrossbarConfig {
            defect_rates: DefectRates { short: 0.005, open: 0.005, ..DefectRates::none() },
            read_noise: 0.05,
            adc_bits: Some(6),
            ir_drop: 0.05,
            ..reliability_base().crossbar
        },
        spare_cols: 4,
        passes: setup.passes,
        ..reliability_base()
    };
    let mut hw = HardwareModel::compile(
        &mut model,
        Method::SpinDrop,
        &setup.arch,
        &hw_config,
        &mut setup.rng(0x7457),
    );
    hw.fault_management(&BistConfig::default(), &mut setup.rng(0x7458));
    hw.calibrate(&calib.inputs, 2, &mut setup.rng(0x7459));
    (hw, setup)
}

/// The throughput workload's input batch of `batch` digits.
pub fn batch_inputs(setup: &Setup, batch: usize) -> Tensor {
    dataset(batch, &setup.style, &mut setup.rng(0x7460 + batch as u64)).inputs
}

/// The kernel micro-bench's tile shape, `(rows, cols)`.
pub fn tile_shape(fast: bool) -> (usize, usize) {
    if fast {
        (96, 48)
    } else {
        (256, 64)
    }
}

/// The ±1 weight pattern of the kernel micro-bench tiles.
pub fn tile_weights(rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols).map(|i| if (i * 7) % 3 == 0 { 1.0 } else { -1.0 }).collect()
}

/// The analog kernel tile programmed with `weights` (from
/// [`tile_weights`]) and its input: a remapped, IR-dropped,
/// ADC-quantized array with read noise and hard faults, which every
/// feature of the row-major kernel touches and the packed kernel cannot
/// serve. Both campaigns keep `weights` alive while they time the tile:
/// its timing follows where its buffers and the per-call output land on
/// the heap, and `exp_observe`'s 2 % gate compares the two timings.
pub fn analog_tile(weights: &[f32], rows: usize, cols: usize) -> (Crossbar, Vec<f32>) {
    let config = CrossbarConfig {
        defect_rates: DefectRates { short: 0.005, open: 0.005, ..DefectRates::none() },
        read_noise: 0.05,
        adc_bits: Some(6),
        ir_drop: 0.05,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(0x7412_0001);
    let mut xbar = Crossbar::program(weights, rows, cols, &config, &mut rng);
    xbar.apply_remap(
        (0..rows).map(|i| (i + 11) % rows).collect(),
        (0..cols).map(|i| (i + 3) % cols).collect(),
    );
    let input = (0..rows).map(|i| ((i * 5) % 9) as f32 / 4.0 - 1.0).collect();
    (xbar, input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_cover_the_three_axes_in_increasing_severity() {
        let scenarios = severity_scenarios();
        assert_eq!(scenarios.len(), 3);
        let kinds: Vec<SweepKind> = scenarios.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SweepKind::Variation, SweepKind::Defects, SweepKind::Drift]
        );
        for s in &scenarios {
            assert!(s.severities.windows(2).all(|w| w[0] < w[1]), "{} not sorted", s.name);
            assert_eq!(s.severities[0], 0.0, "{} must include the clean point", s.name);
        }
    }

    #[test]
    fn hard_faults_split_evenly_between_shorts_and_opens() {
        let rates = hard_fault_rates(0.02);
        assert_eq!(rates.short, 0.01);
        assert_eq!(rates.open, 0.01);
    }

    #[test]
    fn faulty_config_carries_rate_spares_and_passes() {
        let config = faulty_hardware_config(0.01, 4, 6);
        assert_eq!(config.crossbar.defect_rates.short, 0.005);
        assert_eq!(config.crossbar.defect_rates.open, 0.005);
        assert_eq!(config.spare_cols, 4);
        assert_eq!(config.passes, 6);
    }
}
