//! Model-level golden battery: every method end to end on fixed dies,
//! pinned to output bits, op tallies and sense margins.
//!
//! Each run compiles an untrained backbone onto a small die, runs fault
//! management and calibration, then one seeded MC prediction. The seven
//! methods between them build every pipeline block kind, so a change to
//! any block's float-op order, RNG consumption or tallies moves a
//! constant here. A deliberate numeric change re-captures the table
//! from the one the failing assertion prints.

use crate::{HardwareConfig, HardwareModel};
use neuspin_bayes::{build_cnn, ArchConfig, Method};
use neuspin_cim::{BistConfig, CrossbarConfig, OpCounter};
use neuspin_device::DefectRates;
use neuspin_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(run, Predictive::bits_digest, every OpCounter field in declaration
/// order, mean_sense_margin bits)` per run.
type Golden = (&'static str, u64, [u64; 8], u64);

#[rustfmt::skip]
const GOLDEN: [Golden; 8] = [
    ("Deterministic/analog", 0x726bcf0d0055902a, [56630, 6590, 6100, 3484, 39, 0, 0, 11076], 0x401c9d4808b61ad9),
    ("SpinDrop/analog", 0x06c93a355c7d979a, [78518, 6590, 7708, 5092, 188, 2412, 0, 16188], 0x401e8d5f6f43654d),
    ("SpatialSpinDrop/analog", 0x6b22b3c3565d343c, [78518, 6590, 7708, 5092, 552, 171, 0, 16188], 0x4031a094c117eec9),
    ("SpinScaleDrop/analog", 0x3cfbe37072aab44b, [78586, 6658, 7708, 5092, 358, 9, 91, 16188], 0x40220b0aa0b6ebe5),
    ("AffineDropout/analog", 0x6571342c0d7bc5d3, [78550, 6622, 7708, 5092, 508, 18, 190, 21280], 0x402d8437efe6bd43),
    ("SubsetVi/analog", 0xc94bf72f1cd9a5d3, [78540, 6612, 7708, 5092, 356, 228, 190, 16188], 0x4023bb4abce7c7d1),
    ("SpinBayes/analog", 0xee17668fb3559744, [73146, 2754, 6172, 5092, 969, 9, 0, 16188], 0x4004c1d64dc293fe),
    ("SpinDrop/binary", 0xd2271032bc2f7ea9, [78468, 6540, 7708, 5092, 0, 2412, 0, 16188], 0x40073429bf1389bb),
];

fn arch() -> ArchConfig {
    ArchConfig { c1: 3, c2: 4, hidden: 12, classes: 4, side: 8, ..ArchConfig::default() }
}

/// The noisy analog corner: hard defects, read noise, IR drop, ADC.
fn analog_corner() -> CrossbarConfig {
    CrossbarConfig {
        defect_rates: DefectRates { short: 0.02, open: 0.02, ..DefectRates::none() },
        read_noise: 0.05,
        adc_bits: Some(6),
        ir_drop: 0.05,
        ..CrossbarConfig::default()
    }
}

/// The noiseless stuck-at corner, where ±1 inputs take the packed
/// XNOR/popcount kernel.
fn binary_corner() -> CrossbarConfig {
    CrossbarConfig {
        defect_rates: DefectRates {
            stuck_parallel: 0.02,
            stuck_antiparallel: 0.02,
            ..DefectRates::none()
        },
        adc_bits: Some(8),
        ..CrossbarConfig::ideal()
    }
}

fn fields(c: &OpCounter) -> [u64; 8] {
    let OpCounter {
        cell_reads,
        cell_writes,
        sa_evals,
        adc_converts,
        adc_saturations,
        rng_bits,
        sram_accesses,
        digital_ops,
    } = *c;
    [
        cell_reads,
        cell_writes,
        sa_evals,
        adc_converts,
        adc_saturations,
        rng_bits,
        sram_accesses,
        digital_ops,
    ]
}

/// Compile → fault management → calibrate.
fn commission(method: Method, crossbar: CrossbarConfig, seed: u64) -> HardwareModel {
    let a = arch();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sw = build_cnn(method, &a, &mut rng);
    let config = HardwareConfig { crossbar, passes: 3, spare_cols: 2, ..HardwareConfig::default() };
    let mut hw = HardwareModel::compile(&mut sw, method, &a, &config, &mut rng);
    hw.fault_management(&BistConfig::default(), &mut rng);
    let calib = Tensor::from_fn(&[5, 1, 8, 8], |i| ((i * 29 % 53) as f32 / 26.5) - 1.0);
    hw.calibrate(&calib, 2, &mut rng);
    hw
}

#[test]
fn golden_battery_pins_every_method() {
    let analog_x = Tensor::from_fn(&[3, 1, 8, 8], |i| ((i * 17 % 41) as f32 / 20.5) - 1.0);
    let binary_x = Tensor::from_fn(&[3, 1, 8, 8], |i| if (i * 7) % 5 < 2 { 1.0 } else { -1.0 });
    let mut runs: Vec<(String, Method, CrossbarConfig, &Tensor)> = Method::ALL
        .iter()
        .map(|&m| (format!("{m:?}/analog"), m, analog_corner(), &analog_x))
        .collect();
    runs.push(("SpinDrop/binary".to_string(), Method::SpinDrop, binary_corner(), &binary_x));

    let mut got: Vec<(String, u64, [u64; 8], u64)> = Vec::new();
    for (i, (label, method, crossbar, x)) in runs.into_iter().enumerate() {
        let seed = 0x601D_0000 + i as u64;
        let mut hw = commission(method, crossbar, seed);
        let digest = hw.predict_seeded(x, seed ^ 0xA5A5).bits_digest();
        if label.ends_with("/binary") {
            assert!(hw.packed_call_count() > 0, "{label}: packed kernel must engage");
        }
        got.push((label, digest, fields(&hw.counter()), hw.mean_sense_margin().to_bits()));
    }

    let table: String = got
        .iter()
        .map(|(label, digest, counter, margin)| {
            format!("    (\"{label}\", {digest:#018x}, {counter:?}, {margin:#018x}),\n")
        })
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "captured table:\n{table}");
    for ((label, digest, counter, margin), want) in got.iter().zip(&GOLDEN) {
        assert_eq!(
            (label.as_str(), *digest, *counter, *margin),
            *want,
            "{label} drifted; captured table:\n{table}"
        );
    }
}
