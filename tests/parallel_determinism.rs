//! E2E acceptance for the deterministic parallel MC engine.
//!
//! The contract under test: for a fault-managed hardware model,
//! [`HardwareModel::predict_par`] returns a `Predictive` that is
//! **bit-identical** for any worker count and to the sequential
//! [`HardwareModel::predict_seeded`] — and the merged op counters and
//! sense-margin statistics match what the sequential path would have
//! tallied. The same holds for the generic
//! [`neuspin::core::mc_predict_par`] against
//! [`neuspin::bayes::mc_predict_seeded`] on a bare crossbar classifier.

use neuspin::bayes::{build_cnn, mc_predict_seeded, ArchConfig, Method};
use neuspin::cim::{BistConfig, Crossbar, CrossbarConfig};
use neuspin::core::{
    mc_predict_par, reliability_base, HardwareConfig, HardwareModel, ThreadPool,
};
use neuspin::device::DefectRates;
use neuspin::nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PASSES: usize = 6;
const SEED: u64 = 0xFA017;

/// The fault-management E2E model: a SpinDrop CNN compiled onto
/// defective, noisy, IR-dropped, ADC-quantized crossbars with spare
/// columns, taken through BIST + repair + remap and calibration.
/// Deterministic — two calls build bit-identical models.
fn e2e_model() -> HardwareModel {
    let arch = ArchConfig { c1: 4, c2: 8, hidden: 16, ..ArchConfig::default() };
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut sw = build_cnn(Method::SpinDrop, &arch, &mut rng);
    let config = HardwareConfig {
        crossbar: CrossbarConfig {
            defect_rates: DefectRates { short: 0.005, open: 0.005, ..DefectRates::none() },
            read_noise: 0.02,
            adc_bits: Some(6),
            ir_drop: 0.05,
            ..reliability_base().crossbar
        },
        spare_cols: 4,
        passes: PASSES,
        ..reliability_base()
    };
    let mut hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &arch, &config, &mut rng);
    hw.fault_management(&BistConfig::default(), &mut StdRng::seed_from_u64(SEED ^ 1));
    let calib = inputs(12, 3);
    hw.calibrate(&calib, 2, &mut StdRng::seed_from_u64(SEED ^ 2));
    hw
}

/// A deterministic batch of synthetic images.
fn inputs(n: usize, tag: usize) -> Tensor {
    Tensor::from_fn(&[n, 1, 16, 16], |i| (((i * 31 + tag * 7) % 17) as f32) / 8.0 - 1.0)
}

#[test]
fn predict_par_is_thread_count_invariant_on_the_e2e_model() {
    let mut hw = e2e_model();
    let x = inputs(6, 0);
    let sequential = hw.predict_seeded(&x, 0xD15E);
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        let parallel = hw.predict_par(&x, 0xD15E, &pool);
        assert_eq!(parallel, sequential, "{threads} threads vs sequential");
    }
    // NEUSPIN_THREADS drives the default pool through the same engine.
    std::env::set_var("NEUSPIN_THREADS", "3");
    let pool = ThreadPool::from_env();
    assert_eq!(pool.threads(), 3);
    assert_eq!(hw.predict_par(&x, 0xD15E, &pool), sequential, "NEUSPIN_THREADS pool");
    std::env::remove_var("NEUSPIN_THREADS");
}

#[test]
fn predict_par_merges_counters_and_margins_like_the_sequential_path() {
    // Twin dies from the same seeds: one runs sequentially, one in
    // parallel. The merged op counters and sense-margin statistics must
    // agree exactly — energy accounting may not depend on thread count.
    let mut seq = e2e_model();
    let mut par = e2e_model();
    let x = inputs(5, 1);
    seq.reset_counter();
    par.reset_counter();
    seq.reset_sense_margins();
    par.reset_sense_margins();
    let a = seq.predict_seeded(&x, 0xC0DE);
    let b = par.predict_par(&x, 0xC0DE, &ThreadPool::new(3));
    assert_eq!(a, b);
    assert_eq!(seq.counter(), par.counter(), "merged op counters diverged");
    // Margin sums are FP accumulators: the parallel path folds one
    // partial sum per worker, which reassociates the addition, so the
    // diagnostic agrees to rounding (ULPs) rather than bit-for-bit —
    // unlike the Predictive, whose reduction order is pinned.
    let (ms, mp) = (seq.mean_sense_margin(), par.mean_sense_margin());
    assert!(
        (ms - mp).abs() <= 1e-12 * ms.abs(),
        "merged sense margins diverged beyond rounding ({ms} vs {mp})"
    );
    assert!(par.counter().cell_reads > 0, "the passes must have exercised the crossbars");
}

#[test]
fn generic_engine_matches_seeded_sequential_on_a_crossbar_classifier() {
    // The pool-level engine with a plain crossbar matched filter as the
    // per-worker state (the fault_management.rs E2E convention).
    let config = CrossbarConfig {
        defect_rates: DefectRates { short: 0.01, open: 0.01, ..DefectRates::none() },
        read_noise: 0.05,
        adc_bits: Some(6),
        ir_drop: 0.05,
        ..CrossbarConfig::ideal()
    };
    let weights: Vec<f32> =
        (0..16 * 10).map(|i| if (i * 13) % 3 == 0 { 1.0 } else { -1.0 }).collect();
    let xbar = Crossbar::program(&weights, 16, 10, &config, &mut StdRng::seed_from_u64(77));
    let batch: Vec<Vec<f32>> =
        (0..4).map(|i| (0..16).map(|r| ((i * r) % 5) as f32 / 2.0 - 1.0).collect()).collect();

    let forward = |xb: &mut Crossbar, rng: &mut StdRng| {
        let mut logits = vec![0.0f32; batch.len() * 10];
        for (i, x) in batch.iter().enumerate() {
            for (c, v) in xb.matvec(x, rng).into_iter().enumerate() {
                logits[i * 10 + c] = v as f32 / 4.0;
            }
        }
        Tensor::from_vec(logits, &[batch.len(), 10])
    };

    let mut seq_xbar = xbar.clone();
    let reference = mc_predict_seeded(8, 99, |_, rng| forward(&mut seq_xbar, rng));
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        let mut workers = vec![xbar.clone(); threads];
        let pred = mc_predict_par(&pool, 8, 99, &mut workers, |xb, _, rng| forward(xb, rng));
        assert_eq!(pred, reference, "{threads} threads");
    }
}

#[test]
fn traced_predict_par_is_byte_identical_across_worker_counts() {
    // Full tracing on: predictions must stay bit-identical (telemetry
    // never consumes RNG draws) and the serialized JSONL trace must
    // byte-compare across pool sizes (per-thread buffers are merged in
    // pass order; trace events carry no wall-clock fields).
    use neuspin::core::telemetry;
    let _guard = telemetry::test_lock();
    let mut hw = e2e_model();
    let x = inputs(6, 0);
    let untraced = hw.predict_par(&x, 0xD15E, &ThreadPool::new(2));
    let traced = |hw: &mut HardwareModel, predict: &dyn Fn(&mut HardwareModel) -> _| {
        telemetry::set_enabled(true, true);
        telemetry::reset();
        let pred = predict(hw);
        let events = telemetry::take_trace();
        telemetry::set_enabled(false, false);
        assert!(!events.is_empty(), "trace must capture the MC passes");
        (pred, telemetry::trace_to_jsonl(&events))
    };

    let mut traces: Vec<String> = Vec::new();
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        let (pred, trace) = traced(&mut hw, &|hw| hw.predict_par(&x, 0xD15E, &pool));
        assert_eq!(pred, untraced, "{threads} threads, traced vs untraced");
        traces.push(trace);
    }
    assert_eq!(traces[0], traces[1], "trace bytes, 1 vs 2 workers");
    assert_eq!(traces[0], traces[2], "trace bytes, 1 vs 4 workers");
    assert!(traces[0].contains("\"span\":\"mc_pass\""));

    // predict_seeded runs the same seeded loop as the 1-worker pool:
    // its trace differs only in the engine tag of the predict span.
    let (pred, seq) = traced(&mut hw, &|hw| hw.predict_seeded(&x, 0xD15E));
    assert_eq!(pred, untraced, "predict_seeded vs predict_par");
    let seq = seq.replace("\"engine\":\"seq\"", "\"engine\":\"par\"");
    assert_eq!(seq, traces[0], "trace bytes, predict_seeded vs 1-worker predict_par");
}
