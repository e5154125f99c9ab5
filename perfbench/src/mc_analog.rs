//! `mc_analog`: offline batch Monte-Carlo inference on the paper-scale
//! SpinDrop CNN at the analog reliability corner (0.5 % short/open
//! defects, 5 % read noise, 6-bit ADC, 5 % IR drop, 4 spare columns
//! after BIST + repair + remap). Each prediction is 12 MC passes over a
//! labelled batch of 128 digits, back to back in a closed loop.
//!
//! End-to-end: `ops_per_s` is predictions/s of sequential
//! `HardwareModel::predict_seeded` at its fastest call
//! (`pred_per_s`; on a host whose speed swings between phases the
//! best-of is the steady figure, the median call is in the report);
//! `latency_p50_ms` / `latency_tail_ms` time `predict_par` calls at
//! `host_threads` workers (`pred_per_s_par` = 128 / latency).

use crate::common::{self, rng, secs, Run};
use crate::stats::{median, sorted, tail};
use crate::trace::{Tracer, HARNESS};
use crate::Args;
use neuspin_bayes::{ArchConfig, Method};
use neuspin_cim::{BistConfig, Crossbar, CrossbarConfig};
use neuspin_core::json::Json;
use neuspin_core::{telemetry, HardwareConfig, HardwareModel, ThreadPool};
use neuspin_data::digits::{dataset, DigitStyle};
use neuspin_device::DefectRates;
use neuspin_nn::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const BATCH: usize = 128;
const PASSES: usize = 12;
const TRAIN_IMAGES: usize = 800;
const TRAIN_BATCH: usize = 16;
const CALIB_IMAGES: usize = 64;
/// The labelled digits, the trained backbone and the die are fixed: at
/// this corner hardware accuracy moves by tens of points between
/// training runs and between defect maps, which would swamp every other
/// change. `--seed` drives the MC pass seeds of the timed predictions.
const DIE_SEED: u64 = 0xDA7A;
/// MC seed of the reference prediction that fixes the simulated metrics
/// (near chance, accuracy moves by several points between MC seeds).
const REFERENCE_SEED: u64 = 0x5EED_0000;
/// Timed sequential predictions whose digests join the output digest.
const DIGEST_CALLS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Calls per engine in each half of the traced run.
const TRACED_CALLS: usize = 2;

fn arch() -> ArchConfig {
    ArchConfig {
        c1: 32,
        c2: 64,
        hidden: 256,
        ..ArchConfig::default()
    }
}

fn crossbar_config() -> CrossbarConfig {
    CrossbarConfig {
        defect_rates: DefectRates {
            short: 0.005,
            open: 0.005,
            ..DefectRates::none()
        },
        read_noise: 0.05,
        adc_bits: Some(6),
        ir_drop: 0.05,
        ..neuspin_core::reliability_base().crossbar
    }
}

struct Workload {
    hw: HardwareModel,
    inputs: Tensor,
    labels: Vec<usize>,
}

/// Durations of the set-up phases, seconds.
struct SetupTimes {
    data: f64,
    train: f64,
    compile: f64,
    fault_management: f64,
    calibrate: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.data + self.train + self.compile + self.fault_management + self.calibrate
    }
}

fn setup() -> (Workload, SetupTimes) {
    let arch = arch();
    let t = Instant::now();
    let style = DigitStyle::default();
    let mut data_rng = rng(DIE_SEED, 1);
    let train = dataset(TRAIN_IMAGES, &style, &mut data_rng);
    let calib = dataset(CALIB_IMAGES, &style, &mut data_rng);
    let eval = dataset(BATCH, &style, &mut data_rng);
    let data = secs(t);

    let t = Instant::now();
    let mut sw = common::train_cnn(
        Method::SpinDrop,
        &arch,
        &train,
        TRAIN_BATCH,
        &mut rng(DIE_SEED, 2),
    );
    let train = secs(t);

    let t = Instant::now();
    let config = HardwareConfig {
        crossbar: crossbar_config(),
        spare_cols: 4,
        passes: PASSES,
        ..neuspin_core::reliability_base()
    };
    let mut hw = HardwareModel::compile(
        &mut sw,
        Method::SpinDrop,
        &arch,
        &config,
        &mut rng(DIE_SEED, 3),
    );
    let compile = secs(t);

    let t = Instant::now();
    hw.fault_management(&BistConfig::default(), &mut rng(DIE_SEED, 4));
    let fault_management = secs(t);

    let t = Instant::now();
    hw.calibrate(&calib.inputs, 2, &mut rng(DIE_SEED, 5));
    let calibrate = secs(t);

    let w = Workload {
        hw,
        inputs: eval.inputs,
        labels: eval.labels,
    };
    (
        w,
        SetupTimes {
            data,
            train,
            compile,
            fault_management,
            calibrate,
        },
    )
}

/// MC seed of the `i`-th prediction; prediction 0 is the reference.
fn predict_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return REFERENCE_SEED;
    }
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (0x3C_0000 + i as u64)
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::new(args);
    let threads = common::host_threads();
    let pool = ThreadPool::new(threads);
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        let (w, t) = setup();
        setups.push(t);
        last = Some(w);
    }
    let mut w = last.expect("at least one set-up");
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    run.meta("setup_repeats", Json::Num(repeats as f64));
    run.meta(
        "setup_s_samples",
        Json::Arr(totals.iter().map(|&s| Json::Num(s)).collect()),
    );

    // Reference prediction: warms the forward plan and fixes the
    // simulated outputs (digest, energy, accuracy) of this seed.
    let energy0 = w.hw.energy().0;
    let counter0 = w.hw.counter();
    let packed0 = w.hw.packed_call_count();
    let reference = w.hw.predict_seeded(&w.inputs, predict_seed(args.seed, 0));
    let energy_uj = (w.hw.energy().0 - energy0) * 1e6 / BATCH as f64;
    let ops = w.hw.counter().since(&counter0);
    let packed = w.hw.packed_call_count() - packed0;
    let accuracy = 100.0 * reference.accuracy(&w.labels);
    let mut digests = vec![reference.bits_digest()];
    run.attempted += 1;
    run.meta("packed_call_delta", Json::Num(packed as f64));
    run.check(
        "packed kernel never engages on the analog corner",
        packed == 0,
    );
    run.check(
        "reference prediction is finite",
        reference.entropy.iter().all(|h| h.is_finite()),
    );

    if !args.trace {
        // Closed loop, the two engines alternating so both see the same
        // host: each seed goes through predict_seeded, then predict_par,
        // which must match it bit for bit.
        let mut seq_s = Vec::new();
        let mut par_ms = Vec::new();
        let mut mismatches = 0;
        let start = Instant::now();
        let mut pair_s = 0.0;
        // Stop before a pair that would overrun the measuring time.
        while seq_s.len() < 3 || secs(start) + pair_s < args.seconds {
            let pair = Instant::now();
            let seed = predict_seed(args.seed, digests.len());
            let t = Instant::now();
            let p = w.hw.predict_seeded(&w.inputs, seed);
            seq_s.push(secs(t));
            digests.push(p.bits_digest());
            let t = Instant::now();
            let q = w.hw.predict_par(&w.inputs, seed, &pool);
            par_ms.push(secs(t) * 1e3);
            if q.bits_digest() != p.bits_digest() {
                mismatches += 1;
            }
            run.attempted += 2;
            pair_s = secs(pair);
        }
        run.failed += mismatches;
        run.simulated(output_digest(&digests), energy_uj, accuracy);
        run.check(
            format!(
                "predict_par equals predict_seeded bit for bit ({} calls)",
                par_ms.len()
            ),
            mismatches == 0,
        );
        let (tail_pct, tail_ms) = tail(&par_ms);
        let seq_best = sorted(&seq_s)[0];
        run.set("setup_s", median(&totals));
        run.set("ops_per_s", BATCH as f64 / seq_best);
        run.set("latency_p50_ms", median(&par_ms));
        run.set("latency_tail_ms", tail_ms);
        run.set("energy_uj_per_pred", energy_uj);
        run.set("accuracy_pct", accuracy);
        run.set("peak_rss_mb", common::peak_rss_mb());
        run.meta(
            "samples",
            Json::obj([
                ("seq_calls", Json::Num(seq_s.len() as f64)),
                ("par_calls", Json::Num(par_ms.len() as f64)),
                (
                    "seq_ms",
                    Json::Arr(
                        seq_s
                            .iter()
                            .map(|&s| Json::Num((s * 1e4).round() / 10.0))
                            .collect(),
                    ),
                ),
                (
                    "par_ms",
                    Json::Arr(
                        par_ms
                            .iter()
                            .map(|&m| Json::Num((m * 10.0).round() / 10.0))
                            .collect(),
                    ),
                ),
                ("tail_percentile", Json::Num(tail_pct)),
            ]),
        );
        run.meta(
            "named_metrics",
            Json::obj([
                ("pred_per_s", Json::Num(BATCH as f64 / seq_best)),
                (
                    "pred_per_s_median_call",
                    Json::Num(BATCH as f64 / median(&seq_s)),
                ),
                (
                    "pred_per_s_par",
                    Json::Num(BATCH as f64 * 1e3 / median(&par_ms)),
                ),
                (
                    "fail_ratio",
                    Json::Num(run.failed as f64 / run.attempted as f64),
                ),
            ]),
        );
        return run;
    }

    // ---- traced run ----
    let s = &setups[0];
    run.set("model.train_s", s.train);
    run.set("model.compile_s", s.compile);
    run.set("model.fault_management_s", s.fault_management);
    run.set("model.calibrate_s", s.calibrate);
    let calls = (BATCH * PASSES) as f64;
    run.set(
        "cim.cell_reads_per_pred",
        ops.cell_reads as f64 / BATCH as f64,
    );
    run.set(
        "cim.adc_converts_per_pred",
        ops.adc_converts as f64 / BATCH as f64,
    );
    run.set(
        "cim.adc_saturations_per_pred",
        ops.adc_saturations as f64 / BATCH as f64,
    );
    run.set(
        "device.rng_bits_per_pred",
        ops.rng_bits as f64 / BATCH as f64,
    );
    let xbar_calls = calls * common::crossbar_calls_per_sample(&arch()) as f64;
    run.set("cim.packed_share", packed as f64 / xbar_calls);

    // Untraced half: the same calls the traced half repeats.
    let seeds: Vec<u64> = (1..=TRACED_CALLS)
        .map(|i| predict_seed(args.seed, i))
        .collect();
    let mut untraced_digests = Vec::new();
    let mut seq_ms = Vec::new();
    let mut par_ms = Vec::new();
    let untraced = Instant::now();
    for &seed in &seeds {
        let t = Instant::now();
        untraced_digests.push(w.hw.predict_seeded(&w.inputs, seed).bits_digest());
        seq_ms.push(secs(t) * 1e3);
    }
    for &seed in &seeds {
        let t = Instant::now();
        untraced_digests.push(w.hw.predict_par(&w.inputs, seed, &pool).bits_digest());
        par_ms.push(secs(t) * 1e3);
    }
    let untraced_s = secs(untraced);
    run.attempted += 2 * TRACED_CALLS as u64;
    digests.extend_from_slice(&untraced_digests[..TRACED_CALLS]);
    run.simulated(output_digest(&digests), energy_uj, accuracy);

    // Traced half: registry metrics on, a span around every layer call.
    telemetry::set_enabled(true, false);
    let mut tr = Tracer::new(true);
    let root = tr.begin(HARNESS, "mc_analog");
    let traced = Instant::now();
    let mut traced_digests = Vec::new();
    for &seed in &seeds {
        let p = tr.time("bayes::mc", "predict_seeded", || {
            w.hw.predict_seeded(&w.inputs, seed)
        });
        traced_digests.push(p.bits_digest());
    }
    for &seed in &seeds {
        let p = tr.time("core::pool", "predict_par", || {
            w.hw.predict_par(&w.inputs, seed, &pool)
        });
        traced_digests.push(p.bits_digest());
    }
    let traced_s = secs(traced);
    run.attempted += 2 * TRACED_CALLS as u64;
    let counter1 = w.hw.counter();
    let again = tr.time("bayes::mc", "predict_seeded", || {
        w.hw.predict_seeded(&w.inputs, predict_seed(args.seed, 0))
    });
    let ops_again = w.hw.counter().since(&counter1);
    run.attempted += 1;
    run.check(
        "traced predictions equal untraced bit for bit",
        traced_digests == untraced_digests && again.bits_digest() == digests[0],
    );
    run.check(
        "traced device-op tallies (energy) equal untraced",
        ops_again == ops,
    );
    run.check(
        "predict_par equals predict_seeded bit for bit",
        untraced_digests[..TRACED_CALLS] == untraced_digests[TRACED_CALLS..],
    );
    run.set("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
    tr.end(root);
    common::span_shares(&mut run, &tr, root);

    // core::model: one planned forward pass at the workload batch.
    let mut pass_ms = Vec::new();
    for t in 0..4u64 {
        let mut r = StdRng::seed_from_u64(predict_seed(args.seed, 100) ^ t);
        let start = Instant::now();
        tr.time("core::model", "forward_planned", || {
            black_box(w.hw.forward_planned(&w.inputs, true, &mut r));
        });
        pass_ms.push(secs(start) * 1e3);
    }
    let pass = median(&pass_ms);
    run.set("model.pass_ms", pass);
    run.set("mc.aggregate_ms", median(&seq_ms) - PASSES as f64 * pass);
    let speedup = median(&seq_ms) / median(&par_ms);
    run.set("pool.par_speedup", speedup);
    run.set("pool.efficiency", speedup / threads as f64);
    run.set("model.scratch_bytes", w.hw.scratch_bytes() as f64);
    run.set("model.plan_rebuilds", w.hw.plan_rebuilds() as f64);

    cim_probes(&mut run, &mut tr, args.seed);
    telemetry::set_enabled(false, false);
    common::write_spans(&mut run, args, &tr);
    run.meta(
        "samples",
        Json::obj([
            ("traced_calls_per_engine", Json::Num(TRACED_CALLS as f64)),
            ("pass_probes", Json::Num(pass_ms.len() as f64)),
        ]),
    );
    run
}

/// The digest of the reference prediction and the first timed ones —
/// the same predictions in traced and untraced runs of a seed.
fn output_digest(digests: &[u64]) -> u64 {
    digests[..=DIGEST_CALLS]
        .iter()
        .fold(0, |acc, &d| common::fold_digest(acc, d))
}

/// `Crossbar::matmul` on standalone crossbars programmed at the conv-2
/// and FC shapes and the workload's corner, one call per layer-pass
/// worth of inputs. GOP/s counts 2 ops per cell per input vector; bytes
/// per op are computed from the matrix sizes (f32 inputs, f64 outputs,
/// the f64 weight table read once per call), not measured.
fn cim_probes(run: &mut Run, tr: &mut Tracer, seed: u64) {
    let a = arch();
    let shapes = [
        (
            "cim.matmul_us.conv2",
            9 * a.c1,
            a.c2,
            BATCH * (a.side / 2) * (a.side / 2),
        ),
        ("cim.matmul_us.fc", a.flat_features(), a.hidden, BATCH),
    ];
    let mut ops = 0.0;
    let mut bytes = 0.0;
    let mut busy_s = 0.0;
    for (i, &(metric, rows, cols, n)) in shapes.iter().enumerate() {
        let mut r = rng(seed, 0xC1A0 + i as u64);
        let weights: Vec<f32> = (0..rows * cols)
            .map(|_| if r.random::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let mut xbar = Crossbar::program(&weights, rows, cols, &crossbar_config(), &mut r);
        let inputs: Vec<f32> = (0..rows * n)
            .map(|_| r.random::<f32>() * 2.0 - 1.0)
            .collect();
        black_box(xbar.matmul(&inputs, n, &mut r)); // warm scratch
        let mut times = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            tr.time("cim", "matmul", || {
                black_box(xbar.matmul(&inputs, n, &mut r))
            });
            times.push(secs(t));
        }
        let call_s = median(&times);
        run.set(metric, call_s * 1e6);
        ops += 2.0 * (rows * cols * n) as f64;
        bytes += (4 * rows * n + 8 * rows * cols + 8 * cols * n) as f64;
        busy_s += call_s;
    }
    run.set("cim.gops", ops / busy_s / 1e9);
    run.set("cim.bytes_per_op", bytes / ops);
    run.meta(
        "cim_bytes_per_op_source",
        Json::Str("computed from matrix sizes".to_string()),
    );
}
