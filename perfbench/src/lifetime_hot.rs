//! `lifetime_hot`: one closed-loop `Supervisor` die at the hot corner
//! (0.2 % hard faults, 4 spare columns, Δ₀ = 37 at 350 K — about 6 %/h
//! retention flips — drift 0.01, a scrub every 2 device-hours, periodic
//! checkpoints) stepped one device-hour at a time over a fixed labelled
//! eval batch.
//!
//! The die lives through a fixed [`STEPS`]-hour trajectory; when it ends
//! a twin from the same deterministic constructor is commissioned and
//! the trajectory runs again until the run's time is up. Every replay
//! must reproduce the first bit for bit, so the simulated metrics are
//! those of the first trajectory whatever the host speed. (Replays do
//! not restore checkpoints: decoding one takes seconds and grows faster
//! than the checkpoint, so the traced run restores exactly one.)
//!
//! The die has the `serve_binary` geometry (c1=4, c2=8, hidden=32): a
//! checkpoint of the default `exp_lifetime` geometry (3.9 MB) takes
//! minutes to decode, past the benchmark's per-run time limit.
//!
//! End-to-end: `ops_per_s` is simulated device-hours per host second of
//! `Supervisor::step` over the median trajectory
//! (`device_hours_per_s`; the all-steps rate is in the report);
//! `latency_p50_ms` / `latency_tail_ms` time single steps.

use crate::common::{self, rng, secs, Run};
use crate::stats::{median, tail};
use crate::trace::{Tracer, HARNESS};
use crate::Args;
use neuspin_bayes::{ArchConfig, Method};
use neuspin_cim::CrossbarConfig;
use neuspin_core::json::Json;
use neuspin_core::{
    telemetry, HardwareConfig, HardwareModel, RecoveryAction, Supervisor, SupervisorConfig,
};
use neuspin_data::digits::{dataset, DigitStyle};
use neuspin_device::{AgingConfig, DefectRates, TemperatureProfile};
use neuspin_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 6;
const EVAL_BATCH: usize = 128;
const TRAIN_IMAGES: usize = 1500;
const TRAIN_BATCH: usize = 16;
const CALIB_IMAGES: usize = 64;
/// Device-hours of one trajectory (one step per hour).
const STEPS: usize = 8;
const DT_HOURS: f64 = 1.0;
const SCRUB_INTERVAL_HOURS: f64 = 2.0;
const CHECKPOINT_INTERVAL_STEPS: usize = 4;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// The backbone, the eval batch, the die and its aging streams are
/// fixed; `--seed` drives the supervisor's RNG streams (calibration,
/// abstention threshold, evaluation MC passes).
const DIE_SEED: u64 = 0x11FE;

fn config(seed: u64) -> SupervisorConfig {
    SupervisorConfig {
        scrub_interval_hours: SCRUB_INTERVAL_HOURS,
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0A61,
        checkpoint_interval_steps: CHECKPOINT_INTERVAL_STEPS,
        ..SupervisorConfig::default()
    }
}

/// A compiled die with aging on, before the supervisor wraps it: the
/// constructor twin every restore starts from.
fn arch() -> ArchConfig {
    ArchConfig {
        c1: 4,
        c2: 8,
        hidden: 32,
        ..ArchConfig::default()
    }
}

fn compile(sw: &mut neuspin_nn::Sequential) -> HardwareModel {
    let arch = arch();
    let hw_config = HardwareConfig {
        crossbar: CrossbarConfig {
            defect_rates: DefectRates {
                short: 0.001,
                open: 0.001,
                ..DefectRates::none()
            },
            ..neuspin_core::reliability_base().crossbar
        },
        spare_cols: 4,
        passes: PASSES,
        ..neuspin_core::reliability_base()
    };
    let mut hw = HardwareModel::compile(
        sw,
        Method::SpinDrop,
        &arch,
        &hw_config,
        &mut rng(DIE_SEED, 3),
    );
    hw.enable_aging(&AgingConfig {
        seed: DIE_SEED ^ 0x000D_ECAF,
        thermal_stability: 37.0,
        temperature: TemperatureProfile::Constant(350.0),
        drift_rate: 0.01,
        ..AgingConfig::default()
    });
    hw
}

struct Workload {
    sup: Supervisor,
    pristine: HardwareModel,
    calib: Tensor,
    eval: Tensor,
    labels: Vec<usize>,
}

struct SetupTimes {
    train: f64,
    compile: f64,
    calibrate: f64,
    total: f64,
}

fn setup(seed: u64) -> (Workload, SetupTimes) {
    let start = Instant::now();
    let style = DigitStyle::default();
    let mut r = rng(DIE_SEED, 1);
    let train = dataset(TRAIN_IMAGES, &style, &mut r);
    let calib = dataset(CALIB_IMAGES, &style, &mut r);
    let eval = dataset(EVAL_BATCH, &style, &mut r);
    let t = Instant::now();
    let mut sw = common::train_cnn(
        Method::SpinDrop,
        &arch(),
        &train,
        TRAIN_BATCH,
        &mut rng(DIE_SEED, 2),
    );
    let train = secs(t);
    let t = Instant::now();
    let pristine = compile(&mut sw);
    let compile = secs(t);
    let t = Instant::now();
    let sup = commissioned(&pristine, &calib.inputs, &eval.inputs, seed);
    let calibrate = secs(t);
    let w = Workload {
        sup,
        pristine,
        calib: calib.inputs,
        eval: eval.inputs,
        labels: eval.labels,
    };
    (
        w,
        SetupTimes {
            train,
            compile,
            calibrate,
            total: secs(start),
        },
    )
}

/// A supervisor over a copy of the constructor twin: `commission` runs
/// norm calibration, abstention calibration and the baseline eval.
fn commissioned(pristine: &HardwareModel, calib: &Tensor, eval: &Tensor, seed: u64) -> Supervisor {
    let mut sup = Supervisor::new(pristine.clone(), config(seed));
    sup.set_threads(common::host_threads());
    sup.commission(calib.clone(), eval);
    sup
}

/// What one trajectory did.
#[derive(Default)]
struct Trajectory {
    step_ms: Vec<f64>,
    digest: u64,
    accuracy_sum: f64,
    scrubs: usize,
    recalibrations: usize,
    remaps: usize,
    flips: usize,
}

fn trajectory(
    sup: &mut Supervisor,
    w_eval: &Tensor,
    labels: &[usize],
    tr: &mut Tracer,
) -> Trajectory {
    let mut out = Trajectory::default();
    for _ in 0..STEPS {
        let t = Instant::now();
        let report = tr.time("core::runtime", "Supervisor::step", || {
            sup.step(w_eval, DT_HOURS)
        });
        out.step_ms.push(secs(t) * 1e3);
        out.digest = common::fold_digest(out.digest, report.predictive.bits_digest());
        out.accuracy_sum += report.predictive.accuracy(labels);
        out.flips += report.aging.total_flips();
        for a in &report.actions {
            match a {
                RecoveryAction::Scrub => out.scrubs += 1,
                RecoveryAction::Recalibrate => out.recalibrations += 1,
                RecoveryAction::RemapTier => out.remaps += 1,
                RecoveryAction::Abstain => {}
            }
        }
    }
    out
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::new(args);
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        let (w, t) = setup(args.seed);
        setups.push(t);
        last = Some(w);
    }
    let mut w = last.expect("at least one set-up");
    let totals: Vec<f64> = setups.iter().map(|s| s.total).collect();
    run.meta("setup_repeats", Json::Num(repeats as f64));
    run.meta(
        "setup_s_samples",
        Json::Arr(totals.iter().map(|&s| Json::Num(s)).collect()),
    );

    let mut off = Tracer::new(false);
    let energy0 = w.sup.model().energy().0;
    let counter0 = w.sup.model().counter();
    let syncs0 = w.sup.replicas().syncs();
    let packed0 = w.sup.model().packed_call_count();
    let (eval, labels) = (w.eval.clone(), w.labels.clone());
    let first = trajectory(&mut w.sup, &eval, &labels, &mut off);
    let preds = (STEPS * EVAL_BATCH) as f64;
    let energy_uj = (w.sup.model().energy().0 - energy0) * 1e6 / preds;
    let ops = w.sup.model().counter().since(&counter0);
    let syncs = w.sup.replicas().syncs() - syncs0;
    let packed = w.sup.model().packed_call_count() - packed0;
    let accuracy = 100.0 * first.accuracy_sum / STEPS as f64;
    run.attempted += STEPS as u64;
    run.simulated(first.digest, energy_uj, accuracy);
    run.meta("packed_call_delta", Json::Num(packed as f64));
    run.meta(
        "trajectory",
        Json::obj([
            ("steps", Json::Num(STEPS as f64)),
            ("scrubs", Json::Num(first.scrubs as f64)),
            ("recalibrations", Json::Num(first.recalibrations as f64)),
            ("remaps", Json::Num(first.remaps as f64)),
            ("flips", Json::Num(first.flips as f64)),
        ]),
    );
    run.check("scheduled scrubs ran", first.scrubs == STEPS / 2);
    run.check(
        "a periodic checkpoint was taken",
        w.sup.last_checkpoint().is_some(),
    );

    if !args.trace {
        // Replays until the time is up; the first trajectory's steps
        // count too.
        let mut step_ms = first.step_ms.clone();
        let mut trajectory_s = vec![first.step_ms.iter().sum::<f64>() / 1e3];
        let mut replays = 0;
        let mut diverged = 0;
        let start = Instant::now();
        while replays < 2 || secs(start) < args.seconds {
            let mut sup = commissioned(&w.pristine, &w.calib, &eval, args.seed);
            let t = trajectory(&mut sup, &eval, &labels, &mut off);
            if t.digest != first.digest {
                diverged += 1;
            }
            trajectory_s.push(t.step_ms.iter().sum::<f64>() / 1e3);
            step_ms.extend(t.step_ms);
            replays += 1;
            run.attempted += STEPS as u64;
        }
        run.failed += diverged * STEPS as u64;
        run.check(
            format!("{replays} replays on constructor twins reproduce the trajectory bit for bit"),
            diverged == 0,
        );
        let busy_s: f64 = trajectory_s.iter().sum();
        let typical = STEPS as f64 * DT_HOURS / median(&trajectory_s);
        let (tail_pct, tail_ms) = tail(&step_ms);
        run.set("setup_s", median(&totals));
        run.set("ops_per_s", typical);
        run.set("latency_p50_ms", median(&step_ms));
        run.set("latency_tail_ms", tail_ms);
        run.set("energy_uj_per_pred", energy_uj);
        run.set("accuracy_pct", accuracy);
        run.set("peak_rss_mb", common::peak_rss_mb());
        run.meta(
            "samples",
            Json::obj([
                ("steps", Json::Num(step_ms.len() as f64)),
                ("replays", Json::Num(replays as f64 + 1.0)),
                ("tail_percentile", Json::Num(tail_pct)),
            ]),
        );
        run.meta(
            "named_metrics",
            Json::obj([
                ("device_hours_per_s", Json::Num(typical)),
                (
                    "device_hours_per_s_all_steps",
                    Json::Num(step_ms.len() as f64 * DT_HOURS / busy_s),
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
    run.set("model.calibrate_s", s.calibrate);
    let hours = STEPS as f64 * DT_HOURS;
    run.set("runtime.scrubs", first.scrubs as f64);
    run.set("runtime.recalibrations", first.recalibrations as f64);
    run.set("runtime.remaps", first.remaps as f64);
    run.set("pool.replica_syncs", syncs as f64 / STEPS as f64);
    run.set("device.flips_per_hour", first.flips as f64 / hours);
    run.set("cim.cell_writes_per_hour", ops.cell_writes as f64 / hours);
    run.set("cim.cell_reads_per_pred", ops.cell_reads as f64 / preds);
    run.set("cim.adc_converts_per_pred", ops.adc_converts as f64 / preds);
    run.set(
        "cim.adc_saturations_per_pred",
        ops.adc_saturations as f64 / preds,
    );
    run.set("device.rng_bits_per_pred", ops.rng_bits as f64 / preds);
    let calls = preds * PASSES as f64 * common::crossbar_calls_per_sample(&arch()) as f64;
    run.set("cim.packed_share", packed as f64 / calls);

    // One untraced and one traced replay of the same trajectory.
    let mut sup = commissioned(&w.pristine, &w.calib, &eval, args.seed);
    let t = Instant::now();
    let plain = trajectory(&mut sup, &eval, &labels, &mut off);
    let plain_s = secs(t);
    telemetry::set_enabled(true, false);
    let mut tr = Tracer::new(true);
    let root = tr.begin(HARNESS, "lifetime_hot");
    let mut sup = commissioned(&w.pristine, &w.calib, &eval, args.seed);
    let t = Instant::now();
    let traced = trajectory(&mut sup, &eval, &labels, &mut tr);
    let traced_s = secs(t);
    tr.end(root);
    run.attempted += 2 * STEPS as u64;
    run.check(
        "traced and untraced replays reproduce the trajectory bit for bit",
        plain.digest == first.digest && traced.digest == first.digest,
    );
    run.set("trace.overhead_pct", 100.0 * (traced_s / plain_s - 1.0));
    run.set("runtime.step_ms", median(&traced.step_ms));

    // core::checkpoint: serialise the aged die, restore it onto a
    // constructor twin, and step both: the twin must answer bit for bit.
    let mut write_ms = Vec::new();
    let mut text = String::new();
    for _ in 0..5 {
        let t = Instant::now();
        text = tr.time("core::checkpoint", "Supervisor::checkpoint", || {
            sup.checkpoint()
        });
        write_ms.push(secs(t) * 1e3);
    }
    let mut twin = Supervisor::new(w.pristine.clone(), config(args.seed));
    let t = Instant::now();
    let restored = tr.time("core::checkpoint", "restore_from_str", || {
        twin.restore_from_str(&text)
    });
    let restore_ms = secs(t) * 1e3;
    twin.set_threads(common::host_threads());
    let a = sup.step(&eval, DT_HOURS).predictive;
    let b = twin.step(&eval, DT_HOURS).predictive;
    run.attempted += 2;
    run.check(
        "a die restored from its checkpoint steps bit for bit like the original",
        restored.is_ok() && a.bits_digest() == b.bits_digest(),
    );
    run.set("checkpoint.write_ms", median(&write_ms));
    run.set("checkpoint.bytes", text.len() as f64);
    run.set("checkpoint.restore_ms", restore_ms);

    // core::model and device: scrub and aging on clones of the aged die.
    let mut scrub_ms = Vec::new();
    let mut age_ms = Vec::new();
    let mut pass_ms = Vec::new();
    for k in 0..3u64 {
        let mut m = sup.model().clone();
        let t = Instant::now();
        tr.time("device", "advance_time", || {
            black_box(m.advance_time(DT_HOURS))
        });
        age_ms.push(secs(t) * 1e3);
        let t = Instant::now();
        tr.time("core::model", "scrub", || black_box(m.scrub()));
        scrub_ms.push(secs(t) * 1e3);
        let mut g = StdRng::seed_from_u64(args.seed ^ k);
        let t = Instant::now();
        tr.time("core::model", "forward_planned", || {
            black_box(m.forward_planned(&eval, true, &mut g));
        });
        pass_ms.push(secs(t) * 1e3);
    }
    telemetry::set_enabled(false, false);
    run.set("device.advance_time_ms", median(&age_ms));
    run.set("model.scrub_ms", median(&scrub_ms));
    run.set("model.pass_ms", median(&pass_ms));
    run.set("model.scratch_bytes", sup.model().scratch_bytes() as f64);
    run.set("model.plan_rebuilds", sup.model().plan_rebuilds() as f64);
    common::span_shares(&mut run, &tr, root);
    common::write_spans(&mut run, args, &tr);
    run.meta(
        "samples",
        Json::obj([
            ("traced_steps", Json::Num(traced.step_ms.len() as f64)),
            ("checkpoint_writes", Json::Num(write_ms.len() as f64)),
            ("checkpoint_restores", Json::Num(1.0)),
            ("clone_probes", Json::Num(scrub_ms.len() as f64)),
        ]),
    );
    run
}
