//! **Lifetime study**: temporal degradation vs. closed-loop
//! self-healing over device-hours of simulated service.
//!
//! Three copies of the same die (identical compile seed, identical
//! aging streams) live through the same retention-flip + drift
//! trajectory at each ambient temperature:
//!
//! * **unmanaged** — calibrated once at t = 0, then left alone;
//! * **scrub-only** — plus a periodic data scrub from the golden image;
//! * **closed-loop** — a [`neuspin_core::Supervisor`] executing the
//!   full policy ladder (scheduled scrub, recalibration, re-BIST +
//!   repair + remap, gated abstention) with every action charged to
//!   the energy model.
//!
//! All three arms share one fixed evaluation seed (common random
//! numbers), so per-step accuracy differences are hardware state, not
//! sampling noise — and the JSON carries no wall-clock numbers, so the
//! artifact is byte-identical for any `NEUSPIN_THREADS`.
//!
//! ```sh
//! cargo run --release -p neuspin-bench --bin exp_lifetime
//! NEUSPIN_BENCH_FAST=1 cargo run --release -p neuspin-bench --bin exp_lifetime
//! cargo run --release -p neuspin-bench --bin exp_lifetime -- --check
//! ```
//!
//! Writes `results/exp_lifetime.json` (per-step grid) and
//! `BENCH_lifetime.json` (headline summary at the workspace root;
//! override the root with `NEUSPIN_BENCH_ROOT`). `--check` re-reads
//! the summary and exits non-zero unless the closed loop held the line:
//! unmanaged accuracy collapses at the hot corner while closed-loop
//! stays within 2 pp of its t = 0 accuracy, and at every recorded step
//! closed ≥ `min(unmanaged, unmanaged's t = 0 accuracy)` up to the
//! finite-test-set noise floor `1/n + 1/√n` (one sample quantum plus
//! the conservative two-sigma binomial bound on an accuracy estimated
//! from `n` images). The `min` is deliberate: at mild temperatures an
//! unmanaged die can *transiently score above its own commissioning
//! point* (a benign conductance-drift fluctuation on a finite test
//! set), and the supervisor — whose scrub restores the commissioning
//! state bit for bit — rightly does not chase that luck. Wherever the
//! unmanaged die genuinely degrades below t = 0 by more than sampling
//! noise, dominance is enforced.

use neuspin_bayes::{ece, Method};
use neuspin_bench::artifact::{self, Artifact};
use neuspin_bench::scenarios::{faulty_hardware_config, hard_fault_rates};
use neuspin_bench::{write_bench, write_json, Setup};
use neuspin_cim::{march_test, BistConfig, Crossbar, CrossbarConfig};
use neuspin_core::rng::stream;
use neuspin_core::{HardwareModel, Supervisor, SupervisorConfig, ThreadPool};
use neuspin_device::{AgingConfig, TemperatureProfile};
use neuspin_nn::Tensor;
use std::process::ExitCode;

/// Hard-fault rate and spare budget of the die under test (kept light:
/// the study isolates *temporal* degradation on a near-healthy die;
/// heavy fabrication defects are `exp_faultmgmt`'s axis).
const DEFECT_RATE: f64 = 0.002;
const SPARE_COLS: usize = 4;
/// Room-temperature thermal stability Δ₀; at 350 K the effective
/// barrier drops to ≈ 31.7, i.e. a ~6 %/hour retention-flip rate.
const DELTA0: f64 = 37.0;
/// Slow conductance relaxation on top of the flips.
const DRIFT_RATE: f64 = 0.01;
/// Scheduled-scrub period (device-hours) for the managed arms.
const SCRUB_INTERVAL: f64 = 2.0;
/// Simulation step (device-hours).
const DT_HOURS: f64 = 1.0;

#[derive(Debug)]
struct LifetimePoint {
    temperature: f64,
    scrub_interval_hours: f64,
    hours: f64,
    accuracy_unmanaged: f64,
    accuracy_scrub_only: f64,
    accuracy_closed: f64,
    ece_unmanaged: f64,
    ece_closed: f64,
    coverage_closed: f64,
    energy_unmanaged_j: f64,
    energy_scrub_only_j: f64,
    energy_closed_j: f64,
    flips_unmanaged: f64,
    actions_closed: f64,
}

neuspin_core::impl_to_json!(LifetimePoint {
    temperature,
    scrub_interval_hours,
    hours,
    accuracy_unmanaged,
    accuracy_scrub_only,
    accuracy_closed,
    ece_unmanaged,
    ece_closed,
    coverage_closed,
    energy_unmanaged_j,
    energy_scrub_only_j,
    energy_closed_j,
    flips_unmanaged,
    actions_closed
});

#[derive(Debug)]
struct LifetimeSummary {
    fast_mode: f64,
    test_images: f64,
    reference_temperature: f64,
    scrub_interval_hours: f64,
    device_hours: f64,
    t0_accuracy_unmanaged: f64,
    final_accuracy_unmanaged: f64,
    unmanaged_drop: f64,
    t0_accuracy_closed: f64,
    final_accuracy_closed: f64,
    closed_regression: f64,
    min_closed_margin: f64,
    recovery_events: f64,
    energy_overhead_ratio: f64,
    bist_detection_rate: f64,
    bist_false_positives: f64,
    points: f64,
}

neuspin_core::impl_to_json!(LifetimeSummary {
    fast_mode,
    test_images,
    reference_temperature,
    scrub_interval_hours,
    device_hours,
    t0_accuracy_unmanaged,
    final_accuracy_unmanaged,
    unmanaged_drop,
    t0_accuracy_closed,
    final_accuracy_closed,
    closed_regression,
    min_closed_margin,
    recovery_events,
    energy_overhead_ratio,
    bist_detection_rate,
    bist_false_positives,
    points
});

const SUMMARY_KEYS: [&str; 17] = [
    "fast_mode",
    "test_images",
    "reference_temperature",
    "scrub_interval_hours",
    "device_hours",
    "t0_accuracy_unmanaged",
    "final_accuracy_unmanaged",
    "unmanaged_drop",
    "t0_accuracy_closed",
    "final_accuracy_closed",
    "closed_regression",
    "min_closed_margin",
    "recovery_events",
    "energy_overhead_ratio",
    "bist_detection_rate",
    "bist_false_positives",
    "points",
];

fn aging_config(seed: u64, temperature: f64) -> AgingConfig {
    AgingConfig {
        seed,
        thermal_stability: DELTA0,
        temperature: TemperatureProfile::Constant(temperature),
        drift_rate: DRIFT_RATE,
        ..AgingConfig::default()
    }
}

/// The t = 0 commissioning shared by the manual arms — mirrors
/// [`Supervisor::commission`]'s RNG streams exactly so every arm
/// starts from the identical calibrated state.
fn commission_manual(hw: &mut HardwareModel, calib: &Tensor, master: u64) -> f64 {
    hw.calibrate(calib, 2, &mut stream(master, 1));
    hw.calibrate_abstention(calib, 0.9, &mut stream(master, 2))
}

fn check() -> Result<String, String> {
    let artifact = Artifact::bench("BENCH_lifetime.json")?;
    let summary = artifact.root();
    for key in SUMMARY_KEYS {
        summary.num(key)?;
    }
    // The unmanaged die must collapse at the hot corner ...
    let drop = summary.at_least("unmanaged_drop", 0.10 - 1e-9)?;
    // ... while the closed loop holds within 2 pp of its t = 0 accuracy,
    let regression = summary.num("closed_regression")?;
    summary.ensure(regression <= 0.02 + 1e-9, || {
        format!("closed_regression {regression:.3}: closed-loop lost more than 0.02 accuracy vs t=0")
    })?;
    // ... and never falls below the degraded unmanaged envelope by more
    // than the finite-test-set noise floor.
    let n = summary.num("test_images")?;
    let slack = 1.0 / n + 1.0 / n.sqrt() + 1e-9;
    let min_gap = summary.at_least("min_closed_margin", -slack)?;
    summary.at_least("bist_detection_rate", 0.5)?;
    Ok(format!(
        "BENCH_lifetime.json OK: unmanaged dropped {:.1} pp, closed-loop regressed {:.1} pp over {} h, min gap {:+.4}",
        100.0 * drop,
        100.0 * regression,
        summary.num("device_hours")?,
        min_gap
    ))
}

/// A standalone BIST-quality sidebar: a small crossbar with both
/// fabrication defects and endurance wear-outs, march-tested and
/// scored against its true defect map with [`neuspin_cim::BistReport::confusion`].
fn bist_sidebar(setup: &Setup) -> (f64, f64) {
    let n = 32;
    let weights: Vec<f32> =
        (0..n * n).map(|i| if (i * 7 + 3) % 5 < 2 { 1.0 } else { -1.0 }).collect();
    let config = CrossbarConfig {
        defect_rates: hard_fault_rates(0.05),
        ..CrossbarConfig::default()
    };
    let mut xbar = Crossbar::program(&weights, n, n, &config, &mut setup.rng(0xB157));
    xbar.enable_aging(&AgingConfig {
        seed: setup.seed ^ 0xB157,
        endurance_median: 50.0,
        endurance_sigma: 0.3,
        ..AgingConfig::default()
    });
    // Burn write cycles so a tail of cells wears out on top of the
    // fabrication defects.
    for _ in 0..30 {
        xbar.reprogram(&weights);
        xbar.advance_time(0.1);
    }
    let truth = xbar.defects().clone();
    let report = march_test(&mut xbar, &BistConfig::default(), &mut setup.rng(0xB158));
    let confusion = report.confusion(&truth);
    println!(
        "BIST sidebar (fabrication + wear): detection {:.2}, {} detected / {} misclassified / {} missed / {} false alarms",
        confusion.detection_rate(),
        confusion.total_detected(),
        confusion.total_misclassified(),
        confusion.total_missed(),
        confusion.total_false_positives(),
    );
    (confusion.detection_rate(), confusion.total_false_positives() as f64)
}

fn main() -> ExitCode {
    artifact::main(run, check)
}

fn run() -> ExitCode {
    let fast = neuspin_bench::fast_mode();
    let setup = if fast {
        Setup { epochs: 2, train_images: 600, test_images: 96, calib_images: 48, passes: 6, ..Setup::quick() }
    } else {
        Setup::default()
    };
    let temperatures: Vec<f64> = if fast { vec![350.0] } else { vec![300.0, 325.0, 350.0] };
    let steps = if fast { 4 } else { 8 };
    let passes = setup.passes.min(8);
    let device_hours = steps as f64 * DT_HOURS;

    println!("== Lifetime: temporal degradation vs closed-loop self-healing ==\n");
    let (train, calib, test) = setup.datasets();
    eprintln!("training SpinDrop backbone ...");
    let mut model = setup.train(Method::SpinDrop, &train);
    let hw_config = faulty_hardware_config(DEFECT_RATE, SPARE_COLS, passes);
    let pool = ThreadPool::from_env();
    // Finite-test-set noise floor for the dominance assertion: one
    // sample quantum plus the conservative two-sigma binomial bound
    // (2·√(p(1−p)/n) ≤ 1/√n) on an accuracy estimated from n images.
    let test_n = test.labels.len() as f64;
    let noise_floor = 1.0 / test_n + 1.0 / test_n.sqrt();

    let mut points: Vec<LifetimePoint> = Vec::new();
    let mut min_gap = f64::INFINITY;
    // Reference-corner trajectory endpoints for the summary gate.
    let mut reference = (0.0, 0.0, 0.0, 0.0); // (t0_un, final_un, t0_cl, final_cl)
    let mut recovery_events = 0usize;
    let mut energy_ratio = 1.0;

    for (ti, &temperature) in temperatures.iter().enumerate() {
        println!("-- ambient {temperature} K, scrub every {SCRUB_INTERVAL} h --");
        let compile_tag = 0x11FE + 16 * ti as u64;
        let master = setup.seed ^ (0x0A61_0000 + ti as u64);
        let aging = aging_config(master ^ 0x000D_ECAF, temperature);

        // Three copies of the same die: identical compile seed.
        let mut compile_die = |_| {
            let mut hw = HardwareModel::compile(
                &mut model,
                Method::SpinDrop,
                &setup.arch,
                &hw_config,
                &mut setup.rng(compile_tag),
            );
            hw.enable_aging(&aging);
            hw
        };
        let mut unmanaged = compile_die(0);
        let mut scrub_only = compile_die(1);
        let closed = compile_die(2);

        let sup_config = SupervisorConfig {
            scrub_interval_hours: SCRUB_INTERVAL,
            seed: master,
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(closed, sup_config);
        let eval_seed = sup.eval_seed();
        let t0_closed_pred = sup.commission(calib.inputs.clone(), &test.inputs);
        commission_manual(&mut unmanaged, &calib.inputs, master);
        commission_manual(&mut scrub_only, &calib.inputs, master);

        let t0_un = unmanaged.predict_par(&test.inputs, eval_seed, &pool);
        let t0_scrub = scrub_only.predict_par(&test.inputs, eval_seed, &pool);
        let acc0_un = t0_un.accuracy(&test.labels);
        let acc0_cl = t0_closed_pred.accuracy(&test.labels);
        println!(
            "{:>6} {:>11} {:>11} {:>11} {:>9} {:>9} {:>8}",
            "hours", "unmanaged", "scrub-only", "closed", "ECE(cl)", "coverage", "actions"
        );
        points.push(LifetimePoint {
            temperature,
            scrub_interval_hours: SCRUB_INTERVAL,
            hours: 0.0,
            accuracy_unmanaged: acc0_un,
            accuracy_scrub_only: t0_scrub.accuracy(&test.labels),
            accuracy_closed: acc0_cl,
            ece_unmanaged: ece(&t0_un.mean_probs, &test.labels, 10),
            ece_closed: ece(&t0_closed_pred.mean_probs, &test.labels, 10),
            coverage_closed: t0_closed_pred.gate(sup.abstain_threshold()).coverage(),
            energy_unmanaged_j: unmanaged.energy().0,
            energy_scrub_only_j: scrub_only.energy().0,
            energy_closed_j: sup.model().energy().0,
            flips_unmanaged: 0.0,
            actions_closed: 0.0,
        });

        let mut now = 0.0;
        let mut last_scrub = 0.0;
        let mut flips_un = 0u64;
        let (mut acc_un, mut acc_cl) = (acc0_un, acc0_cl);
        for _ in 0..steps {
            // Unmanaged arm: age, then look the other way.
            let rep_un = unmanaged.advance_time(DT_HOURS);
            flips_un += rep_un.total_flips() as u64 + rep_un.wear_outs as u64;
            // Scrub-only arm: age, scrub on schedule.
            scrub_only.advance_time(DT_HOURS);
            now += DT_HOURS;
            if now - last_scrub >= SCRUB_INTERVAL - 1e-9 {
                scrub_only.scrub();
                last_scrub = now;
            }
            // Closed loop: the supervisor runs the whole ladder.
            let report = sup.step(&test.inputs, DT_HOURS);

            let pred_un = unmanaged.predict_par(&test.inputs, eval_seed, &pool);
            let pred_scrub = scrub_only.predict_par(&test.inputs, eval_seed, &pool);
            acc_un = pred_un.accuracy(&test.labels);
            acc_cl = report.predictive.accuracy(&test.labels);
            let gated = report.predictive.gate(sup.abstain_threshold());
            // Dominance is judged against the *degraded* unmanaged
            // envelope min(unmanaged, unmanaged t=0): a mildly drifted
            // die can transiently score above its own commissioning
            // point by finite-test-set luck, and the supervisor (whose
            // scrub restores the commissioning state bit for bit) does
            // not chase that. Wherever unmanaged genuinely degrades
            // beyond sampling noise, closed must hold the line.
            let envelope = acc_un.min(acc0_un);
            min_gap = min_gap.min(acc_cl - envelope);
            assert!(
                acc_cl + noise_floor + 1e-9 >= envelope,
                "closed-loop ({acc_cl:.3}) fell below the degraded unmanaged envelope \
                 ({envelope:.3}) at {now} h, {temperature} K"
            );
            let point = LifetimePoint {
                temperature,
                scrub_interval_hours: SCRUB_INTERVAL,
                hours: now,
                accuracy_unmanaged: acc_un,
                accuracy_scrub_only: pred_scrub.accuracy(&test.labels),
                accuracy_closed: acc_cl,
                ece_unmanaged: ece(&pred_un.mean_probs, &test.labels, 10),
                ece_closed: ece(&report.predictive.mean_probs, &test.labels, 10),
                coverage_closed: gated.coverage(),
                energy_unmanaged_j: unmanaged.energy().0,
                energy_scrub_only_j: scrub_only.energy().0,
                energy_closed_j: sup.model().energy().0,
                flips_unmanaged: flips_un as f64,
                actions_closed: report.actions.len() as f64,
            };
            println!(
                "{:>6.1} {:>10.1}% {:>10.1}% {:>10.1}% {:>9.3} {:>9.2} {:>8}",
                point.hours,
                100.0 * point.accuracy_unmanaged,
                100.0 * point.accuracy_scrub_only,
                100.0 * point.accuracy_closed,
                point.ece_closed,
                point.coverage_closed,
                point.actions_closed,
            );
            points.push(point);
        }
        if (temperature - 350.0).abs() < 1e-9 {
            reference = (acc0_un, acc_un, acc0_cl, acc_cl);
            recovery_events = sup.events().len();
            let e_un = unmanaged.energy().0;
            energy_ratio = if e_un > 0.0 { sup.model().energy().0 / e_un } else { 1.0 };
        }
        println!(
            "  recovery trail: {} events, closed-loop energy {:.1} µJ vs unmanaged {:.1} µJ\n",
            sup.events().len(),
            1e6 * sup.model().energy().0,
            1e6 * unmanaged.energy().0,
        );
    }

    let (bist_detection_rate, bist_false_positives) = bist_sidebar(&setup);

    let (t0_un, final_un, t0_cl, final_cl) = reference;
    let summary = LifetimeSummary {
        fast_mode: if fast { 1.0 } else { 0.0 },
        test_images: test.labels.len() as f64,
        reference_temperature: 350.0,
        scrub_interval_hours: SCRUB_INTERVAL,
        device_hours,
        t0_accuracy_unmanaged: t0_un,
        final_accuracy_unmanaged: final_un,
        unmanaged_drop: t0_un - final_un,
        t0_accuracy_closed: t0_cl,
        final_accuracy_closed: final_cl,
        closed_regression: t0_cl - final_cl,
        min_closed_margin: min_gap,
        recovery_events: recovery_events as f64,
        energy_overhead_ratio: energy_ratio,
        bist_detection_rate,
        bist_false_positives,
        points: points.len() as f64,
    };

    println!(
        "→ at {:.0} K the unmanaged die loses {:.1} pp of accuracy over {device_hours} h of",
        summary.reference_temperature,
        100.0 * summary.unmanaged_drop
    );
    println!(
        "  retention decay; the closed loop ends {:.1} pp from its t=0 accuracy at a",
        100.0 * summary.closed_regression
    );
    println!(
        "  {:.2}× energy overhead — reliability bought in joules, on the ledger.",
        summary.energy_overhead_ratio
    );

    write_json("exp_lifetime", &points);
    write_bench("lifetime", &summary);
    ExitCode::SUCCESS
}
