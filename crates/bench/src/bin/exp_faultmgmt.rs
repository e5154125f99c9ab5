//! **Active fault-management campaign**: BIST → spare-column repair →
//! fault-aware remap → uncertainty-gated abstention, swept over defect
//! rate × spare budget × abstention coverage target.
//!
//! For every (defect rate, spare budget) grid point two copies of the
//! same die (same seed) are compiled: one runs the full management
//! pipeline before calibration, the other is the do-nothing baseline.
//! Both are then scored on the test set; the managed copy additionally
//! reports gated accuracy at each abstention coverage target.
//!
//! ```sh
//! cargo run --release -p neuspin-bench --bin exp_faultmgmt
//! NEUSPIN_BENCH_FAST=1 cargo run --release -p neuspin-bench --bin exp_faultmgmt
//! cargo run --release -p neuspin-bench --bin exp_faultmgmt -- --check
//! ```
//!
//! `NEUSPIN_BENCH_FAST=1` shrinks training and the sweep grid to a
//! CI-sized smoke run. `--check` re-parses `results/exp_faultmgmt.json`
//! and exits non-zero if the schema is wrong or any value is non-finite
//! (the CI gate).

use neuspin_bayes::Method;
use neuspin_bench::artifact::{self, Artifact};
use neuspin_bench::scenarios::faulty_hardware_config;
use neuspin_bench::{write_json, Setup};
use neuspin_cim::BistConfig;
use neuspin_core::HardwareModel;
use std::process::ExitCode;

#[derive(Debug)]
struct GridPoint {
    defect_rate: f64,
    spare_cols: f64,
    coverage_target: f64,
    accuracy_baseline: f64,
    accuracy_managed: f64,
    accuracy_on_accepted: f64,
    coverage: f64,
    repair_success_rate: f64,
    flagged: f64,
    abstain_threshold: f64,
}

neuspin_core::impl_to_json!(GridPoint {
    defect_rate,
    spare_cols,
    coverage_target,
    accuracy_baseline,
    accuracy_managed,
    accuracy_on_accepted,
    coverage,
    repair_success_rate,
    flagged,
    abstain_threshold
});

/// Keys every grid-point object must carry, all finite numbers.
const SCHEMA_KEYS: [&str; 10] = [
    "defect_rate",
    "spare_cols",
    "coverage_target",
    "accuracy_baseline",
    "accuracy_managed",
    "accuracy_on_accepted",
    "coverage",
    "repair_success_rate",
    "flagged",
    "abstain_threshold",
];

fn check() -> Result<String, String> {
    let artifact = Artifact::result("exp_faultmgmt.json")?;
    let points = artifact.root().items()?;
    for point in &points {
        for key in SCHEMA_KEYS {
            point.num(key)?;
        }
    }
    Ok(format!("exp_faultmgmt.json: {} grid points, schema OK, all finite", points.len()))
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
    let (defect_rates, spare_budgets, coverages): (Vec<f64>, Vec<usize>, Vec<f64>) = if fast {
        (vec![0.0, 0.01], vec![0, 4], vec![0.9])
    } else {
        (vec![0.0, 0.005, 0.01, 0.02], vec![0, 2, 4, 8], vec![0.7, 0.85, 0.95])
    };

    println!("== Active fault management: BIST + repair + remap + abstention ==\n");
    let (train, calib, test) = setup.datasets();
    eprintln!("training SpinDrop backbone ...");
    let mut model = setup.train(Method::SpinDrop, &train);

    let bist = BistConfig::default();
    let mut points = Vec::new();
    println!(
        "{:>8} {:>7} {:>9} {:>10} {:>9} {:>11} {:>9} {:>8}",
        "defect", "spares", "baseline", "managed", "gated", "coverage", "repair", "flagged"
    );
    for (di, &defect_rate) in defect_rates.iter().enumerate() {
        for (si, &spare_cols) in spare_budgets.iter().enumerate() {
            let hw_config = faulty_hardware_config(defect_rate, spare_cols, setup.passes);
            let point_tag = 0x10_000 + (di as u64) * 64 + si as u64;

            // Same die twice: identical compile seed, divergent care.
            let mut baseline_hw = HardwareModel::compile(
                &mut model,
                Method::SpinDrop,
                &setup.arch,
                &hw_config,
                &mut setup.rng(point_tag),
            );
            baseline_hw.calibrate(&calib.inputs, 2, &mut setup.rng(point_tag + 1));
            let base_pred = baseline_hw.predict(&test.inputs, &mut setup.rng(point_tag + 2));
            let accuracy_baseline = base_pred.accuracy(&test.labels);

            let mut managed_hw = HardwareModel::compile(
                &mut model,
                Method::SpinDrop,
                &setup.arch,
                &hw_config,
                &mut setup.rng(point_tag),
            );
            let report =
                managed_hw.fault_management(&bist, &mut setup.rng(point_tag + 3));
            managed_hw.calibrate(&calib.inputs, 2, &mut setup.rng(point_tag + 1));
            let managed_pred =
                managed_hw.predict(&test.inputs, &mut setup.rng(point_tag + 2));
            let accuracy_managed = managed_pred.accuracy(&test.labels);

            for (ci, &coverage_target) in coverages.iter().enumerate() {
                let threshold = managed_hw.calibrate_abstention(
                    &calib.inputs,
                    coverage_target,
                    &mut setup.rng(point_tag + 4 + ci as u64),
                );
                let pred =
                    managed_hw.predict(&test.inputs, &mut setup.rng(point_tag + 2));
                let gated = pred.gate(threshold);
                let accuracy_on_accepted =
                    pred.accuracy_on_accepted(&test.labels, &gated);
                println!(
                    "{:>8.3} {:>7} {:>9.3} {:>10.3} {:>9.3} {:>11.3} {:>9.2} {:>8}",
                    defect_rate,
                    spare_cols,
                    accuracy_baseline,
                    accuracy_managed,
                    accuracy_on_accepted,
                    gated.coverage(),
                    report.repair_success_rate(),
                    report.total_flagged(),
                );
                points.push(GridPoint {
                    defect_rate,
                    spare_cols: spare_cols as f64,
                    coverage_target,
                    accuracy_baseline,
                    accuracy_managed,
                    accuracy_on_accepted,
                    coverage: gated.coverage(),
                    repair_success_rate: report.repair_success_rate(),
                    flagged: report.total_flagged() as f64,
                    abstain_threshold: threshold,
                });
            }
        }
    }

    println!("\n→ spares pay off once the defect rate reaches the per-column");
    println!("  fault probability; abstention trades coverage for accuracy on");
    println!("  whatever damage repair could not buy back.");
    write_json("exp_faultmgmt", &points);
    ExitCode::SUCCESS
}
