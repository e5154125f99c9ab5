//! **Table I reproduction**: inference accuracy and energy per image
//! for every NeuSpin method.
//!
//! * Accuracy — measured by training each method's binary CNN on
//!   synth-digits and running hardware-in-the-loop Monte-Carlo
//!   inference on the CIM simulator (typical process corner).
//! * Energy — two figures: the energy *measured* on the simulated CNN,
//!   and the analytic estimate on the paper-scale LeNet reference
//!   network with each publication's sampling budget (the number
//!   comparable to the paper's µJ column).
//!
//! ```sh
//! cargo run --release -p neuspin-bench --bin table1
//! NEUSPIN_BENCH_FAST=1 cargo run --release -p neuspin-bench --bin table1   # smoke test
//! ```

use neuspin_bayes::Method;
use neuspin_bench::{row, write_json, Setup};
use neuspin_cim::CrossbarConfig;
use neuspin_core::{HardwareConfig, HardwareModel, Table1Row};
use neuspin_device::{MtjParams, VariationModel, VariedParams};
use neuspin_energy::{estimate_method_energy, Joules, NetworkSpec};
use neuspin_nn::evaluate;

fn paper_values(method: Method) -> (Option<f64>, Option<f64>) {
    // (accuracy %, energy µJ/image) from Table I.
    match method {
        Method::SpinDrop => (Some(91.95), Some(2.00)),
        Method::SpatialSpinDrop => (Some(90.34), Some(0.68)),
        Method::SpinScaleDrop => (Some(90.45), Some(0.18)),
        Method::SubsetVi => (Some(90.62), Some(0.30)),
        Method::SpinBayes => (None, Some(0.26)),
        _ => (None, None),
    }
}

fn main() {
    let setup = Setup::from_env();
    println!("== Table I: comparison of methods ==");
    println!(
        "(synth-digits CNN, {} train / {} test images, {} MC passes, typical corner)\n",
        setup.train_images, setup.test_images, setup.passes
    );

    let (train, calib, test) = setup.datasets();
    let reference = NetworkSpec::lenet_reference();
    let hw_config = HardwareConfig {
        crossbar: CrossbarConfig {
            corner: VariedParams::new(MtjParams::default(), VariationModel::typical()),
            read_noise: 0.01,
            adc_bits: Some(6),
            ..CrossbarConfig::default()
        },
        passes: setup.passes,
        ..HardwareConfig::default()
    };

    let mut rows: Vec<Table1Row> = Vec::new();
    for method in Method::ALL {
        eprint!("training + evaluating {method} ... ");
        let mut model = setup.train(method, &train);
        let mut rng = setup.rng(100 + method as u64);

        // Software accuracy (MC for Bayesian methods, Eval otherwise).
        let software_accuracy = if method.is_bayesian() && method != Method::SpinBayes {
            neuspin_bayes::mc_predict(&mut model, &test.inputs, setup.passes, &mut rng)
                .accuracy(&test.labels)
        } else {
            evaluate(&mut model, &test, &mut rng)
        };

        // Hardware-in-the-loop.
        let mut hw = HardwareModel::compile(&mut model, method, &setup.arch, &hw_config, &mut rng);
        hw.calibrate(&calib.inputs, 2, &mut rng);
        hw.reset_counter();
        let pred = hw.predict(&test.inputs, &mut rng);
        let hardware_accuracy = pred.accuracy(&test.labels);
        let counter = hw.counter();
        let simulated = Joules(hw.energy().0 / test.len() as f64);

        let reference_estimate = estimate_method_energy(&reference, method);
        let (paper_acc, paper_uj) = paper_values(method);
        eprintln!("done (hw acc {:.1}%)", 100.0 * hardware_accuracy);

        rows.push(Table1Row {
            method,
            software_accuracy,
            hardware_accuracy,
            simulated_energy_per_image: simulated,
            reference_energy_per_image: reference_estimate.per_image,
            paper_energy_uj: paper_uj,
            paper_accuracy_pct: paper_acc,
            counter,
        });
    }

    // Human-readable table.
    let widths = [28, 10, 10, 14, 14, 12, 10];
    println!(
        "\n{}",
        row(
            &[
                "method".into(),
                "sw acc".into(),
                "hw acc".into(),
                "sim E/img".into(),
                "ref E/img".into(),
                "paper E".into(),
                "paper acc".into(),
            ],
            &widths
        )
    );
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 12));
    for r in &rows {
        println!(
            "{}",
            row(
                &[
                    r.method.to_string(),
                    format!("{:.2}%", 100.0 * r.software_accuracy),
                    format!("{:.2}%", 100.0 * r.hardware_accuracy),
                    r.simulated_energy_per_image.to_string(),
                    r.reference_energy_per_image.to_string(),
                    r.paper_energy_uj.map_or("—".into(), |e| format!("{e:.2} µJ")),
                    r.paper_accuracy_pct.map_or("—".into(), |a| format!("{a:.2}%")),
                ],
                &widths
            )
        );
    }

    // Headline ratios.
    let energy =
        |m: Method| rows.iter().find(|r| r.method == m).unwrap().reference_energy_per_image.0;
    println!(
        "\nSpinDrop / Spatial-SpinDrop reference-energy ratio: {:.2}× (paper: 2.94×)",
        energy(Method::SpinDrop) / energy(Method::SpatialSpinDrop)
    );
    println!(
        "SpinDrop / SpinScaleDrop reference-energy ratio:    {:.2}× (paper: ~11×)",
        energy(Method::SpinDrop) / energy(Method::SpinScaleDrop)
    );

    write_json("table1", &rows);
}
