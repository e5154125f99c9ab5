//! Benchmarks across the method zoo: one stochastic hardware pass per
//! method (the per-pass cost whose T-fold repetition is the Table I
//! energy story), plus the analytic energy-estimate hot path.

use neuspin_bayes::Method;
use neuspin_bench::timing::{black_box, Harness};
use neuspin_core::{HardwareConfig, HardwareModel};
use neuspin_energy::{estimate_method_energy, NetworkSpec};
use neuspin_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut h = Harness::new("methods");

    let arch = neuspin_bayes::ArchConfig { c1: 4, c2: 8, hidden: 32, ..Default::default() };
    let x = Tensor::from_fn(&[4, 1, 16, 16], |i| ((i * 13 % 31) as f32 / 15.5) - 1.0);
    for method in [
        Method::Deterministic,
        Method::SpinDrop,
        Method::SpatialSpinDrop,
        Method::SpinScaleDrop,
        Method::SubsetVi,
        Method::SpinBayes,
    ] {
        let mut rng = StdRng::seed_from_u64(11);
        let software = if method == Method::SpinBayes { Method::Deterministic } else { method };
        let mut model = neuspin_bayes::build_cnn(software, &arch, &mut rng);
        let config = HardwareConfig { passes: 1, ..HardwareConfig::default() };
        let mut hw = HardwareModel::compile(&mut model, method, &arch, &config, &mut rng);
        hw.calibrate(&x, 1, &mut rng);
        h.bench(&format!("methods/hw_pass/{method}"), |b| {
            b.iter(|| {
                black_box(hw.forward_planned(&x, true, &mut rng));
            })
        });
    }

    let spec = NetworkSpec::lenet_reference();
    h.bench("methods/energy_estimate_all", |b| {
        b.iter(|| {
            for method in Method::ALL {
                black_box(estimate_method_energy(&spec, method));
            }
        })
    });

    h.finish();
}
