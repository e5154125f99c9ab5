//! Benchmarks of inference throughput: software forward,
//! hardware-in-the-loop forward, and full MC prediction.

use neuspin_bayes::{build_cnn, mc_predict, ArchConfig, Method};
use neuspin_bench::timing::{black_box, Harness};
use neuspin_core::{HardwareConfig, HardwareModel};
use neuspin_nn::{Mode, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arch() -> ArchConfig {
    ArchConfig::default()
}

fn batch() -> Tensor {
    Tensor::from_fn(&[8, 1, 16, 16], |i| ((i * 37 % 101) as f32 / 50.5) - 1.0)
}

fn main() {
    let mut h = Harness::new("inference");

    let mut rng = StdRng::seed_from_u64(1);
    let mut model = build_cnn(Method::SpinDrop, &arch(), &mut rng);
    let x = batch();
    h.bench("inference/software_forward_batch8", |b| {
        b.iter(|| black_box(model.forward(&x, Mode::Sample, &mut rng)))
    });

    let mut rng = StdRng::seed_from_u64(2);
    let mut model = build_cnn(Method::SpinDrop, &arch(), &mut rng);
    let config = HardwareConfig { passes: 4, ..HardwareConfig::default() };
    let mut hw = HardwareModel::compile(&mut model, Method::SpinDrop, &arch(), &config, &mut rng);
    let x = batch();
    hw.calibrate(&x, 1, &mut rng);
    h.bench("inference/hardware_forward_batch8", |b| {
        b.iter(|| {
            black_box(hw.forward_planned(&x, true, &mut rng));
        })
    });

    let mut rng = StdRng::seed_from_u64(3);
    let mut model = build_cnn(Method::SpinScaleDrop, &arch(), &mut rng);
    let x = batch();
    h.bench("inference/mc_predict_8passes_batch8", |b| {
        b.iter(|| black_box(mc_predict(&mut model, &x, 8, &mut rng)))
    });

    h.finish();
}
