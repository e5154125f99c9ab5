//! **Fig. 2 reproduction** — the Scale-Dropout inference architecture:
//! a SOT-MRAM crossbar, an SRAM scale memory, and a *single* stochastic
//! scale-dropout module per layer.
//!
//! The bench characterises the architecture:
//! 1. the Gaussian spread of the module's realized drop probability
//!    under device variation (the paper models p as a fitted Gaussian);
//! 2. RNG-bit and energy comparison against per-neuron and per-map
//!    dropout at equal sampling budget (the >100× saving);
//! 3. the layer-dependent adaptive dropout probability.
//!
//! ```sh
//! cargo run --release -p neuspin-bench --bin fig2_scaledrop
//! ```

use neuspin_bayes::Method;
use neuspin_bench::write_json;
use neuspin_cim::SpinDropModule;
use neuspin_device::{stats::Running, MtjParams, VariationModel, VariedParams};
use neuspin_energy::{
    estimate_method_energy, estimate_method_latency, LatencyModel, MethodProfile, NetworkSpec,
};
use neuspin_nn::ScaleDrop;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug)]
struct Fig2Report {
    realized_p_mean: f64,
    realized_p_std: f64,
    tuned_p_mean: f64,
    tuned_p_std: f64,
    rng_bits_per_pass: Vec<(String, u64)>,
    energy_per_image_uj: Vec<(String, f64)>,
    adaptive_p: Vec<(usize, f32)>,
}

neuspin_core::impl_to_json!(Fig2Report { realized_p_mean, realized_p_std, tuned_p_mean, tuned_p_std, rng_bits_per_pass, energy_per_image_uj, adaptive_p });

fn main() {
    let mut rng = StdRng::seed_from_u64(20_24);
    println!("== Fig. 2: Scale-Dropout inference architecture ==\n");

    // 1. The stochastic module's realized p is a random variable.
    let corner = VariedParams::new(MtjParams::default(), VariationModel::typical());
    let target = 0.25;
    let mut open_loop = Running::new();
    let mut closed_loop = Running::new();
    for _ in 0..200 {
        let mut module = SpinDropModule::new(target, corner, &mut rng);
        open_loop.push(module.realized_p());
        module.tune(200, 0.01, &mut rng);
        closed_loop.push(module.realized_p());
    }
    println!("-- realized drop probability across 200 fabricated modules (target {target}) --");
    println!(
        "  open loop (design-time bias): mean {:.3}, σ {:.3}  ← the Gaussian p model of the paper",
        open_loop.mean(),
        open_loop.std()
    );
    println!(
        "  closed loop (tuned):          mean {:.3}, σ {:.3}",
        closed_loop.mean(),
        closed_loop.std()
    );

    // 2. RNG bits and energy at the publication sampling budgets.
    let spec = NetworkSpec::lenet_reference();
    println!("\n-- stochastic-unit cost on {} --", spec.name);
    let mut bits = Vec::new();
    let mut energy = Vec::new();
    for method in [Method::SpinDrop, Method::SpatialSpinDrop, Method::SpinScaleDrop] {
        let profile = MethodProfile::of(method);
        let per_pass = profile.rng_bits_per_pass(&spec);
        let est = estimate_method_energy(&spec, method);
        println!(
            "  {:<18} {:>8} RNG bits/pass   {} / image total",
            method.to_string(),
            per_pass,
            est.per_image
        );
        bits.push((method.to_string(), per_pass));
        energy.push((method.to_string(), est.per_image.micro()));
    }
    let reduction = bits[0].1 as f64 / bits[2].1 as f64;
    println!("\n  per-neuron → per-layer RNG reduction: {reduction:.0}×  (paper: >100× energy saving)");

    // 3. Sampling latency (§II-D: the "shear number of dropout modules"
    //    makes per-neuron sampling slow as well as hungry).
    println!("\n-- per-image latency (8 shared RNG banks) --");
    let lat_model = LatencyModel::default();
    for method in [Method::SpinDrop, Method::SpatialSpinDrop, Method::SpinScaleDrop] {
        let l = estimate_method_latency(&spec, method, &lat_model);
        println!(
            "  {:<18} total {:.3} ms (crossbar {:.3} ms, RNG {:.3} ms)",
            method.to_string(),
            l.total() * 1e3,
            l.crossbar * 1e3,
            l.rng * 1e3
        );
    }

    // 4. Layer-dependent adaptive dropout probability.
    println!("\n-- adaptive p = base·min(1, log10(#params)/6), base 0.2 --");
    let mut adaptive = Vec::new();
    for params in [100usize, 1_000, 10_000, 100_000, 1_000_000, 10_000_000] {
        let p = ScaleDrop::adaptive_p(0.2, params);
        println!("  layer with {params:>9} params → p = {p:.3}");
        adaptive.push((params, p));
    }

    write_json(
        "fig2_scaledrop",
        &Fig2Report {
            realized_p_mean: open_loop.mean(),
            realized_p_std: open_loop.std(),
            tuned_p_mean: closed_loop.mean(),
            tuned_p_std: closed_loop.std(),
            rng_bits_per_pass: bits,
            energy_per_image_uj: energy,
            adaptive_p: adaptive,
        },
    );
}
