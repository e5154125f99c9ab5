//! Trained-weight golden battery: every trainable backbone, one short
//! epoch of Adam plus a norm-statistics refresh, pinned to the bits of
//! the trained parameters and of Eval-mode logits.
//!
//! The model-level battery (`golden_tests.rs`) compiles *untrained*
//! backbones, so nothing there sees the training stack's float-op
//! order. Here every layer's forward and backward, the matrix kernel
//! under them, the dropout-family RNG draws and the optimizer feed the
//! `state_dict` digest; the logits digest adds the running statistics
//! the refresh leaves behind. A deliberate numeric change re-captures
//! the table from the one the failing assertion prints.

use crate::checkpoint::fnv1a;
use neuspin_bayes::{build_cnn, build_fp_mlp, ArchConfig, Method};
use neuspin_nn::{fit, refresh_norm_stats, Adam, Dataset, Mode, Sequential, Tensor, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(model, state_dict digest, Eval-logits digest)` per trained model.
type Golden = (&'static str, u64, u64);

#[rustfmt::skip]
const GOLDEN: [Golden; 7] = [
    ("Deterministic", 0x64df89f71f33b2d3, 0x33e33440e288e6a8),
    ("SpinDrop", 0x428b7eaf7e4ecb2a, 0xbc73b742f9b6aa3a),
    ("SpatialSpinDrop", 0x3016f9f62baeee03, 0x6bc7d9138dadae69),
    ("SpinScaleDrop", 0x60419418a8185f80, 0x78497bc7123af5ce),
    ("AffineDropout", 0x26c7173c2bfee6ee, 0x94f33c38aab43887),
    ("SubsetVi", 0x0cb55e1ba3605fee, 0xfdee7e1322c4ca5c),
    ("FpMlp", 0x350063fd0823a1c2, 0xe3bb53ba60d81a31),
];

/// Conv-2's patch (36), the flattened features (32) and the hidden
/// width (40) land on both sides of every strip width the kernel uses.
fn arch() -> ArchConfig {
    ArchConfig {
        c1: 4,
        c2: 8,
        hidden: 40,
        classes: 5,
        side: 8,
        ..ArchConfig::default()
    }
}

/// `n` deterministic images of `side²` pixels in [−1, 1], about one
/// pixel in seven an exact zero, with labels cycling over the classes.
fn images(n: usize, side: usize, classes: usize, salt: usize) -> Dataset {
    let x = Tensor::from_fn(&[n, 1, side, side], |i| {
        let h = (i * 2654435761 + salt * 40503) % 1009;
        if h.is_multiple_of(7) {
            0.0
        } else {
            h as f32 / 504.5 - 1.0
        }
    });
    Dataset::new(x, (0..n).map(|i| (i * 3 + salt) % classes).collect())
}

fn digest(model: &mut Sequential, probe: &Tensor, rng: &mut StdRng) -> (u64, u64) {
    let mut bytes = Vec::new();
    for (key, values) in model.state_dict() {
        bytes.extend_from_slice(key.as_bytes());
        for v in values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    let logits = model.forward(probe, Mode::Eval, rng);
    let logit_bytes: Vec<u8> = logits
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    (fnv1a(&bytes), fnv1a(&logit_bytes))
}

/// One epoch of Adam at batch 16 (three steps and a short last batch),
/// then one refresh round of the norm statistics.
fn train(model: &mut Sequential, data: &Dataset, rng: &mut StdRng) {
    let mut opt = Adam::new(0.01);
    let config = TrainConfig {
        epochs: 1,
        batch_size: 16,
        reg_strength: 1e-3,
        ..Default::default()
    };
    fit(model, data, &mut opt, &config, rng);
    refresh_norm_stats(model, data, 1, rng);
}

#[test]
fn golden_training_pins_trained_weights() {
    let a = arch();
    let cnn_data = images(52, a.side, a.classes, 1);
    let cnn_probe = images(6, a.side, a.classes, 2).inputs;
    let mlp_data = images(52, 16, a.classes, 3);
    let mlp_probe = images(6, 16, a.classes, 4).inputs;
    let methods = [
        ("Deterministic", Method::Deterministic),
        ("SpinDrop", Method::SpinDrop),
        ("SpatialSpinDrop", Method::SpatialSpinDrop),
        ("SpinScaleDrop", Method::SpinScaleDrop),
        ("AffineDropout", Method::AffineDropout),
        ("SubsetVi", Method::SubsetVi),
    ];

    let mut got: Vec<(&str, u64, u64)> = Vec::new();
    for (i, (label, method)) in methods.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x7A1E_0000 + i as u64);
        let mut model = build_cnn(method, &a, &mut rng);
        train(&mut model, &cnn_data, &mut rng);
        let (weights, logits) = digest(&mut model, &cnn_probe, &mut rng);
        got.push((label, weights, logits));
    }
    let mut rng = StdRng::seed_from_u64(0x7A1E_00FF);
    let mut mlp = build_fp_mlp(a.hidden, a.classes, &mut rng);
    train(&mut mlp, &mlp_data, &mut rng);
    let (weights, logits) = digest(&mut mlp, &mlp_probe, &mut rng);
    got.push(("FpMlp", weights, logits));

    let table: String = got
        .iter()
        .map(|(label, weights, logits)| {
            format!("    (\"{label}\", {weights:#018x}, {logits:#018x}),\n")
        })
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "captured table:\n{table}");
    for (row, want) in got.iter().zip(&GOLDEN) {
        assert_eq!(*row, *want, "{} drifted; captured table:\n{table}", row.0);
    }
}
