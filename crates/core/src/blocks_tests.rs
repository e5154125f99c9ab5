//! Unit tests for the hardware execution blocks (separate file to keep
//! `blocks.rs` focused on the implementation).

use crate::blocks::*;
use neuspin_cim::{Crossbar, CrossbarConfig, OpCounter, SpinDropModule};
use neuspin_device::VariedParams;
use neuspin_nn::conv::ConvGeometry;
use neuspin_nn::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng() -> StdRng {
    StdRng::seed_from_u64(4242)
}

/// Asserts that `block` writing twice into one dirty, wrong-shaped
/// `out` matches a clone twin writing each round into a fresh
/// `Tensor::default()`: same output bits, tallies and RNG position, so
/// neither stale activations nor warm scratch leak into a result.
fn assert_scratch_reuse(block: &mut HwBlock, x: &Tensor, stochastic: bool) {
    let mut twin = block.clone();
    let mut r1 = rng();
    let mut r2 = rng();
    let mut out = Tensor::from_vec(vec![f32::NAN; 3], &[3]); // dirty, wrong shape
    for round in 0..2 {
        block.forward_into(x, &mut out, stochastic, false, &mut r1);
        let mut want = Tensor::default();
        twin.forward_into(x, &mut want, stochastic, false, &mut r2);
        assert_eq!(out.shape(), want.shape(), "round {round}");
        for (a, b) in out.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "round {round}");
        }
        assert_eq!(twin.counter(), block.counter(), "round {round}");
    }
    // RNG streams advanced identically.
    assert_eq!(r1.next_u64(), r2.next_u64());
}

#[test]
fn hw_conv_matches_direct_convolution() {
    let mut r = rng();
    // 1→2 channels, 3×3, identity-ish kernels of ±1.
    let geo = ConvGeometry { in_channels: 1, out_channels: 2, kernel: 3, stride: 1, padding: 1 };
    let signs: Vec<f32> = (0..9 * 2).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    // Crossbar layout rows=9 (patch), cols=2.
    let mut layout = vec![0.0f32; 18];
    for o in 0..2 {
        for i in 0..9 {
            layout[i * 2 + o] = signs[o * 9 + i];
        }
    }
    let mut block = HwConv {
        xbar: Crossbar::program(&layout, 9, 2, &CrossbarConfig::ideal(), &mut r),
        geo,
        alphas: vec![0.5, 2.0],
        bias: vec![0.1, -0.1],
        local: OpCounter::new(),
        col: Tensor::default(),
        ybuf: Vec::new(),
    };
    let x = Tensor::from_fn(&[1, 1, 4, 4], |i| (i as f32 * 0.3).sin());
    let mut y = Tensor::default();
    block.forward_into(&x, &mut y, &mut r);
    assert_eq!(y.shape(), &[1, 2, 4, 4]);
    // Reference: direct convolution with the same ±1 kernels.
    let col = neuspin_nn::im2col(&x, &geo);
    for pos in 0..16 {
        for o in 0..2 {
            let mut acc = 0.0f32;
            for i in 0..9 {
                acc += col[pos * 9 + i] * signs[o * 9 + i];
            }
            let expected = acc * block.alphas[o] + block.bias[o];
            let got = y[o * 16 + pos];
            assert!((got - expected).abs() < 1e-4, "pos {pos} ch {o}: {got} vs {expected}");
        }
    }
}

#[test]
fn hw_norm_calibration_whitens_features() {
    let mut block = HwNorm {
        gamma: vec![1.0; 3],
        beta: vec![0.0; 3],
        mean: vec![0.0; 3],
        var: vec![1.0; 3],
        stats: FeatureStats::default(),
        local: OpCounter::new(),
    };
    // Features with distinct means/scales.
    let x = Tensor::from_fn(&[64, 3], |i| match i % 3 {
        0 => 5.0 + ((i / 3) as f32 * 0.37).sin(),
        1 => -2.0 + 3.0 * ((i / 3) as f32 * 0.53).cos(),
        _ => 0.5 * ((i / 3) as f32 * 0.71).sin(),
    });
    let mut y = Tensor::default();
    block.forward_into(&x, &mut y, true); // calibration pass
    block.forward_into(&x, &mut y, false);
    for f in 0..3 {
        let col: Vec<f32> = (0..64).map(|n| y[n * 3 + f]).collect();
        let mean: f32 = col.iter().sum::<f32>() / 64.0;
        let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
        assert!(mean.abs() < 0.05, "feature {f} mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "feature {f} var {var}");
    }
}

#[test]
fn hw_norm_accumulates_across_calibration_rounds() {
    let mut block = HwNorm {
        gamma: vec![1.0],
        beta: vec![0.0],
        mean: vec![0.0],
        var: vec![1.0],
        stats: FeatureStats::default(),
        local: OpCounter::new(),
    };
    let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1]);
    let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[4, 1]);
    let mut y = Tensor::default();
    block.forward_into(&a, &mut y, true);
    block.forward_into(&b, &mut y, true);
    // Mean over both batches = 4.5.
    assert!((block.mean[0] - 4.5).abs() < 1e-5, "mean {}", block.mean[0]);
}

#[test]
fn hw_inv_norm_heals_global_scale_at_block_level() {
    let mut r = rng();
    let mut block = HwInvNorm {
        gamma: vec![1.3, 0.7, 1.1, 0.9],
        beta: vec![0.1, -0.2, 0.0, 0.3],
        modules: None,
        local: OpCounter::new(),
        abuf: Vec::new(),
    };
    let x = Tensor::from_fn(&[2, 4], |i| (i as f32 * 0.61).cos());
    let scaled = &x * 1.7;
    let (mut y1, mut y2) = (Tensor::default(), Tensor::default());
    block.forward_into(&x, &mut y1, false, &mut r);
    block.forward_into(&scaled, &mut y2, false, &mut r);
    // β breaks exact invariance, but the output must stay close.
    let diff = (&y1 - &y2).map(f32::abs).max();
    assert!(diff < 0.35, "inverted norm should largely absorb a 1.7× drift: {diff}");
    // Pure-affine case (β = 0) is exactly invariant.
    let mut pure = HwInvNorm {
        gamma: vec![1.3, 0.7, 1.1, 0.9],
        beta: vec![0.0; 4],
        modules: None,
        local: OpCounter::new(),
        abuf: Vec::new(),
    };
    let (mut z1, mut z2) = (Tensor::default(), Tensor::default());
    pure.forward_into(&x, &mut z1, false, &mut r);
    pure.forward_into(&scaled, &mut z2, false, &mut r);
    assert!((&z1 - &z2).map(f32::abs).max() < 1e-4);
}

#[test]
fn hw_dropout_scale_identity_when_dropped() {
    let mut r = rng();
    // p ≈ 1 → always dropped.
    let module = SpinDropModule::new(0.999, VariedParams::ideal(), &mut r);
    let mut block = HwDropout::Scale {
        module,
        scale: vec![5.0, 5.0, 5.0],
        local: OpCounter::new(),
    };
    let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
    let mut y = Tensor::default();
    let mut identity_seen = false;
    for _ in 0..20 {
        block.forward_into(&x, &mut y, true, &mut r);
        if y == x {
            identity_seen = true;
            break;
        }
    }
    assert!(identity_seen);
}

#[test]
fn hw_dropout_scale_counts_sram_traffic() {
    let mut r = rng();
    let mut block = HwDropout::Scale {
        module: SpinDropModule::new(0.5, VariedParams::ideal(), &mut r),
        scale: vec![2.0; 64],
        local: OpCounter::new(),
    };
    let x = Tensor::ones(&[1, 64]);
    let mut y = Tensor::default();
    let mut kept = 0u64;
    for _ in 0..100 {
        block.forward_into(&x, &mut y, true, &mut r);
        kept += u64::from(y != x);
    }
    // One bit per decision; one SRAM read per entry of an applied vector.
    assert_eq!(block.counter().rng_bits, 100);
    assert_eq!(block.counter().sram_accesses, kept * 64);
    assert!(kept > 20 && kept < 80, "{kept} of 100 kept");
    // A deterministic pass applies the vector without drawing a bit.
    block.forward_into(&x, &mut y, false, &mut r);
    assert_eq!(block.counter().rng_bits, 100);
    assert_eq!(block.counter().sram_accesses, (kept + 1) * 64);
}

#[test]
fn hw_dropout_per_neuron_counts_bits() {
    let mut r = rng();
    let modules: Vec<SpinDropModule> =
        (0..6).map(|_| SpinDropModule::new(0.3, VariedParams::ideal(), &mut r)).collect();
    let mut block = HwDropout::PerNeuron { modules, p: 0.3 };
    let x = Tensor::ones(&[2, 6]);
    let mut y = Tensor::default();
    block.forward_into(&x, &mut y, true, &mut r);
    assert_eq!(block.counter().rng_bits, 12, "6 modules × 2 samples");
    // Non-stochastic pass consumes nothing.
    block.forward_into(&x, &mut y, false, &mut r);
    assert_eq!(y, x);
    assert_eq!(block.counter().rng_bits, 12);
}

#[test]
fn forward_into_twins_are_bit_identical() {
    let mut r = rng();
    // Noisy analog config so the conv exercises the RNG-drawing scalar
    // kernel, not just the packed one.
    let noisy = CrossbarConfig { read_noise: 0.05, ir_drop: 0.03, ..CrossbarConfig::ideal() };
    let geo = ConvGeometry { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
    let layout: Vec<f32> =
        (0..18 * 3).map(|i| if (i * 7) % 3 == 0 { 1.0 } else { -1.0 }).collect();
    let conv = HwBlock::Conv(HwConv {
        xbar: Crossbar::program(&layout, 18, 3, &noisy, &mut r),
        geo,
        alphas: vec![0.5, 2.0, 1.25],
        bias: vec![0.1, -0.1, 0.0],
        local: OpCounter::new(),
        col: Tensor::default(),
        ybuf: Vec::new(),
    });
    let fc_layout: Vec<f32> = (0..12 * 4).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    let fc = HwBlock::Fc(HwFc {
        xbar: Crossbar::program(&fc_layout, 12, 4, &noisy, &mut r),
        alphas: vec![1.0, 0.5, 2.0, 1.5],
        bias: vec![0.0, 0.1, -0.1, 0.2],
        local: OpCounter::new(),
        ybuf: Vec::new(),
    });
    let mlc_w: Vec<f32> = (0..12 * 4).map(|i| (i as f32 * 0.47).sin()).collect();
    let spinbayes = HwBlock::FcSpinBayes(HwFcSpinBayes {
        xbars: (0..3)
            .map(|_| {
                neuspin_cim::MlcCrossbar::program(&mlc_w, 12, 4, 4, 1.0, &noisy, &mut r)
            })
            .collect(),
        arbiter: neuspin_cim::Arbiter::new(3, VariedParams::ideal(), &mut r),
        bias: vec![0.1, -0.2, 0.3, 0.0],
        out_features: 4,
        local: OpCounter::new(),
        ybuf: Vec::new(),
    });
    let digital_fc = HwBlock::DigitalFc(HwDigitalFc {
        weight: Tensor::from_fn(&[5, 12], |i| (i as f32 * 0.31).cos()),
        bias: vec![0.5, -0.5, 0.25, 0.0, 1.0],
        local: OpCounter::new(),
        weight_t: Tensor::default(),
    });
    let norm = HwBlock::Norm(HwNorm {
        gamma: vec![1.1, 0.9, 1.0],
        beta: vec![0.1, 0.0, -0.1],
        mean: vec![0.2, -0.3, 0.05],
        var: vec![1.5, 0.7, 1.0],
        stats: FeatureStats::default(),
        local: OpCounter::new(),
    });
    let inv_norm = HwBlock::InvNorm(HwInvNorm {
        gamma: vec![1.3, 0.7, 1.1],
        beta: vec![0.1, -0.2, 0.0],
        modules: Some((
            SpinDropModule::new(0.4, VariedParams::ideal(), &mut r),
            SpinDropModule::new(0.4, VariedParams::ideal(), &mut r),
        )),
        local: OpCounter::new(),
        abuf: Vec::new(),
    });
    let per_neuron = HwBlock::Dropout(HwDropout::PerNeuron {
        modules: (0..12).map(|_| SpinDropModule::new(0.3, VariedParams::ideal(), &mut r)).collect(),
        p: 0.3,
    });
    let per_channel = HwBlock::Dropout(HwDropout::PerChannel {
        modules: (0..3)
            .map(|_| SpinDropModule::new(0.3, VariedParams::ideal(), &mut r))
            .collect(),
        p: 0.3,
    });
    let scale = HwBlock::Dropout(HwDropout::Scale {
        module: SpinDropModule::new(0.5, VariedParams::ideal(), &mut r),
        scale: vec![0.8, 1.2, 1.0],
        local: OpCounter::new(),
    });
    let vi_scale = HwBlock::Dropout(HwDropout::ViScale {
        mu: vec![1.0, 0.9, 1.1],
        sigma: vec![0.1, 0.2, 0.05],
        bits_per_sample: 8,
        local: OpCounter::new(),
        scratch: Vec::new(),
    });

    let x_img = Tensor::from_fn(&[2, 2, 4, 4], |i| (i as f32 * 0.23).sin());
    let x_chan3 = Tensor::from_fn(&[2, 3, 2, 2], |i| (i as f32 * 0.41).cos());
    let x_flat12 = Tensor::from_fn(&[2, 12], |i| (i as f32 * 0.17).sin());
    let x_feat3 = Tensor::from_fn(&[4, 3], |i| (i as f32 * 0.29).cos());
    for stochastic in [false, true] {
        for (block, x) in [
            (&conv, &x_img),
            (&fc, &x_flat12),
            (&spinbayes, &x_flat12),
            (&digital_fc, &x_flat12),
            (&norm, &x_feat3),
            (&inv_norm, &x_feat3),
            (&per_neuron, &x_flat12),
            (&per_channel, &x_chan3),
            (&scale, &x_feat3),
            (&vi_scale, &x_feat3),
            (&HwBlock::HardTanh, &x_feat3),
            (&HwBlock::MaxPool(2), &x_img),
            (&HwBlock::Flatten, &x_img),
        ] {
            assert_scratch_reuse(&mut block.clone(), x, stochastic);
        }
    }
}

#[test]
fn hw_digital_fc_matches_matmul() {
    let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
    let mut block = HwDigitalFc {
        weight: w,
        bias: vec![0.5, -0.5],
        local: OpCounter::new(),
        weight_t: Tensor::default(),
    };
    let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
    let mut y = Tensor::default();
    block.forward_into(&x, &mut y);
    assert_eq!(y.as_slice(), &[3.5, 6.5]);
}
