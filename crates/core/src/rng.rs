//! The runtime's view of the vendored RNG subsystem, plus its
//! statistical acceptance tests.
//!
//! The implementation lives in the workspace-vendored `rand` crate
//! (SplitMix64-seeded xoshiro256++; see `crates/rand`). This module
//! re-exports the whole surface under `neuspin_core::rng` so runtime
//! code has one canonical import path, adds the [`stream`] helper for
//! deriving per-stage substreams from a master seed, and — because the
//! runtime is where determinism guarantees are consumed — carries the
//! golden-value and moment tests that pin the generator's behaviour.

pub use rand::rngs::StdRng;
pub use rand::{
    uniform_u64_below, Random, Rng, RngExt, SampleRange, SeedableRng, SplitMix64,
    Xoshiro256PlusPlus,
};

/// Derives a deterministic per-stage generator from a master seed and a
/// stage tag (`neuspin_bench::Setup::rng` calls this, so runtime and
/// harness share one stream derivation).
pub fn stream(master: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(master ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuspin_device::stats::Running;

    /// Pins the exact xoshiro256++ output stream for seed 42. If this
    /// test ever fails, the generator changed and **every** recorded
    /// experiment number in EXPERIMENTS.md is invalid — that is the
    /// regression this golden test exists to catch.
    #[test]
    fn golden_stream_for_seed_42() {
        let mut rng = StdRng::seed_from_u64(42);
        let expected: [u64; 8] = [
            15021278609987233951,
            5881210131331364753,
            18149643915985481100,
            12933668939759105464,
            14637574242682825331,
            10848501901068131965,
            2312344417745909078,
            11162538943635311430,
        ];
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(rng.next_u64(), want, "word {i} of the seed-42 stream drifted");
        }
    }

    /// The f64 view of the same stream (top 53 bits / 2⁵³).
    #[test]
    fn golden_f64_stream_for_seed_42() {
        let mut rng = StdRng::seed_from_u64(42);
        let expected = [
            0.8143051451229099,
            0.3188210400616611,
            0.9838941681774888,
            0.7011355981347556,
        ];
        for (i, &want) in expected.iter().enumerate() {
            let got: f64 = rng.random();
            assert!((got - want).abs() < 1e-15, "draw {i}: {got} vs {want}");
        }
    }

    #[test]
    fn uniform_f64_moments_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(1001);
        let r: Running = (0..200_000).map(|_| rng.random::<f64>()).collect();
        // U(0,1): mean 1/2, variance 1/12.
        assert!((r.mean() - 0.5).abs() < 0.005, "mean {}", r.mean());
        assert!((r.variance() - 1.0 / 12.0).abs() < 0.002, "var {}", r.variance());
    }

    #[test]
    fn uniform_f32_moments_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(1002);
        let r: Running = (0..200_000).map(|_| f64::from(rng.random::<f32>())).collect();
        assert!((r.mean() - 0.5).abs() < 0.005, "mean {}", r.mean());
        assert!((r.variance() - 1.0 / 12.0).abs() < 0.002, "var {}", r.variance());
    }

    #[test]
    fn integer_range_is_unbiased() {
        let mut rng = StdRng::seed_from_u64(1003);
        let mut counts = [0u32; 7];
        let n = 140_000;
        for _ in 0..n {
            counts[rng.random_range(0..7usize)] += 1;
        }
        let expected = n as f64 / 7.0;
        for (value, &count) in counts.iter().enumerate() {
            let rel = (f64::from(count) - expected) / expected;
            assert!(rel.abs() < 0.02, "value {value}: count {count} vs expected {expected}");
        }
    }

    #[test]
    fn bool_draws_are_fair() {
        let mut rng = StdRng::seed_from_u64(1004);
        let heads = (0..100_000).filter(|_| rng.random::<bool>()).count();
        assert!((heads as f64 / 100_000.0 - 0.5).abs() < 0.01, "{heads}");
    }

    #[test]
    fn stream_derivation_matches_bench_harness_convention() {
        let mut direct = StdRng::seed_from_u64(0xBA5E ^ 7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut derived = stream(0xBA5E, 7);
        for _ in 0..16 {
            assert_eq!(direct.next_u64(), derived.next_u64());
        }
    }

    #[test]
    fn streams_with_different_tags_decorrelate() {
        let mut a = stream(0xBA5E, 1);
        let mut b = stream(0xBA5E, 2);
        let matches = (0..1_000)
            .filter(|_| a.random::<bool>() == b.random::<bool>())
            .count();
        // Independent fair bits agree about half the time.
        assert!((400..600).contains(&matches), "{matches}");
    }
}
