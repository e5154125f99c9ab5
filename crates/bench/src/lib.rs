//! # neuspin-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus
//! built-in micro-benchmarks (see `benches/` and [`timing`]). Every binary prints a
//! human-readable table *and* writes machine-readable JSON under
//! `results/`.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table I — accuracy + energy per method |
//! | `fig1_mapping` | Fig. 1 — conv mapping strategies ① / ② |
//! | `fig2_scaledrop` | Fig. 2 — scale-dropout architecture |
//! | `fig3_spinbayes` | Fig. 3 — SpinBayes topology |
//! | `exp_ood` | §III OOD-detection claims |
//! | `exp_corrupt` | corrupted-data accuracy claims |
//! | `exp_selfheal` | §III-A4 self-healing under variation/drift |
//! | `exp_faultmgmt` | §II-B BIST + repair + remap + abstention campaign |
//! | `exp_lstm` | §III-A4 LSTM time-series RMSE |
//! | `exp_subset_vi` | §III-B1 memory / power ratios, NLL shift |
//! | `exp_spinbayes` | §III-B2 instance-count study + segmentation |
//! | `exp_device` | §II-A device characterization |
//! | `exp_serving` | edge serving: fleet failover under mid-traffic degradation |
//!
//! The six gated campaigns (`exp_faultmgmt`, `exp_throughput`,
//! `exp_observe`, `exp_lifetime`, `exp_serving`, `exp_chaos`) re-read
//! their own artifacts under `--check` through [`artifact`].

use neuspin_bayes::{build_cnn, ArchConfig, Method};
use neuspin_core::json::ToJson;
use neuspin_data::digits::{dataset, DigitStyle};
use neuspin_nn::{fit, refresh_norm_stats, Adam, Dataset, Sequential, TrainConfig};
use rand::rngs::StdRng;
use std::path::PathBuf;

pub mod allocs;
pub mod artifact;
pub mod scenarios;
pub mod timing;

/// Whether `NEUSPIN_BENCH_FAST=1` asks for the seconds-long smoke pass
/// (shrunken grids, budgets and training) instead of the full run. The
/// harness's one smoke switch: [`Setup::from_env`] reads it too.
pub fn fast_mode() -> bool {
    std::env::var("NEUSPIN_BENCH_FAST").map(|v| v == "1").unwrap_or(false)
}

/// Client-side p99 latency budget (ms) of the serving and chaos
/// campaigns, gated by their `--check`.
pub const P99_BUDGET_MS: f64 = 500.0;

/// Where result JSON files land (`results/` at the workspace root).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("NEUSPIN_RESULTS").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("cannot create results dir");
    path
}

/// Where the headline `BENCH_<campaign>.json` files land: the
/// workspace root, or `NEUSPIN_BENCH_ROOT` when set.
pub fn bench_root() -> PathBuf {
    PathBuf::from(std::env::var("NEUSPIN_BENCH_ROOT").unwrap_or_else(|_| ".".to_string()))
}

/// Serializes `value` to `results/<name>.json` (pretty-printed, via the
/// workspace's hand-rolled JSON writer in `neuspin_core::json`).
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = value.to_json().to_string_pretty();
    std::fs::write(&path, json).expect("cannot write result file");
    println!("\n[wrote {}]", path.display());
}

/// Writes a campaign's side file (trace JSONL, Prometheus exposition)
/// to `results/<file>`.
pub fn write_side(file: &str, contents: &str) {
    let path = results_dir().join(file);
    std::fs::write(&path, contents).expect("cannot write result side file");
    println!("[wrote {}]", path.display());
}

/// Serializes `value` to `BENCH_<name>.json` under [`bench_root`].
pub fn write_bench<T: ToJson>(name: &str, value: &T) {
    let root = bench_root();
    std::fs::create_dir_all(&root).expect("cannot create bench root");
    let path = root.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, value.to_json().to_string_pretty()).expect("cannot write bench file");
    println!("[wrote {}]", path.display());
}

/// The standard experiment setup shared by the training-based benches.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Architecture of the method CNN.
    pub arch: ArchConfig,
    /// Dataset style.
    pub style: DigitStyle,
    /// Training images.
    pub train_images: usize,
    /// Test images.
    pub test_images: usize,
    /// Calibration images for hardware norm statistics.
    pub calib_images: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Monte-Carlo passes for Bayesian evaluation.
    pub passes: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Setup {
    fn default() -> Self {
        Self {
            arch: ArchConfig::default(),
            style: DigitStyle::default(),
            train_images: 4_000,
            test_images: 512,
            calib_images: 256,
            epochs: 10,
            passes: 16,
            seed: 0xBA5E,
        }
    }
}

impl Setup {
    /// A fast setup for smoke-testing the harness.
    pub fn quick() -> Self {
        Self {
            train_images: 800,
            test_images: 128,
            calib_images: 64,
            epochs: 3,
            passes: 6,
            ..Self::default()
        }
    }

    /// The quick setup under `NEUSPIN_BENCH_FAST=1` ([`fast_mode`]),
    /// the default one otherwise.
    pub fn from_env() -> Self {
        if fast_mode() {
            Self::quick()
        } else {
            Self::default()
        }
    }

    /// Seeded RNG for stage `tag` ([`neuspin_core::rng::stream`]).
    pub fn rng(&self, tag: u64) -> StdRng {
        neuspin_core::rng::stream(self.seed, tag)
    }

    /// Generates the train/calib/test datasets.
    pub fn datasets(&self) -> (Dataset, Dataset, Dataset) {
        let mut rng = self.rng(1);
        let train = dataset(self.train_images, &self.style, &mut rng);
        let calib = dataset(self.calib_images, &self.style, &mut rng);
        let test = dataset(self.test_images, &self.style, &mut rng);
        (train, calib, test)
    }

    /// Trains the method CNN (SpinBayes trains the deterministic
    /// backbone — its posterior is built at compile time).
    pub fn train(&self, method: Method, train: &Dataset) -> Sequential {
        let software_method =
            if method == Method::SpinBayes { Method::Deterministic } else { method };
        let mut rng = self.rng(2 ^ method as u64);
        let mut model = build_cnn(software_method, &self.arch, &mut rng);
        let mut opt = Adam::new(0.003);
        let reg = match method {
            Method::SpinScaleDrop => 1e-4, // scale centring regularizer
            Method::SubsetVi => 2e-4,      // KL / ELBO weight
            _ => 0.0,
        };
        let cfg = TrainConfig {
            epochs: self.epochs,
            batch_size: 64,
            reg_strength: reg,
            ..Default::default()
        };
        fit(&mut model, train, &mut opt, &cfg, &mut rng);
        // Re-estimate norm statistics under the final (frozen) binary
        // weights; without this, eval accuracy of binary nets is a
        // lottery (running stats lag the last sign flips).
        refresh_norm_stats(&mut model, train, 2, &mut rng);
        model
    }
}

/// Prints a markdown-ish table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_setup_is_smaller() {
        let q = Setup::quick();
        let d = Setup::default();
        assert!(q.train_images < d.train_images);
        assert!(q.epochs < d.epochs);
    }

    #[test]
    fn rngs_differ_by_tag() {
        use rand::RngExt;
        let s = Setup::default();
        let a: u64 = s.rng(1).random();
        let b: u64 = s.rng(2).random();
        assert_ne!(a, b);
    }

    #[test]
    fn datasets_have_requested_sizes() {
        let s = Setup::quick();
        let (train, calib, test) = s.datasets();
        assert_eq!(train.len(), 800);
        assert_eq!(calib.len(), 64);
        assert_eq!(test.len(), 128);
    }

    #[test]
    fn row_formats_with_widths() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "a    bb  ");
    }
}
