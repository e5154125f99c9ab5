//! Pieces every workload shares: the run record, set-up helpers, memory
//! and thread metadata, span output, and the `--workload all` runner.

use crate::trace::{SpanId, Tracer, HARNESS};
use crate::{Args, WORKLOADS};
use neuspin_bayes::{build_cnn, ArchConfig, Method};
use neuspin_core::json::{self, Json};
use neuspin_nn::{fit, refresh_norm_stats, Adam, Dataset, Sequential, Tensor, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Prefix of the metadata line each run prints before its result line.
pub const REPORT_PREFIX: &str = "report ";

/// Layers whose self time the traced run reports as `self_share.*`.
pub const LAYERS: [(&str, &str); 8] = [
    ("device", "self_share.device"),
    ("cim", "self_share.cim"),
    ("core::model", "self_share.core.model"),
    ("bayes::mc", "self_share.bayes.mc"),
    ("core::pool", "self_share.core.pool"),
    ("core::runtime", "self_share.core.runtime"),
    ("core::checkpoint", "self_share.core.checkpoint"),
    ("core::serve", "self_share.core.serve"),
];

/// Everything one workload run measured and checked.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    meta: Vec<(&'static str, Json)>,
}

impl Run {
    pub fn new(args: &Args) -> Self {
        let mut run = Run {
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            checks: Vec::new(),
            meta: Vec::new(),
        };
        run.meta("workload", Json::Str(args.workload.clone()));
        run.meta("seed", Json::Num(args.seed as f64));
        run.meta("trace", Json::Bool(args.trace));
        run.meta("seconds", Json::Num(args.seconds));
        run.meta("host_threads", Json::Num(host_threads() as f64));
        run
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn meta(&mut self, key: &'static str, value: Json) {
        self.meta.push((key, value));
    }

    /// Records an output check; a failed one is also printed at once.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("CHECK FAILED: {name}");
        }
        self.checks.push((name, ok));
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Records the outputs that must repeat exactly for a given seed —
    /// the digest of the predictions and the simulated metrics — so two
    /// runs (traced and untraced, or two commits) can be compared.
    pub fn simulated(&mut self, digest: u64, energy_uj_per_pred: f64, accuracy_pct: f64) {
        self.meta(
            "simulated",
            Json::obj([
                ("digest", Json::Str(format!("{digest:016x}"))),
                ("energy_uj_per_pred", Json::Num(energy_uj_per_pred)),
                ("accuracy_pct", Json::Num(accuracy_pct)),
            ]),
        );
    }

    /// Prints the checks and the metadata line.
    pub fn print_report(&self, args: &Args) {
        println!("== {} checks ==", args.workload);
        for (name, ok) in &self.checks {
            println!("  [{}] {name}", if *ok { "ok" } else { "FAILED" });
        }
        let fail_ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "  fail_ratio = {fail_ratio} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let mut meta = self.meta.clone();
        meta.push(("fail_ratio", Json::Num(fail_ratio)));
        meta.push(("checks_passed", Json::Bool(self.correct())));
        println!("{REPORT_PREFIX}{}", Json::obj(meta));
    }
}

/// Logical CPUs available to this process.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A seeded RNG for stage `tag` of a workload seed.
pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Trains a method CNN for one epoch (Adam at 0.003, mini-batches of
/// `batch_size`), then refreshes the norm statistics under the final
/// binary weights as the experiment binaries do.
pub fn train_cnn(
    method: Method,
    arch: &ArchConfig,
    data: &Dataset,
    batch_size: usize,
    rng: &mut StdRng,
) -> Sequential {
    let mut model = build_cnn(method, arch, rng);
    let mut opt = Adam::new(0.003);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size,
        ..Default::default()
    };
    fit(&mut model, data, &mut opt, &cfg, rng);
    refresh_norm_stats(&mut model, data, 2, rng);
    model
}

/// Sign-binarises every element to ±1 (the SpinDrop word-line input).
pub fn binarize(x: &Tensor) -> Tensor {
    let data = x
        .as_slice()
        .iter()
        .map(|&v| if v > 0.0 { 1.0 } else { -1.0 })
        .collect();
    Tensor::from_vec(data, x.shape())
}

/// Folds a sequence of prediction digests into one.
pub fn fold_digest(acc: u64, next: u64) -> u64 {
    (acc ^ next)
        .wrapping_mul(0x0000_0100_0000_01B3)
        .rotate_left(29)
}

/// Crossbar evaluations one sample costs per MC pass: every output
/// position of the two 3×3 same-padded convolutions plus one FC
/// evaluation — computed from the layer shapes.
pub fn crossbar_calls_per_sample(arch: &ArchConfig) -> u64 {
    let side = arch.side as u64;
    side * side + (side / 2) * (side / 2) + 1
}

/// Fills the `trace.unattributed_share` and `self_share.*` metrics:
/// each layer's self time below `root` (the traced workload phase) as a
/// share of the phase's wall time. Layer calls made on several threads
/// at once can sum past 1.
pub fn span_shares(run: &mut Run, tracer: &Tracer, root: SpanId) {
    let by_layer = tracer.self_time_by_layer(root);
    let root_ns = tracer.duration_ns(root).max(1) as f64;
    let share = |layer: &str| by_layer.get(layer).copied().unwrap_or(0) as f64 / root_ns;
    for (layer, metric) in LAYERS {
        run.set(metric, share(layer));
    }
    run.set("trace.unattributed_share", share(HARNESS));
}

/// Writes the traced run's spans as JSONL under `perfbench/out/`.
pub fn write_spans(run: &mut Run, args: &Args, tracer: &Tracer) {
    let dir = PathBuf::from("perfbench").join("out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl(&args.workload)));
    run.check(
        format!("spans written to {}", path.display()),
        written.is_ok(),
    );
    run.meta("spans", Json::Num(tracer.len() as f64));
    run.meta("spans_path", Json::Str(path.display().to_string()));
}

/// `--workload all`: every workload untraced then traced, each in its
/// own child process; the two runs must agree on the output digest and
/// the simulated metrics.
pub fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let mut simulated = Vec::new();
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(Stdio::inherit())
                .output();
            let Ok(output) = output else {
                eprintln!("perfbench: cannot run {workload}");
                return ExitCode::FAILURE;
            };
            let text = String::from_utf8_lossy(&output.stdout).into_owned();
            print!("{text}");
            let last = text.lines().last().and_then(|l| json::parse(l).ok());
            let correct = last
                .as_ref()
                .and_then(|j| j.get("correct"))
                .and_then(Json::as_bool)
                .unwrap_or(false);
            ok &= output.status.success() && correct;
            let sim = text
                .lines()
                .find_map(|l| l.strip_prefix(REPORT_PREFIX))
                .and_then(|r| json::parse(r).ok())
                .and_then(|r| r.get("simulated").map(|s| s.to_string()));
            simulated.push(sim.clone());
            rows.push((workload, trace, correct, sim.unwrap_or_default()));
        }
        let same = simulated[0].is_some() && simulated[0] == simulated[1];
        if !same {
            eprintln!("CHECK FAILED: {workload}: traced and untraced simulated outputs differ");
        }
        ok &= same;
    }
    println!("== summary (seed {}) ==", args.seed);
    for (workload, trace, correct, sim) in rows {
        println!("  {workload:<13} trace={trace} correct={correct} simulated={sim}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
