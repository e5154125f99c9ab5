//! NeuSpin repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mc_analog --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload all
//! ```
//!
//! Three workloads (`mc_analog`, `serve_binary`, `lifetime_hot`) drive
//! the workspace crates' public API with inputs generated from `--seed`.
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` measures the per-layer metrics with the benchmark's own
//! spans and the program's registry histograms, and writes the spans as
//! JSONL under `perfbench/out/`. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! print every metric with its unit, the output checks, and the run
//! metadata. `--workload all` runs every workload untraced and traced in
//! child processes and checks that both runs agree on every output
//! digest and simulated metric.

mod common;
mod lifetime_hot;
mod loadgen;
mod mc_analog;
mod serve_binary;
mod stats;
mod trace;

use common::Run;
use neuspin_core::json::Json;
use std::process::ExitCode;

/// End-to-end metrics every workload reports on an untraced run, with
/// units. What each one measures per workload is listed in
/// `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("energy_uj_per_pred", "uJ"),
    ("accuracy_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.tail", "ms"),
    ("serve.batch_assembly_ms.p50", "ms"),
    ("serve.batch_assembly_ms.tail", "ms"),
    ("serve.die_compute_ms.p50", "ms"),
    ("serve.die_compute_ms.tail", "ms"),
    ("serve.write_ms.p50", "ms"),
    ("serve.write_ms.tail", "ms"),
    ("serve.http_only_ms", "ms"),
    ("serve.samples_per_batch", "count"),
    ("serve.shed", "count"),
    ("serve.failovers", "count"),
    ("serve.sample_retries", "count"),
    ("serve.answered_ratio", "ratio"),
    ("serve.generator_lag_ms.p50", "ms"),
    ("serve.generator_lag_ms.tail", "ms"),
    ("runtime.serve_predict_ms", "ms"),
    ("runtime.step_ms", "ms"),
    ("runtime.scrubs", "count"),
    ("runtime.recalibrations", "count"),
    ("runtime.remaps", "count"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.restore_ms", "ms"),
    ("pool.par_speedup", "ratio"),
    ("pool.efficiency", "ratio"),
    ("pool.replica_syncs", "count/step"),
    ("mc.aggregate_ms", "ms"),
    ("model.pass_ms", "ms"),
    ("model.scrub_ms", "ms"),
    ("model.train_s", "s"),
    ("model.compile_s", "s"),
    ("model.fault_management_s", "s"),
    ("model.calibrate_s", "s"),
    ("model.scratch_bytes", "bytes"),
    ("model.plan_rebuilds", "count"),
    ("cim.matmul_us.conv2", "us"),
    ("cim.matmul_us.fc", "us"),
    ("cim.gops", "GOP/s"),
    ("cim.bytes_per_op", "B/op"),
    ("cim.cell_reads_per_pred", "count/pred"),
    ("cim.adc_converts_per_pred", "count/pred"),
    ("cim.adc_saturations_per_pred", "count/pred"),
    ("cim.packed_share", "ratio"),
    ("cim.cell_writes_per_hour", "count/h"),
    ("device.rng_bits_per_pred", "count/pred"),
    ("device.advance_time_ms", "ms"),
    ("device.flips_per_hour", "count/h"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
    ("self_share.device", "ratio"),
    ("self_share.cim", "ratio"),
    ("self_share.core.model", "ratio"),
    ("self_share.bayes.mc", "ratio"),
    ("self_share.core.pool", "ratio"),
    ("self_share.core.runtime", "ratio"),
    ("self_share.core.checkpoint", "ratio"),
    ("self_share.core.serve", "ratio"),
];

pub const WORKLOADS: [&str; 3] = ["mc_analog", "serve_binary", "lifetime_hot"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Prints every metric of the run's kind with its unit, then the result
/// line the benchmark contract reads.
fn emit(args: &Args, run: &Run) {
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let kind = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    let mut metrics = Vec::new();
    let mut idle = Vec::new();
    println!(
        "== {} {kind} metrics (seed {}) ==",
        args.workload, args.seed
    );
    for &(name, unit) in catalogue {
        let value = match run.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => {
                idle.push(name);
                0.0
            }
            None => panic!("end-to-end metric {name} was not measured"),
        };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("  {name:<32} {value:>16.6} {unit}");
        metrics.push((
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        ));
    }
    if !idle.is_empty() {
        println!(
            "  (0 = layer not exercised by this workload: {})",
            idle.join(", ")
        );
    }
    let result = Json::obj([
        ("correct", Json::Bool(run.correct())),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return common::run_all(&args);
    }
    let run = match args.workload.as_str() {
        "mc_analog" => mc_analog::run(&args),
        "serve_binary" => serve_binary::run(&args),
        "lifetime_hot" => lifetime_hot::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    run.print_report(&args);
    emit(&args, &run);
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
