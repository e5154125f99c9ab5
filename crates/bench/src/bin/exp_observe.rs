//! **Observability overhead + determinism gate**: runs the PR-3
//! throughput CNN under the unified telemetry layer and proves the two
//! contracts the layer makes:
//!
//! 1. **Disabled telemetry is free (≤ 2 %).** The kernel micro-bench is
//!    re-timed with telemetry off and compared against the
//!    `BENCH_throughput.json` baseline the untelemetered binary wrote
//!    (like-for-like: the comparison is skipped when the baseline was
//!    recorded in a different fast/full mode).
//! 2. **Tracing is deterministic.** A fully traced `predict_par` is run
//!    on 1/2/4-worker pools: the `Predictive` must be bit-identical
//!    *and* the emitted JSONL trace must byte-compare across pools
//!    (per-thread buffers merged in pass order; no wall-clock data in
//!    the trace).
//!
//! 3. **Request lineage is cheap (≤ 2 %).** A sequential closed-loop
//!    serve workload is timed under the standard metrics registry with
//!    the flight-recorder lineage ring on vs off, so the delta is the
//!    per-request cost of structured event recording; the
//!    traced/untraced ratio shares the 2 % tolerance and re-measures
//!    on noisy hosts.
//!
//! On top of the gates it reports the enabled-path cost (metrics-only
//! and metrics+trace overhead ratios over a disabled run), span counts,
//! the metrics registry snapshot (histograms included), and a
//! Prometheus text exposition.
//!
//! ```sh
//! cargo run --release -p neuspin-bench --bin exp_observe
//! NEUSPIN_BENCH_FAST=1 cargo run --release -p neuspin-bench --bin exp_observe
//! cargo run --release -p neuspin-bench --bin exp_observe -- --check
//! ```
//!
//! Artifacts: `results/exp_observe.json`, `results/exp_observe_trace.jsonl`,
//! `results/exp_observe_prometheus.txt`, and `BENCH_observe.json` at the
//! workspace root (override with `NEUSPIN_BENCH_ROOT`).

use neuspin_bayes::{build_cnn, ArchConfig, Method, Predictive};
use neuspin_bench::{results_dir, write_json, Setup};
use neuspin_cim::{BistConfig, Crossbar};
use neuspin_core::json::{self, ToJson};
use neuspin_core::serve::client;
use neuspin_core::telemetry::{self, MetricsSnapshot};
use neuspin_core::{
    flight, serve, HardwareConfig, HardwareModel, ReplicaBank, ServeConfig, Supervisor,
    SupervisorConfig, ThreadPool,
};
use neuspin_data::digits::dataset;
use neuspin_device::DefectRates;
use neuspin_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Matches the MC seed of `exp_throughput` so traces describe the same
/// inference workload the throughput baseline measured.
const PREDICT_SEED: u64 = 0x7457_0001;

/// Relative tolerance of the disabled-telemetry overhead gate and the
/// serve-path lineage gate.
const DEFAULT_TOL: f64 = 0.02;

#[derive(Debug)]
struct Report {
    host_threads: f64,
    /// The instruction level the crossbar kernels ran at
    /// ([`neuspin_cim::kernel_isa`]).
    kernel_isa: String,
    fast_mode: f64,
    /// Row-major kernel, telemetry fully disabled (ns per call).
    kernel_disabled_ns_per_call: f64,
    /// `rowmajor_ns_per_call` read from BENCH_throughput.json (0 when
    /// absent or recorded in a different fast/full mode).
    baseline_rowmajor_ns_per_call: f64,
    /// 1 when a like-for-like baseline was found, else 0.
    baseline_found: f64,
    /// disabled / baseline (1.0 when no comparable baseline).
    kernel_overhead_vs_baseline: f64,
    /// Fully traced `predict_par` bit-identical across 1/2/4 workers.
    bit_identical: f64,
    /// Emitted JSONL trace byte-identical across 1/2/4 workers.
    trace_identical: f64,
    /// `predict_par` ns with telemetry off / metrics only / full trace.
    mc_off_ns: f64,
    mc_metrics_ns: f64,
    mc_trace_ns: f64,
    /// metrics-only and metrics+trace cost over the disabled run.
    metrics_overhead_ratio: f64,
    trace_overhead_ratio: f64,
    /// Spans closed during the instrumented reference run.
    span_total: f64,
    /// Forward-plan metrics observed by the instrumented run: a
    /// batch-shape change must bump the `plan_rebuilds_total` counter
    /// and export the arena size through the `scratch_bytes` gauge,
    /// and the persistent-replica engine must count its delta resync
    /// in `replica_syncs_total`. All three are `--check`-gated.
    plan_rebuilds_total: f64,
    replica_syncs_total: f64,
    scratch_bytes_gauge: f64,
    /// Serve path, ns per closed-loop request: lineage layer off / on.
    serve_untraced_ns_per_req: f64,
    serve_traced_ns_per_req: f64,
    /// traced / untraced — gated ≤ 1 + DEFAULT_TOL by --check.
    serve_trace_overhead_ratio: f64,
    /// Trace events in the emitted JSONL (one per line).
    trace_events: f64,
    trace_bytes: f64,
    /// Registry snapshot of the instrumented reference run (counters,
    /// gauges, histogram summaries, device-op rollup).
    metrics: MetricsSnapshot,
}

neuspin_core::impl_to_json!(Report {
    host_threads,
    kernel_isa,
    fast_mode,
    kernel_disabled_ns_per_call,
    baseline_rowmajor_ns_per_call,
    baseline_found,
    kernel_overhead_vs_baseline,
    bit_identical,
    trace_identical,
    mc_off_ns,
    mc_metrics_ns,
    mc_trace_ns,
    metrics_overhead_ratio,
    trace_overhead_ratio,
    span_total,
    plan_rebuilds_total,
    replica_syncs_total,
    scratch_bytes_gauge,
    serve_untraced_ns_per_req,
    serve_traced_ns_per_req,
    serve_trace_overhead_ratio,
    trace_events,
    trace_bytes,
    metrics,
});

/// Best-of-`reps` wall time of `calls` back-to-back invocations, as
/// nanoseconds per call (the `exp_throughput` timer).
fn time_ns_per_call(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / calls as f64
}

/// Re-times the `exp_throughput` kernel micro-bench — same array, same
/// seeds, same remap, same timer — with telemetry fully disabled. More
/// best-of reps than the baseline run, so on a quiet host the result
/// can only be at least as tight as the baseline's.
fn kernel_disabled_ns(fast: bool) -> f64 {
    let (rows, cols) = if fast { (96, 48) } else { (256, 64) };
    let config = neuspin_cim::CrossbarConfig {
        defect_rates: DefectRates { short: 0.005, open: 0.005, ..DefectRates::none() },
        read_noise: 0.05,
        adc_bits: Some(6),
        ir_drop: 0.05,
        ..Default::default()
    };
    let weights: Vec<f32> =
        (0..rows * cols).map(|i| if (i * 7) % 3 == 0 { 1.0 } else { -1.0 }).collect();
    let mut rng = StdRng::seed_from_u64(0x7412_0001);
    let mut xbar = Crossbar::program(&weights, rows, cols, &config, &mut rng);
    xbar.apply_remap(
        (0..rows).map(|i| (i + 11) % rows).collect(),
        (0..cols).map(|i| (i + 3) % cols).collect(),
    );
    let input: Vec<f32> = (0..rows).map(|i| ((i * 5) % 9) as f32 / 4.0 - 1.0).collect();

    let (reps, calls) = if fast { (6, 100) } else { (10, 400) };
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for _ in 0..8 {
        black_box(xbar.matvec(&input, &mut rng)); // cache warmup, untimed
    }
    time_ns_per_call(reps, calls, || {
        black_box(xbar.matvec(&input, &mut rng));
    })
}

/// A minimal commissioned die for the serve-path overhead probe: ideal
/// crossbar, tiny arch — the point is the per-request observability
/// cost, not the compute.
fn serve_die(seed: u64) -> Supervisor {
    const SIDE: usize = 8;
    let arch =
        ArchConfig { c1: 2, c2: 4, hidden: 16, classes: 4, side: SIDE, ..ArchConfig::default() };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sw = build_cnn(Method::SpinDrop, &arch, &mut rng);
    let config = HardwareConfig {
        crossbar: neuspin_cim::CrossbarConfig::ideal(),
        passes: 3,
        ..HardwareConfig::default()
    };
    let mut hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &arch, &config, &mut rng);
    hw.enable_aging(&neuspin_device::AgingConfig { seed: seed ^ 0xA9, ..Default::default() });
    // Generous monitor slack + high coverage: the synthetic probe
    // traffic must not trip the drift detectors mid-measurement.
    let health = neuspin_core::HealthConfig {
        entropy_slack: 4.0,
        margin_slack: 4.0,
        ..neuspin_core::HealthConfig::default()
    };
    let mut sup = Supervisor::new(
        hw,
        SupervisorConfig { seed, coverage: 0.98, health, ..SupervisorConfig::default() },
    );
    let calib = Tensor::from_fn(&[32, 1, SIDE, SIDE], |i| ((i * 13 % 97) as f32 / 97.0) - 0.5);
    let monitor = Tensor::from_fn(&[8, 1, SIDE, SIDE], |i| ((i * 7 % 89) as f32 / 89.0) - 0.5);
    sup.commission(calib, &monitor);
    sup
}

/// Wall time per request of a sequential closed-loop serve workload.
/// Both sides run under the standard metrics registry (the production
/// posture every serving campaign uses — its cost is reported
/// separately by `metrics_overhead_ratio`); `traced` additionally turns
/// on the flight-recorder lineage ring, so the delta is exactly what
/// per-request event recording costs. A fresh identically-seeded fleet
/// per measurement keeps the compute byte-identical.
fn serve_ns_per_request(traced: bool, n: usize) -> f64 {
    const SIDE: usize = 8;
    telemetry::set_enabled(true, false);
    telemetry::reset();
    flight::reset();
    if traced {
        flight::set_capacity(8192);
        flight::set_enabled(true);
    } else {
        flight::set_enabled(false);
    }
    let fleet = neuspin_core::DieFleet::new(vec![serve_die(0x0B5E_0001)]);
    let config = ServeConfig {
        input_shape: vec![1, SIDE, SIDE],
        request_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let mut handle = serve(fleet, config).expect("bind serving socket");
    let addr = handle.addr();
    let timeout = Duration::from_secs(10);
    let sample = |tag: usize| -> Vec<f32> {
        (0..SIDE * SIDE).map(|i| (((i * 31 + tag * 131) % 83) as f32 / 83.0) - 0.5).collect()
    };
    let inputs: Vec<Vec<f32>> = (0..n + 4).map(sample).collect();
    for input in &inputs[n..] {
        let _ = client::predict(addr, input, timeout); // warmup, untimed
    }
    let start = Instant::now();
    for input in &inputs[..n] {
        let resp = client::predict(addr, input, timeout).expect("serve transport");
        assert_eq!(resp.status, 200, "overhead probe must serve cleanly: {}", resp.text());
    }
    let elapsed = start.elapsed().as_secs_f64();
    handle.shutdown(Duration::from_secs(10));
    telemetry::set_enabled(false, false);
    telemetry::reset();
    flight::set_enabled(false);
    flight::reset();
    elapsed * 1e9 / n as f64
}

/// Reads the like-for-like kernel baseline out of BENCH_throughput.json
/// under `NEUSPIN_BENCH_ROOT`. Returns `None` when the file is absent,
/// malformed, or was recorded in the other fast/full mode.
fn read_baseline(fast: bool) -> Option<f64> {
    let root = std::env::var("NEUSPIN_BENCH_ROOT").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&root).join("BENCH_throughput.json");
    let value = json::parse(&std::fs::read_to_string(&path).ok()?).ok()?;
    let baseline_fast = value.get("fast_mode").and_then(json::Json::as_f64)?;
    if (baseline_fast == 1.0) != fast {
        eprintln!(
            "note: {} was recorded in {} mode, this run is {} — overhead gate skipped",
            path.display(),
            if baseline_fast == 1.0 { "fast" } else { "full" },
            if fast { "fast" } else { "full" },
        );
        return None;
    }
    let kernel = value.get("kernel").and_then(json::Json::as_arr)?;
    let ns = kernel.first()?.get("rowmajor_ns_per_call").and_then(json::Json::as_f64)?;
    (ns.is_finite() && ns > 0.0).then_some(ns)
}

/// The throughput CNN: identical setup to `exp_throughput`'s MC model.
fn build_model(fast: bool) -> (HardwareModel, neuspin_nn::Tensor, Setup) {
    let setup = if fast {
        Setup {
            arch: ArchConfig { c1: 16, c2: 32, hidden: 128, ..ArchConfig::default() },
            epochs: 1,
            train_images: 256,
            test_images: 64,
            calib_images: 32,
            passes: 6,
            ..Setup::quick()
        }
    } else {
        Setup {
            arch: ArchConfig { c1: 32, c2: 64, hidden: 256, ..ArchConfig::default() },
            epochs: 1,
            passes: 12,
            ..Setup::quick()
        }
    };
    let batch = if fast { 8 } else { 32 };
    let (train, calib, _test) = setup.datasets();
    eprintln!("training SpinDrop backbone ...");
    let mut model = setup.train(Method::SpinDrop, &train);
    let hw_config = HardwareConfig {
        crossbar: neuspin_cim::CrossbarConfig {
            defect_rates: DefectRates { short: 0.005, open: 0.005, ..DefectRates::none() },
            read_noise: 0.05,
            adc_bits: Some(6),
            ir_drop: 0.05,
            ..neuspin_core::reliability_base().crossbar
        },
        spare_cols: 4,
        passes: setup.passes,
        ..neuspin_core::reliability_base()
    };
    let mut hw = HardwareModel::compile(
        &mut model,
        Method::SpinDrop,
        &setup.arch,
        &hw_config,
        &mut setup.rng(0x7457),
    );
    hw.fault_management(&BistConfig::default(), &mut setup.rng(0x7458));
    hw.calibrate(&calib.inputs, 2, &mut setup.rng(0x7459));
    let inputs = dataset(batch, &setup.style, &mut setup.rng(0x7460 + batch as u64)).inputs;
    (hw, inputs, setup)
}

fn finite_num(obj: &json::Json, key: &str) -> Result<f64, String> {
    match obj.get(key).and_then(json::Json::as_f64) {
        Some(v) if v.is_finite() => Ok(v),
        Some(v) => Err(format!("key {key} is non-finite ({v})")),
        None => Err(format!("missing numeric key {key}")),
    }
}

fn check_results() -> ExitCode {
    let path = results_dir().join("exp_observe.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check failed: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let value = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("check failed: invalid JSON in {}: {e:?}", path.display());
            return ExitCode::FAILURE;
        }
    };
    const POSITIVE: [&str; 14] = [
        "kernel_disabled_ns_per_call",
        "kernel_overhead_vs_baseline",
        "mc_off_ns",
        "mc_metrics_ns",
        "mc_trace_ns",
        "metrics_overhead_ratio",
        "trace_overhead_ratio",
        "span_total",
        "plan_rebuilds_total",
        "replica_syncs_total",
        "scratch_bytes_gauge",
        "serve_untraced_ns_per_req",
        "serve_traced_ns_per_req",
        "serve_trace_overhead_ratio",
    ];
    for key in POSITIVE {
        match finite_num(&value, key) {
            Ok(v) if v > 0.0 => {}
            Ok(v) => {
                eprintln!("check failed: {key} must be positive, got {v}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("check failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for key in ["bit_identical", "trace_identical"] {
        match finite_num(&value, key) {
            Ok(1.0) => {}
            Ok(v) => {
                eprintln!(
                    "check failed: {key} = {v} — traced predict_par must be deterministic"
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("check failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // The overhead gate: disabled-telemetry kernel throughput within
    // tolerance of the untelemetered BENCH_throughput.json baseline.
    let found = finite_num(&value, "baseline_found").unwrap_or(0.0);
    let overhead = finite_num(&value, "kernel_overhead_vs_baseline").unwrap();
    if found == 1.0 && overhead > 1.0 + DEFAULT_TOL {
        eprintln!(
            "check failed: disabled-telemetry kernel is {:.2}% slower than the \
             BENCH_throughput.json baseline (tolerance {:.2}%)",
            (overhead - 1.0) * 100.0,
            DEFAULT_TOL * 100.0,
        );
        return ExitCode::FAILURE;
    }
    // The serve-path lineage gate: per-request tracing (waterfall
    // histograms + flight ring + SLO tracking) must cost no more than
    // the tolerance over an untraced request.
    let serve_ratio = finite_num(&value, "serve_trace_overhead_ratio").unwrap_or(f64::MAX);
    if serve_ratio > 1.0 + DEFAULT_TOL {
        eprintln!(
            "check failed: serve-path tracing is {:.2}% slower than untraced \
             (tolerance {:.2}%)",
            (serve_ratio - 1.0) * 100.0,
            DEFAULT_TOL * 100.0,
        );
        return ExitCode::FAILURE;
    }
    // The emitted trace must exist and be valid JSONL of spans/events.
    let trace_path = results_dir().join("exp_observe_trace.jsonl");
    let trace = match std::fs::read_to_string(&trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check failed: cannot read {}: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut lines = 0usize;
    for (i, line) in trace.lines().enumerate() {
        let parsed = match json::parse(line) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("check failed: trace line {i} is not valid JSON: {e:?}");
                return ExitCode::FAILURE;
            }
        };
        if parsed.get("span").is_none() && parsed.get("event").is_none() {
            eprintln!("check failed: trace line {i} has neither span nor event key");
            return ExitCode::FAILURE;
        }
        lines += 1;
    }
    let expected = finite_num(&value, "trace_events").unwrap_or(-1.0);
    if lines == 0 || lines as f64 != expected {
        eprintln!("check failed: trace has {lines} lines, report says {expected}");
        return ExitCode::FAILURE;
    }
    println!(
        "exp_observe.json: overhead {:.4} (baseline {}), serve tracing {:.4}, trace {} \
         events byte-stable across 1/2/4 workers, schema OK, all finite",
        overhead,
        if found == 1.0 { "found" } else { "absent/skipped" },
        serve_ratio,
        lines,
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--check") {
        return check_results();
    }
    let fast = neuspin_bench::fast_mode();
    println!("== Telemetry overhead + deterministic trace gate ==\n");
    telemetry::set_enabled(false, false);
    telemetry::reset();

    // 1. Disabled-path kernel throughput vs the untelemetered baseline.
    let mut disabled_ns = kernel_disabled_ns(fast);
    let baseline = read_baseline(fast);
    let (baseline_ns, baseline_found) = match baseline {
        Some(ns) => (ns, 1.0),
        None => (0.0, 0.0),
    };
    if baseline_found == 1.0 {
        // Best-of semantics: a slow first sample on a noisy host is
        // re-measured rather than failing the gate outright.
        for _ in 0..3 {
            if disabled_ns / baseline_ns <= 1.0 + DEFAULT_TOL {
                break;
            }
            disabled_ns = disabled_ns.min(kernel_disabled_ns(fast));
        }
    }
    let overhead = if baseline_found == 1.0 { disabled_ns / baseline_ns } else { 1.0 };
    println!(
        "kernel (telemetry off): {disabled_ns:.0} ns/call, baseline {} → overhead {:.4}",
        if baseline_found == 1.0 { format!("{baseline_ns:.0} ns/call") } else { "n/a".into() },
        overhead,
    );

    // 2. The throughput CNN.
    let (mut hw, inputs, setup) = build_model(fast);

    // 3. Determinism gate: fully traced predict_par on 1/2/4 workers.
    let mut preds: Vec<Predictive> = Vec::new();
    let mut traces: Vec<String> = Vec::new();
    for threads in [1usize, 2, 4] {
        telemetry::set_enabled(true, true);
        telemetry::reset();
        let pool = ThreadPool::new(threads);
        let pred = hw.predict_par(&inputs, PREDICT_SEED, &pool);
        let events = telemetry::take_trace();
        traces.push(telemetry::trace_to_jsonl(&events));
        preds.push(pred);
        telemetry::set_enabled(false, false);
    }
    let bit_identical = preds.iter().all(|p| *p == preds[0]);
    let trace_identical = traces.iter().all(|t| *t == traces[0]);
    println!(
        "traced predict_par over 1/2/4 workers: predictions {} | trace bytes {}",
        if bit_identical { "bit-identical" } else { "DIVERGED" },
        if trace_identical { "identical" } else { "DIVERGED" },
    );
    let trace_events = traces[0].lines().count();
    let trace_bytes = traces[0].len();

    // 4. Enabled-path cost: off vs metrics-only vs metrics+trace.
    let reps = if fast { 2 } else { 3 };
    let pool = ThreadPool::new(2);
    telemetry::set_enabled(false, false);
    telemetry::reset();
    let mc_off_ns = time_ns_per_call(reps, 1, || {
        black_box(hw.predict_par(&inputs, PREDICT_SEED, &pool));
    });
    telemetry::set_enabled(true, false);
    telemetry::reset();
    let mc_metrics_ns = time_ns_per_call(reps, 1, || {
        black_box(hw.predict_par(&inputs, PREDICT_SEED, &pool));
    });
    telemetry::set_enabled(true, true);
    telemetry::reset();
    let mc_trace_ns = time_ns_per_call(reps, 1, || {
        black_box(hw.predict_par(&inputs, PREDICT_SEED, &pool));
        // Consuming the trace is part of the real enabled-path cost.
        black_box(telemetry::take_trace());
    });
    telemetry::set_enabled(false, false);
    println!(
        "predict_par: off {:.2} ms | metrics {:.2} ms ({:.2}x) | trace {:.2} ms ({:.2}x)",
        mc_off_ns / 1e6,
        mc_metrics_ns / 1e6,
        mc_metrics_ns / mc_off_ns,
        mc_trace_ns / 1e6,
        mc_trace_ns / mc_off_ns,
    );

    // 5. Instrumented reference run for the registry artifacts: one
    //    fully traced predict + one fault-management sweep on a scratch
    //    clone (BIST/repair/remap counters) feeding the same registry,
    //    plus the forward-plan metrics gate — a batch-shape change must
    //    rebuild the plan (counter + scratch gauge) and the persistent-
    //    replica engine must count its delta resync.
    telemetry::set_enabled(true, true);
    telemetry::reset();
    let _ = hw.predict_par(&inputs, PREDICT_SEED, &pool);
    let alt_batch = if fast { 4 } else { 16 };
    let alt = dataset(alt_batch, &setup.style, &mut setup.rng(0x7462)).inputs;
    let _ = hw.predict_seeded(&alt, PREDICT_SEED);
    let mut bank = ReplicaBank::new();
    let _ = hw.predict_par_in(&inputs, PREDICT_SEED, &pool, &mut bank);
    let mut scratch = hw.clone();
    let _ = scratch.fault_management(&BistConfig::default(), &mut StdRng::seed_from_u64(0x7461));
    let _ = telemetry::take_trace();
    let span_total = telemetry::counter("spans_total").get();
    let snapshot = telemetry::snapshot();
    let prometheus = telemetry::prometheus_text();
    telemetry::set_enabled(false, false);
    telemetry::reset();
    let plan_rebuilds_total = snapshot.counter("plan_rebuilds_total").unwrap_or(0) as f64;
    let replica_syncs_total = snapshot.counter("replica_syncs_total").unwrap_or(0) as f64;
    let scratch_bytes_gauge = snapshot.gauge("scratch_bytes").unwrap_or(0.0);
    assert!(
        plan_rebuilds_total >= 1.0,
        "a batch-shape change must rebuild the forward plan under metrics"
    );
    assert!(replica_syncs_total >= 1.0, "predict_par_in must count its replica resync");
    assert!(scratch_bytes_gauge > 0.0, "a plan rebuild must export the scratch_bytes gauge");
    println!(
        "forward-plan metrics: plan_rebuilds_total {plan_rebuilds_total} | \
         replica_syncs_total {replica_syncs_total} | scratch_bytes {scratch_bytes_gauge:.0}"
    );

    // 6. Serve-path lineage overhead: the same closed-loop workload
    //    under the standard metrics registry with the flight-recorder
    //    lineage ring on vs off, best-of with re-measurement on noisy
    //    hosts (same pattern as the kernel gate). The per-request cost
    //    of structured event recording must stay inside the tolerance.
    let n_req = if fast { 40 } else { 120 };
    eprintln!("serve-path overhead probe: {n_req} requests per side ...");
    let mut serve_off_ns = serve_ns_per_request(false, n_req);
    let mut serve_on_ns = serve_ns_per_request(true, n_req);
    for _ in 0..3 {
        if serve_on_ns / serve_off_ns <= 1.0 + DEFAULT_TOL {
            break;
        }
        serve_off_ns = serve_off_ns.min(serve_ns_per_request(false, n_req));
        serve_on_ns = serve_on_ns.min(serve_ns_per_request(true, n_req));
    }
    let serve_ratio = serve_on_ns / serve_off_ns;
    println!(
        "serve path: untraced {:.0} µs/req | traced {:.0} µs/req → overhead {:.4}",
        serve_off_ns / 1e3,
        serve_on_ns / 1e3,
        serve_ratio,
    );

    let report = Report {
        host_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as f64,
        kernel_isa: neuspin_cim::kernel_isa().to_string(),
        fast_mode: if fast { 1.0 } else { 0.0 },
        kernel_disabled_ns_per_call: disabled_ns,
        baseline_rowmajor_ns_per_call: baseline_ns,
        baseline_found,
        kernel_overhead_vs_baseline: overhead,
        bit_identical: if bit_identical { 1.0 } else { 0.0 },
        trace_identical: if trace_identical { 1.0 } else { 0.0 },
        mc_off_ns,
        mc_metrics_ns,
        mc_trace_ns,
        metrics_overhead_ratio: mc_metrics_ns / mc_off_ns,
        trace_overhead_ratio: mc_trace_ns / mc_off_ns,
        span_total: span_total as f64,
        plan_rebuilds_total,
        replica_syncs_total,
        scratch_bytes_gauge,
        serve_untraced_ns_per_req: serve_off_ns,
        serve_traced_ns_per_req: serve_on_ns,
        serve_trace_overhead_ratio: serve_ratio,
        trace_events: trace_events as f64,
        trace_bytes: trace_bytes as f64,
        metrics: snapshot,
    };

    write_json("exp_observe", &report);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("cannot create results dir");
    let trace_path = dir.join("exp_observe_trace.jsonl");
    std::fs::write(&trace_path, &traces[0]).expect("cannot write trace JSONL");
    println!("[wrote {}]", trace_path.display());
    let prom_path = dir.join("exp_observe_prometheus.txt");
    std::fs::write(&prom_path, &prometheus).expect("cannot write Prometheus exposition");
    println!("[wrote {}]", prom_path.display());
    let root = std::env::var("NEUSPIN_BENCH_ROOT").unwrap_or_else(|_| ".".to_string());
    std::fs::create_dir_all(&root).expect("cannot create bench root");
    let bench_path = std::path::Path::new(&root).join("BENCH_observe.json");
    std::fs::write(&bench_path, report.to_json().to_string_pretty())
        .expect("cannot write BENCH_observe.json");
    println!("[wrote {}]", bench_path.display());

    if !bit_identical || !trace_identical {
        eprintln!("determinism gate FAILED (see report)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
