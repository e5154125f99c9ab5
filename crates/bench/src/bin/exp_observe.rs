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
use neuspin_bench::artifact::{self, Artifact};
use neuspin_bench::scenarios::{self, PREDICT_SEED};
use neuspin_bench::timing::time_ns_per_call;
use neuspin_bench::{bench_root, results_dir, write_bench, write_json, write_side};
use neuspin_cim::BistConfig;
use neuspin_core::json;
use neuspin_core::serve::client;
use neuspin_core::telemetry::{self, MetricsSnapshot};
use neuspin_core::{
    flight, serve, HardwareConfig, HardwareModel, ReplicaBank, ServeConfig, Supervisor,
    SupervisorConfig, ThreadPool,
};
use neuspin_data::digits::dataset;
use neuspin_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

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

/// Re-times `exp_throughput`'s analog kernel row (the shared
/// [`scenarios::analog_tile`] on the shared timer) with telemetry fully
/// disabled. More best-of reps than the baseline run, so on a quiet
/// host the result can only be at least as tight as the baseline's.
fn kernel_disabled_ns(fast: bool) -> f64 {
    let (rows, cols) = scenarios::tile_shape(fast);
    let weights = scenarios::tile_weights(rows, cols);
    let (mut xbar, input) = scenarios::analog_tile(&weights, rows, cols);
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
/// under [`bench_root`]. Returns `None` when the file is absent,
/// malformed, or was recorded in the other fast/full mode.
fn read_baseline(fast: bool) -> Option<f64> {
    let path = bench_root().join("BENCH_throughput.json");
    let baseline = Artifact::load(&path).ok()?;
    let baseline_fast = baseline.root().num("fast_mode").ok()? == 1.0;
    if baseline_fast != fast {
        eprintln!(
            "note: {} was recorded in {} mode, this run is {} — overhead gate skipped",
            path.display(),
            if baseline_fast { "fast" } else { "full" },
            if fast { "fast" } else { "full" },
        );
        return None;
    }
    let ns = baseline.root().rows("kernel").ok()?[0].num("rowmajor_ns_per_call").ok()?;
    (ns > 0.0).then_some(ns)
}

fn check() -> Result<String, String> {
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
    let artifact = Artifact::result("exp_observe.json")?;
    let report = artifact.root();
    for key in POSITIVE {
        let v = report.num(key)?;
        report.ensure(v > 0.0, || format!("{key} must be positive, got {v}"))?;
    }
    // Traced predict_par must be deterministic.
    report.expect("bit_identical", 1.0)?;
    report.expect("trace_identical", 1.0)?;
    // The overhead gate: disabled-telemetry kernel throughput within
    // tolerance of the untelemetered BENCH_throughput.json baseline.
    let found = report.num("baseline_found")? == 1.0;
    let overhead = report.num("kernel_overhead_vs_baseline")?;
    report.ensure(!found || overhead <= 1.0 + DEFAULT_TOL, || {
        format!(
            "kernel_overhead_vs_baseline: disabled-telemetry kernel is {:.2}% slower than \
             the BENCH_throughput.json baseline (tolerance {:.2}%)",
            (overhead - 1.0) * 100.0,
            DEFAULT_TOL * 100.0,
        )
    })?;
    // The serve-path lineage gate: per-request tracing (waterfall
    // histograms + flight ring + SLO tracking) must cost no more than
    // the tolerance over an untraced request.
    let serve_ratio = report.num("serve_trace_overhead_ratio")?;
    report.ensure(serve_ratio <= 1.0 + DEFAULT_TOL, || {
        format!(
            "serve_trace_overhead_ratio: serve-path tracing is {:.2}% slower than untraced \
             (tolerance {:.2}%)",
            (serve_ratio - 1.0) * 100.0,
            DEFAULT_TOL * 100.0,
        )
    })?;
    // The emitted trace must exist and be valid JSONL of spans/events.
    let trace_path = results_dir().join("exp_observe_trace.jsonl");
    let trace = artifact::read(&trace_path)?;
    for (i, line) in trace.lines().enumerate() {
        let at = format!("{} line {i}", trace_path.display());
        let event = json::parse(line).map_err(|e| format!("{at} is not valid JSON: {e}"))?;
        if event.get("span").is_none() && event.get("event").is_none() {
            return Err(format!("{at} has neither span nor event key"));
        }
    }
    let lines = trace.lines().count();
    let expected = report.num("trace_events")?;
    report.ensure(lines > 0 && lines as f64 == expected, || {
        format!("trace_events is {expected}, but the trace has {lines} lines")
    })?;
    Ok(format!(
        "exp_observe.json: overhead {overhead:.4} (baseline {}), serve tracing {serve_ratio:.4}, \
         trace {lines} events byte-stable across 1/2/4 workers, schema OK, all finite",
        if found { "found" } else { "absent/skipped" },
    ))
}

fn main() -> ExitCode {
    artifact::main(run, check)
}

fn run() -> ExitCode {
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
    let (mut hw, setup) = scenarios::throughput_model(fast);
    let inputs = scenarios::batch_inputs(&setup, if fast { 8 } else { 32 });

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
    write_side("exp_observe_trace.jsonl", &traces[0]);
    write_side("exp_observe_prometheus.txt", &prometheus);
    write_bench("observe", &report);

    if !bit_identical || !trace_identical {
        eprintln!("determinism gate FAILED (see report)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
