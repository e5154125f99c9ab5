//! **Throughput baseline**: crossbar kernel and MC inference-engine
//! performance, the first speed-focused artifact of the workspace.
//!
//! Two measurement families:
//!
//! 1. **Kernel micro-bench** — two rows. The *analog* row pits
//!    `Crossbar::matvec` (row-major/cache-friendly) against the
//!    retained seed kernel `Crossbar::matvec_reference` on a remapped,
//!    IR-dropped, ADC-quantized array; the packed path cannot engage
//!    there (`packed_engaged = 0`). The *binary* row re-runs the
//!    comparison on a noiseless ternary tile with ±1 inputs, where the
//!    `Auto` policy routes the bit-packed XNOR/popcount kernel
//!    (`packed_engaged = 1`); its `packed_vs_rowmajor` ratio is the
//!    CI-gated regression floor ([`PACKED_FLOOR`]). All outputs are
//!    bit-identical across kernels; the ratios are pure kernel wins.
//!    The row-major and packed kernels run at the widest instruction
//!    level the CPU reports (AVX-512F, AVX2 or the baseline), printed
//!    and recorded as `kernel_isa` next to `host_threads`: the same
//!    binary measures different kernels on different hosts, and
//!    `--check` requires one of the three names.
//! 2. **MC engine** — end-to-end Bayesian prediction on the compiled
//!    SpinDrop CNN after fault management + calibration, across
//!    engines: `seq_reference` (seed kernel, sequential), `seq` (the
//!    planned zero-allocation `predict_seeded`), and `par`
//!    (deterministic parallel `predict_par`) at 1/2/4 threads and two
//!    batch sizes. All engines
//!    are bit-identical by construction; the binary asserts it on
//!    every cell.
//! 3. **Allocation discipline** — the counting global allocator
//!    ([`neuspin_bench::allocs`]) measures the warm planned forward:
//!    steady-state MC passes must perform **zero** heap allocations,
//!    both directly (a counted `forward_planned` loop) and
//!    differentially (extra passes on `predict_seeded` must add zero
//!    allocation events).
//!
//! ```sh
//! cargo run --release -p neuspin-bench --bin exp_throughput
//! NEUSPIN_BENCH_FAST=1 cargo run --release -p neuspin-bench --bin exp_throughput
//! cargo run --release -p neuspin-bench --bin exp_throughput -- --check
//! ```
//!
//! Results go to `results/exp_throughput.json` *and* to
//! `BENCH_throughput.json` at the workspace root (override the root
//! with `NEUSPIN_BENCH_ROOT`) — the headline numbers live next to the
//! code they measure. `--check` re-parses the results file and exits
//! non-zero on schema/finiteness violations, a non-zero steady-state
//! allocation count, and — for full-mode runs — a `seq` engine slower
//! than [`MC_SPEEDUP_FLOOR`]× the recorded pre-optimization baseline
//! ([`RECORDED_SEQ_NS`]).
//!
//! Note: on a single-core host the `par` rows cannot beat `seq` (the
//! scoped workers time-share one CPU); the kernel speedup carried by
//! every non-reference engine is the hardware-independent win.

use neuspin_bayes::{ArchConfig, Method};
use neuspin_bench::allocs::count_allocs;
use neuspin_bench::timing::{Harness, Measurement};
use neuspin_bench::{results_dir, write_json, Setup};
use neuspin_cim::{BistConfig, Crossbar, KernelPolicy};
use neuspin_core::json::{self, ToJson};
use neuspin_core::{HardwareConfig, HardwareModel, ThreadPool};
use neuspin_data::digits::dataset;
use neuspin_device::DefectRates;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Minimum packed-over-rowmajor throughput ratio on engaged rows —
/// the `--check` regression gate (the acceptance floor; measured
/// ratios land far above it).
const PACKED_FLOOR: f64 = 2.0;

/// Full-mode `seq` baselines (ns/predict by batch size) recorded in
/// `BENCH_throughput.json` before the zero-allocation forward plan,
/// the ziggurat read-noise sampler, and the folded IR-drop weight
/// table landed. The `--check` speedup gate divides these by the
/// current full-mode `seq` measurements.
const RECORDED_SEQ_NS: [(f64, f64); 2] = [(32.0, 797_037_832.0), (128.0, 3_258_563_394.0)];

/// Minimum full-mode `seq` speedup over [`RECORDED_SEQ_NS`] — the
/// MC end-to-end regression floor (full-mode runs on a 2-vCPU host at
/// the AVX-512F kernel level read about 2.1× at batch 32 and 3.0× at
/// batch 128).
const MC_SPEEDUP_FLOOR: f64 = 1.3;

/// Extra MC passes used by the differential allocation probe.
const ALLOC_EXTRA_PASSES: usize = 4;

/// One kernel micro-benchmark row.
#[derive(Debug)]
struct KernelRow {
    rows: f64,
    cols: f64,
    ops_per_call: f64,
    reference_ns_per_call: f64,
    rowmajor_ns_per_call: f64,
    packed_ns_per_call: f64,
    reference_gops: f64,
    rowmajor_gops: f64,
    packed_gops: f64,
    kernel_speedup: f64,
    /// Packed over rowmajor (the CI-gated ratio on engaged rows).
    packed_vs_rowmajor: f64,
    /// 1 when the `Auto` policy actually served the calls with the
    /// packed kernel, 0 when it fell back (analog configurations).
    packed_engaged: f64,
}

neuspin_core::impl_to_json!(KernelRow {
    rows,
    cols,
    ops_per_call,
    reference_ns_per_call,
    rowmajor_ns_per_call,
    packed_ns_per_call,
    reference_gops,
    rowmajor_gops,
    packed_gops,
    kernel_speedup,
    packed_vs_rowmajor,
    packed_engaged
});

/// One MC-engine measurement cell.
#[derive(Debug)]
struct McRow {
    engine: String,
    threads: f64,
    batch: f64,
    passes: f64,
    ns_per_predict: f64,
    mc_passes_per_s: f64,
    predictions_per_s: f64,
    speedup_vs_seq_reference: f64,
    /// Recorded-baseline ratio ([`RECORDED_SEQ_NS`] / this row), the
    /// CI-gated end-to-end win; 0 when no baseline applies (fast mode,
    /// or a batch size the baseline never recorded).
    speedup_vs_recorded_baseline: f64,
}

neuspin_core::impl_to_json!(McRow {
    engine,
    threads,
    batch,
    passes,
    ns_per_predict,
    mc_passes_per_s,
    predictions_per_s,
    speedup_vs_seq_reference,
    speedup_vs_recorded_baseline
});

/// Allocation-discipline measurements for one batch size.
#[derive(Debug)]
struct AllocRow {
    batch: f64,
    /// Warm planned forward passes driven under the counting allocator.
    warm_passes_measured: f64,
    /// Allocation events during those passes (gated: must be 0).
    warm_alloc_events: f64,
    /// Differential probe: allocation events added per extra MC pass
    /// when `predict_seeded` runs with more passes (gated: must be 0).
    allocs_per_extra_pass: f64,
    /// Allocation events of one whole warm `predict_seeded` call (the
    /// per-call fixed cost: spans, the returned `Predictive`).
    warm_predict_alloc_events: f64,
    /// `HardwareModel::scratch_bytes` after warm-up — the arena the
    /// zero numbers above are buying.
    plan_scratch_bytes: f64,
}

neuspin_core::impl_to_json!(AllocRow {
    batch,
    warm_passes_measured,
    warm_alloc_events,
    allocs_per_extra_pass,
    warm_predict_alloc_events,
    plan_scratch_bytes
});

/// The whole report (one JSON object).
#[derive(Debug)]
struct Report {
    host_threads: f64,
    /// The instruction level the crossbar kernels ran at
    /// ([`neuspin_cim::kernel_isa`]).
    kernel_isa: String,
    fast_mode: f64,
    kernel: Vec<KernelRow>,
    /// Percentile profile (p50/p95/p99) of the same kernels on the
    /// shared `timing::Bencher` harness — tail latency alongside the
    /// best-of headline numbers.
    kernel_timing: Vec<Measurement>,
    mc: Vec<McRow>,
    alloc: Vec<AllocRow>,
}

neuspin_core::impl_to_json!(Report {
    host_threads,
    kernel_isa,
    fast_mode,
    kernel,
    kernel_timing,
    mc,
    alloc
});

/// The names [`neuspin_cim::kernel_isa`] can report.
const KERNEL_ISAS: [&str; 3] = ["avx512f", "avx2", "baseline"];

/// Numeric keys every kernel row must carry, all finite.
const KERNEL_KEYS: [&str; 12] = [
    "rows",
    "cols",
    "ops_per_call",
    "reference_ns_per_call",
    "rowmajor_ns_per_call",
    "packed_ns_per_call",
    "reference_gops",
    "rowmajor_gops",
    "packed_gops",
    "kernel_speedup",
    "packed_vs_rowmajor",
    "packed_engaged",
];

/// Numeric keys every MC row must carry, all finite. The two speedup
/// keys may be zero (no baseline recorded); everything else must be
/// strictly positive.
const MC_KEYS: [&str; 8] = [
    "threads",
    "batch",
    "passes",
    "ns_per_predict",
    "mc_passes_per_s",
    "predictions_per_s",
    "speedup_vs_seq_reference",
    "speedup_vs_recorded_baseline",
];

/// Numeric keys every allocation row must carry, all finite.
const ALLOC_KEYS: [&str; 6] = [
    "batch",
    "warm_passes_measured",
    "warm_alloc_events",
    "allocs_per_extra_pass",
    "warm_predict_alloc_events",
    "plan_scratch_bytes",
];

/// Best-of-`reps` wall time of `calls` back-to-back invocations,
/// reported as nanoseconds per call.
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

fn finite_num(row: &json::Json, key: &str) -> Result<f64, String> {
    match row.get(key).and_then(json::Json::as_f64) {
        Some(v) if v.is_finite() => Ok(v),
        Some(v) => Err(format!("key {key} is non-finite ({v})")),
        None => Err(format!("missing numeric key {key}")),
    }
}

fn check_results() -> ExitCode {
    let path = results_dir().join("exp_throughput.json");
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
    let isa = value.get("kernel_isa").and_then(json::Json::as_str);
    if !isa.is_some_and(|isa| KERNEL_ISAS.contains(&isa)) {
        eprintln!("check failed: kernel_isa {isa:?} is not one of {KERNEL_ISAS:?}");
        return ExitCode::FAILURE;
    }
    let Some(kernel) = value.get("kernel").and_then(json::Json::as_arr) else {
        eprintln!("check failed: missing kernel array");
        return ExitCode::FAILURE;
    };
    let Some(mc) = value.get("mc").and_then(json::Json::as_arr) else {
        eprintln!("check failed: missing mc array");
        return ExitCode::FAILURE;
    };
    if kernel.is_empty() || mc.is_empty() {
        eprintln!("check failed: empty kernel or mc section");
        return ExitCode::FAILURE;
    }
    let mut engaged_rows = 0usize;
    for (i, row) in kernel.iter().enumerate() {
        for key in KERNEL_KEYS {
            if let Err(e) = finite_num(row, key) {
                eprintln!("check failed: kernel row {i}: {e}");
                return ExitCode::FAILURE;
            }
        }
        let speedup = finite_num(row, "kernel_speedup").unwrap();
        if speedup <= 0.0 {
            eprintln!("check failed: kernel row {i}: non-positive speedup {speedup}");
            return ExitCode::FAILURE;
        }
        // The packed regression gate: on rows where the Auto policy
        // engaged the XNOR/popcount kernel, it must clear the floor
        // over the rowmajor scalar kernel.
        if finite_num(row, "packed_engaged").unwrap() == 1.0 {
            engaged_rows += 1;
            let ratio = finite_num(row, "packed_vs_rowmajor").unwrap();
            if ratio < PACKED_FLOOR {
                eprintln!(
                    "check failed: kernel row {i}: packed_vs_rowmajor {ratio:.2} below the {PACKED_FLOOR}x floor"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if engaged_rows == 0 {
        eprintln!("check failed: no kernel row engaged the packed kernel");
        return ExitCode::FAILURE;
    }
    // Additive percentile rows: ordered finite tails per measurement.
    if let Some(timing) = value.get("kernel_timing").and_then(json::Json::as_arr) {
        for (i, row) in timing.iter().enumerate() {
            let (p50, p95, p99) = match (
                finite_num(row, "p50_ns"),
                finite_num(row, "p95_ns"),
                finite_num(row, "p99_ns"),
            ) {
                (Ok(a), Ok(b), Ok(c)) => (a, b, c),
                _ => {
                    eprintln!("check failed: kernel_timing row {i}: bad percentiles");
                    return ExitCode::FAILURE;
                }
            };
            if !(p50 <= p95 && p95 <= p99) {
                eprintln!(
                    "check failed: kernel_timing row {i}: unordered percentiles {p50}/{p95}/{p99}"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let fast_mode = finite_num(&value, "fast_mode").unwrap_or(1.0) == 1.0;
    let mut par_threads = Vec::new();
    let mut gated_seq_rows = 0usize;
    for (i, row) in mc.iter().enumerate() {
        let Some(engine) = row.get("engine").and_then(json::Json::as_str) else {
            eprintln!("check failed: mc row {i} missing engine string");
            return ExitCode::FAILURE;
        };
        let speedup_keys = ["speedup_vs_seq_reference", "speedup_vs_recorded_baseline"];
        for key in MC_KEYS {
            match finite_num(row, key) {
                Ok(v) if !speedup_keys.contains(&key) && v <= 0.0 => {
                    eprintln!("check failed: mc row {i}: non-positive {key} ({v})");
                    return ExitCode::FAILURE;
                }
                Ok(_) => {}
                Err(e) => {
                    eprintln!("check failed: mc row {i}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let speedup = finite_num(row, "speedup_vs_seq_reference").unwrap();
        if speedup <= 0.0 {
            eprintln!("check failed: mc row {i}: non-positive speedup {speedup}");
            return ExitCode::FAILURE;
        }
        // The end-to-end regression gate: every full-mode `seq` row
        // with a recorded baseline must clear the floor. Fast-mode runs
        // measure a different workload, so the ratio is 0 (ungated)
        // there — the alloc gates below still apply.
        if engine == "seq" && !fast_mode {
            let vs_recorded = finite_num(row, "speedup_vs_recorded_baseline").unwrap();
            if vs_recorded > 0.0 {
                gated_seq_rows += 1;
                if vs_recorded < MC_SPEEDUP_FLOOR {
                    eprintln!(
                        "check failed: mc row {i}: seq speedup {vs_recorded:.2} below the {MC_SPEEDUP_FLOOR}x recorded-baseline floor"
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        if engine == "par" {
            let t = finite_num(row, "threads").unwrap();
            if !par_threads.contains(&t) {
                par_threads.push(t);
            }
        }
    }
    if par_threads.len() < 2 {
        eprintln!(
            "check failed: need par rows for >= 2 thread counts, got {par_threads:?}"
        );
        return ExitCode::FAILURE;
    }
    if !fast_mode && gated_seq_rows == 0 {
        eprintln!("check failed: full-mode report has no recorded-baseline seq row to gate");
        return ExitCode::FAILURE;
    }
    // The zero-allocation gate: a steady-state MC pass must not touch
    // the heap — directly (counted forward_planned loop) and
    // differentially (extra predict_seeded passes add nothing).
    let Some(alloc) = value.get("alloc").and_then(json::Json::as_arr) else {
        eprintln!("check failed: missing alloc array");
        return ExitCode::FAILURE;
    };
    if alloc.is_empty() {
        eprintln!("check failed: empty alloc section");
        return ExitCode::FAILURE;
    }
    for (i, row) in alloc.iter().enumerate() {
        for key in ALLOC_KEYS {
            if let Err(e) = finite_num(row, key) {
                eprintln!("check failed: alloc row {i}: {e}");
                return ExitCode::FAILURE;
            }
        }
        let warm = finite_num(row, "warm_alloc_events").unwrap();
        if warm != 0.0 {
            eprintln!(
                "check failed: alloc row {i}: {warm} allocation events in the warm planned forward (must be 0)"
            );
            return ExitCode::FAILURE;
        }
        let per_pass = finite_num(row, "allocs_per_extra_pass").unwrap();
        if per_pass != 0.0 {
            eprintln!(
                "check failed: alloc row {i}: {per_pass} allocation events per extra MC pass (must be 0)"
            );
            return ExitCode::FAILURE;
        }
        if finite_num(row, "plan_scratch_bytes").unwrap() <= 0.0 {
            eprintln!("check failed: alloc row {i}: plan scratch is empty");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "exp_throughput.json: {} kernel rows, {} mc rows ({} par thread counts, {} gated seq rows), {} alloc rows (all zero-steady-state), schema OK, all finite",
        kernel.len(),
        mc.len(),
        par_threads.len(),
        gated_seq_rows,
        alloc.len(),
    );
    ExitCode::SUCCESS
}

/// Times `matvec` under each of the three kernel policies on the same
/// array (the RNG is reseeded per policy, so noise draws replay).
fn time_policies(
    xbar: &mut Crossbar,
    input: &[f32],
    reps: usize,
    calls: usize,
) -> (f64, f64, f64) {
    let mut times = [0.0f64; 3];
    for (slot, policy) in
        [KernelPolicy::Reference, KernelPolicy::Scalar, KernelPolicy::Auto].into_iter().enumerate()
    {
        xbar.set_kernel_policy(policy);
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        times[slot] = time_ns_per_call(reps, calls, || {
            black_box(xbar.matvec(input, &mut rng));
        });
    }
    (times[0], times[1], times[2])
}

/// The kernel micro-benchmark, two rows:
///
/// * **analog** — a remapped, IR-dropped, ADC-quantized, noisy array
///   exercising every feature the row-major rewrite restructured; the
///   packed path is ineligible and `Auto` must cost the same as the
///   scalar kernel (`packed_engaged = 0`).
/// * **binary** — a noiseless ideal-corner ternary tile (stuck-at
///   defects only) with ±1 inputs, remapped and partially gated: the
///   packed XNOR/popcount regime (`packed_engaged = 1`, CI-gated).
fn kernel_bench(fast: bool) -> (Vec<KernelRow>, Vec<Measurement>) {
    let (rows, cols) = if fast { (96, 48) } else { (256, 64) };
    let (reps, calls) = if fast { (4, 100) } else { (5, 400) };
    let ops = 2.0 * rows as f64 * cols as f64;
    // Percentile profile of the same kernels through the shared Bencher
    // harness: p50/p95/p99 tail behaviour next to the best-of headline
    // numbers (best-of hides scheduler noise; the tail shows it).
    let mut harness = Harness::new("throughput_kernel");
    let mut kernel = Vec::new();

    // --- analog row ---
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
    let (reference_ns, rowmajor_ns, auto_ns) = time_policies(&mut xbar, &input, reps, calls);
    assert_eq!(xbar.packed_calls(), 0, "packed kernel must not engage on the analog tile");
    xbar.set_kernel_policy(KernelPolicy::Reference);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    harness.bench("matvec/reference", |b| {
        b.iter(|| black_box(xbar.matvec(&input, &mut rng)))
    });
    xbar.set_kernel_policy(KernelPolicy::Scalar);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    harness.bench("matvec/rowmajor", |b| {
        b.iter(|| black_box(xbar.matvec(&input, &mut rng)))
    });
    kernel.push(KernelRow {
        rows: rows as f64,
        cols: cols as f64,
        ops_per_call: ops,
        reference_ns_per_call: reference_ns,
        rowmajor_ns_per_call: rowmajor_ns,
        packed_ns_per_call: auto_ns,
        reference_gops: ops / reference_ns,
        rowmajor_gops: ops / rowmajor_ns,
        packed_gops: ops / auto_ns,
        kernel_speedup: reference_ns / rowmajor_ns,
        packed_vs_rowmajor: rowmajor_ns / auto_ns,
        packed_engaged: 0.0,
    });

    // --- binary row ---
    let config = neuspin_cim::CrossbarConfig {
        defect_rates: DefectRates {
            stuck_parallel: 0.01,
            stuck_antiparallel: 0.01,
            ..DefectRates::none()
        },
        read_noise: 0.0,
        adc_bits: Some(8),
        ir_drop: 0.0,
        ..neuspin_cim::CrossbarConfig::ideal()
    };
    let mut rng = StdRng::seed_from_u64(0x7412_0002);
    let mut xbar = Crossbar::program(&weights, rows, cols, &config, &mut rng);
    xbar.apply_remap(
        (0..rows).map(|i| (i + 7) % rows).collect(),
        (0..cols).map(|i| (i + 5) % cols).collect(),
    );
    for r in (0..rows).step_by(13) {
        xbar.set_row_enabled(r, false); // dropout-style gating
    }
    let input: Vec<f32> =
        (0..rows).map(|i| if i % 7 == 0 { 0.0 } else if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    // Bit-identity across the three policies before any timing — the
    // bench itself re-proves what the differential suite established.
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    xbar.set_kernel_policy(KernelPolicy::Reference);
    let expect = xbar.matvec(&input, &mut rng);
    for policy in [KernelPolicy::Scalar, KernelPolicy::Auto] {
        xbar.set_kernel_policy(policy);
        let got = xbar.matvec(&input, &mut rng);
        let same = got.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{policy:?} kernel diverged from reference on the binary tile");
    }
    assert!(xbar.packed_calls() > 0, "packed kernel must engage on the binary tile");
    let (reference_ns, rowmajor_ns, packed_ns) = time_policies(&mut xbar, &input, reps, calls);
    xbar.set_kernel_policy(KernelPolicy::Scalar);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    harness.bench("matvec/binary_rowmajor", |b| {
        b.iter(|| black_box(xbar.matvec(&input, &mut rng)))
    });
    xbar.set_kernel_policy(KernelPolicy::Auto);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    harness.bench("matvec/binary_packed", |b| {
        b.iter(|| black_box(xbar.matvec(&input, &mut rng)))
    });
    kernel.push(KernelRow {
        rows: rows as f64,
        cols: cols as f64,
        ops_per_call: ops,
        reference_ns_per_call: reference_ns,
        rowmajor_ns_per_call: rowmajor_ns,
        packed_ns_per_call: packed_ns,
        reference_gops: ops / reference_ns,
        rowmajor_gops: ops / rowmajor_ns,
        packed_gops: ops / packed_ns,
        kernel_speedup: reference_ns / rowmajor_ns,
        packed_vs_rowmajor: rowmajor_ns / packed_ns,
        packed_engaged: 1.0,
    });

    (kernel, harness.into_results())
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--check") {
        return check_results();
    }
    let fast = neuspin_bench::fast_mode();

    println!("== Throughput baseline: crossbar kernels + parallel MC engine ==");
    println!("kernel level: {}\n", neuspin_cim::kernel_isa());
    let (kernel, kernel_timing) = kernel_bench(fast);
    for row in &kernel {
        let tile = if row.packed_engaged == 1.0 { "binary" } else { "analog" };
        println!(
            "matvec {}x{} [{tile}]: reference {:.0} ns/call ({:.3} GOP/s)  row-major {:.0} ns/call ({:.3} GOP/s, {:.2}x)  packed/auto {:.0} ns/call ({:.3} GOP/s, {:.2}x vs row-major)",
            row.rows,
            row.cols,
            row.reference_ns_per_call,
            row.reference_gops,
            row.rowmajor_ns_per_call,
            row.rowmajor_gops,
            row.kernel_speedup,
            row.packed_ns_per_call,
            row.packed_gops,
            row.packed_vs_rowmajor,
        );
    }
    println!();

    // The throughput model uses paper-scale layer widths (NeuSpin's
    // backbones are VGG-small-class networks, not 8-channel toys): the
    // conv-2 and FC crossbars then have hundreds of word lines, which is
    // the regime the row-major kernel targets. Accuracy is irrelevant
    // here, so one training epoch suffices.
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
    let batches: Vec<usize> = if fast { vec![8, 24] } else { vec![32, 128] };
    let thread_counts = [1usize, 2, 4];
    const PREDICT_SEED: u64 = 0x7457_0001;

    let (train, calib, _test) = setup.datasets();
    eprintln!("training SpinDrop backbone ...");
    let mut model = setup.train(Method::SpinDrop, &train);
    // Full non-ideality model (the fault-management E2E convention):
    // defects, 5 % read noise, 6-bit ADCs, and IR drop — the workload
    // the row-major kernel's precomputed denominator table targets.
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

    let reps = if fast { 1 } else { 3 };
    let passes = setup.passes as f64;
    let mut mc = Vec::new();
    let mut alloc = Vec::new();
    println!(
        "{:>14} {:>8} {:>7} {:>14} {:>14} {:>12} {:>9}",
        "engine", "threads", "batch", "ms/predict", "mc passes/s", "preds/s", "speedup"
    );
    for &batch in &batches {
        let inputs = dataset(batch, &setup.style, &mut setup.rng(0x7460 + batch as u64)).inputs;

        hw.set_kernel_policy(KernelPolicy::Reference);
        let expect = hw.predict_seeded(&inputs, PREDICT_SEED);
        let ref_ns = time_ns_per_call(reps, 1, || {
            black_box(hw.predict_seeded(&inputs, PREDICT_SEED));
        });
        hw.set_kernel_policy(KernelPolicy::Auto);

        // The recorded pre-optimization baseline only applies to the
        // full-mode `seq` engine at the batch sizes it was captured at.
        let recorded_ns = if fast {
            None
        } else {
            RECORDED_SEQ_NS.iter().find(|(b, _)| *b == batch as f64).map(|&(_, ns)| ns)
        };
        let push = |engine: &str, threads: usize, ns: f64, mc: &mut Vec<McRow>| {
            let vs_recorded = match recorded_ns {
                Some(base) if engine == "seq" => base / ns,
                _ => 0.0,
            };
            let row = McRow {
                engine: engine.to_string(),
                threads: threads as f64,
                batch: batch as f64,
                passes,
                ns_per_predict: ns,
                mc_passes_per_s: passes / (ns / 1e9),
                predictions_per_s: batch as f64 / (ns / 1e9),
                speedup_vs_seq_reference: ref_ns / ns,
                speedup_vs_recorded_baseline: vs_recorded,
            };
            println!(
                "{:>14} {:>8} {:>7} {:>14.2} {:>14.1} {:>12.1} {:>8.2}x",
                row.engine,
                threads,
                batch,
                ns / 1e6,
                row.mc_passes_per_s,
                row.predictions_per_s,
                row.speedup_vs_seq_reference,
            );
            if vs_recorded > 0.0 {
                println!("{:>14} {:>56.2}x vs recorded baseline", "", vs_recorded);
            }
            mc.push(row);
        };

        push("seq_reference", 1, ref_ns, &mut mc);

        let got = hw.predict_seeded(&inputs, PREDICT_SEED);
        assert_eq!(got, expect, "row-major kernel diverged from reference (batch {batch})");
        let seq_ns = time_ns_per_call(reps, 1, || {
            black_box(hw.predict_seeded(&inputs, PREDICT_SEED));
        });
        push("seq", 1, seq_ns, &mut mc);

        for &threads in &thread_counts {
            let pool = ThreadPool::new(threads);
            let got = hw.predict_par(&inputs, PREDICT_SEED, &pool);
            assert_eq!(got, expect, "parallel engine diverged ({threads} threads, batch {batch})");
            let par_ns = time_ns_per_call(reps, 1, || {
                black_box(hw.predict_par(&inputs, PREDICT_SEED, &pool));
            });
            push("par", threads, par_ns, &mut mc);
        }

        // --- allocation discipline (the tentpole gate) ---
        // The plan is warm from the timing loops above; count heap
        // events over a window of steady-state planned passes.
        let warm_passes = if fast { 4usize } else { 8 };
        let mut rng = StdRng::seed_from_u64(PREDICT_SEED);
        black_box(hw.forward_planned(&inputs, true, &mut rng));
        let (_, warm_alloc_events) = count_allocs(|| {
            let mut rng = StdRng::seed_from_u64(PREDICT_SEED);
            for _ in 0..warm_passes {
                black_box(hw.forward_planned(&inputs, true, &mut rng));
            }
        });
        // Per-call fixed cost of a whole warm prediction (spans, the
        // accumulator, the returned `Predictive`) — informational.
        let (_, warm_predict_alloc_events) = count_allocs(|| {
            black_box(hw.predict_seeded(&inputs, PREDICT_SEED));
        });
        // Differential probe: the per-call cost above is independent of
        // the pass count, so extra passes must add exactly zero events.
        let base_passes = hw.passes();
        let (_, base_events) = count_allocs(|| {
            black_box(hw.predict_seeded(&inputs, PREDICT_SEED));
        });
        hw.set_passes(base_passes + ALLOC_EXTRA_PASSES);
        black_box(hw.predict_seeded(&inputs, PREDICT_SEED));
        let (_, more_events) = count_allocs(|| {
            black_box(hw.predict_seeded(&inputs, PREDICT_SEED));
        });
        hw.set_passes(base_passes);
        let allocs_per_extra_pass =
            (more_events as f64 - base_events as f64) / ALLOC_EXTRA_PASSES as f64;
        alloc.push(AllocRow {
            batch: batch as f64,
            warm_passes_measured: warm_passes as f64,
            warm_alloc_events: warm_alloc_events as f64,
            allocs_per_extra_pass,
            warm_predict_alloc_events: warm_predict_alloc_events as f64,
            plan_scratch_bytes: hw.scratch_bytes() as f64,
        });
    }

    println!(
        "\n{:>7} {:>12} {:>12} {:>16} {:>16} {:>14}",
        "batch", "warm passes", "warm allocs", "per extra pass", "predict allocs", "scratch KiB"
    );
    for row in &alloc {
        println!(
            "{:>7} {:>12} {:>12} {:>16.2} {:>16} {:>14.1}",
            row.batch,
            row.warm_passes_measured,
            row.warm_alloc_events,
            row.allocs_per_extra_pass,
            row.warm_predict_alloc_events,
            row.plan_scratch_bytes / 1024.0,
        );
    }

    let report = Report {
        host_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as f64,
        kernel_isa: neuspin_cim::kernel_isa().to_string(),
        fast_mode: if fast { 1.0 } else { 0.0 },
        kernel,
        kernel_timing,
        mc,
        alloc,
    };
    println!("\n→ every engine returns bit-identical Predictive (asserted above);");
    println!("  on few-core hosts the kernel speedup, not thread scaling, is the win.");
    write_json("exp_throughput", &report);
    let root = std::env::var("NEUSPIN_BENCH_ROOT").unwrap_or_else(|_| ".".to_string());
    let bench_path = std::path::Path::new(&root).join("BENCH_throughput.json");
    std::fs::create_dir_all(&root).expect("cannot create bench root");
    std::fs::write(&bench_path, report.to_json().to_string_pretty())
        .expect("cannot write BENCH_throughput.json");
    println!("[wrote {}]", bench_path.display());
    ExitCode::SUCCESS
}
