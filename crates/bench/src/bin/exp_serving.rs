//! **Serving-under-degradation campaign**: stands up the `core::serve`
//! HTTP front door over a three-die [`DieFleet`] and load-tests it
//! while one die ages to the Abstain tier mid-traffic.
//!
//! Scenario:
//!
//! 1. Commission three dies (independent seeds, drift aging enabled)
//!    and start the server: batching queue, abstention-aware routing,
//!    per-die telemetry.
//! 2. Phase A: four closed-loop clients stream `POST /predict`
//!    requests at the fleet.
//! 3. Mid-traffic, die 0 is aged (conductance drift over hundreds of
//!    device-hours) and its abstention threshold collapses — the next
//!    batch it serves latches [`HealthPolicy::Abstain`]. The samples of
//!    that batch are re-served on a healthy die (per-sample failover);
//!    every later batch routes around die 0 entirely.
//! 4. Phase B: traffic continues; a final quiescence burst proves the
//!    abstaining die receives nothing.
//!
//! Reported: sustained RPS, client-side p50/p95/p99 latency,
//! drop/shed/failover/abstain counters, per-die health tiers and
//! served counts, and the Prometheus exposition with the per-die
//! health-tier gauges. `--check` re-parses the emitted JSON and gates:
//! zero drops, request conservation (accepted == terminal outcomes),
//! failover engaged, die 0 latched + quiesced, p99 under 500 ms, every
//! 200 carrying a parseable `X-NeuSpin-Trace` header that names the
//! serving die, the per-stage waterfall histograms complete on the
//! tuned buckets, and a clean SLO window (availability 1, zero availability burn) off
//! `GET /debug/slo`.
//!
//! ```sh
//! cargo run --release -p neuspin-bench --bin exp_serving
//! NEUSPIN_BENCH_FAST=1 cargo run --release -p neuspin-bench --bin exp_serving
//! cargo run --release -p neuspin-bench --bin exp_serving -- --check
//! ```
//!
//! Artifacts: `results/exp_serving.json`,
//! `results/exp_serving_prometheus.txt`, and `BENCH_serving.json` at
//! the workspace root (override with `NEUSPIN_BENCH_ROOT`).

use neuspin_bayes::{build_cnn, ArchConfig, Method};
use neuspin_bench::artifact::{self, Artifact};
use neuspin_bench::timing::percentile;
use neuspin_bench::{results_dir, write_bench, write_json, write_side, P99_BUDGET_MS};
use neuspin_cim::CrossbarConfig;
use neuspin_core::json;
use neuspin_core::serve::client;
use neuspin_core::{
    serve, telemetry, DieFleet, HardwareConfig, HardwareModel, HealthConfig, HealthPolicy,
    RequestTrace, ServeConfig, Supervisor, SupervisorConfig,
};
use neuspin_device::AgingConfig;
use neuspin_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const DIES: usize = 3;
const CLIENTS: usize = 4;
const MASTER_SEED: u64 = 0x5E84_0001;
/// Device-hours of conductance drift applied to die 0 mid-traffic.
const AGE_HOURS: f64 = 500.0;

struct Params {
    arch: ArchConfig,
    passes: usize,
    /// Requests per client per phase (two phases).
    per_phase: usize,
    /// Requests in the post-latch quiescence burst.
    quiesce: usize,
}

fn params(fast: bool) -> Params {
    if fast {
        Params {
            arch: ArchConfig {
                c1: 2,
                c2: 4,
                hidden: 16,
                classes: 4,
                side: 8,
                ..ArchConfig::default()
            },
            passes: 3,
            per_phase: 12,
            quiesce: 8,
        }
    } else {
        Params {
            arch: ArchConfig {
                c1: 4,
                c2: 8,
                hidden: 32,
                classes: 10,
                side: 16,
                ..ArchConfig::default()
            },
            passes: 6,
            per_phase: 50,
            quiesce: 20,
        }
    }
}

/// One commissioned die: ideal crossbar + drift aging, independent
/// seed, abstention calibrated at high coverage (so healthy dies
/// rarely abstain and the degradation signal stands out).
fn die(p: &Params, seed: u64) -> Supervisor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sw = build_cnn(Method::SpinDrop, &p.arch, &mut rng);
    let config = HardwareConfig {
        crossbar: CrossbarConfig::ideal(),
        passes: p.passes,
        ..HardwareConfig::default()
    };
    let mut hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &p.arch, &config, &mut rng);
    hw.enable_aging(&AgingConfig { seed: seed ^ 0xA9, drift_rate: 0.002, ..AgingConfig::default() });
    // Generous monitor slack: synthetic load-test traffic must not trip
    // the drift detectors on its own, so the only thing that can latch a
    // die during the campaign is the mid-run abstention collapse.
    let health = HealthConfig { entropy_slack: 4.0, margin_slack: 4.0, ..HealthConfig::default() };
    let mut sup = Supervisor::new(
        hw,
        SupervisorConfig { seed, coverage: 0.98, health, ..SupervisorConfig::default() },
    );
    let side = p.arch.side;
    let calib = Tensor::from_fn(&[32, 1, side, side], |i| ((i * 13 % 97) as f32 / 97.0) - 0.5);
    let monitor = Tensor::from_fn(&[8, 1, side, side], |i| ((i * 7 % 89) as f32 / 89.0) - 0.5);
    sup.commission(calib, &monitor);
    sup
}

fn sample(len: usize, tag: usize) -> Vec<f32> {
    (0..len).map(|i| (((i * 31 + tag * 131) % 83) as f32 / 83.0) - 0.5).collect()
}

/// One client observation.
#[derive(Clone, Copy)]
struct Obs {
    status: u16,
    die: i64,
    abstained: bool,
    latency_ms: f64,
    /// 0 = phase A, 1 = phase B, 2 = quiescence burst.
    phase: u8,
    /// The 200 carried an `X-NeuSpin-Trace` header that parsed and
    /// named the same die as the body.
    traced: bool,
}

fn send_one(addr: std::net::SocketAddr, input: &[f32], phase: u8) -> Obs {
    let start = Instant::now();
    match client::predict(addr, input, Duration::from_secs(30)) {
        Ok(resp) => {
            let latency_ms = start.elapsed().as_secs_f64() * 1e3;
            let body = json::parse(&resp.text()).unwrap_or(json::Json::Null);
            let die = body.get("die").and_then(json::Json::as_f64).map_or(-1, |d| d as i64);
            let traced = resp
                .header("x-neuspin-trace")
                .and_then(RequestTrace::parse_header)
                .is_some_and(|t| t.die as i64 == die);
            Obs {
                status: resp.status,
                die,
                abstained: body.get("abstained").and_then(json::Json::as_bool).unwrap_or(false),
                latency_ms,
                phase,
                traced,
            }
        }
        // Transport failure = a dropped request: the one thing the
        // campaign exists to prove never happens.
        Err(_) => {
            Obs { status: 0, die: -1, abstained: false, latency_ms: -1.0, phase, traced: false }
        }
    }
}

#[derive(Debug)]
struct Report {
    fast_mode: f64,
    host_threads: f64,
    dies: f64,
    clients: f64,
    total_requests: f64,
    responses_200: f64,
    responses_abstained: f64,
    /// Transport failures (no HTTP response at all).
    dropped: f64,
    shed: f64,
    failovers: f64,
    sample_retries: f64,
    unserveable: f64,
    deadline_expired: f64,
    /// 1 when the server's request-conservation law held at quiescence
    /// (accepted == sum of terminal outcomes).
    stats_conserved: f64,
    duration_s: f64,
    sustained_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    /// 1 when die 0's latched policy ended at Abstain.
    die0_latched_abstain: f64,
    /// Samples served by die 0 after its latch (must be 0).
    die0_served_after_latch: f64,
    /// Requests answered by die 0 during phase B / quiescence.
    post_latch_die0_responses: f64,
    /// Final latched tier per die (0–3).
    die_tiers: Vec<f64>,
    /// Lifetime served samples per die.
    die_served: Vec<f64>,
    /// 1 when the Prometheus exposition carries every per-die tier
    /// gauge.
    gauges_reported: f64,
    /// 200s whose `X-NeuSpin-Trace` header parsed and matched the body.
    traced_200: f64,
    /// 1 when every per-stage latency histogram exists, uses the tuned
    /// serve-latency bucket boundaries, and observed every answer.
    stage_histograms_ok: f64,
    /// Rolling-window availability from `/debug/slo` at quiescence.
    slo_availability: f64,
    /// Availability burn rate at quiescence (0 on an all-200 campaign).
    slo_availability_burn: f64,
    /// Latency burn rate at quiescence (wall-clock; not gated).
    slo_latency_burn: f64,
}

neuspin_core::impl_to_json!(Report {
    fast_mode,
    host_threads,
    dies,
    clients,
    total_requests,
    responses_200,
    responses_abstained,
    dropped,
    shed,
    failovers,
    sample_retries,
    unserveable,
    deadline_expired,
    stats_conserved,
    duration_s,
    sustained_rps,
    p50_ms,
    p95_ms,
    p99_ms,
    die0_latched_abstain,
    die0_served_after_latch,
    post_latch_die0_responses,
    die_tiers,
    die_served,
    gauges_reported,
    traced_200,
    stage_histograms_ok,
    slo_availability,
    slo_availability_burn,
    slo_latency_burn,
});

fn check() -> Result<String, String> {
    let artifact = Artifact::result("exp_serving.json")?;
    let report = artifact.root();

    // 1. Zero drops: every request got a terminal 200 — nothing lost
    //    to the degradation, nothing timed out, nothing unserveable.
    let total = report.num("total_requests")?;
    report.ensure(total > 0.0, || format!("total_requests must be positive, got {total}"))?;
    for key in ["dropped", "unserveable", "deadline_expired"] {
        report.expect(key, 0.0)?;
    }
    report.expect("responses_200", total)?;
    // The server's request-conservation law held at quiescence.
    report.expect("stats_conserved", 1.0)?;

    // 2. Failover engaged: the latching batch's samples were re-served
    //    on a healthy die (and/or whole batches were retried).
    let failovers = report.num("failovers")?;
    let retries = report.num("sample_retries")?;
    report.ensure(failovers + retries >= 1.0, || {
        format!("failover never engaged (failovers {failovers}, sample_retries {retries})")
    })?;

    // 3. The degraded die latched Abstain and went quiet.
    report.expect("die0_latched_abstain", 1.0)?;
    report.expect("die0_served_after_latch", 0.0)?;
    let abstain = f64::from(HealthPolicy::Abstain.tier_index());
    let die0 = report.nums("die_tiers")?[0];
    report.ensure(die0 == abstain, || format!("die_tiers[0] = {die0}, want Abstain ({abstain})"))?;

    // 4. Latency: p99 under budget, percentiles ordered.
    let (p50, p95, p99) = (report.num("p50_ms")?, report.num("p95_ms")?, report.num("p99_ms")?);
    report.ensure(0.0 < p50 && p50 <= p95 && p95 <= p99, || {
        format!("percentiles disordered: p50_ms {p50}, p95_ms {p95}, p99_ms {p99}")
    })?;
    report.ensure(p99 <= P99_BUDGET_MS, || {
        format!("p99_ms {p99:.1} over the {P99_BUDGET_MS:.0} ms budget")
    })?;

    // 5. Per-die health-tier gauges made it into the exposition.
    report.expect("gauges_reported", 1.0)?;
    artifact::read(&results_dir().join("exp_serving_prometheus.txt"))?;

    // 6. Lineage: every 200 carried a parseable trace header naming
    //    the serving die; the stage waterfall histograms observed every
    //    answer on the tuned buckets; the SLO window shows a clean
    //    campaign (availability 1, zero availability burn).
    report.expect("traced_200", total)?;
    report.expect("stage_histograms_ok", 1.0)?;
    report.expect("slo_availability", 1.0)?;
    report.expect("slo_availability_burn", 0.0)?;

    Ok(format!(
        "exp_serving.json: {total} requests, zero drops, failover engaged \
         ({failovers} batch + {retries} sample), die 0 latched+quiet, \
         p50/p95/p99 {p50:.1}/{p95:.1}/{p99:.1} ms (budget {P99_BUDGET_MS:.0})",
    ))
}

fn main() -> ExitCode {
    artifact::main(run, check)
}

fn run() -> ExitCode {
    let fast = neuspin_bench::fast_mode();
    let p = params(fast);
    let input_len = p.arch.side * p.arch.side;
    println!("== Serving under degradation: {DIES} dies, {CLIENTS} clients ==\n");

    telemetry::set_enabled(true, false);
    telemetry::reset();

    eprintln!("commissioning {DIES} dies ...");
    let fleet =
        DieFleet::new((0..DIES).map(|i| die(&p, MASTER_SEED + i as u64)).collect());
    let config = ServeConfig {
        input_shape: vec![1, p.arch.side, p.arch.side],
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        queue_capacity: 256,
        conn_capacity: 256,
        http_workers: CLIENTS,
        request_timeout: Duration::from_secs(20),
        seed: MASTER_SEED,
        ..ServeConfig::default()
    };
    let mut handle = serve(fleet, config).expect("bind serving socket");
    let addr = handle.addr();
    println!("serving on {addr}");

    // Two traffic phases around the mid-run degradation, fenced by
    // barriers so the aging lands between them deterministically.
    let half_done = Arc::new(Barrier::new(CLIENTS + 1));
    let resume = Arc::new(Barrier::new(CLIENTS + 1));
    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let half_done = Arc::clone(&half_done);
            let resume = Arc::clone(&resume);
            let per_phase = p.per_phase;
            std::thread::spawn(move || {
                let mut obs = Vec::with_capacity(2 * per_phase);
                for r in 0..per_phase {
                    obs.push(send_one(addr, &sample(input_len, c * 10_000 + r), 0));
                }
                half_done.wait();
                resume.wait();
                for r in 0..per_phase {
                    obs.push(send_one(addr, &sample(input_len, c * 10_000 + 5_000 + r), 1));
                }
                obs
            })
        })
        .collect();

    half_done.wait();
    // Mid-traffic degradation: age die 0's conductances by AGE_HOURS of
    // drift, and collapse its abstention threshold (standing in for
    // entropy rising past the calibrated threshold on the aged part).
    // The monitor only notices when traffic arrives — the next batch
    // die 0 serves latches Abstain and fails its samples over.
    eprintln!("aging die 0: {AGE_HOURS} h of drift + abstention-threshold collapse");
    handle.fleet().with_die(0, |sup| {
        sup.model_mut().advance_time(AGE_HOURS);
        sup.monitor_mut().set_abstain_entropy(1e-6);
    });
    resume.wait();

    let mut observations: Vec<Obs> =
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect();
    let duration_s = started.elapsed().as_secs_f64();

    // Die 0 must have latched during phase B; freeze its served count
    // and prove the quiescence burst routes around it entirely.
    let die0_latched = handle.fleet().tier(0) == HealthPolicy::Abstain;
    let die0_served_at_latch = handle.fleet().served(0);
    for r in 0..p.quiesce {
        observations.push(send_one(addr, &sample(input_len, 90_000 + r), 2));
    }
    let die0_served_after = handle.fleet().served(0) - die0_served_at_latch;

    let die_tiers: Vec<f64> =
        (0..DIES).map(|d| f64::from(handle.fleet().tier(d).tier_index())).collect();
    let die_served: Vec<f64> = (0..DIES).map(|d| handle.fleet().served(d) as f64).collect();
    let stats = handle.stats();
    let prometheus = telemetry::prometheus_text();
    let gauges_reported =
        (0..DIES).all(|d| prometheus.contains(&format!("serve_die{d}_tier")));

    // SLO report at quiescence, straight off the debug endpoint.
    let slo = client::request(addr, "GET", "/debug/slo", None, Duration::from_secs(10))
        .ok()
        .and_then(|r| json::parse(&r.text()).ok())
        .unwrap_or(json::Json::Null);
    let slo_num = |key: &str| slo.get(key).and_then(json::Json::as_f64).unwrap_or(-1.0);

    // Per-stage waterfall histograms: present, on the tuned serve
    // buckets, and fed by every answered request.
    let ok_so_far = observations.iter().filter(|o| o.status == 200).count() as u64;
    let snap = telemetry::snapshot();
    let tuned = telemetry::serve_latency_buckets_ms().to_vec();
    let stage_histograms_ok = [
        "serve_stage_queue_wait_ms",
        "serve_stage_batch_assembly_ms",
        "serve_stage_die_compute_ms",
        "serve_stage_retry_ms",
        "serve_stage_write_ms",
        "serve_request_ms",
    ]
    .iter()
    .all(|name| {
        snap.histogram(name)
            .is_some_and(|h| h.bounds == tuned && h.count == ok_so_far)
    });

    let drain = handle.shutdown(Duration::from_secs(10));
    telemetry::set_enabled(false, false);
    telemetry::reset();

    let total = observations.len();
    let ok = observations.iter().filter(|o| o.status == 200).count();
    let abstained = observations.iter().filter(|o| o.status == 200 && o.abstained).count();
    let dropped = observations.iter().filter(|o| o.status == 0).count();
    let post_latch_die0 =
        observations.iter().filter(|o| o.phase > 0 && o.die == 0).count();
    let mut latencies: Vec<f64> =
        observations.iter().filter(|o| o.latency_ms >= 0.0).map(|o| o.latency_ms).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let (p50, p95, p99) = (
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
    );

    println!("\n{total} requests in {duration_s:.2} s → {:.1} req/s", total as f64 / duration_s);
    println!("  200: {ok}  (abstained flag: {abstained})   dropped: {dropped}");
    println!(
        "  shed: {}  failovers: {}  sample retries: {}  unserveable: {}  expired: {}",
        stats.shed, stats.failovers, stats.sample_retries, stats.unserveable,
        stats.deadline_expired,
    );
    println!("  latency p50/p95/p99: {p50:.2}/{p95:.2}/{p99:.2} ms");
    println!(
        "  die tiers: {die_tiers:?}  served: {die_served:?}  die0 after latch: +{die0_served_after}"
    );
    println!("  drain: {drain:?}");

    let report = Report {
        fast_mode: if fast { 1.0 } else { 0.0 },
        host_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as f64,
        dies: DIES as f64,
        clients: CLIENTS as f64,
        total_requests: total as f64,
        responses_200: ok as f64,
        responses_abstained: abstained as f64,
        dropped: dropped as f64,
        shed: stats.shed as f64,
        failovers: stats.failovers as f64,
        sample_retries: stats.sample_retries as f64,
        unserveable: stats.unserveable as f64,
        deadline_expired: stats.deadline_expired as f64,
        stats_conserved: if stats.is_conserved() { 1.0 } else { 0.0 },
        duration_s,
        sustained_rps: total as f64 / duration_s,
        p50_ms: p50,
        p95_ms: p95,
        p99_ms: p99,
        die0_latched_abstain: if die0_latched { 1.0 } else { 0.0 },
        die0_served_after_latch: die0_served_after as f64,
        post_latch_die0_responses: post_latch_die0 as f64,
        die_tiers,
        die_served,
        gauges_reported: if gauges_reported { 1.0 } else { 0.0 },
        traced_200: observations.iter().filter(|o| o.status == 200 && o.traced).count()
            as f64,
        stage_histograms_ok: if stage_histograms_ok { 1.0 } else { 0.0 },
        slo_availability: slo_num("availability"),
        slo_availability_burn: slo_num("availability_burn"),
        slo_latency_burn: slo_num("latency_burn"),
    };

    write_json("exp_serving", &report);
    write_side("exp_serving_prometheus.txt", &prometheus);
    write_bench("serving", &report);

    if !die0_latched || dropped > 0 || !drain.drained {
        eprintln!("serving gate FAILED (see report)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
