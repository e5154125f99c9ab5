//! `serve_binary`: open-loop `POST /predict` traffic through the
//! `core::serve` HTTP front door over three commissioned noiseless dies
//! (c1=4, c2=8, hidden=32, 6 MC passes, stuck-at defects only). Requests
//! are sign-binarised ±1 digits, so the packed XNOR/popcount kernel
//! serves conv-1.
//!
//! End-to-end: `latency_p50_ms` / `latency_tail_ms` are
//! `serve_p50_ms` / `serve_tail_ms` at [`REF_RATE`], timed from each
//! request's due time; `ops_per_s` is `serve_max_rps`, the highest rate
//! on [`ladder`] whose tail stays under [`TAIL_LIMIT_MS`] with every
//! request answered and no growing generator backlog. The simulated
//! metrics and the output digest come from a deterministic replay of
//! the request pool through `DieFleet::predict_on` on a twin die: served
//! answers depend on how arrivals happened to batch.

use crate::common::{self, rng, secs, Run};
use crate::loadgen::{self, Obs};
use crate::stats::{self, median, sorted, tail, Window};
use crate::trace::{SpanId, Tracer, HARNESS};
use crate::Args;
use neuspin_bayes::{ArchConfig, Method};
use neuspin_cim::{BistConfig, CrossbarConfig};
use neuspin_core::json::Json;
use neuspin_core::serve::client;
use neuspin_core::telemetry::HistogramSnapshot;
use neuspin_core::{
    flight, serve, telemetry, DieFleet, HardwareConfig, HardwareModel, HealthConfig, ServeConfig,
    ServerHandle, Supervisor, SupervisorConfig,
};
use neuspin_data::digits::{dataset, DigitStyle};
use neuspin_device::{AgingConfig, DefectRates};
use neuspin_nn::{Dataset, Sequential, Tensor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::{Duration, Instant};

const DIES: usize = 3;
const PASSES: usize = 6;
const TRAIN_IMAGES: usize = 3000;
const TRAIN_BATCH: usize = 16;
/// Distinct request bodies per seed; the replay runs all of them.
const POOL: usize = 1024;
/// Batch size of the deterministic replay.
const REPLAY_BATCH: usize = 2;
/// Reference rate of the latency metrics, requests/s.
const REF_RATE: f64 = 150.0;
/// Tail latency limit of a passing ladder rung.
const TAIL_LIMIT_MS: f64 = 50.0;
/// Consecutive windows a phase's latencies are split into; the metrics
/// come from the least disturbed ones (see [`stats::best_window`]).
const WINDOWS: usize = 6;
/// Completed over scheduled requests/s (last due time over last
/// completion) below which a rung's backlog counts as growing.
const KEEP_UP: f64 = 0.95;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// The backbone and the dies are fixed; `--seed` drives the request
/// pool and the arrival schedule.
const DIE_SEED: u64 = 0x5E4B;

fn arch() -> ArchConfig {
    ArchConfig {
        c1: 4,
        c2: 8,
        hidden: 32,
        classes: 10,
        side: 16,
        ..ArchConfig::default()
    }
}

/// The rate ladder, requests/s: 8 % steps from 100.
fn ladder() -> Vec<f64> {
    (0..32).map(|k| (100.0 * 1.08f64.powi(k)).round()).collect()
}

/// Everything the dies are built from.
struct Backbone {
    sw: Sequential,
    calib: Tensor,
    monitor: Tensor,
}

#[derive(Default)]
struct SetupTimes {
    train: f64,
    compile: f64,
    fault_management: f64,
    calibrate: f64,
    total: f64,
}

fn backbone(times: &mut SetupTimes) -> Backbone {
    let style = DigitStyle::default();
    let mut r = rng(DIE_SEED, 1);
    let train = dataset(TRAIN_IMAGES, &style, &mut r);
    let train = Dataset::new(common::binarize(&train.inputs), train.labels);
    let calib = common::binarize(&dataset(32, &style, &mut r).inputs);
    let monitor = common::binarize(&dataset(8, &style, &mut r).inputs);
    let t = Instant::now();
    let sw = common::train_cnn(
        Method::SpinDrop,
        &arch(),
        &train,
        TRAIN_BATCH,
        &mut rng(DIE_SEED, 2),
    );
    times.train += secs(t);
    Backbone { sw, calib, monitor }
}

/// Die `i` of the fleet; the same call always builds the same die.
fn die(b: &mut Backbone, i: usize, times: &mut SetupTimes) -> Supervisor {
    let config = HardwareConfig {
        crossbar: CrossbarConfig {
            defect_rates: DefectRates {
                stuck_parallel: 0.01,
                stuck_antiparallel: 0.01,
                ..DefectRates::none()
            },
            read_noise: 0.0,
            adc_bits: Some(6),
            ir_drop: 0.0,
            ..CrossbarConfig::ideal()
        },
        spare_cols: 4,
        passes: PASSES,
        ..neuspin_core::reliability_base()
    };
    let tag = i as u64;
    let t = Instant::now();
    let mut hw = HardwareModel::compile(
        &mut b.sw,
        Method::SpinDrop,
        &arch(),
        &config,
        &mut rng(DIE_SEED, 0x100 + tag),
    );
    times.compile += secs(t);
    let t = Instant::now();
    hw.fault_management(&BistConfig::default(), &mut rng(DIE_SEED, 0x200 + tag));
    times.fault_management += secs(t);
    hw.enable_aging(&AgingConfig {
        seed: DIE_SEED ^ tag,
        ..AgingConfig::default()
    });
    // Generous drift slack: load-test traffic alone must not trip the
    // drift detectors.
    let health = HealthConfig {
        entropy_slack: 4.0,
        margin_slack: 4.0,
        ..HealthConfig::default()
    };
    let sup_config = SupervisorConfig {
        seed: DIE_SEED + tag,
        coverage: 0.98,
        health,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::new(hw, sup_config);
    sup.set_threads(1);
    let t = Instant::now();
    sup.commission(b.calib.clone(), &b.monitor);
    times.calibrate += secs(t);
    sup
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        input_shape: vec![1, 16, 16],
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        queue_capacity: 256,
        conn_capacity: 256,
        http_workers: common::host_threads(),
        batchers: 1,
        request_timeout: Duration::from_secs(5),
        seed,
        ..ServeConfig::default()
    }
}

/// Builds the fleet and binds the server.
fn setup(seed: u64) -> (ServerHandle, Backbone, SetupTimes) {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let mut b = backbone(&mut times);
    let dies = (0..DIES).map(|i| die(&mut b, i, &mut times)).collect();
    let handle = serve(DieFleet::new(dies), serve_config(seed)).expect("bind the serving socket");
    times.total = secs(start);
    (handle, b, times)
}

/// The seed's request pool: binarised labelled digits and their bodies.
fn request_pool(seed: u64) -> (Tensor, Vec<usize>, Vec<String>) {
    let data = dataset(POOL, &DigitStyle::default(), &mut rng(seed, 0x9001));
    let inputs = common::binarize(&data.inputs);
    let d = inputs.len() / POOL;
    let bodies = (0..POOL)
        .map(|i| {
            let px: Vec<String> = inputs.as_slice()[i * d..(i + 1) * d]
                .iter()
                .map(|x| format!("{x}"))
                .collect();
            format!("{{\"input\": [{}]}}", px.join(","))
        })
        .collect();
    (inputs, data.labels, bodies)
}

/// Traffic helper: one open-loop phase at `rate` for `secs` seconds.
struct Traffic<'a> {
    addr: std::net::SocketAddr,
    bodies: &'a [String],
    rng: StdRng,
    workers: usize,
    attempted: u64,
    failed: u64,
    invalid: u64,
}

impl Traffic<'_> {
    /// Returns the observations and how well completions kept up with
    /// the schedule: last due time over last completion time (1 = no
    /// backlog left).
    fn phase(&mut self, rate: f64, secs: f64, tr: &mut Tracer, parent: SpanId) -> (Vec<Obs>, f64) {
        let n = ((rate * secs).ceil() as usize).max(1);
        let due = loadgen::poisson_schedule(rate, n, &mut self.rng);
        let order: Vec<usize> = (0..n)
            .map(|_| self.rng.random_range(0..self.bodies.len()))
            .collect();
        let obs = loadgen::run(
            self.addr,
            self.bodies,
            &order,
            &due,
            self.workers,
            tr,
            parent,
        );
        self.attempted += obs.len() as u64;
        self.failed += obs.iter().filter(|o| o.status != 200).count() as u64;
        self.invalid += obs.iter().filter(|o| o.status == 200 && !o.valid).count() as u64;
        let end_s = due
            .iter()
            .zip(&obs)
            .map(|(&d, o)| d as f64 / 1e9 + o.latency_ms / 1e3)
            .fold(0.0, f64::max);
        let last_due_s = due.last().map_or(0.0, |&d| d as f64 / 1e9);
        (obs, last_due_s / end_s)
    }
}

fn latency_windows(obs: &[Obs]) -> Vec<Window> {
    stats::windows(
        &obs.iter().map(|o| o.latency_ms).collect::<Vec<_>>(),
        WINDOWS,
    )
}

/// Whether a ladder rung held: every request answered, the least
/// disturbed window's tail under the limit, and completions keeping up
/// with the schedule.
fn rung_holds(obs: &[Obs], keep_up: f64) -> bool {
    obs.iter().all(Obs::ok)
        && stats::best_window(&latency_windows(obs)).tail < TAIL_LIMIT_MS
        && keep_up >= KEEP_UP
}

/// Replays the request pool in fixed batches through a twin of die 0:
/// `(digest, energy µJ/pred, accuracy %, counter delta, packed delta)`.
struct Replay {
    digest: u64,
    energy_uj: f64,
    accuracy: f64,
    ops: neuspin_cim::OpCounter,
    packed: u64,
    fleet: DieFleet,
}

fn replay(b: &mut Backbone, inputs: &Tensor, labels: &[usize], seed: u64) -> Replay {
    let mut times = SetupTimes::default();
    let fleet = DieFleet::new(vec![die(b, 0, &mut times)]);
    let (e0, c0, p0) = fleet.with_die(0, |s| {
        (
            s.model().energy().0,
            s.model().counter(),
            s.model().packed_call_count(),
        )
    });
    let d = inputs.len() / POOL;
    let mut digest = 0u64;
    let mut correct = 0usize;
    for (k, start) in (0..POOL).step_by(REPLAY_BATCH).enumerate() {
        let end = (start + REPLAY_BATCH).min(POOL);
        let x = Tensor::from_vec(
            inputs.as_slice()[start * d..end * d].to_vec(),
            &[end - start, 1, 16, 16],
        );
        let report = fleet
            .predict_on(0, &x, seed ^ k as u64)
            .expect("replay die serves");
        digest = common::fold_digest(digest, report.predictive.bits_digest());
        correct += report
            .predictive
            .predictions()
            .iter()
            .zip(&labels[start..end])
            .filter(|(p, l)| p == l)
            .count();
    }
    let (e1, c1, p1) = fleet.with_die(0, |s| {
        (
            s.model().energy().0,
            s.model().counter(),
            s.model().packed_call_count(),
        )
    });
    Replay {
        digest,
        energy_uj: (e1 - e0) * 1e6 / POOL as f64,
        accuracy: 100.0 * correct as f64 / POOL as f64,
        ops: c1.since(&c0),
        packed: p1 - p0,
        fleet,
    }
}

/// Percentile `q` of a registry histogram, interpolated inside its
/// bucket (observations are uniform within a bucket by assumption).
fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q * h.count as f64;
    let mut seen = 0.0;
    for (i, &c) in h.buckets.iter().enumerate() {
        let lo = if i == 0 { 0.0 } else { h.bounds[i - 1] };
        let hi = h.bounds.get(i).copied().unwrap_or(lo);
        if seen + c as f64 >= target && c > 0 {
            return lo + (hi - lo) * (target - seen) / c as f64;
        }
        seen += c as f64;
    }
    *h.bounds.last().unwrap_or(&0.0)
}

fn served_total(fleet: &DieFleet) -> u64 {
    (0..fleet.len()).map(|d| fleet.served(d)).sum()
}

fn live_packed(fleet: &DieFleet) -> u64 {
    (0..fleet.len())
        .map(|d| fleet.with_die(d, |s| s.model().packed_call_count()))
        .sum()
}

pub fn run(args: &Args) -> Run {
    let mut run = Run::new(args);
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut last: Option<(ServerHandle, Backbone, SetupTimes)> = None;
    for _ in 0..repeats {
        if let Some((mut old, _, _)) = last.take() {
            old.shutdown(Duration::from_secs(5));
        }
        let (handle, b, times) = setup(args.seed);
        setups.push(times.total);
        last = Some((handle, b, times));
    }
    let (mut handle, mut b, times) = last.expect("at least one set-up");
    run.meta("setup_repeats", Json::Num(repeats as f64));
    run.meta(
        "setup_s_samples",
        Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
    );

    let workers = common::host_threads();
    let (inputs, labels, bodies) = request_pool(args.seed);
    let mut traffic = Traffic {
        addr: handle.addr(),
        bodies: &bodies,
        rng: rng(args.seed, 0x7A11),
        workers,
        attempted: 0,
        failed: 0,
        invalid: 0,
    };
    let mut off = Tracer::new(false);
    let none = off.begin(HARNESS, "off");
    let packed0 = live_packed(handle.fleet());
    let served0 = served_total(handle.fleet());
    // Warm-up: connections, the dies' forward plans.
    let _ = traffic.phase(REF_RATE, 0.3, &mut off, none);

    if !args.trace {
        let (ref_obs, _) = traffic.phase(REF_RATE, 0.5 * args.seconds, &mut off, none);
        // Binary search of the ladder: ~5 rungs share the rest of the run.
        let ladder = ladder();
        let probe_secs = 0.5 * args.seconds / (ladder.len() as f64).log2().ceil();
        let (mut lo, mut hi) = (0usize, ladder.len());
        let mut rungs = Vec::new();
        // The search needs rung 0 to hold; it is probed like any other.
        let (first, keep_up) = traffic.phase(ladder[0], probe_secs, &mut off, none);
        let holds0 = rung_holds(&first, keep_up);
        rungs.push(rung_json(ladder[0], &first, keep_up, holds0));
        while holds0 && hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let (obs, keep_up) = traffic.phase(ladder[mid], probe_secs, &mut off, none);
            let holds = rung_holds(&obs, keep_up);
            rungs.push(rung_json(ladder[mid], &obs, keep_up, holds));
            if holds {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let max_rps = if holds0 { ladder[lo] } else { 0.0 };
        run.check("the lowest ladder rung holds", holds0);
        let ws = latency_windows(&ref_obs);
        let best = stats::best_window(&ws);
        let lag: Vec<f64> = ref_obs.iter().map(|o| o.lag_ms).collect();
        run.set("latency_p50_ms", best.p50);
        run.set("latency_tail_ms", best.tail);
        run.set("ops_per_s", max_rps);
        run.set("setup_s", median(&setups));
        run.meta(
            "reference",
            Json::obj([
                ("rate", Json::Num(REF_RATE)),
                ("requests", Json::Num(ref_obs.len() as f64)),
                ("window_samples", Json::Num(best.samples as f64)),
                ("tail_percentile", Json::Num(best.tail_pct)),
                (
                    "window_p50_ms",
                    Json::Arr(ws.iter().map(|w| Json::Num(w.p50)).collect()),
                ),
                (
                    "window_tail_ms",
                    Json::Arr(ws.iter().map(|w| Json::Num(w.tail)).collect()),
                ),
                ("generator_lag_ms_p50", Json::Num(median(&lag))),
                (
                    "generator_lag_ms_max",
                    Json::Num(sorted(&lag).last().copied().unwrap_or(0.0)),
                ),
            ]),
        );
        run.meta("ladder", Json::Arr(rungs));
        run.meta("tail_limit_ms", Json::Num(TAIL_LIMIT_MS));
        run.meta(
            "named_metrics",
            Json::obj([
                ("serve_p50_ms", Json::Num(best.p50)),
                ("serve_tail_ms", Json::Num(best.tail)),
                ("serve_tail_samples", Json::Num(best.samples as f64)),
                ("serve_max_rps", Json::Num(max_rps)),
            ]),
        );
    } else {
        traced_phase(&mut run, args, &mut traffic, &handle, &times);
    }
    let packed_live = live_packed(handle.fleet()) - packed0;
    let served = served_total(handle.fleet()) - served0;
    let (attempted, failed, invalid) = (traffic.attempted, traffic.failed, traffic.invalid);
    let drain = handle.shutdown(Duration::from_secs(10));
    let stats = handle.stats();
    run.attempted += attempted;
    run.failed += failed + invalid;
    run.check(
        format!("every request answered 200 ({failed} failed of {attempted})"),
        failed == 0,
    );
    run.check(
        format!("every 200 names its die in a parseable X-NeuSpin-Trace ({invalid} invalid)"),
        invalid == 0,
    );
    run.check("graceful drain", drain.drained);
    run.check("StatsSnapshot::is_conserved", stats.is_conserved());
    run.check(
        "every predict request reached a terminal answer",
        stats.answered + stats.abstained == attempted,
    );
    run.check("packed kernel engaged on the live fleet", packed_live > 0);
    run.meta("packed_call_delta", Json::Num(packed_live as f64));
    run.meta("served_samples", Json::Num(served as f64));

    let r = replay(&mut b, &inputs, &labels, args.seed);
    run.simulated(r.digest, r.energy_uj, r.accuracy);
    run.meta("replay_packed_call_delta", Json::Num(r.packed as f64));
    run.check("packed kernel engaged in the replay", r.packed > 0);
    if !args.trace {
        run.set("energy_uj_per_pred", r.energy_uj);
        run.set("accuracy_pct", r.accuracy);
        run.set("peak_rss_mb", common::peak_rss_mb());
        return run;
    }
    let preds = POOL as f64;
    run.set("cim.cell_reads_per_pred", r.ops.cell_reads as f64 / preds);
    run.set(
        "cim.adc_converts_per_pred",
        r.ops.adc_converts as f64 / preds,
    );
    run.set(
        "cim.adc_saturations_per_pred",
        r.ops.adc_saturations as f64 / preds,
    );
    run.set("device.rng_bits_per_pred", r.ops.rng_bits as f64 / preds);
    let calls = preds * PASSES as f64 * common::crossbar_calls_per_sample(&arch()) as f64;
    run.set("cim.packed_share", r.packed as f64 / calls);
    let spb = run
        .metrics
        .get("serve.samples_per_batch")
        .copied()
        .unwrap_or(1.0);
    let batch = (spb.round() as usize).max(1);
    let x = Tensor::from_vec(
        inputs.as_slice()[..batch * 256].to_vec(),
        &[batch, 1, 16, 16],
    );
    let mut serve_ms = Vec::new();
    for k in 0..100u64 {
        let t = Instant::now();
        r.fleet
            .predict_on(0, &x, args.seed ^ (0xF00 + k))
            .expect("replay die serves");
        serve_ms.push(secs(t) * 1e3);
    }
    run.set("runtime.serve_predict_ms", median(&serve_ms));
    let mut model = r.fleet.with_die(0, |s| s.model().clone());
    let mut pass_ms = Vec::new();
    for k in 0..100u64 {
        let mut g = StdRng::seed_from_u64(args.seed ^ k);
        let t = Instant::now();
        std::hint::black_box(model.forward_planned(&x, true, &mut g));
        pass_ms.push(secs(t) * 1e3);
    }
    run.set("model.pass_ms", median(&pass_ms));
    run.set("model.scratch_bytes", model.scratch_bytes() as f64);
    run.set("model.plan_rebuilds", model.plan_rebuilds() as f64);
    run
}

fn rung_json(rate: f64, obs: &[Obs], keep_up: f64, holds: bool) -> Json {
    let best = stats::best_window(&latency_windows(obs));
    Json::obj([
        ("rate", Json::Num(rate)),
        ("keep_up", Json::Num(keep_up)),
        ("requests", Json::Num(obs.len() as f64)),
        ("window_samples", Json::Num(best.samples as f64)),
        ("p50_ms", Json::Num(best.p50)),
        ("tail_ms", Json::Num(best.tail)),
        ("tail_percentile", Json::Num(best.tail_pct)),
        ("holds", Json::Bool(holds)),
    ])
}

/// The traced half: the reference phase untraced, then again with
/// registry metrics, the flight recorder and request spans on.
fn traced_phase(
    run: &mut Run,
    args: &Args,
    traffic: &mut Traffic,
    handle: &ServerHandle,
    times: &SetupTimes,
) {
    run.set("model.train_s", times.train);
    run.set("model.compile_s", times.compile);
    run.set("model.fault_management_s", times.fault_management);
    run.set("model.calibrate_s", times.calibrate);
    let secs_each = 0.3 * args.seconds;
    let mut off = Tracer::new(false);
    let none = off.begin(HARNESS, "off");
    let (plain, _) = traffic.phase(REF_RATE, secs_each, &mut off, none);

    telemetry::reset();
    telemetry::set_enabled(true, false);
    flight::reset();
    flight::set_capacity(1 << 20);
    flight::set_enabled(true);
    let served0 = served_total(handle.fleet());
    let stats0 = handle.stats();
    let mut tr = Tracer::new(true);
    let root = tr.begin(HARNESS, "serve_binary");
    let (traced, _) = traffic.phase(REF_RATE, secs_each, &mut tr, root);
    tr.end(root);
    let mut http_ms = Vec::new();
    let mut healthz_ok = 0;
    for _ in 0..100 {
        let t = Instant::now();
        let span = tr.begin("core::serve", "GET /healthz");
        let ok = client::request(
            handle.addr(),
            "GET",
            "/healthz",
            None,
            Duration::from_secs(5),
        )
        .is_ok_and(|r| r.status == 200);
        tr.end(span);
        http_ms.push(secs(t) * 1e3);
        healthz_ok += usize::from(ok);
    }
    run.check(
        "every GET /healthz answered 200",
        healthz_ok == http_ms.len(),
    );
    let snap = telemetry::snapshot();
    let routes = flight::snapshot()
        .iter()
        .filter(|e| e.kind == "route")
        .count();
    let served = served_total(handle.fleet()) - served0;
    let stats = handle.stats();
    flight::set_enabled(false);
    telemetry::set_enabled(false, false);

    let med = |o: &[Obs]| median(&o.iter().map(|x| x.latency_ms).collect::<Vec<_>>());
    run.set(
        "trace.overhead_pct",
        100.0 * (med(&traced) / med(&plain) - 1.0),
    );
    for (p50, tail_metric, hist) in [
        (
            "serve.queue_wait_ms.p50",
            "serve.queue_wait_ms.tail",
            "serve_stage_queue_wait_ms",
        ),
        (
            "serve.batch_assembly_ms.p50",
            "serve.batch_assembly_ms.tail",
            "serve_stage_batch_assembly_ms",
        ),
        (
            "serve.die_compute_ms.p50",
            "serve.die_compute_ms.tail",
            "serve_stage_die_compute_ms",
        ),
        (
            "serve.write_ms.p50",
            "serve.write_ms.tail",
            "serve_stage_write_ms",
        ),
    ] {
        let h = snap.histogram(hist).cloned().unwrap_or(HistogramSnapshot {
            name: hist.to_string(),
            bounds: Vec::new(),
            buckets: vec![0],
            count: 0,
            sum: 0.0,
        });
        let tail_q = if h.count > 10 {
            1.0 - 10.0 / h.count as f64
        } else {
            1.0
        };
        run.set(p50, hist_quantile(&h, 0.5));
        run.set(tail_metric, hist_quantile(&h, tail_q));
    }
    run.set("serve.http_only_ms", median(&http_ms));
    run.set(
        "serve.samples_per_batch",
        served as f64 / routes.max(1) as f64,
    );
    run.set("serve.shed", (stats.shed - stats0.shed) as f64);
    run.set(
        "serve.failovers",
        (stats.failovers - stats0.failovers) as f64,
    );
    run.set(
        "serve.sample_retries",
        (stats.sample_retries - stats0.sample_retries) as f64,
    );
    run.set(
        "serve.answered_ratio",
        (stats.answered - stats0.answered) as f64 / traced.len().max(1) as f64,
    );
    let lag: Vec<f64> = plain.iter().map(|o| o.lag_ms).collect();
    run.set("serve.generator_lag_ms.p50", median(&lag));
    run.set("serve.generator_lag_ms.tail", tail(&lag).1);
    run.check(
        "traced requests answered like untraced ones",
        traced.iter().all(Obs::ok) && plain.iter().all(Obs::ok),
    );
    common::span_shares(run, &tr, root);
    common::write_spans(run, args, &tr);
    run.meta(
        "samples",
        Json::obj([
            ("untraced_requests", Json::Num(plain.len() as f64)),
            ("traced_requests", Json::Num(traced.len() as f64)),
            (
                "stage_histogram_count",
                Json::Num(
                    snap.histogram("serve_stage_queue_wait_ms")
                        .map_or(0.0, |h| h.count as f64),
                ),
            ),
            ("route_events", Json::Num(routes as f64)),
            ("healthz_probes", Json::Num(http_ms.len() as f64)),
        ]),
    );
}
