//! `neuspin-serve`: the fault-tolerant batched inference front door.
//!
//! A zero-dependency HTTP/1.1 server over [`std::net::TcpListener`]
//! and the existing [`ThreadPool`], serving a [`DieFleet`] of
//! independently-aging simulated dies:
//!
//! * `POST /predict` — one sample in (`{"input": [f32; D]}`), one
//!   uncertainty-annotated answer out. Requests coalesce in a bounded
//!   [`BatchQueue`] under a max-batch / max-wait policy before hitting
//!   the batched Monte-Carlo predict path.
//! * `GET /healthz` — fleet status: per-die latched health tier and
//!   served-sample counts.
//! * `GET /metrics` — the existing Prometheus text exposition
//!   ([`crate::telemetry::prometheus_text`]).
//! * `GET /debug/flight` — the flight recorder's current ring as
//!   JSONL ([`crate::flight`]); `GET /debug/slo` — the rolling
//!   availability/latency burn-rate report ([`trace::SloTracker`]).
//!
//! **Routing.** Every batch goes to the healthiest least-loaded die
//! ([`DieFleet::pick`]). A die whose latched policy is Abstain refuses
//! the batch and the batcher fails over — bounded retries, jittered
//! exponential backoff — to the next-healthiest die. Samples the
//! serving die *individually* abstained on (entropy over the
//! calibrated threshold) get one re-try round on a different die
//! before the abstention is surfaced to the client. When every die
//! abstains the request is answered `503`, and when queues are full
//! the server sheds load with `429` instead of queueing unboundedly.
//!
//! **Shutdown.** [`ServerHandle::shutdown`] drains: the acceptor stops,
//! queued connections are served, queued predictions are answered, and
//! only then do the workers exit — bounded by a deadline after which
//! remaining work is abandoned (reported in the [`DrainReport`]).
//!
//! **Determinism.** Per-batch prediction seeds derive from the
//! configured master seed and a batch counter via SplitMix64. Batch
//! *composition* depends on arrival timing, but a given `(die state,
//! batch composition, batch index)` always produces bit-identical
//! predictions — see DESIGN.md, "Serving and failover". Failover
//! backoff jitter draws from its own tagged stream (`TAG_BACKOFF`),
//! never from anything that feeds predictions, so injected retries
//! cannot shift an answer.
//!
//! **Accounting.** Every accepted connection ends in exactly one
//! terminal counter — see [`StatsSnapshot::is_conserved`]. The serve
//! layer also carries the chaos-injection hooks ([`crate::chaos`]):
//! a quiet [`ChaosPlan`] (the default) probes cost one hash and never
//! fire; a campaign turns intensities up in [`ServeConfig::chaos`].
//!
//! **Lineage.** Every parsed `/predict` body gets a deterministic
//! [`trace::RequestId`] and a [`trace::RequestTrace`] waterfall:
//! identity fields ride the `X-NeuSpin-Trace` response header and the
//! flight-recorder events; timing fields feed only the per-stage
//! histograms (the PR-5 determinism contract). The flight recorder
//! ([`crate::flight`]) logs routing, failover, retry, shed, chaos,
//! crash/restore, and drain events — each with the request ids
//! involved — and dumps its ring on caught panics, die crashes, and
//! drain.

pub mod batch;
pub mod client;
pub mod fleet;
pub mod http;
pub mod trace;

use crate::chaos::{ChaosConfig, ChaosPlan, ChaosSite};
use crate::flight;
use crate::health::HealthPolicy;
use crate::json::Json;
use crate::pool::ThreadPool;
use crate::rng::{stream, RngExt, SplitMix64, StdRng};
use batch::{BatchQueue, PushError};
use fleet::{DieFleet, FleetError};
use http::Request;
use trace::{RequestId, RequestTrace, SloTracker};
use neuspin_nn::Tensor;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tag of the failover-backoff RNG stream (split from the serve master
/// seed, one stream per batcher). Backoff jitter draws from this stream
/// and nothing else, so chaos-induced retries can never shift the
/// per-batch prediction-seed assignment.
const TAG_BACKOFF: u64 = 0xBAC0_FF5E;

/// Locks a serving mutex, recovering a poisoned one (a worker panicked
/// while holding it) instead of propagating: every serving critical
/// section leaves its protected state valid at all panic points, so
/// recovery is always safe. Counted in `serve_lock_poisoned_total`.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        count_lock_poisoned();
        poisoned.into_inner()
    })
}

/// Bumps the poisoned-lock recovery counter.
pub(crate) fn count_lock_poisoned() {
    crate::telemetry::counter("serve_lock_poisoned_total").inc();
}

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Per-sample input shape (without the batch axis).
    pub input_shape: Vec<usize>,
    /// Most samples coalesced into one predict batch.
    pub max_batch: usize,
    /// How long a batch lingers for stragglers once it has its first
    /// sample.
    pub max_wait: Duration,
    /// Bound on queued predict samples (beyond: shed with 429).
    pub queue_capacity: usize,
    /// Bound on accepted-but-unserviced connections (beyond: 429).
    pub conn_capacity: usize,
    /// Connection-handling workers.
    pub http_workers: usize,
    /// Batch-assembly/dispatch workers (keep at 1 for a deterministic
    /// batch-index → seed mapping).
    pub batchers: usize,
    /// Bound on whole-batch failover attempts (distinct dies tried).
    pub max_retries: usize,
    /// Base delay of the jittered exponential failover backoff.
    pub backoff_base: Duration,
    /// Per-request deadline: how long a connection waits for its
    /// prediction before answering 504.
    pub request_timeout: Duration,
    /// Socket read timeout while parsing a request.
    pub read_timeout: Duration,
    /// Master seed for the per-batch prediction-seed stream.
    pub seed: u64,
    /// Fault-injection intensities. The default is fully quiet; chaos
    /// campaigns raise per-site intensities (see [`crate::chaos`]).
    pub chaos: ChaosConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            input_shape: vec![1, 8, 8],
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_capacity: 64,
            conn_capacity: 64,
            http_workers: 4,
            batchers: 1,
            max_retries: 3,
            backoff_base: Duration::from_micros(200),
            request_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(2),
            seed: 0x5E4E,
            chaos: ChaosConfig::default(),
        }
    }
}

impl ServeConfig {
    fn input_len(&self) -> usize {
        self.input_shape.iter().product()
    }
}

/// Monotonic serving counters (atomics; read with [`ServeStats::snapshot`]).
///
/// Terminal counters (everything except `accepted`, `failovers`, and
/// `sample_retries`) are bumped exactly once per connection, at the
/// point the response is written — never in the batcher, whose verdicts
/// reach the connection worker over a channel and are counted there.
/// That single-count discipline is what makes the conservation law of
/// [`StatsSnapshot::is_conserved`] exact.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Predict requests answered 200 with an accepted prediction.
    pub answered: AtomicU64,
    /// Predict requests answered 200 but flagged abstained.
    pub abstained: AtomicU64,
    /// Requests shed with 429 (either queue full).
    pub shed: AtomicU64,
    /// Whole-batch failovers (a die refused; batch retried elsewhere).
    pub failovers: AtomicU64,
    /// Samples retried on a second die after per-sample abstention.
    pub sample_retries: AtomicU64,
    /// Requests answered 503 because every die was abstaining.
    pub unserveable: AtomicU64,
    /// Requests answered 504 (deadline passed before a prediction).
    pub deadline_expired: AtomicU64,
    /// Malformed/unroutable requests answered 4xx.
    pub bad_requests: AtomicU64,
    /// Requests answered 503 because the server was draining.
    pub draining: AtomicU64,
    /// `GET /healthz` and `GET /metrics` requests answered.
    pub info_requests: AtomicU64,
}

/// A point-in-time copy of [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// 200s with an accepted prediction.
    pub answered: u64,
    /// 200s flagged abstained.
    pub abstained: u64,
    /// 429s.
    pub shed: u64,
    /// Whole-batch failovers.
    pub failovers: u64,
    /// Per-sample failover retries.
    pub sample_retries: u64,
    /// 503s (fleet-wide abstention).
    pub unserveable: u64,
    /// 504s.
    pub deadline_expired: u64,
    /// 4xxs.
    pub bad_requests: u64,
    /// 503s while draining.
    pub draining: u64,
    /// healthz/metrics responses.
    pub info_requests: u64,
}

impl ServeStats {
    /// Reads every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            abstained: self.abstained.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            sample_retries: self.sample_retries.load(Ordering::Relaxed),
            unserveable: self.unserveable.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Relaxed),
            info_requests: self.info_requests.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    /// Requests that got *some* terminal answer.
    pub fn responded(&self) -> u64 {
        self.answered
            + self.abstained
            + self.shed
            + self.unserveable
            + self.deadline_expired
            + self.bad_requests
            + self.draining
            + self.info_requests
    }

    /// The request-conservation law: at quiescence (no in-flight
    /// connections — e.g. after a graceful drain), every accepted
    /// connection has exactly one terminal outcome. A force-stopped
    /// drain abandons in-flight work, which legitimately breaks the
    /// equality; chaos campaigns gate on it after graceful drains only.
    pub fn is_conserved(&self) -> bool {
        self.accepted == self.responded()
    }
}

/// How one predict request was resolved (sent from batcher to the
/// waiting connection worker).
#[derive(Debug, Clone)]
enum Outcome {
    Answered {
        class: usize,
        probs: Vec<f32>,
        entropy: f64,
        abstained: bool,
        /// The request's lineage: identity fields (rid, batch, die,
        /// failovers, retries) plus the wall-clock waterfall so far.
        trace: RequestTrace,
        /// When the batcher finished computing — the write stage is
        /// measured from here by the connection worker.
        computed_at: Instant,
    },
    /// Every die in the fleet is at the Abstain tier.
    Unserveable,
    /// The request's deadline passed while it was still queued.
    Expired,
}

/// One queued predict sample.
struct PredictJob {
    /// Lineage id, assigned in arrival order at accept.
    rid: RequestId,
    input: Vec<f32>,
    deadline: Instant,
    /// When the request was accepted (queue-wait stage starts here).
    accepted_at: Instant,
    resp: mpsc::Sender<Outcome>,
}

/// Shared server state (one `Arc` across acceptor/batchers/workers).
struct ServeState {
    config: ServeConfig,
    fleet: DieFleet,
    listener: Mutex<Option<TcpListener>>,
    conns: BatchQueue<TcpStream>,
    predicts: BatchQueue<PredictJob>,
    shutdown: AtomicBool,
    force_stop: AtomicBool,
    done: AtomicBool,
    live_conn_workers: AtomicUsize,
    batch_counter: AtomicU64,
    conn_jobs: AtomicU64,
    /// Next request id (dense, assigned in accept order).
    next_rid: AtomicU64,
    stats: ServeStats,
    chaos: ChaosPlan,
    /// Rolling-window SLO burn tracker fed by terminal outcomes.
    slo: SloTracker,
}

/// What the drain achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// True when every worker exited before the deadline.
    pub drained: bool,
    /// True when the deadline forced abandonment of remaining work.
    pub forced: bool,
    /// Requests still queued (either queue) when force-stop fired.
    pub abandoned: usize,
}

/// A running server: address, stats, fleet access, and shutdown.
pub struct ServerHandle {
    state: Arc<ServeState>,
    addr: SocketAddr,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.state.stats.snapshot()
    }

    /// The fleet behind the server (for scenario drivers: aging a die
    /// mid-traffic, inspecting tiers).
    pub fn fleet(&self) -> &DieFleet {
        &self.state.fleet
    }

    /// Graceful shutdown: stop accepting, drain queued connections and
    /// predictions, bounded by `deadline`. Idempotent.
    ///
    /// The first (real) drain is also recorded post-hoc: the
    /// [`DrainReport`] lands in the registry counters
    /// (`serve_drains_total`, `serve_drain_forced_total`,
    /// `serve_drain_abandoned_total`), a `drain` event enters the
    /// flight recorder, and the recorder dumps to its configured path.
    pub fn shutdown(&mut self, deadline: Duration) -> DrainReport {
        let state = &self.state;
        let first = self.join.is_some();
        state.shutdown.store(true, Ordering::SeqCst);
        let start = Instant::now();
        while !state.done.load(Ordering::SeqCst) && start.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let drained = state.done.load(Ordering::SeqCst);
        let mut abandoned = 0;
        if !drained {
            abandoned = state.conns.len() + state.predicts.len();
            state.force_stop.store(true, Ordering::SeqCst);
            state.conns.close();
            state.predicts.close();
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        let report = DrainReport { drained, forced: !drained, abandoned };
        if first {
            crate::telemetry::counter("serve_drains_total").inc();
            if report.forced {
                crate::telemetry::counter("serve_drain_forced_total").inc();
            }
            crate::telemetry::counter("serve_drain_abandoned_total").add(abandoned as u64);
            flight::record(
                "drain",
                vec![
                    ("drained", Json::Bool(report.drained)),
                    ("forced", Json::Bool(report.forced)),
                    ("abandoned", Json::Num(abandoned as f64)),
                ],
            );
            flight::dump_if_configured();
        }
        report
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.shutdown(Duration::from_secs(5));
        }
    }
}

/// Starts the server over `fleet` and returns once the listener is
/// bound. The serving loop (acceptor + batchers + connection workers,
/// multiplexed over one [`ThreadPool::run_chunked`] call) runs on a
/// background thread until [`ServerHandle::shutdown`].
///
/// # Errors
///
/// Returns the bind error if the address cannot be bound.
pub fn serve(fleet: DieFleet, config: ServeConfig) -> std::io::Result<ServerHandle> {
    assert!(config.max_batch > 0, "max_batch must be positive");
    assert!(config.http_workers > 0, "need at least one connection worker");
    assert!(config.batchers > 0, "need at least one batcher");
    assert!(config.input_len() > 0, "input_shape must be non-empty");
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServeState {
        conns: BatchQueue::new(config.conn_capacity),
        predicts: BatchQueue::new(config.queue_capacity),
        listener: Mutex::new(Some(listener)),
        shutdown: AtomicBool::new(false),
        force_stop: AtomicBool::new(false),
        done: AtomicBool::new(false),
        live_conn_workers: AtomicUsize::new(config.http_workers),
        batch_counter: AtomicU64::new(0),
        conn_jobs: AtomicU64::new(0),
        next_rid: AtomicU64::new(0),
        stats: ServeStats::default(),
        chaos: ChaosPlan::new(config.chaos),
        slo: SloTracker::default(),
        fleet,
        config,
    });
    let loop_state = Arc::clone(&state);
    let join = std::thread::Builder::new()
        .name("neuspin-serve".to_string())
        .spawn(move || {
            let jobs = 1 + loop_state.config.batchers + loop_state.config.http_workers;
            // One pool thread per role: every job is a long-running
            // loop, so the pool must not multiplex them.
            let pool = ThreadPool::new(jobs);
            let state = &loop_state;
            pool.run_chunked(
                jobs,
                &mut vec![(); jobs],
                |(), t| {
                    if t == 0 {
                        run_acceptor(state);
                    } else if t <= state.config.batchers {
                        run_batcher(state, t - 1);
                    } else {
                        run_conn_worker(state);
                    }
                },
            );
            loop_state.done.store(true, Ordering::SeqCst);
        })?;
    Ok(ServerHandle { state, addr, join: Some(join) })
}

/// Job 0: accept connections, shed when the connection queue is full.
fn run_acceptor(state: &ServeState) {
    let listener = lock_recover(&state.listener).take().expect("acceptor started twice");
    listener.set_nonblocking(true).expect("set_nonblocking failed");
    while !state.shutdown.load(Ordering::SeqCst) && !state.force_stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                state.stats.accepted.fetch_add(1, Ordering::Relaxed);
                if let Err((mut stream, _)) = state.conns.try_push(stream) {
                    // Too many unserviced connections: shed right here.
                    state.stats.shed.fetch_add(1, Ordering::Relaxed);
                    crate::telemetry::counter("serve_shed_total").inc();
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                    let _ = http::write_json_response(
                        &mut stream,
                        429,
                        "Too Many Requests",
                        "{\"error\": \"connection queue full\"}",
                    );
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // No more producers: once drained, the connection workers exit.
    state.conns.close();
}

/// Batcher job: coalesce queued samples and dispatch to the fleet.
///
/// Backoff jitter draws from a dedicated stream keyed by the batcher
/// index — isolated from the per-batch prediction seeds (pure functions
/// of the batch counter), so however many retries chaos injects, the
/// seed each batch predicts with is untouched.
fn run_batcher(state: &ServeState, batcher: usize) {
    let mut backoff_rng = stream(state.config.seed, TAG_BACKOFF.wrapping_add(batcher as u64));
    let poll = Duration::from_millis(5);
    loop {
        if state.force_stop.load(Ordering::SeqCst) {
            break;
        }
        let batch =
            state.predicts.pop_batch(state.config.max_batch, poll, state.config.max_wait);
        if batch.is_empty() {
            if state.predicts.is_closed() && state.predicts.is_empty() {
                break;
            }
            continue;
        }
        execute_batch(state, batch, &mut backoff_rng);
    }
}

/// Per-batch prediction seed: SplitMix64 stream over the batch index,
/// keyed by the master seed. Batch `k` always predicts with the same
/// seed, whatever thread runs it.
fn batch_seed(master: u64, index: u64) -> u64 {
    let mut mix = SplitMix64::new(master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    mix.next_u64()
}

/// Runs one coalesced batch through the fleet with failover.
///
/// Stage accounting: `queue_wait` is accept → pop (per request);
/// `batch_assembly` is pop → tensor built (shared by the batch);
/// `die_compute` is the successful MC forward; everything else in the
/// dispatch window — chaos stalls/spikes, failed attempts, backoff,
/// and the per-sample retry round — lands in the `retry` stage. All of
/// it is wall-clock and flows only into histograms; the flight events
/// recorded here carry deterministic fields (batch index, die ids,
/// request ids) exclusively.
fn execute_batch(state: &ServeState, mut batch: Vec<PredictJob>, rng: &mut StdRng) {
    let popped_at = Instant::now();
    // Expire whatever already missed its deadline (the connection
    // worker has answered 504 and gone; don't burn MC passes on it).
    let mut live = Vec::with_capacity(batch.len());
    for job in batch.drain(..) {
        if popped_at >= job.deadline {
            flight::record("expired", vec![("rid", Json::Num(job.rid.0 as f64))]);
            let _ = job.resp.send(Outcome::Expired);
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }
    let rids: Vec<RequestId> = live.iter().map(|j| j.rid).collect();

    let d = state.config.input_len();
    let mut shape = vec![live.len()];
    shape.extend_from_slice(&state.config.input_shape);
    let data: Vec<f32> = live.iter().flat_map(|j| j.input.iter().copied()).collect();
    let inputs = Tensor::from_vec(data, &shape);
    let index = state.batch_counter.fetch_add(1, Ordering::Relaxed);
    let seed = batch_seed(state.config.seed, index);
    let assembly_ns = elapsed_ns(popped_at);
    let dispatch_start = Instant::now();
    if state.chaos.fires(ChaosSite::QueueStall, index) {
        crate::telemetry::counter("serve_chaos_stalls_total").inc();
        flight::record(
            "chaos_stall",
            vec![("batch", Json::Num(index as f64)), ("rids", trace::rids_json(&rids))],
        );
        std::thread::sleep(Duration::from_millis(state.chaos.config().stall_millis));
    }

    // Whole-batch failover: walk the fleet healthiest-first with
    // jittered exponential backoff between attempts.
    let mut tried: Vec<usize> = Vec::new();
    let mut report = None;
    let mut compute_ns = 0u64;
    for attempt in 0..=state.config.max_retries {
        let Some(die) = state.fleet.pick(&tried) else { break };
        flight::record(
            "route",
            vec![
                ("batch", Json::Num(index as f64)),
                ("attempt", Json::Num(attempt as f64)),
                ("die", Json::Num(die as f64)),
                ("rids", trace::rids_json(&rids)),
            ],
        );
        let spike_key =
            index.wrapping_mul(state.fleet.len() as u64).wrapping_add(die as u64);
        if state.chaos.fires(ChaosSite::LatencySpike, spike_key) {
            crate::telemetry::counter("serve_chaos_spikes_total").inc();
            flight::record(
                "chaos_spike",
                vec![
                    ("batch", Json::Num(index as f64)),
                    ("die", Json::Num(die as f64)),
                    ("rids", trace::rids_json(&rids)),
                ],
            );
            std::thread::sleep(Duration::from_millis(state.chaos.config().spike_millis));
        }
        let attempt_start = Instant::now();
        match state.fleet.predict_on(die, &inputs, seed) {
            Ok(r) => {
                compute_ns = elapsed_ns(attempt_start);
                report = Some((die, r));
                break;
            }
            Err(
                err @ (FleetError::DieAbstaining { .. }
                | FleetError::DieDown { .. }
                | FleetError::NoEligibleDie),
            ) => {
                flight::record(
                    "failover",
                    vec![
                        ("batch", Json::Num(index as f64)),
                        ("die", Json::Num(die as f64)),
                        ("err", Json::Str(fleet_err_name(&err).to_string())),
                        ("rids", trace::rids_json(&rids)),
                    ],
                );
                tried.push(die);
                state.stats.failovers.fetch_add(live.len() as u64, Ordering::Relaxed);
                crate::telemetry::counter("serve_failover_total").add(live.len() as u64);
                if attempt < state.config.max_retries {
                    backoff(state.config.backoff_base, attempt, rng);
                }
            }
        }
    }
    let Some((die, report)) = report else {
        // Fleet-wide abstention: answer honestly rather than dropping.
        // (Counted by the connection worker when it writes the 503, so
        // the terminal outcome is counted exactly once.)
        flight::record(
            "unserveable",
            vec![("batch", Json::Num(index as f64)), ("rids", trace::rids_json(&rids))],
        );
        for job in live {
            let _ = job.resp.send(Outcome::Unserveable);
        }
        return;
    };
    let failovers = tried.len() as u64;

    // Per-sample retry round: samples this die abstained on get one
    // shot on a different die before the abstention is surfaced.
    let abstained_rows: Vec<usize> = (0..live.len())
        .filter(|&i| !report.gated.accepted[i])
        .collect();
    let mut retried: Option<(usize, neuspin_bayes::Predictive, Vec<bool>)> = None;
    if !abstained_rows.is_empty() {
        let mut exclude = tried.clone();
        exclude.push(die);
        if let Some(alt) = state.fleet.pick(&exclude) {
            let sub_data: Vec<f32> = abstained_rows
                .iter()
                .flat_map(|&i| live[i].input.iter().copied())
                .collect();
            let mut sub_shape = vec![abstained_rows.len()];
            sub_shape.extend_from_slice(&state.config.input_shape);
            let sub = Tensor::from_vec(sub_data, &sub_shape);
            let sub_seed = batch_seed(state.config.seed, index ^ 0x8000_0000_0000_0000);
            if let Ok(r2) = state.fleet.predict_on(alt, &sub, sub_seed) {
                state
                    .stats
                    .sample_retries
                    .fetch_add(abstained_rows.len() as u64, Ordering::Relaxed);
                let retry_rids: Vec<RequestId> =
                    abstained_rows.iter().map(|&i| live[i].rid).collect();
                flight::record(
                    "sample_retry",
                    vec![
                        ("batch", Json::Num(index as f64)),
                        ("from_die", Json::Num(die as f64)),
                        ("alt_die", Json::Num(alt as f64)),
                        ("rids", trace::rids_json(&retry_rids)),
                    ],
                );
                retried = Some((alt, r2.predictive, r2.gated.accepted));
            }
        }
    }
    // The dispatch window minus the successful forward: stalls, spikes,
    // failed attempts, backoff, and the per-sample retry round.
    let retry_ns = elapsed_ns(dispatch_start).saturating_sub(compute_ns);
    let computed_at = Instant::now();

    let classes = report.predictive.mean_probs.shape()[1];
    let mut abstained_final = 0u64;
    let mut outbox = Vec::with_capacity(live.len());
    for (i, job) in live.into_iter().enumerate() {
        // Default answer: carved from the primary batch report.
        let mut src =
            (&report.predictive, i, die, !report.gated.accepted[i], failovers, 0u32);
        if let Some((alt, pred2, accepted2)) = retried.as_ref() {
            if let Some(sub_i) = abstained_rows.iter().position(|&r| r == i) {
                src = (pred2, sub_i, *alt, !accepted2[sub_i], failovers + 1, 1);
            }
        }
        let (pred, row, from_die, abstained, fo, retries) = src;
        abstained_final += u64::from(abstained);
        let probs = pred.mean_probs.row(row).to_vec();
        let class = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(k, _)| k)
            .unwrap_or(0);
        debug_assert_eq!(probs.len(), classes);
        debug_assert_eq!(job.input.len(), d);
        let trace = RequestTrace {
            rid: job.rid,
            batch: index,
            die: from_die,
            failovers: fo as u32,
            retries,
            queue_wait_ns: duration_ns(popped_at.saturating_duration_since(job.accepted_at)),
            assembly_ns,
            compute_ns,
            retry_ns,
        };
        let outcome = Outcome::Answered {
            class,
            probs,
            entropy: pred.entropy[row],
            abstained,
            trace,
            computed_at,
        };
        outbox.push((job, outcome));
    }
    // Record before sending: once an outcome is sent, the connection
    // worker (and, closed-loop, the client's next request) may record
    // further events — the batch's own event must already be sequenced.
    flight::record(
        "answered",
        vec![
            ("batch", Json::Num(index as f64)),
            ("die", Json::Num(die as f64)),
            ("failovers", Json::Num(failovers as f64)),
            ("abstained", Json::Num(abstained_final as f64)),
            ("rids", trace::rids_json(&rids)),
        ],
    );
    for (job, outcome) in outbox {
        let _ = job.resp.send(outcome);
    }
}

/// Nanoseconds since `start`, saturating into `u64`.
fn elapsed_ns(start: Instant) -> u64 {
    duration_ns(start.elapsed())
}

/// A duration as nanoseconds, saturating into `u64`.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The flight-event name of a fleet routing error.
fn fleet_err_name(err: &FleetError) -> &'static str {
    match err {
        FleetError::DieAbstaining { .. } => "die_abstaining",
        FleetError::DieDown { .. } => "die_down",
        FleetError::NoEligibleDie => "no_eligible_die",
    }
}

/// Jittered exponential backoff: `base · 2^attempt · U(0.5, 1.5)`.
fn backoff(base: Duration, attempt: usize, rng: &mut StdRng) {
    let exp = base.as_secs_f64() * (1u64 << attempt.min(16)) as f64;
    let jitter = 0.5 + rng.random::<f64>();
    std::thread::sleep(Duration::from_secs_f64(exp * jitter));
}

/// Connection-worker job: pull connections and answer them.
fn run_conn_worker(state: &ServeState) {
    let poll = Duration::from_millis(5);
    loop {
        if state.force_stop.load(Ordering::SeqCst) {
            break;
        }
        let mut conns = state.conns.pop_batch(1, poll, Duration::ZERO);
        let Some(stream) = conns.pop() else {
            if state.conns.is_closed() && state.conns.is_empty() {
                break;
            }
            continue;
        };
        // A hostile or broken connection must never take the worker
        // down with it. Chaos panics fire at the job boundary — after
        // the response for this job was written — so a surviving worker
        // loop proves the panic cost nothing client-visible.
        let job_id = state.conn_jobs.fetch_add(1, Ordering::Relaxed);
        // Probing is pure, so the injection is known before the job
        // runs; recording it *here* keeps the event strictly before
        // anything the job (or, closed-loop, the client's next
        // request) records. `rid` is the id the connection's request
        // will get if it parses — the request the panic rides behind.
        let will_panic = state.chaos.fires(ChaosSite::WorkerPanic, job_id);
        if will_panic {
            flight::record(
                "chaos_worker_panic",
                vec![
                    ("job", Json::Num(job_id as f64)),
                    ("rid", Json::Num(state.next_rid.load(Ordering::Relaxed) as f64)),
                ],
            );
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(state, stream);
            if will_panic {
                crate::telemetry::counter("serve_chaos_worker_panics_total").inc();
                panic!("chaos: injected connection-worker panic");
            }
        }));
        if result.is_err() {
            crate::telemetry::counter("serve_conn_panics_total").inc();
            // The black-box moment: a worker just died mid-flight.
            flight::dump_if_configured();
        }
    }
    // The last connection worker out closes the predict queue: no
    // in-flight connection remains that could enqueue more work, so
    // the batchers can drain and exit.
    if state.live_conn_workers.fetch_sub(1, Ordering::SeqCst) == 1 {
        state.predicts.close();
    }
}

/// Parses, routes, and answers one connection.
fn handle_connection(state: &ServeState, mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let _ = stream.set_write_timeout(Some(state.config.read_timeout));
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(err) => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            if let Some((code, reason)) = err.status() {
                let body = Json::obj([("error", Json::Str(err.to_string()))]).to_string();
                let _ = http::write_json_response(&mut stream, code, reason, &body);
                // The request may have unread bytes left (an oversized
                // head stops reading mid-stream). Closing now would RST
                // the response out of the client's buffer; drain a
                // bounded amount first so the error code is delivered.
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let mut sink = [0u8; 4096];
                for _ in 0..64 {
                    match std::io::Read::read(&mut stream, &mut sink) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
            }
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/predict") => handle_predict(state, &mut stream, &request),
        ("GET", "/healthz") => {
            state.stats.info_requests.fetch_add(1, Ordering::Relaxed);
            handle_healthz(state, &mut stream);
        }
        ("GET", "/metrics") => {
            state.stats.info_requests.fetch_add(1, Ordering::Relaxed);
            let text = crate::telemetry::prometheus_text();
            let _ = http::write_response(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4",
                text.as_bytes(),
            );
        }
        ("GET", "/debug/flight") => {
            // The live black box: the current ring as JSONL. Info
            // traffic records no flight events itself, so scraping
            // the recorder never perturbs what it records.
            state.stats.info_requests.fetch_add(1, Ordering::Relaxed);
            let dump = flight::to_jsonl();
            let _ = http::write_response(
                &mut stream,
                200,
                "OK",
                "application/jsonl",
                dump.as_bytes(),
            );
        }
        ("GET", "/debug/slo") => {
            state.stats.info_requests.fetch_add(1, Ordering::Relaxed);
            let body = state.slo.report(state.fleet.len()).to_string();
            let _ = http::write_json_response(&mut stream, 200, "OK", &body);
        }
        ("GET", "/predict") | ("POST", "/healthz") | ("POST", "/metrics") => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_json_response(
                &mut stream,
                405,
                "Method Not Allowed",
                "{\"error\": \"method not allowed\"}",
            );
        }
        _ => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_json_response(
                &mut stream,
                404,
                "Not Found",
                "{\"error\": \"unknown path\"}",
            );
        }
    }
}

/// `POST /predict`: validate, enqueue, await the batcher's outcome.
fn handle_predict(state: &ServeState, stream: &mut TcpStream, request: &Request) {
    let accepted_at = Instant::now();
    let input = match parse_predict_body(&request.body, state.config.input_len()) {
        Ok(v) => v,
        Err(why) => {
            state.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let body = Json::obj([("error", Json::Str(why.to_string()))]).to_string();
            let _ = http::write_json_response(stream, 400, "Bad Request", &body);
            return;
        }
    };
    // Lineage starts here: a parsed predict body gets the next dense
    // request id, whatever its fate (queued, shed, or drained).
    let rid = RequestId(state.next_rid.fetch_add(1, Ordering::Relaxed));
    let deadline = accepted_at + state.config.request_timeout;
    let (tx, rx) = mpsc::channel();
    let job = PredictJob { rid, input, deadline, accepted_at, resp: tx };
    if let Err((_, err)) = state.predicts.try_push(job) {
        match err {
            PushError::Full => {
                state.stats.shed.fetch_add(1, Ordering::Relaxed);
                crate::telemetry::counter("serve_shed_total").inc();
                flight::record("shed", vec![("rid", Json::Num(rid.0 as f64))]);
                state.slo.record(false, 0.0, None);
                let _ = http::write_json_response(
                    stream,
                    429,
                    "Too Many Requests",
                    "{\"error\": \"predict queue full\"}",
                );
            }
            PushError::Closed => {
                state.stats.draining.fetch_add(1, Ordering::Relaxed);
                let _ = http::write_json_response(
                    stream,
                    503,
                    "Service Unavailable",
                    "{\"error\": \"server is draining\"}",
                );
            }
        }
        return;
    }
    crate::telemetry::counter("serve_requests_total").inc();
    let wait = state.config.request_timeout + Duration::from_millis(250);
    match rx.recv_timeout(wait) {
        Ok(Outcome::Answered { class, probs, entropy, abstained, trace, computed_at }) => {
            if abstained {
                state.stats.abstained.fetch_add(1, Ordering::Relaxed);
            } else {
                state.stats.answered.fetch_add(1, Ordering::Relaxed);
            }
            let body = Json::obj([
                ("class", Json::Num(class as f64)),
                ("entropy", Json::Num(entropy)),
                ("abstained", Json::Bool(abstained)),
                ("die", Json::Num(trace.die as f64)),
                ("failovers", Json::Num(f64::from(trace.failovers))),
                (
                    "probs",
                    Json::Arr(probs.iter().map(|&p| Json::Num(f64::from(p))).collect()),
                ),
            ])
            .to_string();
            let _ = http::write_json_response_with(
                stream,
                200,
                "OK",
                &body,
                &[("X-NeuSpin-Trace", &trace.header_value())],
            );
            // Write stage: compute finished → response bytes on the
            // wire. Observed after the write so it includes it.
            let write_ns = elapsed_ns(computed_at);
            trace.observe(write_ns);
            state.slo.record(true, trace.total_ms(write_ns), Some(trace.die));
        }
        Ok(Outcome::Unserveable) => {
            state.stats.unserveable.fetch_add(1, Ordering::Relaxed);
            state.slo.record(false, 0.0, None);
            let _ = http::write_json_response(
                stream,
                503,
                "Service Unavailable",
                "{\"error\": \"all dies abstaining\"}",
            );
        }
        Ok(Outcome::Expired) | Err(_) => {
            state.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
            state.slo.record(false, 0.0, None);
            let _ = http::write_json_response(
                stream,
                504,
                "Gateway Timeout",
                "{\"error\": \"prediction deadline expired\"}",
            );
        }
    }
}

/// Validates `{"input": [f32; D]}`.
fn parse_predict_body(body: &[u8], want_len: usize) -> Result<Vec<f32>, &'static str> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let json = crate::json::parse(text).map_err(|_| "body is not valid JSON")?;
    let arr = json
        .get("input")
        .and_then(|v| v.as_arr())
        .ok_or("body must be {\"input\": [numbers]}")?;
    if arr.len() != want_len {
        return Err("input has the wrong number of elements");
    }
    let mut out = Vec::with_capacity(arr.len());
    for v in arr {
        // Check after the cast: a finite f64 beyond f32's range (1e39)
        // becomes inf, and one infinite input poisons the die's sense
        // margin.
        let x = v.as_f64().ok_or("input elements must be numbers")? as f32;
        if !x.is_finite() {
            return Err("input elements must be finite");
        }
        out.push(x);
    }
    Ok(out)
}

/// `GET /healthz`: fleet snapshot (with per-die SLO burn); 503 once no
/// die is eligible.
fn handle_healthz(state: &ServeState, stream: &mut TcpStream) {
    let snapshot = state.fleet.snapshot();
    let eligible = state.fleet.eligible_count();
    let dies: Vec<Json> = snapshot
        .iter()
        .map(|d| {
            Json::obj([
                ("id", Json::Num(d.id as f64)),
                ("tier", Json::Str(d.policy.to_string())),
                ("tier_index", Json::Num(f64::from(d.policy.tier_index()))),
                ("served", Json::Num(d.served as f64)),
                ("down", Json::Bool(d.down)),
                ("burn", Json::Num(state.slo.die_burn(d.id))),
            ])
        })
        .collect();
    let status = if eligible == 0 {
        "unserveable"
    } else if eligible < snapshot.len() || snapshot.iter().any(|d| d.policy != HealthPolicy::Healthy)
    {
        "degraded"
    } else {
        "ok"
    };
    let body = Json::obj([
        ("status", Json::Str(status.to_string())),
        ("eligible", Json::Num(eligible as f64)),
        ("dies", Json::Arr(dies)),
    ])
    .to_string();
    if eligible == 0 {
        let _ = http::write_json_response(stream, 503, "Service Unavailable", &body);
    } else {
        let _ = http::write_json_response(stream, 200, "OK", &body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::testutil::{small_commissioned_supervisor, small_inputs};

    const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

    // The HTTP tests below hold `telemetry::test_lock()` for their whole
    // run: every answered request records into the global stage
    // histograms, which `trace::tests` counts exactly under that lock.

    fn two_die_fleet(seed: u64) -> DieFleet {
        DieFleet::new(vec![
            small_commissioned_supervisor(seed),
            small_commissioned_supervisor(seed + 1),
        ])
    }

    fn sample(i: usize) -> Vec<f32> {
        (0..64).map(|k| ((i * 64 + k) % 7) as f32 * 0.11 - 0.3).collect()
    }

    #[test]
    fn stats_conservation_holds_across_mixed_traffic() {
        let _guard = crate::telemetry::test_lock();
        let mut handle = serve(two_die_fleet(70), ServeConfig::default()).unwrap();
        let addr = handle.addr();
        for i in 0..6 {
            let resp = client::predict(addr, &sample(i), CLIENT_TIMEOUT).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.text());
        }
        // 1e39 is a finite f64 but overflows f32 to inf.
        let huge = format!("{{\"input\": [1e39{}]}}", ", 0".repeat(63));
        let bad = [
            ("POST", "/predict", Some("{\"input\": \"nope\"}"), 400),
            ("POST", "/predict", Some("this is not json"), 400),
            ("POST", "/predict", Some(huge.as_str()), 400),
            ("GET", "/nope", None, 404),
            ("GET", "/predict", None, 405),
        ];
        for (method, path, body, want) in bad {
            let resp = client::request(addr, method, path, body, CLIENT_TIMEOUT).unwrap();
            assert_eq!(resp.status, want, "{method} {path}: {}", resp.text());
        }
        // The batcher survived the bad rows.
        let resp = client::predict(addr, &sample(6), CLIENT_TIMEOUT).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(client::request(addr, "GET", "/healthz", None, CLIENT_TIMEOUT).unwrap().status, 200);
        assert_eq!(client::request(addr, "GET", "/metrics", None, CLIENT_TIMEOUT).unwrap().status, 200);
        assert_eq!(client::request(addr, "GET", "/debug/flight", None, CLIENT_TIMEOUT).unwrap().status, 200);
        assert_eq!(client::request(addr, "GET", "/debug/slo", None, CLIENT_TIMEOUT).unwrap().status, 200);
        let report = handle.shutdown(Duration::from_secs(20));
        assert!(report.drained, "graceful drain must finish: {report:?}");
        let snap = handle.stats();
        assert!(snap.is_conserved(), "accepted != responded: {snap:?}");
        assert_eq!(snap.accepted, 16);
        assert_eq!(snap.answered + snap.abstained, 7);
        assert_eq!(snap.bad_requests, 5);
        assert_eq!(snap.info_requests, 4);
        assert_eq!(snap.draining + snap.shed + snap.unserveable + snap.deadline_expired, 0);
    }

    /// Runs the same sequential workload against an identically-built
    /// fleet and returns every response body verbatim.
    fn run_workload(chaos: ChaosConfig) -> (Vec<String>, StatsSnapshot) {
        let fleet = two_die_fleet(80);
        // Latch die 0 at Abstain so routing is pinned to die 1 — the
        // workload's answers then depend only on die-1 state and the
        // per-batch seeds, never on load-balance timing.
        fleet.with_die(0, |sup| {
            sup.monitor_mut().set_abstain_entropy(1e-9);
            sup.serve_predict(&small_inputs(2, 0xAB), 5);
        });
        let config = ServeConfig { seed: 0xD00D, chaos, ..ServeConfig::default() };
        let mut handle = serve(fleet, config).unwrap();
        let mut bodies = Vec::new();
        for i in 0..8 {
            let resp = client::predict(handle.addr(), &sample(i), CLIENT_TIMEOUT).unwrap();
            bodies.push(format!("{} {}", resp.status, resp.text()));
        }
        let report = handle.shutdown(Duration::from_secs(20));
        assert!(report.drained, "graceful drain must finish: {report:?}");
        (bodies, handle.stats())
    }

    #[test]
    fn chaos_timing_faults_leave_answers_bit_identical() {
        let _guard = crate::telemetry::test_lock();
        let quiet = ChaosConfig::default();
        let noisy = ChaosConfig {
            seed: 0xC405,
            queue_stall_per_mille: 400,
            latency_spike_per_mille: 400,
            stall_millis: 2,
            spike_millis: 2,
            ..ChaosConfig::default()
        };
        // The noisy plan must actually fire on this workload's batch
        // indices, or the test proves nothing.
        let plan = ChaosPlan::new(noisy);
        assert!(
            (0..8).any(|k| plan.fires(ChaosSite::QueueStall, k)),
            "chaos plan never stalls in 8 batches; raise the intensity"
        );
        let (control, control_stats) = run_workload(quiet);
        let (chaotic, chaotic_stats) = run_workload(noisy);
        assert_eq!(control, chaotic, "injected stalls/spikes shifted an answer");
        assert_eq!(control_stats.answered, chaotic_stats.answered);
        assert_eq!(control_stats.abstained, chaotic_stats.abstained);
        assert!(control_stats.is_conserved() && chaotic_stats.is_conserved());
    }

    #[test]
    fn injected_worker_panics_never_drop_responses() {
        let _guard = crate::telemetry::test_lock();
        let chaos = ChaosConfig {
            seed: 0x9A71C,
            worker_panic_per_mille: 1000, // every connection job panics
            ..ChaosConfig::default()
        };
        let config = ServeConfig { chaos, ..ServeConfig::default() };
        let mut handle = serve(two_die_fleet(90), config).unwrap();
        let addr = handle.addr();
        for i in 0..4 {
            let resp = client::predict(addr, &sample(i), CLIENT_TIMEOUT).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.text());
        }
        assert_eq!(client::request(addr, "GET", "/healthz", None, CLIENT_TIMEOUT).unwrap().status, 200);
        let report = handle.shutdown(Duration::from_secs(20));
        assert!(report.drained, "workers must survive injected panics: {report:?}");
        let snap = handle.stats();
        assert!(snap.is_conserved(), "panics dropped a response: {snap:?}");
        assert_eq!(snap.answered + snap.abstained, 4);
        assert_eq!(snap.info_requests, 1);
    }

    #[test]
    fn healthz_reports_down_dies() {
        let _guard = crate::telemetry::test_lock();
        let mut handle = serve(two_die_fleet(95), ServeConfig::default()).unwrap();
        handle.fleet().crash(1);
        let resp =
            client::request(handle.addr(), "GET", "/healthz", None, CLIENT_TIMEOUT).unwrap();
        assert_eq!(resp.status, 200, "one die is still up: {}", resp.text());
        let text = resp.text();
        let json = crate::json::parse(&text).unwrap();
        assert_eq!(json.get("status").and_then(|s| s.as_str()), Some("degraded"));
        assert_eq!(json.get("eligible").and_then(|e| e.as_f64()), Some(1.0));
        let dies = json.get("dies").and_then(|d| d.as_arr()).unwrap();
        assert_eq!(dies[0].get("down").and_then(|b| b.as_bool()), Some(false));
        assert_eq!(dies[1].get("down").and_then(|b| b.as_bool()), Some(true));
        handle.shutdown(Duration::from_secs(10));
    }
}
