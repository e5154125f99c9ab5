//! **Chaos-injection campaign**: drives the `core::serve` front door
//! through escalating deterministic fault injection ([`ChaosPlan`])
//! and proves the crash-consistency story end to end.
//!
//! Part 1 — checkpoint proof. An aged, scrubbed, hair-trigger die that
//! has latched a recovery tier is checkpointed; the checkpoint is
//! restored onto a bare twin (same deterministic constructor, no
//! commissioning) and both are driven through three more supervisor
//! operations (serve → age-step → serve). Every predictive digest and
//! the final re-serialized checkpoints must be byte-identical.
//!
//! Part 2 — serving campaign. Three stages over a fresh three-die
//! fleet each, chaos intensity escalating per stage:
//!
//! * stage 0 `timing`   — batch-queue stalls + per-die latency spikes;
//! * stage 1 `faults`   — plus connection-worker panics at job
//!   boundaries, malformed client requests, and stored-weight bit
//!   flips between scrubs;
//! * stage 2 `crashes`  — plus die power-fail crashes at wave
//!   boundaries. Traffic routes around the down die; at the next
//!   boundary it is restored from its last stable checkpoint, passes
//!   the BIST re-commission gate, and must answer a probe batch
//!   bit-identically to a no-crash control restored from the same
//!   checkpoint.
//!
//! Invariants gated by `--check`: the round-trip proof held; every
//! stage conserved requests (accepted == terminal outcomes) with zero
//! transport drops, zero 503/504/429; at least one die crash, worker
//! panic, queue stall, weight-flip event, and malformed request was
//! injected; every crashed die rejoined through a passing BIST gate
//! with byte-equal outputs; the fleet ended every stage fully
//! serveable; p99 under 500 ms; and
//! the flight-recorder dump *alone* reconstructs every injected fault
//! — site, affected request ids, recovery outcome — with exact counts
//! against the live ledger and zero ring drops.
//!
//! ```sh
//! cargo run --release -p neuspin-bench --bin exp_chaos
//! NEUSPIN_BENCH_FAST=1 cargo run --release -p neuspin-bench --bin exp_chaos
//! cargo run --release -p neuspin-bench --bin exp_chaos -- --check
//! ```
//!
//! Artifacts: `results/exp_chaos.json` (full, includes timing),
//! `results/exp_chaos_flight.jsonl` (the flight-recorder black box —
//! deterministic, byte-identical across host thread counts), and
//! `BENCH_chaos.json` at the workspace root (deterministic fields
//! only — byte-identical across host thread counts; CI compares a
//! `NEUSPIN_THREADS=4` re-run).

use neuspin_bayes::{build_cnn, ArchConfig, Method};
use neuspin_bench::artifact::{self, Artifact};
use neuspin_bench::timing::percentile;
use neuspin_bench::{results_dir, write_bench, write_json, P99_BUDGET_MS};
use neuspin_cim::{BistConfig, CrossbarConfig};
use neuspin_core::json::{self, Json, ToJson};
use neuspin_core::serve::client;
use neuspin_core::{
    flight, serve, telemetry, ChaosConfig, ChaosPlan, ChaosSite, DieFleet, HardwareConfig,
    HardwareModel, HealthConfig, ServeConfig, Supervisor, SupervisorConfig,
};
use neuspin_device::{AgingConfig, DefectRates};
use neuspin_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const DIES: usize = 3;
const STAGES: usize = 3;
const MASTER_SEED: u64 = 0xC405_0001;
const CHAOS_SEED: u64 = 0x000F_A117;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Report keys that legitimately differ run to run (wall-clock and
/// host facts — `checkpoint_bytes` tracks the host thread-pool width
/// through the per-stream RNG section, though the restored *outputs*
/// stay bit-identical). Everything else must be byte-stable across
/// thread counts, and CI compares it.
const NONDETERMINISTIC_KEYS: [&str; 6] =
    ["host_threads", "duration_s", "p50_ms", "p95_ms", "p99_ms", "checkpoint_bytes"];

struct Params {
    arch: ArchConfig,
    passes: usize,
    waves: usize,
    per_wave: usize,
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
            waves: 3,
            per_wave: 8,
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
            waves: 4,
            per_wave: 12,
        }
    }
}

/// The deterministic twin constructor: everything immutable about a
/// campaign die (weights, geometry, defects, spares, repair, config,
/// seeds) and nothing mutable — restore overwrites the rest. Fleet
/// dies and restore twins MUST come from this one function.
fn bare_die(p: &Params, seed: u64) -> Supervisor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sw = build_cnn(Method::SpinDrop, &p.arch, &mut rng);
    let config = HardwareConfig {
        crossbar: CrossbarConfig {
            defect_rates: DefectRates::uniform(0.001),
            ..CrossbarConfig::ideal()
        },
        passes: p.passes,
        spare_cols: 2,
        ..HardwareConfig::default()
    };
    let mut hw = HardwareModel::compile(&mut sw, Method::SpinDrop, &p.arch, &config, &mut rng);
    hw.fault_management(&BistConfig::default(), &mut rng);
    hw.enable_aging(&AgingConfig { seed: seed ^ 0xA9, ..AgingConfig::default() });
    // Generous monitor slack: only injected faults should move tiers.
    let health = HealthConfig { entropy_slack: 4.0, margin_slack: 4.0, ..HealthConfig::default() };
    let mut sup = Supervisor::new(
        hw,
        SupervisorConfig { seed, coverage: 0.98, health, ..SupervisorConfig::default() },
    );
    sup.set_checkpoint_interval(1);
    sup
}

/// A commissioned campaign die (what the fleet starts from).
fn die(p: &Params, seed: u64) -> Supervisor {
    let mut sup = bare_die(p, seed);
    let side = p.arch.side;
    let calib = Tensor::from_fn(&[16, 1, side, side], |i| ((i * 13 % 97) as f32 / 97.0) - 0.5);
    let monitor = Tensor::from_fn(&[8, 1, side, side], |i| ((i * 7 % 89) as f32 / 89.0) - 0.5);
    sup.commission(calib, &monitor);
    sup
}

fn sample(len: usize, tag: usize) -> Vec<f32> {
    (0..len).map(|i| (((i * 31 + tag * 131) % 83) as f32 / 83.0) - 0.5).collect()
}

fn probe_batch(p: &Params, tag: usize) -> Tensor {
    let side = p.arch.side;
    Tensor::from_fn(&[4, 1, side, side], |i| (((i * 17 + tag * 61) % 71) as f32 / 71.0) - 0.5)
}

/// Streaming FNV-1a-64 over raw bytes (response digesting).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Part 1: checkpoint → bare twin → three continued operations, all
/// bit-identical. Returns (identical, latched_tier_seen, bytes).
fn checkpoint_proof(p: &Params) -> (bool, bool, usize) {
    let seed = MASTER_SEED ^ 0x1CE;
    let mut a = die(p, seed);
    // A lifetime worth carrying: aging steps with scrub intervals, then
    // an abstention-threshold collapse so the die latches a tier.
    let inputs = probe_batch(p, 1);
    a.step(&inputs, 120.0);
    a.step(&inputs, 120.0);
    a.monitor_mut().set_abstain_entropy(1e-9);
    a.serve_predict(&inputs, seed ^ 0x51);
    let latched = a.policy() > neuspin_core::HealthPolicy::Healthy;

    let encoded = a.checkpoint();
    let bytes = encoded.len();
    let mut b = bare_die(p, seed);
    if b.restore_from_str(&encoded).is_err() {
        return (false, latched, bytes);
    }

    let mut identical = true;
    let cont = probe_batch(p, 2);
    identical &= a.serve_predict(&cont, 0xC0).predictive.bits_digest()
        == b.serve_predict(&cont, 0xC0).predictive.bits_digest();
    identical &= a.step(&cont, 45.0).predictive.bits_digest()
        == b.step(&cont, 45.0).predictive.bits_digest();
    identical &= a.serve_predict(&cont, 0xC1).predictive.bits_digest()
        == b.serve_predict(&cont, 0xC1).predictive.bits_digest();
    identical &= a.checkpoint() == b.checkpoint();
    (identical, latched, bytes)
}

struct StageCfg {
    name: &'static str,
    chaos: ChaosConfig,
    flips: bool,
    crashes: bool,
}

fn stage_cfgs() -> [StageCfg; STAGES] {
    let base = ChaosConfig {
        queue_stall_per_mille: 300,
        latency_spike_per_mille: 300,
        stall_millis: 2,
        spike_millis: 2,
        flips_per_event: 4,
        ..ChaosConfig::default()
    };
    [
        StageCfg {
            name: "timing",
            chaos: ChaosConfig { seed: CHAOS_SEED, ..base },
            flips: false,
            crashes: false,
        },
        StageCfg {
            name: "faults",
            chaos: ChaosConfig {
                seed: CHAOS_SEED + 1,
                worker_panic_per_mille: 200,
                malformed_per_mille: 150,
                weight_flip_per_mille: 300,
                ..base
            },
            flips: true,
            crashes: false,
        },
        StageCfg {
            name: "crashes",
            chaos: ChaosConfig {
                seed: CHAOS_SEED + 2,
                worker_panic_per_mille: 200,
                malformed_per_mille: 150,
                weight_flip_per_mille: 300,
                die_crash_per_mille: 500,
                ..base
            },
            flips: true,
            crashes: true,
        },
    ]
}

#[derive(Default)]
struct StageOutcome {
    requests: usize,
    ok: usize,
    bad: usize,
    malformed_sent: usize,
    dropped: usize,
    shed: usize,
    unserveable: usize,
    expired: usize,
    crashes: usize,
    restores: usize,
    gates_passed: usize,
    restored_equal: bool,
    flips: usize,
    conserved: bool,
    drained: bool,
    eligible_final: usize,
    digest: String,
    latencies: Vec<f64>,
}

fn run_stage(p: &Params, stage: usize, cfg: &StageCfg) -> StageOutcome {
    let base = MASTER_SEED + 0x100 * (stage as u64 + 1);
    let plan = ChaosPlan::new(cfg.chaos);
    let input_len = p.arch.side * p.arch.side;
    eprintln!("stage {stage} ({}): commissioning {DIES} dies ...", cfg.name);
    let fleet = DieFleet::new((0..DIES).map(|d| die(p, base + d as u64)).collect());
    let config = ServeConfig {
        input_shape: vec![1, p.arch.side, p.arch.side],
        max_batch: 8,
        queue_capacity: 256,
        conn_capacity: 256,
        http_workers: 2,
        request_timeout: Duration::from_secs(20),
        seed: base,
        chaos: cfg.chaos,
        ..ServeConfig::default()
    };
    let mut handle = serve(fleet, config).expect("bind serving socket");
    let addr = handle.addr();

    let mut out = StageOutcome { restored_equal: true, ..StageOutcome::default() };
    let mut digest = Fnv::new();
    let mut req_index = 0u64;
    for w in 0..p.waves {
        // Fault events land at wave boundaries: no request is in
        // flight, so the injection points are deterministic.
        for d in 0..DIES {
            let key = (w * DIES + d) as u64;
            if cfg.flips && plan.fires(ChaosSite::WeightFlip, key) {
                let n = plan.config().flips_per_event;
                let s = plan.draw(ChaosSite::WeightFlip, key, 1);
                let flipped = handle
                    .fleet()
                    .with_die(d, |sup| sup.model_mut().flip_stored_weight_bits(n, s));
                out.flips += flipped;
                // The injector is in-process with the server, so the
                // injection itself lands in the same flight ring the
                // serve layer writes — the dump alone reconstructs it.
                flight::record(
                    "chaos_flip",
                    vec![
                        ("site", Json::Str(ChaosSite::WeightFlip.name().to_string())),
                        ("stage", Json::Num(stage as f64)),
                        ("wave", Json::Num(w as f64)),
                        ("die", Json::Num(d as f64)),
                        ("flips", Json::Num(flipped as f64)),
                    ],
                );
            }
            // Crash only once traffic has produced a stable checkpoint
            // to restart from, and never take the last eligible die.
            if cfg.crashes
                && w > 0
                && plan.fires(ChaosSite::DieCrash, key)
                && handle.fleet().eligible_count() > 1
                && !handle.fleet().is_down(d)
                && handle.fleet().stable_checkpoint(d).is_some()
            {
                handle.fleet().crash(d);
                out.crashes += 1;
            }
        }

        // Traffic wave: sequential closed-loop requests (so batch
        // composition, routing, and chaos keys are all deterministic).
        for _ in 0..p.per_wave {
            let k = req_index;
            req_index += 1;
            let started = Instant::now();
            let resp = if plan.fires(ChaosSite::MalformedRequest, k) {
                out.malformed_sent += 1;
                flight::record(
                    "chaos_malformed",
                    vec![
                        ("site", Json::Str(ChaosSite::MalformedRequest.name().to_string())),
                        ("stage", Json::Num(stage as f64)),
                        ("req", Json::Num(k as f64)),
                    ],
                );
                let cut = (plan.draw(ChaosSite::MalformedRequest, k, 2) % 20) as usize;
                let body = format!("{{\"input\": [0.25, -0.5{}", "x".repeat(cut));
                client::request(addr, "POST", "/predict", Some(&body), CLIENT_TIMEOUT)
            } else {
                let tag = stage * 1_000_000 + k as usize;
                client::predict(addr, &sample(input_len, tag), CLIENT_TIMEOUT)
            };
            out.requests += 1;
            match resp {
                Ok(resp) => {
                    out.latencies.push(started.elapsed().as_secs_f64() * 1e3);
                    digest.eat(&resp.status.to_be_bytes());
                    digest.eat(&resp.body);
                    match resp.status {
                        200 => out.ok += 1,
                        400 => out.bad += 1,
                        429 => out.shed += 1,
                        503 => out.unserveable += 1,
                        _ => out.expired += 1,
                    }
                }
                Err(_) => out.dropped += 1,
            }
        }

        // Crash-restart every down die: last stable checkpoint onto a
        // bare twin, BIST gate, byte-equality probe vs a no-crash
        // control restored from the same bytes.
        for d in 0..DIES {
            if !handle.fleet().is_down(d) {
                continue;
            }
            let stable = handle
                .fleet()
                .stable_checkpoint(d)
                .expect("crashed die must hold a stable checkpoint");
            let gate = handle
                .fleet()
                .restore_die(d, bare_die(p, base + d as u64))
                .expect("stable checkpoint must decode");
            out.restores += 1;
            if !gate.passed {
                eprintln!("stage {stage}: die {d} failed its BIST re-commission gate");
                continue;
            }
            out.gates_passed += 1;
            let mut control = bare_die(p, base + d as u64);
            control.restore_from_str(&stable).expect("control restore");
            let probe = probe_batch(p, 0x9900 + w * DIES + d);
            let pseed = base ^ 0x77AA ^ ((w * DIES + d) as u64);
            let want = control.serve_predict(&probe, pseed).predictive.bits_digest();
            let got = handle
                .fleet()
                .predict_on(d, &probe, pseed)
                .expect("restored die serves")
                .predictive
                .bits_digest();
            if got != want {
                eprintln!("stage {stage}: die {d} restored outputs diverge from control");
                out.restored_equal = false;
            }
        }
    }

    let stats = handle.stats();
    out.conserved = stats.is_conserved();
    out.eligible_final = handle.fleet().eligible_count();
    let drain = handle.shutdown(Duration::from_secs(10));
    out.drained = drain.drained;
    out.digest = digest.hex();
    eprintln!(
        "stage {stage} ({}): {} requests, {} ok, {} bad, {} crashes, {} restores, \
         {} flips, digest {}",
        cfg.name, out.requests, out.ok, out.bad, out.crashes, out.restores, out.flips,
        out.digest,
    );
    out
}

#[derive(Debug)]
struct Report {
    fast_mode: f64,
    host_threads: f64,
    dies: f64,
    stages: f64,
    roundtrip_identical: f64,
    roundtrip_latched: f64,
    checkpoint_bytes: f64,
    stage_requests: Vec<f64>,
    stage_ok: Vec<f64>,
    stage_bad: Vec<f64>,
    stage_malformed: Vec<f64>,
    stage_conserved: Vec<f64>,
    stage_drained: Vec<f64>,
    stage_eligible_final: Vec<f64>,
    stage_digests: Vec<String>,
    crashes: f64,
    restores: f64,
    bist_gates_passed: f64,
    restored_byte_equal: f64,
    flips_injected: f64,
    chaos_stalls: f64,
    chaos_spikes: f64,
    chaos_worker_panics: f64,
    flight_events: f64,
    flight_dropped: f64,
    flight_reconstructed: f64,
    dropped: f64,
    shed: f64,
    unserveable: f64,
    deadline_expired: f64,
    duration_s: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

neuspin_core::impl_to_json!(Report {
    fast_mode,
    host_threads,
    dies,
    stages,
    roundtrip_identical,
    roundtrip_latched,
    checkpoint_bytes,
    stage_requests,
    stage_ok,
    stage_bad,
    stage_malformed,
    stage_conserved,
    stage_drained,
    stage_eligible_final,
    stage_digests,
    crashes,
    restores,
    bist_gates_passed,
    restored_byte_equal,
    flips_injected,
    chaos_stalls,
    chaos_spikes,
    chaos_worker_panics,
    flight_events,
    flight_dropped,
    flight_reconstructed,
    dropped,
    shed,
    unserveable,
    deadline_expired,
    duration_s,
    p50_ms,
    p95_ms,
    p99_ms,
});

/// Reads one counter's value out of the Prometheus exposition.
fn counter_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next() == Some(name)).then(|| parts.next()?.parse::<f64>().ok())?
        })
        .unwrap_or(0.0)
}

/// What the campaign injected / recovered, per the live counters — the
/// ground truth the flight dump must reconstruct on its own.
struct FaultLedger {
    stalls: f64,
    spikes: f64,
    panics: f64,
    crashes: f64,
    restores: f64,
    gates_passed: f64,
    flips: f64,
    malformed: f64,
}

/// Replays the flight-recorder JSONL and proves every injected fault is
/// reconstructable from the dump alone: injection site, affected
/// request ids, and recovery outcome. Exact-count matches against the
/// live ledger; every `die_crash` must pair with a later gate-passing
/// `die_restore` of the same die.
fn reconstruct_faults(dump: &str, want: &FaultLedger) -> Result<(), String> {
    let mut got = FaultLedger {
        stalls: 0.0,
        spikes: 0.0,
        panics: 0.0,
        crashes: 0.0,
        restores: 0.0,
        gates_passed: 0.0,
        flips: 0.0,
        malformed: 0.0,
    };
    // Crashed dies awaiting a gate-passing restore, in crash order.
    let mut open_crashes: Vec<f64> = Vec::new();
    for (i, line) in dump.lines().enumerate() {
        let ev = json::parse(line).map_err(|e| format!("flight line {i} unparseable: {e:?}"))?;
        let kind = ev
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("flight line {i} has no kind"))?;
        let num = |key: &str| {
            ev.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("flight {kind} line {i} missing {key}"))
        };
        // Lineage contract: every per-request event names its victims.
        match kind {
            "route" | "answered" | "chaos_stall" | "chaos_spike" | "failover"
            | "unserveable" | "sample_retry" => {
                let rids = ev
                    .get("rids")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("flight {kind} line {i} missing rids"))?;
                if rids.is_empty() {
                    return Err(format!("flight {kind} line {i} names no request ids"));
                }
            }
            "chaos_worker_panic" | "shed" | "expired" => {
                num("rid")?;
            }
            _ => {}
        }
        match kind {
            "chaos_stall" => got.stalls += 1.0,
            "chaos_spike" => got.spikes += 1.0,
            "chaos_worker_panic" => got.panics += 1.0,
            "chaos_flip" => got.flips += num("flips")?,
            "chaos_malformed" => got.malformed += 1.0,
            "die_crash" => {
                got.crashes += 1.0;
                open_crashes.push(num("die")?);
            }
            "die_restore" => {
                got.restores += 1.0;
                let die = num("die")?;
                if ev.get("bist_passed").and_then(Json::as_bool) == Some(true) {
                    got.gates_passed += 1.0;
                    if let Some(pos) = open_crashes.iter().position(|&d| d == die) {
                        open_crashes.remove(pos);
                    }
                }
            }
            _ => {}
        }
    }
    let pairs = [
        ("queue stalls", got.stalls, want.stalls),
        ("latency spikes", got.spikes, want.spikes),
        ("worker panics", got.panics, want.panics),
        ("die crashes", got.crashes, want.crashes),
        ("die restores", got.restores, want.restores),
        ("passed gates", got.gates_passed, want.gates_passed),
        ("weight flips", got.flips, want.flips),
        ("malformed requests", got.malformed, want.malformed),
    ];
    for (what, g, w) in pairs {
        if g != w {
            return Err(format!("dump reconstructs {g} {what}, ledger says {w}"));
        }
    }
    if !open_crashes.is_empty() {
        return Err(format!(
            "crashed dies {open_crashes:?} never restored through a passing gate in the dump"
        ));
    }
    Ok(())
}

fn check() -> Result<String, String> {
    let artifact = Artifact::result("exp_chaos.json")?;
    let report = artifact.root();

    // 1. The checkpoint round-trip proof held on a latched die.
    report.expect("roundtrip_identical", 1.0)?;
    report.expect("roundtrip_latched", 1.0)?;

    // 2. Conservation + zero silent drops, every stage.
    for key in ["dropped", "shed", "unserveable", "deadline_expired"] {
        report.expect(key, 0.0)?;
    }
    for key in ["stage_conserved", "stage_drained"] {
        let flags = report.nums(key)?;
        report.ensure(flags.iter().all(|&f| f == 1.0), || {
            format!("{key} must be all-1, got {flags:?}")
        })?;
    }
    let dies = report.num("dies")?;
    let eligible = report.nums("stage_eligible_final")?;
    report.ensure(eligible.iter().all(|&e| e == dies), || {
        format!("stage_eligible_final: fleet must end every stage fully serveable, got {eligible:?}")
    })?;
    // Malformed requests were injected and every one was answered 4xx.
    let (bad, malformed) = (report.nums("stage_bad")?, report.nums("stage_malformed")?);
    report.ensure(bad == malformed && malformed.iter().sum::<f64>() >= 1.0, || {
        format!("every stage_malformed request must 4xx (stage_bad {bad:?} vs sent {malformed:?})")
    })?;

    // 3. The faults actually struck: crash, restore, gate, byte-equal.
    let crashes = report.num("crashes")?;
    let restores = report.num("restores")?;
    let gates = report.num("bist_gates_passed")?;
    report.ensure(crashes >= 1.0 && restores == crashes && gates == restores, || {
        format!(
            "need >=1 crash with every restore gate-passed \
             (crashes {crashes}, restores {restores}, bist_gates_passed {gates})"
        )
    })?;
    report.expect("restored_byte_equal", 1.0)?;
    for key in ["flips_injected", "chaos_stalls", "chaos_worker_panics"] {
        report.at_least(key, 1.0)?;
    }

    // 3b. The black box: the flight dump alone — no counters, no live
    // state — must reconstruct every injected fault with its site,
    // affected request ids, and recovery outcome, and the ring must
    // not have dropped a single event.
    report.expect("flight_reconstructed", 1.0)?;
    report.expect("flight_dropped", 0.0)?;
    let flight_path = results_dir().join("exp_chaos_flight.jsonl");
    let ledger = FaultLedger {
        stalls: report.num("chaos_stalls")?,
        spikes: report.num("chaos_spikes")?,
        panics: report.num("chaos_worker_panics")?,
        crashes,
        restores,
        gates_passed: gates,
        flips: report.num("flips_injected")?,
        malformed: malformed.iter().sum::<f64>(),
    };
    reconstruct_faults(&artifact::read(&flight_path)?, &ledger).map_err(|why| {
        format!("{} does not reconstruct the campaign: {why}", flight_path.display())
    })?;

    // 4. Latency bounded despite the injected timing faults.
    let p99 = report.num("p99_ms")?;
    report.ensure(p99 > 0.0 && p99 <= P99_BUDGET_MS, || {
        format!("p99_ms {p99:.1} outside (0, {P99_BUDGET_MS:.0}] budget")
    })?;

    Ok(format!(
        "exp_chaos.json: round-trip held, {crashes} crashes all restored through the \
         BIST gate byte-equal, conservation exact, flight dump reconstructs the campaign, \
         p99 {p99:.1} ms (budget {P99_BUDGET_MS:.0})",
    ))
}

fn main() -> ExitCode {
    artifact::main(run, check)
}

fn run() -> ExitCode {
    let fast = neuspin_bench::fast_mode();
    let p = params(fast);
    println!("== Chaos campaign: {DIES} dies, {STAGES} escalating stages ==\n");

    // Injected worker panics are part of the campaign; keep their spam
    // out of stderr while leaving real panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("chaos:") {
            default_hook(info);
        }
    }));

    telemetry::set_enabled(true, false);
    telemetry::reset();
    let started = Instant::now();

    eprintln!("part 1: checkpoint round-trip proof ...");
    let (roundtrip_identical, roundtrip_latched, checkpoint_bytes) = checkpoint_proof(&p);
    println!(
        "checkpoint round-trip: identical={roundtrip_identical} latched={roundtrip_latched} \
         ({checkpoint_bytes} bytes)"
    );

    // Arm the flight recorder for the campaign: every injection,
    // routing decision, failover, crash, and gated restore lands in
    // one ring, dumped to disk on die crash / drain / panic and again
    // (complete) after the last stage. CI byte-compares the dump
    // across NEUSPIN_THREADS configurations.
    let flight_path = results_dir().join("exp_chaos_flight.jsonl");
    flight::reset();
    flight::set_capacity(1 << 16);
    flight::set_dump_path(Some(flight_path.clone()));
    flight::set_enabled(true);

    let cfgs = stage_cfgs();
    let outcomes: Vec<StageOutcome> =
        cfgs.iter().enumerate().map(|(i, cfg)| run_stage(&p, i, cfg)).collect();

    flight::set_enabled(false);
    let flight_events = flight::len() as f64;
    let flight_dropped = flight::dropped();
    let flight_dump = flight::to_jsonl();
    flight::dump_to(&flight_path).expect("cannot write flight dump");
    println!("[wrote {} ({} events)]", flight_path.display(), flight_events);

    let prometheus = telemetry::prometheus_text();
    telemetry::set_enabled(false, false);
    telemetry::reset();
    let duration_s = started.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> =
        outcomes.iter().flat_map(|o| o.latencies.iter().copied()).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let (p50, p95, p99) = (
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
    );
    let total: usize = outcomes.iter().map(|o| o.requests).sum();
    println!("\n{total} requests across {STAGES} stages in {duration_s:.2} s");
    println!("  latency p50/p95/p99: {p50:.2}/{p95:.2}/{p99:.2} ms");

    // Black-box proof: the dump alone must reconstruct every injected
    // fault, exactly, with its victims and recovery outcome.
    let ledger = FaultLedger {
        stalls: counter_value(&prometheus, "serve_chaos_stalls_total"),
        spikes: counter_value(&prometheus, "serve_chaos_spikes_total"),
        panics: counter_value(&prometheus, "serve_chaos_worker_panics_total"),
        crashes: outcomes.iter().map(|o| o.crashes as f64).sum(),
        restores: outcomes.iter().map(|o| o.restores as f64).sum(),
        gates_passed: outcomes.iter().map(|o| o.gates_passed as f64).sum(),
        flips: outcomes.iter().map(|o| o.flips as f64).sum(),
        malformed: outcomes.iter().map(|o| o.malformed_sent as f64).sum(),
    };
    let reconstructed = match reconstruct_faults(&flight_dump, &ledger) {
        Ok(()) => {
            println!("flight dump reconstructs every injected fault ({flight_events} events)");
            true
        }
        Err(why) => {
            eprintln!("flight reconstruction FAILED: {why}");
            false
        }
    };

    let report = Report {
        fast_mode: if fast { 1.0 } else { 0.0 },
        host_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            as f64,
        dies: DIES as f64,
        stages: STAGES as f64,
        roundtrip_identical: if roundtrip_identical { 1.0 } else { 0.0 },
        roundtrip_latched: if roundtrip_latched { 1.0 } else { 0.0 },
        checkpoint_bytes: checkpoint_bytes as f64,
        stage_requests: outcomes.iter().map(|o| o.requests as f64).collect(),
        stage_ok: outcomes.iter().map(|o| o.ok as f64).collect(),
        stage_bad: outcomes.iter().map(|o| o.bad as f64).collect(),
        stage_malformed: outcomes.iter().map(|o| o.malformed_sent as f64).collect(),
        stage_conserved: outcomes
            .iter()
            .map(|o| if o.conserved { 1.0 } else { 0.0 })
            .collect(),
        stage_drained: outcomes.iter().map(|o| if o.drained { 1.0 } else { 0.0 }).collect(),
        stage_eligible_final: outcomes.iter().map(|o| o.eligible_final as f64).collect(),
        stage_digests: outcomes.iter().map(|o| o.digest.clone()).collect(),
        crashes: outcomes.iter().map(|o| o.crashes as f64).sum(),
        restores: outcomes.iter().map(|o| o.restores as f64).sum(),
        bist_gates_passed: outcomes.iter().map(|o| o.gates_passed as f64).sum(),
        restored_byte_equal: if outcomes.iter().all(|o| o.restored_equal) { 1.0 } else { 0.0 },
        flips_injected: outcomes.iter().map(|o| o.flips as f64).sum(),
        chaos_stalls: counter_value(&prometheus, "serve_chaos_stalls_total"),
        chaos_spikes: counter_value(&prometheus, "serve_chaos_spikes_total"),
        chaos_worker_panics: counter_value(&prometheus, "serve_chaos_worker_panics_total"),
        flight_events,
        flight_dropped: flight_dropped as f64,
        flight_reconstructed: if reconstructed { 1.0 } else { 0.0 },
        dropped: outcomes.iter().map(|o| o.dropped as f64).sum(),
        shed: outcomes.iter().map(|o| o.shed as f64).sum(),
        unserveable: outcomes.iter().map(|o| o.unserveable as f64).sum(),
        deadline_expired: outcomes.iter().map(|o| o.expired as f64).sum(),
        duration_s,
        p50_ms: p50,
        p95_ms: p95,
        p99_ms: p99,
    };

    write_json("exp_chaos", &report);
    // BENCH_chaos.json carries only the thread-count-invariant fields:
    // CI byte-compares it across NEUSPIN_THREADS configurations.
    let deterministic = match report.to_json() {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| !NONDETERMINISTIC_KEYS.contains(&k.as_str()))
                .collect(),
        ),
        other => other,
    };
    write_bench("chaos", &deterministic);

    let fatal = !roundtrip_identical
        || !reconstructed
        || flight_dropped > 0
        || outcomes.iter().any(|o| {
            o.dropped > 0 || !o.conserved || !o.drained || !o.restored_equal
        });
    if fatal {
        eprintln!("chaos gate FAILED (see report)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
