//! The flight recorder — a black box for the serving fleet.
//!
//! A process-global, fixed-capacity ring buffer of structured events:
//! routing decisions, failovers, chaos injections, die crashes,
//! BIST-gated restores, shed/abstain verdicts. Each event carries the
//! request ids involved, so a post-mortem can reconstruct *which*
//! requests a fault touched without replaying the campaign.
//!
//! Determinism contract (PR 5): events carry only deterministic fields
//! — request ids, batch indices, die ids, tiers, outcome flags. No
//! wall-clock, no RNG. Under a sequential closed-loop driver the
//! recorded stream is therefore bit-identical across `NEUSPIN_THREADS`,
//! which `ci.sh` enforces by byte-comparing the `exp_chaos` dump.
//!
//! The recorder is disabled by default and costs one relaxed atomic
//! load per call site when off. Dumps are stable-field-order JSONL —
//! `seq`, `kind`, then the event's fields in insertion order — written
//! on demand ([`to_jsonl`], [`dump_to`]) and best-effort on the three
//! black-box moments ([`dump_if_configured`]): a caught worker panic,
//! a die crash, and drain.

use crate::json::Json;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Default ring capacity: generous for a chaos campaign, bounded so a
/// runaway event source cannot exhaust memory.
pub const DEFAULT_CAPACITY: usize = 8192;

/// One recorded event: a monotone sequence number, a static kind tag,
/// and the event's fields in insertion order.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Position in the recorded stream (monotone, pre-drop).
    pub seq: u64,
    /// Event kind, e.g. `"route"`, `"failover"`, `"die_crash"`.
    pub kind: &'static str,
    /// Structured payload; field order is preserved into the dump.
    pub fields: Vec<(&'static str, Json)>,
}

impl FlightEvent {
    /// The event as a single stable-field-order JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::with_capacity(self.fields.len() + 2);
        pairs.push(("seq".to_string(), Json::Num(self.seq as f64)));
        pairs.push(("kind".to_string(), Json::Str(self.kind.to_string())));
        for (k, v) in &self.fields {
            pairs.push(((*k).to_string(), v.clone()));
        }
        Json::Obj(pairs)
    }
}

struct Inner {
    events: VecDeque<FlightEvent>,
    capacity: usize,
    next_seq: u64,
    dump_path: Option<PathBuf>,
}

struct Recorder {
    enabled: AtomicBool,
    dropped: AtomicU64,
    inner: Mutex<Inner>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        dropped: AtomicU64::new(0),
        inner: Mutex::new(Inner {
            events: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            next_seq: 0,
            dump_path: None,
        }),
    })
}

/// Recover a poisoned recorder lock: the protected state is a deque +
/// counters, valid whatever a panicking recorder-holder left behind —
/// and the black box must keep recording *through* panics.
fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Turns recording on or off (off by default).
pub fn set_enabled(on: bool) {
    recorder().enabled.store(on, Ordering::Relaxed);
}

/// True when [`record`] currently stores events.
pub fn enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

/// Resizes the ring; oldest events are dropped if over the new bound.
pub fn set_capacity(capacity: usize) {
    assert!(capacity > 0, "flight-recorder capacity must be positive");
    let r = recorder();
    let mut inner = lock(&r.inner);
    inner.capacity = capacity;
    while inner.events.len() > capacity {
        inner.events.pop_front();
        r.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// Sets (or clears) the path [`dump_if_configured`] writes to.
pub fn set_dump_path(path: Option<PathBuf>) {
    lock(&recorder().inner).dump_path = path;
}

/// Records one event. A no-op while disabled; when the ring is full
/// the oldest event is evicted and counted in [`dropped`].
pub fn record(kind: &'static str, fields: Vec<(&'static str, Json)>) {
    let r = recorder();
    if !r.enabled.load(Ordering::Relaxed) {
        return;
    }
    let mut inner = lock(&r.inner);
    if inner.events.len() >= inner.capacity {
        inner.events.pop_front();
        r.dropped.fetch_add(1, Ordering::Relaxed);
    }
    let seq = inner.next_seq;
    inner.next_seq += 1;
    inner.events.push_back(FlightEvent { seq, kind, fields });
}

/// Number of events currently held in the ring.
pub fn len() -> usize {
    lock(&recorder().inner).events.len()
}

/// Number of events evicted because the ring was full. A reconstruction
/// proof requires this to be zero for the campaign under test.
pub fn dropped() -> u64 {
    recorder().dropped.load(Ordering::Relaxed)
}

/// A copy of the current ring contents, oldest first.
pub fn snapshot() -> Vec<FlightEvent> {
    lock(&recorder().inner).events.iter().cloned().collect()
}

/// The ring as JSONL: one stable-field-order object per line, oldest
/// first, with a trailing newline (empty string when the ring is
/// empty).
pub fn to_jsonl() -> String {
    let events = snapshot();
    let mut out = String::new();
    for e in &events {
        out.push_str(&e.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Writes the ring as JSONL to `path`, creating parent directories.
pub fn dump_to(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, to_jsonl())
}

/// Best-effort dump to the configured path (no-op when none is set or
/// recording is off). Called at the black-box moments — caught worker
/// panic, die crash, drain — where losing the write must not take the
/// server down with it, so errors are swallowed.
pub fn dump_if_configured() {
    if !enabled() {
        return;
    }
    let path = lock(&recorder().inner).dump_path.clone();
    if let Some(path) = path {
        let _ = dump_to(&path);
    }
}

/// Clears the ring, the sequence counter, and the dropped count.
/// Enabled state, capacity, and dump path are left as configured.
pub fn reset() {
    let r = recorder();
    let mut inner = lock(&r.inner);
    inner.events.clear();
    inner.next_seq = 0;
    r.dropped.store(0, Ordering::Relaxed);
}
