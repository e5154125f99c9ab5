//! Open-loop load generator for `POST /predict`.
//!
//! Requests follow a seeded Poisson arrival schedule, whatever the
//! server does: a slow answer delays later sends (the generator lag)
//! but never thins the schedule. At most `workers` threads send, each
//! with one connection in flight. Every request is timed from its due
//! time, so a stall also charges the wait it imposes on the requests
//! queued behind it.

use crate::trace::{foreign_parent, SpanId, Tracer};
use neuspin_core::json::{self, Json};
use neuspin_core::serve::client;
use neuspin_core::RequestTrace;
use rand::rngs::StdRng;
use rand::RngExt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client-side timeout of one request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// One request's fate.
#[derive(Debug, Clone, Copy)]
pub struct Obs {
    /// Due time → response read, ms.
    pub latency_ms: f64,
    /// Due time → send start, ms.
    pub lag_ms: f64,
    /// HTTP status (0 = transport failure).
    pub status: u16,
    /// The 200 carried a parseable `X-NeuSpin-Trace` naming the same die
    /// as the body, and a well-formed class distribution.
    pub valid: bool,
}

impl Obs {
    pub fn ok(&self) -> bool {
        self.status == 200 && self.valid
    }
}

/// Seeded Poisson arrival offsets (ns from phase start) for `n`
/// requests at `rate` per second.
pub fn poisson_schedule(rate: f64, n: usize, rng: &mut StdRng) -> Vec<u64> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.random::<f64>();
            t += -(1.0 - u).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// Sends `bodies[order[i]]` at `due_ns[i]` for every `i` and returns the
/// observations in schedule order. With `tracer` on, each request gets a
/// `core::serve` span under `parent`.
pub fn run(
    addr: SocketAddr,
    bodies: &[String],
    order: &[usize],
    due_ns: &[u64],
    workers: usize,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Vec<Obs> {
    assert_eq!(order.len(), due_ns.len(), "one body per scheduled request");
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let traced = tracer.enabled();
    let origin = tracer.origin();
    let mut all: Vec<(usize, Obs)> = Vec::with_capacity(order.len());
    let locals: Vec<(Vec<(usize, Obs)>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut local = Tracer::with_origin(traced, origin);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= order.len() {
                            break;
                        }
                        let due = start + Duration::from_nanos(due_ns[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let span = local.begin_under(
                            "core::serve",
                            "POST /predict",
                            foreign_parent(parent),
                        );
                        let resp = client::request(
                            addr,
                            "POST",
                            "/predict",
                            Some(&bodies[order[i]]),
                            REQUEST_TIMEOUT,
                        );
                        local.end(span);
                        let done = Instant::now();
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        let (status, valid) = match resp {
                            Ok(r) => (r.status, validate(&r)),
                            Err(_) => (0, false),
                        };
                        out.push((
                            i,
                            Obs {
                                latency_ms: ms(done.saturating_duration_since(due)),
                                lag_ms: ms(sent.saturating_duration_since(due)),
                                status,
                                valid,
                            },
                        ));
                    }
                    (out, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    for (out, local) in locals {
        all.extend(out);
        tracer.absorb(local);
    }
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, o)| o).collect()
}

/// Checks one `/predict` answer: a parseable `X-NeuSpin-Trace` naming
/// the die the body names, and a probability vector whose argmax is the
/// reported class.
fn validate(r: &client::Response) -> bool {
    if r.status != 200 {
        return false;
    }
    let Ok(body) = json::parse(&r.text()) else {
        return false;
    };
    let die = body
        .get("die")
        .and_then(Json::as_f64)
        .map_or(-1, |d| d as i64);
    let traced = r
        .header("x-neuspin-trace")
        .and_then(RequestTrace::parse_header)
        .is_some_and(|t| t.die as i64 == die);
    let probs: Vec<f64> = body
        .get("probs")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    let class = body.get("class").and_then(Json::as_f64).unwrap_or(-1.0);
    let argmax = probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(-1.0, |(k, _)| k as f64);
    let sum: f64 = probs.iter().sum();
    traced && die >= 0 && !probs.is_empty() && class == argmax && (sum - 1.0).abs() < 1e-3
}
