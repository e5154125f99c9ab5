//! A minimal built-in micro-benchmark harness (criterion replacement).
//!
//! The workspace cannot depend on crates.io, so the four bench targets
//! under `benches/` run on this small harness instead: per-bench
//! auto-calibrated batch sizes, median-of-batches reporting, and a
//! machine-readable JSON dump next to the human table — the same
//! results-file convention as the experiment binaries.
//!
//! Methodology: [`Bencher::iter`] first warms the closure up for a
//! fixed budget, sizes a batch from the observed rate so one batch
//! lasts ~10 ms, then times [`BATCHES`] batches — each as
//! [`SAMPLES_PER_BATCH`] equal chunks, so the statistics run over
//! `BATCHES × SAMPLES_PER_BATCH` per-iteration samples rather than ten
//! batch means (ten samples made nearest-rank p95 and p99 the same
//! element, always). The headline number is the median sample; min and
//! mean ride along. `NEUSPIN_BENCH_FAST=1` shrinks the budgets ~20×
//! for smoke runs and CI.
//!
//! ```no_run
//! use neuspin_bench::timing::{black_box, Harness};
//!
//! let mut h = Harness::new("demo");
//! h.bench("demo/add", |b| b.iter(|| black_box(2u64 + 2)));
//! h.finish();
//! ```

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of timed batches per benchmark.
pub const BATCHES: usize = 10;

/// Timing samples taken per batch: each batch runs as this many equal
/// chunks, each chunk contributing one per-iteration sample. With
/// `BATCHES × SAMPLES_PER_BATCH = 100` samples, nearest-rank p95 and
/// p99 resolve to distinct observations (over 10 batch means they
/// collapsed to the same element).
pub const SAMPLES_PER_BATCH: usize = 10;

/// Upper bound on a calibrated batch size. One noisy warm-up sample of
/// an ultra-fast closure can suggest a batch of billions of iterations;
/// the clamp keeps a single batch bounded regardless.
pub const MAX_BATCH: u64 = 1 << 24;

/// Extra timed budget granted to slow closures, in units of the target
/// batch duration (see the slow path in [`Bencher::iter`]).
const SLOW_BUDGET_BATCHES: usize = 4;

/// Runs closures under the timer for one named benchmark.
pub struct Bencher {
    warmup: Duration,
    target_batch: Duration,
    batch_size: u64,
    samples: Vec<f64>,
}

impl Bencher {
    /// Warms up, calibrates the batch size, then times `f` over
    /// [`BATCHES`] batches.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Warmup: run until the budget elapses, counting iterations.
        let start = Instant::now();
        let mut warm_iters: u64 = 0;
        while start.elapsed() < self.warmup {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let target = self.target_batch.as_secs_f64();
        if warm_iters > 0 && per_iter >= target {
            // Slow closure: one call already overshoots the target
            // batch, so the calibrated size is 1 and the batch count is
            // the only remaining knob. Sizing BATCHES full batches off
            // that single noisy warm-up sample made smoke runs take
            // ~11x one call; instead keep the warm-up measurement as a
            // sample and bound the extra timed calls by a fixed time
            // budget.
            self.batch_size = 1;
            self.samples.push(per_iter);
            let extra = ((SLOW_BUDGET_BATCHES as f64 * target / per_iter) as usize)
                .clamp(1, BATCHES - 1);
            for _ in 0..extra {
                let start = Instant::now();
                black_box(f());
                self.samples.push(start.elapsed().as_secs_f64());
            }
            return;
        }
        // Size a chunk (one timing sample) at 1/SAMPLES_PER_BATCH of
        // the target batch; a batch is SAMPLES_PER_BATCH back-to-back
        // chunks, so total timed work matches the old one-timer-per-
        // batch scheme while percentiles see 10× the samples.
        let chunk_target = target / SAMPLES_PER_BATCH as f64;
        let chunk = ((chunk_target / per_iter.max(1e-12)) as u64).clamp(1, MAX_BATCH);
        self.batch_size = chunk;
        for _ in 0..BATCHES * SAMPLES_PER_BATCH {
            let start = Instant::now();
            for _ in 0..chunk {
                black_box(f());
            }
            let elapsed = start.elapsed().as_secs_f64();
            self.samples.push(elapsed / chunk as f64);
        }
    }
}

/// One benchmark's summary statistics (per-iteration, nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Iterations per timing sample (one chunk under the timer).
    pub batch_size: u64,
    /// Number of timing samples the statistics are computed over.
    pub batches: usize,
    /// Median per-iteration sample (ns/iter) — the headline number.
    pub median_ns: f64,
    /// Mean over all samples (ns/iter).
    pub mean_ns: f64,
    /// Fastest sample (ns/iter).
    pub min_ns: f64,
    /// 50th percentile of per-iteration samples (ns/iter, nearest-rank).
    pub p50_ns: f64,
    /// 95th percentile of per-iteration samples (ns/iter, nearest-rank).
    pub p95_ns: f64,
    /// 99th percentile of per-iteration samples (ns/iter, nearest-rank).
    pub p99_ns: f64,
}

neuspin_core::impl_to_json!(Measurement {
    name,
    batch_size,
    batches,
    median_ns,
    mean_ns,
    min_ns,
    p50_ns,
    p95_ns,
    p99_ns,
});

/// Nearest-rank percentile of an ascending-sorted sample
/// (`q` in `[0, 100]`): the smallest element such that at least
/// `q`% of the sample is ≤ it.
///
/// # Panics
///
/// Panics if `sorted_ns` is empty or `q` is outside `[0, 100]`.
pub fn percentile(sorted_ns: &[f64], q: f64) -> f64 {
    assert!(!sorted_ns.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&q), "q must be in [0, 100], got {q}");
    let n = sorted_ns.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, n) - 1]
}

/// Best-of-`reps` wall time of `calls` back-to-back invocations of `f`,
/// as nanoseconds per call: the headline timer of `exp_throughput`,
/// which `exp_observe` re-runs to gate against its numbers.
pub fn time_ns_per_call(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
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

/// A named collection of benchmarks: times each, prints a table, and
/// writes `results/bench_<suite>.json`.
pub struct Harness {
    suite: String,
    warmup: Duration,
    target_batch: Duration,
    results: Vec<Measurement>,
}

impl Harness {
    /// Creates a harness for the named suite.
    pub fn new(suite: impl Into<String>) -> Self {
        let suite = suite.into();
        let fast = crate::fast_mode();
        let (warmup, target_batch) = if fast {
            (Duration::from_micros(500), Duration::from_micros(500))
        } else {
            (Duration::from_millis(10), Duration::from_millis(10))
        };
        println!("suite: {suite}");
        Self { suite, warmup, target_batch, results: Vec::new() }
    }

    /// Benchmarks one named closure.
    pub fn bench(&mut self, name: &str, run: impl FnOnce(&mut Bencher)) {
        let mut b = Bencher {
            warmup: self.warmup,
            target_batch: self.target_batch,
            batch_size: 1,
            samples: Vec::new(),
        };
        run(&mut b);
        let m = summarize(name, b);
        println!(
            "  {:<44} {:>12}/iter  (min {}, mean {}, {} x {} iters)",
            m.name,
            format_ns(m.median_ns),
            format_ns(m.min_ns),
            format_ns(m.mean_ns),
            m.batches,
            m.batch_size,
        );
        self.results.push(m);
    }

    /// Writes the JSON results file (`results/bench_<suite>.json`).
    pub fn finish(self) {
        crate::write_json(&format!("bench_{}", self.suite), &self.results);
    }

    /// Consumes the harness and returns its measurements without
    /// writing the suite file — for experiment binaries that embed the
    /// measurements in their own report.
    pub fn into_results(self) -> Vec<Measurement> {
        self.results
    }
}

fn summarize(name: &str, b: Bencher) -> Measurement {
    let mut per_iter_ns: Vec<f64> = b.samples.iter().map(|s| s * 1e9).collect();
    assert!(!per_iter_ns.is_empty(), "bench '{name}' never called Bencher::iter");
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median_ns = per_iter_ns[per_iter_ns.len() / 2];
    let mean_ns = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
    Measurement {
        name: name.to_string(),
        batch_size: b.batch_size,
        batches: per_iter_ns.len(),
        median_ns,
        mean_ns,
        min_ns: per_iter_ns[0],
        p50_ns: percentile(&per_iter_ns, 50.0),
        p95_ns: percentile(&per_iter_ns, 95.0),
        p99_ns: percentile(&per_iter_ns, 99.0),
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_statistics_are_ordered() {
        let b = Bencher {
            warmup: Duration::ZERO,
            target_batch: Duration::ZERO,
            batch_size: 4,
            samples: vec![3e-9, 1e-9, 2e-9],
        };
        let m = summarize("t", b);
        assert_eq!(m.batches, 3);
        assert!((m.min_ns - 1.0).abs() < 1e-9);
        assert!((m.median_ns - 2.0).abs() < 1e-9);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.mean_ns + 1e-9);
        // Percentiles bracket the distribution and are ordered.
        assert!((m.p50_ns - 2.0).abs() < 1e-9);
        assert!((m.p95_ns - 3.0).abs() < 1e-9);
        assert!((m.p99_ns - 3.0).abs() < 1e-9);
        assert!(m.p50_ns <= m.p95_ns && m.p95_ns <= m.p99_ns);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        // Small samples: every percentile is a real observation.
        let small = [5.0, 7.0];
        assert_eq!(percentile(&small, 50.0), 5.0);
        assert_eq!(percentile(&small, 99.0), 7.0);
        assert_eq!(percentile(&[42.0], 95.0), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn formatting_picks_sane_units() {
        assert_eq!(format_ns(12.34), "12.3 ns");
        assert_eq!(format_ns(12_340.0), "12.34 µs");
        assert_eq!(format_ns(12_340_000.0), "12.34 ms");
    }

    #[test]
    fn slow_closure_runs_bounded_batches() {
        // A 5 ms closure against a 1 ms target: the warm-up call is the
        // first sample and the extra-batch budget clamps to one more
        // call — 2 total, not the 1 + BATCHES the old sizing ran.
        let calls = std::cell::Cell::new(0u32);
        let mut b = Bencher {
            warmup: Duration::from_millis(1),
            target_batch: Duration::from_millis(1),
            batch_size: 1,
            samples: Vec::new(),
        };
        b.iter(|| {
            calls.set(calls.get() + 1);
            std::thread::sleep(Duration::from_millis(5));
        });
        assert_eq!(calls.get(), 2);
        assert_eq!(b.batch_size, 1);
        assert_eq!(b.samples.len(), 2);
        assert!(b.samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn fast_closure_batch_size_is_clamped() {
        // A huge target batch against a ~ns closure would calibrate to
        // billions of iterations without the clamp.
        let mut b = Bencher {
            warmup: Duration::from_micros(10),
            target_batch: Duration::from_secs(3600),
            batch_size: 1,
            samples: Vec::new(),
        };
        let mut acc = 0u64;
        b.iter(|| {
            acc = acc.wrapping_add(1);
            black_box(acc)
        });
        assert_eq!(b.batch_size, MAX_BATCH);
        assert_eq!(b.samples.len(), BATCHES * SAMPLES_PER_BATCH);
    }

    #[test]
    fn percentiles_resolve_distinct_tail_samples() {
        // The regression this guards: with only 10 batch-mean samples,
        // nearest-rank p95 and p99 were always the same element. Over
        // a 100-sample spread they must pick distinct tail ranks.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 * 1e-9).collect();
        let b = Bencher {
            warmup: Duration::ZERO,
            target_batch: Duration::ZERO,
            batch_size: 1,
            samples,
        };
        let m = summarize("tail", b);
        assert_eq!(m.batches, 100);
        assert!((m.p95_ns - 95.0).abs() < 1e-9);
        assert!((m.p99_ns - 99.0).abs() < 1e-9);
        assert!(m.p95_ns < m.p99_ns, "tail percentiles must not collapse");
    }

    #[test]
    fn bencher_produces_samples_fast() {
        std::env::set_var("NEUSPIN_BENCH_FAST", "1");
        let mut h = Harness::new("selftest");
        h.bench("selftest/noop", |b| b.iter(|| black_box(1u64 + 1)));
        assert_eq!(h.results.len(), 1);
        assert!(h.results[0].median_ns >= 0.0);
        assert!(h.results[0].batch_size >= 1);
    }
}
