//! Deterministic scoped-thread worker pool and the parallel MC engine.
//!
//! The hot loop of every NeuSpin method is `T` stochastic forward
//! passes, and the passes are independent given independent RNG
//! streams — an embarrassingly parallel axis. [`ThreadPool`] fans
//! indexed jobs over `std::thread::scope` workers (no external deps),
//! and [`mc_predict_par`], the one parallel MC engine, layers the
//! determinism policy on top:
//!
//! * every pass `t` draws from its own `StdRng` seeded with
//!   [`neuspin_bayes::pass_seeds`]`(seed, T)[t]` — a SplitMix64
//!   expansion of the caller's master seed — so the noise a pass sees
//!   does not depend on which worker runs it;
//! * per-pass probabilities are collected by pass index and reduced in
//!   ascending order by [`neuspin_bayes::mc_aggregate`], so the
//!   floating-point reduction order does not depend on thread count.
//!
//! Together these make the result bit-identical for 1, 2, or N workers
//! and to the sequential reference [`neuspin_bayes::mc_predict_seeded`].
//! Workers run on states the caller owns — for the hardware model, the
//! replicas of a [`crate::ReplicaBank`], cloned on the calling thread —
//! so their advanced op counters and sense-margin tallies stay with the
//! caller for merging, and no worker thread allocates a model.

use neuspin_bayes::{mc_aggregate, pass_seeds, Predictive};
use neuspin_nn::{softmax, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fixed-size scoped-thread worker pool.
///
/// Threads are spawned per [`ThreadPool::run_chunked`] call inside a
/// `std::thread::scope` (workers may borrow from the caller's stack)
/// and joined before it returns; a pool of 1 runs inline with no spawn
/// at all, making it literally the sequential path.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// Sizes the pool from the `NEUSPIN_THREADS` environment variable
    /// (a positive integer), falling back to the host's available
    /// parallelism.
    pub fn from_env() -> Self {
        let threads = std::env::var("NEUSPIN_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            });
        Self::new(threads)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `jobs` indexed tasks across the pool and returns their
    /// results in job order.
    ///
    /// Worker `w` gets exclusive use of the caller's `states[w]` and a
    /// contiguous chunk of job indices (`w·jobs/W .. (w+1)·jobs/W` —
    /// deterministic, balanced to within one job); mutations of the
    /// states stay visible to the caller afterwards. Exactly
    /// `threads().min(jobs).min(states.len())` workers run. Chunking
    /// only decides *where* a job runs; a job that derives everything
    /// from its index computes the same value on any worker.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty while `jobs > 0`. A panicking job is
    /// caught at the job boundary (the worker's remaining chunk is
    /// skipped; sibling workers run to completion), counted on the
    /// `pool_job_panics_total` telemetry counter, and re-raised with its
    /// *original* payload after all workers have joined — the panic of
    /// the lowest-indexed failing job wins.
    pub fn run_chunked<S, T, FJ>(&self, jobs: usize, states: &mut [S], job: FJ) -> Vec<T>
    where
        S: Send,
        T: Send,
        FJ: Fn(&mut S, usize) -> T + Sync,
    {
        if jobs == 0 {
            return Vec::new();
        }
        assert!(!states.is_empty(), "run_chunked needs at least one state");
        let workers = self.threads.min(jobs).min(states.len());
        if workers == 1 {
            let state = &mut states[0];
            let mut results = Vec::with_capacity(jobs);
            for t in 0..jobs {
                match run_job(&job, state, t) {
                    Ok(out) => results.push(out),
                    Err(panic) => std::panic::resume_unwind(panic.payload),
                }
            }
            return results;
        }
        let job = &job;
        let (results, panic) = std::thread::scope(|scope| {
            let handles: Vec<_> = states
                .iter_mut()
                .take(workers)
                .enumerate()
                .map(|(w, state)| {
                    let lo = w * jobs / workers;
                    let hi = (w + 1) * jobs / workers;
                    scope.spawn(move || {
                        let mut out: Vec<T> = Vec::with_capacity(hi - lo);
                        for t in lo..hi {
                            match run_job(job, state, t) {
                                Ok(v) => out.push(v),
                                // Stop this chunk: the state may be
                                // inconsistent mid-panic; siblings keep
                                // running and the payload is re-raised
                                // after the join.
                                Err(panic) => return (out, Some(panic)),
                            }
                        }
                        (out, None)
                    })
                })
                .collect();
            let mut results = Vec::with_capacity(jobs);
            let mut first_panic: Option<JobPanic> = None;
            for handle in handles {
                // Jobs are caught at their boundary; a worker that
                // unwinds anyway ranks after every job panic.
                let (out, panic) = match handle.join() {
                    Ok(v) => v,
                    Err(payload) => {
                        first_panic.get_or_insert(JobPanic { job: usize::MAX, payload });
                        continue;
                    }
                };
                results.extend(out);
                if let Some(p) = panic {
                    if first_panic.as_ref().is_none_or(|f| p.job < f.job) {
                        first_panic = Some(p);
                    }
                }
            }
            (results, first_panic)
        });
        if let Some(panic) = panic {
            std::panic::resume_unwind(panic.payload);
        }
        results
    }
}

/// A panic caught at a job boundary, tagged with the job index so the
/// lowest-indexed failure is the one re-raised deterministically.
struct JobPanic {
    job: usize,
    payload: Box<dyn std::any::Any + Send + 'static>,
}

/// Runs one job with the panic boundary: the payload is caught (so
/// sibling jobs and workers are not torn down mid-flight), counted on
/// `pool_job_panics_total`, and handed back for the post-join re-raise.
fn run_job<S, T, FJ>(job: &FJ, state: &mut S, t: usize) -> Result<T, JobPanic>
where
    FJ: Fn(&mut S, usize) -> T,
{
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(state, t))).map_err(|payload| {
        crate::telemetry::counter("pool_job_panics_total").inc();
        JobPanic { job: t, payload }
    })
}

/// The deterministic parallel MC engine: fans `passes` stochastic
/// forward passes over `pool`, each on its own RNG stream derived from
/// `seed` (the [`pass_seeds`] schedule), and reduces the softmaxed
/// outputs in ascending pass order.
///
/// Worker `w` runs on the caller's `states[w]` (e.g. model replicas);
/// `states.len()` caps the worker count alongside the pool width, and
/// state mutations (op counters, margins) stay visible to the caller
/// for merging. `forward(state, t, rng)` must return logits `[N, C]`
/// for pass `t` using only `state` and `rng` for stochasticity. Under
/// that contract the returned [`Predictive`] is bit-identical for any
/// thread count and to [`neuspin_bayes::mc_predict_seeded`] with the
/// same seed.
///
/// # Panics
///
/// Panics if `passes == 0`, `states` is empty, on inconsistent logit
/// shapes, or if a worker panics.
pub fn mc_predict_par<S, FF>(
    pool: &ThreadPool,
    passes: usize,
    seed: u64,
    states: &mut [S],
    forward: FF,
) -> Predictive
where
    S: Send,
    FF: Fn(&mut S, usize, &mut StdRng) -> Tensor + Sync,
{
    assert!(passes > 0, "need at least one MC pass");
    let seeds = pass_seeds(seed, passes);
    let seeds = &seeds;
    let forward = &forward;
    // Telemetry follows the op-counter discipline: each pass buffers
    // its trace events thread-locally (harvested with a mark/drain
    // pair) and the harvested buffers are re-appended in ascending
    // pass order after the join, so the emitted trace byte-compares
    // for any worker count. Workers inherit the caller's span depth.
    let telemetry_on = crate::telemetry::active();
    let base_depth = crate::telemetry::trace_depth();
    let results = pool.run_chunked(passes, states, move |state, t| {
        let mut rng = StdRng::seed_from_u64(seeds[t]);
        if !telemetry_on {
            return (softmax(&forward(state, t, &mut rng)), Vec::new());
        }
        crate::telemetry::set_trace_depth(base_depth);
        let mark = crate::telemetry::trace_mark();
        let probs = {
            let _pass = crate::span!("mc_pass", pass = t);
            softmax(&forward(state, t, &mut rng))
        };
        (probs, crate::telemetry::take_trace_since(mark))
    });
    let (probs, traces): (Vec<Tensor>, Vec<Vec<crate::telemetry::TraceEvent>>) =
        results.into_iter().unzip();
    let mut slots: Vec<Option<Tensor>> = probs.into_iter().map(Some).collect();
    let pred = mc_aggregate(passes, |t| slots[t].take().expect("each pass reduced once"));
    for events in traces {
        crate::telemetry::append_trace(events);
    }
    pred
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `job` over `jobs` indices with one caller-owned state per
    /// worker, initialised to the worker's index.
    fn run_indexed<T: Send>(
        pool: &ThreadPool,
        jobs: usize,
        job: impl Fn(&mut usize, usize) -> T + Sync,
    ) -> Vec<T> {
        let mut states: Vec<usize> = (0..pool.threads()).collect();
        pool.run_chunked(jobs, &mut states, job)
    }

    #[test]
    fn pool_clamps_to_one_worker() {
        assert_eq!(ThreadPool::new(0).threads(), 1);
        assert_eq!(ThreadPool::new(3).threads(), 3);
    }

    #[test]
    fn run_chunked_preserves_job_order() {
        for threads in [1usize, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            let mut states = vec![0usize; threads];
            let results = pool.run_chunked(10, &mut states, |s, t| {
                *s += 1;
                t * t
            });
            assert_eq!(results, (0..10).map(|t| t * t).collect::<Vec<_>>());
            assert_eq!(
                states.iter().sum::<usize>(),
                10,
                "{threads} threads: every job must run on a caller-owned state"
            );
            let used = states.iter().filter(|&&n| n > 0).count();
            assert_eq!(used, threads.min(10), "{threads} threads");
        }
    }

    #[test]
    fn run_chunked_chunks_are_contiguous_and_balanced() {
        let pool = ThreadPool::new(3);
        let results = run_indexed(&pool, 8, |w, t| (*w, t));
        // Worker of each job is non-decreasing and chunk sizes differ
        // by at most one.
        let mut counts = [0usize; 3];
        let mut last_worker = 0;
        for &(w, _) in &results {
            assert!(w >= last_worker, "contiguous chunks");
            last_worker = w;
            counts[w] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(counts.iter().all(|&c| c == 2 || c == 3), "{counts:?}");
    }

    #[test]
    fn run_chunked_zero_jobs() {
        let pool = ThreadPool::new(4);
        let results = pool.run_chunked(0, &mut [] as &mut [usize], |_, t| t);
        assert!(results.is_empty());
    }

    #[test]
    fn mc_predict_par_matches_seeded_sequential_for_any_thread_count() {
        // A pure function of (pass index, rng) — the forward contract.
        let forward = |t: usize, rng: &mut StdRng| {
            Tensor::from_fn(&[2, 3], |i| {
                (t as f32 * 0.1) + neuspin_device::stats::standard_normal(rng) as f32 + i as f32
            })
        };
        let reference = neuspin_bayes::mc_predict_seeded(9, 77, forward);
        for threads in [1usize, 2, 4, 9, 16] {
            let pool = ThreadPool::new(threads);
            // Fewer states than threads caps the worker count without
            // moving a bit.
            for n_states in [1, threads] {
                let mut states = vec![(); n_states];
                let pred = mc_predict_par(&pool, 9, 77, &mut states, |_, t, rng| forward(t, rng));
                assert_eq!(pred, reference, "{threads} threads, {n_states} states");
            }
        }
    }

    #[test]
    fn from_env_reads_neuspin_threads() {
        // Only assert the parse contract on the current env (the test
        // harness is multi-threaded; setting env vars here would race).
        let pool = ThreadPool::from_env();
        assert!(pool.threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one MC pass")]
    fn mc_predict_par_rejects_zero_passes() {
        let pool = ThreadPool::new(2);
        let _ = mc_predict_par(&pool, 0, 1, &mut [(); 2], |_, _, _| Tensor::zeros(&[1, 2]));
    }

    #[test]
    fn job_panic_is_propagated_with_its_original_payload() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_indexed(&pool, 8, |_, t| {
                    if t == 5 {
                        panic!("job 5 exploded");
                    }
                    t
                })
            }));
            let payload = result.expect_err("the job panic must propagate on join");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                msg.contains("job 5 exploded"),
                "{threads} threads: original payload must survive, got {msg:?}"
            );
        }
    }

    #[test]
    fn sibling_jobs_complete_when_one_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // 4 workers × 2 jobs each; job 0 panics immediately. Every job
        // outside the failing worker's chunk (jobs 2..8) must still run
        // — the pool no longer loses work when one thread dies.
        let completed = AtomicUsize::new(0);
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed(&pool, 8, |_, t| {
                if t == 0 {
                    panic!("first job dies");
                }
                completed.fetch_add(1, Ordering::SeqCst);
                t
            })
        }));
        assert!(result.is_err(), "the panic must still propagate");
        assert!(
            completed.load(Ordering::SeqCst) >= 6,
            "sibling chunks must run to completion: {} of 7 non-panicking jobs ran",
            completed.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn lowest_indexed_panic_wins_when_several_jobs_fail() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed(&pool, 8, |_, t| {
                if t % 2 == 1 {
                    panic!("job {t} failed");
                }
                t
            })
        }));
        let payload = result.expect_err("panics must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "job 1 failed", "deterministic: lowest job index is re-raised");
    }

    #[test]
    fn job_panics_are_counted_via_telemetry() {
        let _guard = crate::telemetry::test_lock();
        crate::telemetry::reset();
        crate::telemetry::set_enabled(true, false);
        let counter = crate::telemetry::counter("pool_job_panics_total");
        let before = counter.get();
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_indexed(&pool, 4, |_, t| if t == 3 { panic!("boom") } else { t })
        }));
        assert!(result.is_err());
        assert_eq!(counter.get() - before, 1, "one panicking job, one count");
        crate::telemetry::set_enabled(false, false);
        crate::telemetry::reset();
    }
}
