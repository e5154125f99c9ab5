#!/usr/bin/env sh
# Tier-1 verification for the NeuSpin workspace.
#
# The workspace is fully self-contained (every dependency is a path
# crate, including the vendored `rand` shim), so everything here runs
# with `--offline`: a network-less machine must produce the same green.
#
# Build and test are gating; clippy runs strict (`-D warnings`) because
# the tree is currently warning-free — keep it that way.

set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --release --offline

# The repository benchmark (perfbench/, see BENCHMARK.json) is a
# separate package outside the workspace, so the build above skips it.
# Compile it here so an API change under crates/ that breaks it fails
# CI instead of the next benchmark run.
echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# The tracked artifacts must pass their own gates: run all six
# campaign --checks, read-only, on results/ and the root BENCH_*.json.
# A campaign change that adds or tightens a gate must regenerate its
# tracked artifact in the same change.
echo "==> --check on the tracked artifacts"
for bin in exp_faultmgmt exp_throughput exp_observe exp_lifetime exp_serving exp_chaos; do
    NEUSPIN_RESULTS=results NEUSPIN_BENCH_ROOT=. \
        cargo run -q --release --offline -p neuspin-bench --bin "$bin" -- --check
done

echo "==> cargo test -q --offline"
cargo test -q --offline

# The crossbar kernels and the nn matrix kernel are compiled once per
# instruction level (baseline, AVX2, AVX-512F), and the wide
# instantiations are vectorised only in an optimising build: outside
# exp_throughput's own asserts nothing else checks their bits. Re-run
# the crossbar and nn tests (per-level oracle batteries included), the
# sampler tests (the ziggurat's inlined, branch-free fast path is pinned
# by a digest of its draws) and the golden batteries (model level and
# trained weights) in release.
echo "==> cargo test --release -q --offline -p neuspin-cim"
cargo test --release -q --offline -p neuspin-cim
echo "==> cargo test --release -q --offline -p neuspin-nn"
cargo test --release -q --offline -p neuspin-nn
echo "==> cargo test --release -q --offline -p rand"
cargo test --release -q --offline -p rand
echo "==> cargo test --release -q --offline -p neuspin-core golden"
cargo test --release -q --offline -p neuspin-core golden

# The deterministic parallel MC engine must be thread-count-invariant:
# re-run the workspace tests with a forced 4-worker default pool. Any
# test that consults NEUSPIN_THREADS (directly or via
# ThreadPool::from_env) now exercises the parallel path.
echo "==> cargo test -q --offline (NEUSPIN_THREADS=4)"
NEUSPIN_THREADS=4 cargo test -q --offline

echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Rustdoc runs strict too: a doc link to a deleted or private item
# (a removed kernel, a private constant) fails here instead of rotting
# silently in the rendered docs.
echo "==> cargo doc --workspace --no-deps --offline (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Fault-management campaign smoke: a tiny grid end to end, then re-parse
# the emitted JSON and fail on schema drift or any non-finite value.
# Smoke output goes under target/ so the tracked full-run artifact in
# results/ is not clobbered.
echo "==> exp_faultmgmt smoke (NEUSPIN_BENCH_FAST=1)"
NEUSPIN_RESULTS=target/ci-results NEUSPIN_BENCH_FAST=1 \
    cargo run -q --release --offline -p neuspin-bench --bin exp_faultmgmt
NEUSPIN_RESULTS=target/ci-results \
    cargo run -q --release --offline -p neuspin-bench --bin exp_faultmgmt -- --check

# Throughput baseline smoke: kernel + MC engine micro-run (bit-identity
# across engines — including the packed XNOR/popcount path and the
# reference-kernel/sequential/parallel MC engines — is asserted inside
# the binary),
# then the schema gate. --check also enforces the packed-kernel floor
# (every engaged kernel row must show packed ≥ 2× the row-major scalar
# kernel, with at least one engaged row) and the allocation discipline:
# a warm planned forward must report exactly zero heap events and zero
# allocations per extra MC pass. The ≥ 1.3× recorded-baseline speedup
# floor applies to full-mode reports only (fast mode measures a
# different workload), so it gates the tracked repo-root
# BENCH_throughput.json whenever that artifact is regenerated.
# NEUSPIN_BENCH_ROOT keeps the smoke's BENCH_throughput.json under
# target/ so the tracked repo-root artifact stays the full run's.
echo "==> exp_throughput smoke (NEUSPIN_BENCH_FAST=1)"
NEUSPIN_RESULTS=target/ci-results NEUSPIN_BENCH_ROOT=target/ci-results NEUSPIN_BENCH_FAST=1 \
    cargo run -q --release --offline -p neuspin-bench --bin exp_throughput
NEUSPIN_RESULTS=target/ci-results \
    cargo run -q --release --offline -p neuspin-bench --bin exp_throughput -- --check

# Telemetry gate: the disabled-telemetry kernel must stay within 2 % of
# the BENCH_throughput.json baseline the smoke above just wrote, and a
# fully traced predict_par must be bit-identical (predictions AND trace
# bytes) across 1/2/4-worker pools — both enforced by --check, along
# with the forward-plan metrics (plan_rebuilds_total, the scratch_bytes
# gauge, and the persistent-replica replica_syncs_total counter must
# all have fired during the instrumented run). --check also gates the
# serve-path lineage tax: flight-recorder event recording must stay
# within 2 % of an untraced closed-loop request. A second run under
# NEUSPIN_THREADS=4 then byte-compares the emitted JSONL trace across
# host thread configurations.
echo "==> exp_observe smoke (NEUSPIN_BENCH_FAST=1)"
NEUSPIN_RESULTS=target/ci-results NEUSPIN_BENCH_ROOT=target/ci-results NEUSPIN_BENCH_FAST=1 \
    cargo run -q --release --offline -p neuspin-bench --bin exp_observe
NEUSPIN_RESULTS=target/ci-results NEUSPIN_BENCH_ROOT=target/ci-results \
    cargo run -q --release --offline -p neuspin-bench --bin exp_observe -- --check
echo "==> exp_observe trace invariance (NEUSPIN_THREADS=4)"
NEUSPIN_THREADS=4 NEUSPIN_RESULTS=target/ci-results-t4 NEUSPIN_BENCH_ROOT=target/ci-results \
    NEUSPIN_BENCH_FAST=1 \
    cargo run -q --release --offline -p neuspin-bench --bin exp_observe
cmp target/ci-results/exp_observe_trace.jsonl target/ci-results-t4/exp_observe_trace.jsonl

# Lifetime campaign smoke: age three copies of one die (unmanaged /
# scrub-only / closed-loop) through the fast grid, then the JSON gate
# (degradation ≥ 10 pp unmanaged, closed-loop regression ≤ 2 pp).
echo "==> exp_lifetime smoke (NEUSPIN_BENCH_FAST=1)"
NEUSPIN_RESULTS=target/ci-results NEUSPIN_BENCH_ROOT=target/ci-results NEUSPIN_BENCH_FAST=1 \
    cargo run -q --release --offline -p neuspin-bench --bin exp_lifetime
NEUSPIN_RESULTS=target/ci-results NEUSPIN_BENCH_ROOT=target/ci-results \
    cargo run -q --release --offline -p neuspin-bench --bin exp_lifetime -- --check

# Lifetime trajectories must be bit-reproducible for any worker count:
# repeat the smoke with a forced 4-worker pool into a second directory
# and byte-compare both emitted JSON artifacts.
echo "==> exp_lifetime thread invariance (NEUSPIN_THREADS=4)"
NEUSPIN_THREADS=4 NEUSPIN_RESULTS=target/ci-results-t4 NEUSPIN_BENCH_ROOT=target/ci-results-t4 \
    NEUSPIN_BENCH_FAST=1 \
    cargo run -q --release --offline -p neuspin-bench --bin exp_lifetime
cmp target/ci-results/exp_lifetime.json target/ci-results-t4/exp_lifetime.json
cmp target/ci-results/BENCH_lifetime.json target/ci-results-t4/BENCH_lifetime.json

# Serving campaign smoke: a real TCP front door over a three-die
# fleet, one die aged to Abstain mid-traffic. --check gates the
# no-drop contract (every request answered 200), failover engagement,
# the degraded die's quiescence, p99 latency under budget, and the
# lineage layer: every 200 must carry an X-NeuSpin-Trace header whose
# die matches the body, the six per-stage waterfall histograms must
# count every answered request on the tuned bucket ladder, and the
# SLO tracker must report full availability with zero burn. No
# thread-invariance cmp here: batch composition is timing-dependent by
# design (the determinism contract is per-batch, covered by the
# serving integration tests).
echo "==> exp_serving smoke (NEUSPIN_BENCH_FAST=1)"
NEUSPIN_RESULTS=target/ci-results NEUSPIN_BENCH_ROOT=target/ci-results NEUSPIN_BENCH_FAST=1 \
    cargo run -q --release --offline -p neuspin-bench --bin exp_serving
NEUSPIN_RESULTS=target/ci-results NEUSPIN_BENCH_ROOT=target/ci-results \
    cargo run -q --release --offline -p neuspin-bench --bin exp_serving -- --check

# Chaos campaign smoke: deterministic fault injection (queue stalls,
# latency spikes, worker panics, malformed requests, weight bit-flips,
# die crash/restart) over three escalating stages, plus the checkpoint
# round-trip proof. --check gates request conservation under every
# fault, >=1 injection at each site, byte-equal restored outputs, and
# the flight-recorder lineage contract: every injected fault must be
# reconstructable (site, die, request ids, crash→BIST-gated restore
# pairing) from the dumped flight JSONL alone, with zero ring drops.
# The request driver is sequential and closed-loop, so the
# non-wall-clock report fields AND the flight dump are bit-reproducible
# for any worker count: byte-compare BENCH_chaos.json and the flight
# JSONL against a forced 4-thread run.
echo "==> exp_chaos smoke (NEUSPIN_BENCH_FAST=1)"
NEUSPIN_RESULTS=target/ci-results NEUSPIN_BENCH_ROOT=target/ci-results NEUSPIN_BENCH_FAST=1 \
    cargo run -q --release --offline -p neuspin-bench --bin exp_chaos
NEUSPIN_RESULTS=target/ci-results NEUSPIN_BENCH_ROOT=target/ci-results \
    cargo run -q --release --offline -p neuspin-bench --bin exp_chaos -- --check

echo "==> exp_chaos thread invariance (NEUSPIN_THREADS=4)"
NEUSPIN_THREADS=4 NEUSPIN_RESULTS=target/ci-results-t4 NEUSPIN_BENCH_ROOT=target/ci-results-t4 \
    NEUSPIN_BENCH_FAST=1 \
    cargo run -q --release --offline -p neuspin-bench --bin exp_chaos
cmp target/ci-results/BENCH_chaos.json target/ci-results-t4/BENCH_chaos.json
cmp target/ci-results/exp_chaos_flight.jsonl target/ci-results-t4/exp_chaos_flight.jsonl

echo "==> OK"
