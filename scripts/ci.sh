#!/usr/bin/env bash
# Local CI gate: format, lint, build, test — the same order a hosted
# pipeline would run. Fails fast on the cheapest check.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# One workspace doc build serves two checks: rustdoc warnings are
# denied, and the public-API drift check compares the rendered item
# list with the committed API_SURFACE.txt. Intentional surface changes
# re-bless with scripts/api_surface.sh --bless.
echo "==> cargo doc --no-deps (warnings denied) + api surface (vs API_SURFACE.txt)"
scripts/api_surface.sh

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# Every crate's own tests, in release: the facade run above covers only
# the root package in debug, so the signal, fusion, store, gateway, ...
# unit and property tests run here. The root package is a workspace
# member, so this one step also runs, in release, the contracts the
# root tests/ directory claims (release catches optimization-sensitive
# float, ordering and encoding regressions):
#  - execution-mode equivalence: sequential and parallel {2,4,8}
#    stepping are byte-for-byte identical (parallel_determinism);
#  - incident determinism: sealed incident bundles and the served
#    exposition are byte-identical across exec modes and a WAL
#    crash-restore, fetched over the gateway protocol (incident_replay);
#  - survivability: a seeded crash/partition/stall campaign retries
#    across the outages with zero expired batches and converges to the
#    no-fault baseline (fault_recovery);
#  - durability: a crash-restored PDME is byte-identical to the
#    uninterrupted run in every exec mode (crash_restore), and a WAL
#    truncated at any tail offset recovers to the last valid frame
#    (wal_torn_write), and a fusion frame built from 1,000 reports
#    restores from a snapshot byte-identically (pdme_ingest_pass);
#  - snapshot bytes: an OOSM after a fixed write sequence, a PDME
#    after a short seeded ship run, and a PDME with every keyed map it
#    snapshots filled encode to a committed length and FNV-1a digest
#    (snapshot_golden);
#  - DC staleness: the max(pdme.dc_staleness_max) objective fails on
#    the step a crashed DC goes stale, on an unserved ship and on its
#    served twin alike (staleness_slo);
#  - history independence: ingest, OOSM post and ICAS export visit the
#    same store rows with 1k and 16k reports stored (pdme_history), and
#    one ingest makes the same heap allocations at both sizes, under a
#    ceiling (pdme_ingest_alloc);
#  - per-step readers: a quiet 8-DC ship step with the standard SLO
#    policy and a gateway attached stays under a ceiling of heap
#    allocations, so the watchdog, the flight recorder and the serving
#    publish copy only what they use (ship_step_alloc);
#  - fleet publish: a quiet 4-ship fleet step stays under a ceiling of
#    heap allocations, so no ship publish copies its series names and
#    the fleet publish neither sums counters nor copies its census
#    (fleet_publish_alloc);
#  - the fleet plane: responses are byte-identical across exec modes
#    and one-thread-per-shard stepping, ship 0 is independent of fleet
#    size, a crashed shard degrades only itself (fleet_serving);
#  - incremental publish: under a DC crash, a partition, a PDME stall
#    and a crash-restore, every published serving snapshot equals a
#    from-scratch build with the same wire answers, a quiet step
#    rebuilds no ICAS machine entry, a report rebuilds only its machine
#    and the machines it is part of, and the first publish after the
#    restore rebuilds every entry (incremental_publish);
#  - DSP: golden vectors against closed-form spectra (dsp_golden),
#    property round-trips and window identities (dsp_props), and zero
#    heap allocations in a steady-state survey and in every warm
#    DspContext::*_into call (dsp_alloc);
#  - the exposition grammar: the Prometheus text a faulted ship serves
#    validates, and corrupted variants of it are refused
#    (gateway_serving).
# It also runs the bench crate's tests:
#  - determinism fingerprints (crates/bench/tests/fingerprints.rs):
#    every seeded value of the E7/E11 scenarios — network and WAL
#    counts, sim-time latency quantiles, serving and fleet accounting —
#    checked exactly against one committed table, the 8-DC fleet run
#    under the calm and the lossy sea in sequential, 1-worker and
#    4-worker modes;
#  - the paper's claims (crates/bench/tests/paper_claims.rs): one test
#    per EXPERIMENTS.md experiment, one assert per verdict, from the
#    ≥ 95% DLI agreement (E5) and the 12 FMEA modes (E9) to the seeded
#    fault campaign (E10) and OOSM push delivery (E12); about 6 s.
echo "==> cargo test --workspace --release -q"
cargo test --workspace --release -q

# The outside-in benchmark's smoke test: every perfbench workload at a
# tiny size, untraced and traced, with every output check the full
# runs apply. The runs take about 22 s, but perfbench is its own cargo
# workspace with its own target directory and release profile, so the
# step first compiles the workspace's crates again (about 54 s on a
# 2-vCPU host). Pointing CARGO_TARGET_DIR at the workspace's target/
# does not help: after a workspace release build it still compiled 23
# crates (51 s). Sharing the build needs a change under perfbench/,
# which waits for the next benchmark change. perfbench's lockfile is
# stale, so any build of it rewrites the file; the original is put back
# on exit, pass or fail, and the tree stays clean.
echo "==> perfbench smoke test"
perfbench_lock=$(mktemp)
cp perfbench/Cargo.lock "$perfbench_lock"
trap 'cp "$perfbench_lock" perfbench/Cargo.lock; rm -f "$perfbench_lock"' EXIT
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# E7 data rates, and fleet-stepping throughput sequential vs 4 workers
# under the calm and the lossy sea. On hosts with < 4 cores the speedup
# is recorded but not judged (E7.4 is conditional), so this stays green
# on single-core CI runners. A failed verdict exits non-zero.
echo "==> exp_throughput"
cargo run --release -p mpros-bench --bin exp_throughput

# The serving layer under load: 8 concurrent clients hammering the
# gateway while the ship steps, the observability console mix, and the
# sharded fleet plane's routed console mix. Merges serving{}, obs{} and
# fleet{} into BENCH_throughput.json so perf_gate below judges them.
# Verdicts E11.2-E11.5 check the deterministic counts exactly.
echo "==> exp_serving"
cargo run --release -p mpros-bench --bin exp_serving

# Perf-regression gate: diff the fresh BENCH_throughput.json against
# the committed BENCH_baseline.json. Its 24 wall-clock rates and times
# get a loose, host-noise-absorbing 50% tolerance; the deterministic
# outputs are pinned by the fingerprint test above instead.
echo "==> perf_gate (BENCH_throughput.json vs BENCH_baseline.json)"
cargo run --release -p mpros-bench --bin perf_gate

# SLO watchdog over both operating profiles. Calm sea runs tight
# budgets; the lossy profile widens latency/staleness to absorb retry
# backoff and partition windows but still demands net.expired == 0 —
# the acked outbox must deliver *eventually*, even on a bad sea.
echo "==> slo_check --profile calm"
cargo run --release -p mpros-bench --bin slo_check -- --profile calm
echo "==> slo_check --profile lossy"
cargo run --release -p mpros-bench --bin slo_check -- --profile lossy

# The same calm-sea budgets, judged on an engine that crashed mid-run
# and was restored from snapshot + WAL tail — durability must not cost
# a single SLO.
echo "==> slo_check --profile calm --crash-restore"
cargo run --release -p mpros-bench --bin slo_check -- --profile calm --crash-restore

echo "CI OK"
