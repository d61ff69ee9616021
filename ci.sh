#!/bin/sh
# Continuous-integration entry point: build, run the full test suite,
# then smoke-test the serving runtime end to end through the CLI.
set -eu

cd "$(dirname "$0")"

if [ -f .ocamlformat ]; then
  echo "== dune build @fmt =="
  dune build @fmt
fi

echo "== dune build (warnings as errors) =="
# A forced rebuild so warnings cached away by incremental builds resurface;
# any compiler warning fails the stage.
build_log="${TMPDIR:-/tmp}/mikpoly_ci_build.log"
dune build --force 2>&1 | tee "$build_log"
if grep -q "Warning" "$build_log"; then
  echo "build emitted warnings (treated as errors)"
  exit 1
fi
rm -f "$build_log"

echo "== lock guard =="
# The program runs one parallel region: whole-shape searches in
# Polymerize.search_batch, plus the autotuner's per-kernel scoring. Its
# workers touch no lock-guarded state (the worker contract in
# polymerize.mli), so locks, condition variables and domain spawns
# belong only in the pool itself, the domain-safe telemetry and the
# kernel-set memo.
stray=$(grep -rn --include='*.ml' -e 'Mutex\.' -e 'Condition\.' -e 'Domain\.spawn' lib |
  grep -v -e '^lib/util/domain_pool\.ml:' -e '^lib/telemetry/metrics\.ml:' \
    -e '^lib/telemetry/tracer\.ml:' -e '^lib/core/kernel_set\.ml:' || true)
if [ -n "$stray" ]; then
  echo "$stray"
  echo "lock guard: Mutex, Condition or Domain.spawn outside the allowlist"
  exit 1
fi

echo "== dune runtest =="
dune runtest

echo "== serving smoke test =="
dune exec bin/mikpoly_cli.exe -- serve --quick

echo "== profiling smoke test =="
trace_out="${TMPDIR:-/tmp}/mikpoly_ci_trace.json"
dune exec bin/mikpoly_cli.exe -- profile serve --quick --trace-out "$trace_out"
test -s "$trace_out"
dune exec bin/mikpoly_cli.exe -- validate-trace "$trace_out"
rm -f "$trace_out"

echo "== multicore smoke test =="
# The same serving and profiling paths under 4 worker domains: exercises
# the batched search behind the precompile phase and the domain-safe
# tracer; validate-trace checks the merged per-domain span buffers
# still export a loadable Chrome trace.
dune exec bin/mikpoly_cli.exe -- serve --quick --jobs 4
trace_out="${TMPDIR:-/tmp}/mikpoly_ci_trace_j4.json"
dune exec bin/mikpoly_cli.exe -- profile serve --quick --jobs 4 --trace-out "$trace_out"
test -s "$trace_out"
dune exec bin/mikpoly_cli.exe -- validate-trace "$trace_out"
rm -f "$trace_out"

echo "== adapt smoke test =="
# The online-adaptation loop end to end on a tiny GEMM trace: compile,
# observe residuals, inject drift, detect, recalibrate, invalidate and
# recompile; the subcommand exits non-zero if the detector never fires.
# The saved calibration profile must be a non-empty versioned artifact.
profile_out="${TMPDIR:-/tmp}/mikpoly_ci_profile.cal"
dune exec bin/mikpoly_cli.exe -- adapt --quick --seed 7 --save "$profile_out"
test -s "$profile_out"
head -1 "$profile_out" | grep -q "mikpoly-calibration"
rm -f "$profile_out"
# Serving with the adaptation loop attached must run clean too.
dune exec bin/mikpoly_cli.exe -- serve --quick --adapt

echo "== chaos smoke test =="
# The seeded fault-injection A/B end to end: the subcommand exits
# non-zero unless faults were injected, no request was lost silently,
# resilience strictly beats the unprotected arm, and the degradation
# ladder serves every request from a corrupted kernel store. The JSON
# report holds only simulated quantities, so the same seed must produce
# byte-identical files across runs and across --jobs counts.
chaos_a="${TMPDIR:-/tmp}/mikpoly_ci_chaos_a.json"
chaos_b="${TMPDIR:-/tmp}/mikpoly_ci_chaos_b.json"
dune exec bin/mikpoly_cli.exe -- chaos --quick --seed 7 --out "$chaos_a"
test -s "$chaos_a"
grep -q '"silent_losses":0' "$chaos_a"
dune exec bin/mikpoly_cli.exe -- chaos --quick --seed 7 --jobs 4 --out "$chaos_b"
cmp "$chaos_a" "$chaos_b"
rm -f "$chaos_a" "$chaos_b"

echo "== graph smoke test =="
# Whole-model graph serving end to end: rewrite passes, memory planning,
# pipelined compile/execute and the whole-graph vs per-op serving A/B.
# The subcommand exits non-zero if any acceptance gate fails; the JSON
# report holds only simulated quantities, so runs must produce
# byte-identical files across repeats and across --jobs counts.
graph_a="${TMPDIR:-/tmp}/mikpoly_ci_graph_a.json"
graph_b="${TMPDIR:-/tmp}/mikpoly_ci_graph_b.json"
dune exec bin/mikpoly_cli.exe -- graph --quick --out "$graph_a"
test -s "$graph_a"
grep -q '"gates_ok":true' "$graph_a"
dune exec bin/mikpoly_cli.exe -- graph --quick --out "$graph_b"
cmp "$graph_a" "$graph_b"
dune exec bin/mikpoly_cli.exe -- graph --quick --jobs 4 --out "$graph_b"
cmp "$graph_a" "$graph_b"
rm -f "$graph_a" "$graph_b"

echo "== fleet smoke test =="
# Multi-tenant fleet serving end to end: weighted fair queueing,
# shape-aware coalescing, the learned warm store and the autoscaler
# on the heavy-tail multi-tenant trace. The subcommand exits non-zero
# if any acceptance gate fails; the JSON report holds only simulated
# quantities, so runs must produce byte-identical files across repeats
# and across --jobs counts.
fleet_a="${TMPDIR:-/tmp}/mikpoly_ci_fleet_a.json"
fleet_b="${TMPDIR:-/tmp}/mikpoly_ci_fleet_b.json"
dune exec bin/mikpoly_cli.exe -- fleet --quick --out "$fleet_a"
test -s "$fleet_a"
grep -q '"gates_ok":true' "$fleet_a"
dune exec bin/mikpoly_cli.exe -- fleet --quick --out "$fleet_b"
cmp "$fleet_a" "$fleet_b"
dune exec bin/mikpoly_cli.exe -- fleet --quick --jobs 4 --out "$fleet_b"
cmp "$fleet_a" "$fleet_b"
rm -f "$fleet_a" "$fleet_b"

echo "== parallel-win =="
# The parallel-polymerization acceptance gate. The bench itself exits
# non-zero when its gate fails: on a multicore host, batched search at
# jobs=4 must outrun jobs=1 (speedup_vs_jobs1 > 1.0) without degrading
# at jobs=8; on a single-core host (where a speedup is physically
# impossible and effective_jobs clamps every level to one worker) the
# batch machinery must stay within 10% of plain sequential. Either way
# the programs must be byte-identical across job counts, and analytic
# pruning must cut scored candidates at least 5x with the identical
# program. The greps re-assert the recorded verdicts on the artifact.
dune exec bench/main.exe -- --quick --only parallel
test -s BENCH_parallel.json
grep -q '"passed":true' BENCH_parallel.json
if grep -q '"programs_identical":false' BENCH_parallel.json; then
  echo "parallel-win: programs diverged across job counts"
  exit 1
fi
grep -q '"candidates_scored"' BENCH_parallel.json

echo "== graph bench =="
dune exec bench/main.exe -- --quick --only graph
test -s BENCH_graph.json

echo "== adapt bench =="
dune exec bench/main.exe -- --quick --only adapt
test -s BENCH_adapt.json

echo "== resilience bench =="
dune exec bench/main.exe -- --quick --only resilience
test -s BENCH_resilience.json

echo "== fleet bench =="
dune exec bench/main.exe -- --quick --only fleet
test -s BENCH_fleet.json

echo "== rank smoke test =="
# The learned candidate ranker end to end: harvest observations from the
# drifted device via the compiler's observer hook, train on both
# fingerprints, evaluate held-out ranking quality vs calibrated Eq. 2,
# the GPU->NPU warm start, and the deadline A/B (untruncated searches
# must stay bit-identical with the ranker on or off). The subcommand
# exits non-zero if any acceptance gate fails; the JSON report holds
# only simulated quantities, so runs must produce byte-identical files
# across repeats and across --jobs counts. The saved model must be a
# non-empty versioned artifact, and a serve run loading it must pass.
rank_a="${TMPDIR:-/tmp}/mikpoly_ci_rank_a.json"
rank_b="${TMPDIR:-/tmp}/mikpoly_ci_rank_b.json"
rank_model="${TMPDIR:-/tmp}/mikpoly_ci_rank.model"
dune exec bin/mikpoly_cli.exe -- rank --quick --out "$rank_a" --save "$rank_model"
test -s "$rank_a"
grep -q '"gates_ok":true' "$rank_a"
test -s "$rank_model"
head -1 "$rank_model" | grep -q "mikpoly-rank"
dune exec bin/mikpoly_cli.exe -- rank --quick --out "$rank_b"
cmp "$rank_a" "$rank_b"
dune exec bin/mikpoly_cli.exe -- rank --quick --jobs 4 --out "$rank_b"
cmp "$rank_a" "$rank_b"
# Serving with the trained ranker ordering the search must run clean.
dune exec bin/mikpoly_cli.exe -- serve --quick --ranker "$rank_model"
rm -f "$rank_a" "$rank_b" "$rank_model"

echo "== rank bench =="
dune exec bench/main.exe -- --quick --only rank
test -s BENCH_rank.json
grep -q '"gates_ok":true' BENCH_rank.json

echo "== hetero smoke test =="
# Heterogeneous mixed GPU+NPU fleet end to end: device-class kernel
# stores, deadline-aware cost-model routing, the per-class circuit
# breaker with trip-drain and half-open probes, hedged dispatch and the
# brown-out ladder, against equal-PE single-backend fleets and the
# chaos failover A/B. The subcommand exits non-zero if any acceptance
# gate fails; the JSON report holds only simulated quantities, so runs
# must produce byte-identical files across repeats and across --jobs
# counts.
hetero_a="${TMPDIR:-/tmp}/mikpoly_ci_hetero_a.json"
hetero_b="${TMPDIR:-/tmp}/mikpoly_ci_hetero_b.json"
dune exec bin/mikpoly_cli.exe -- hetero --quick --out "$hetero_a"
test -s "$hetero_a"
grep -q '"gates_ok":true' "$hetero_a"
grep -q '"silent_losses":0' "$hetero_a"
dune exec bin/mikpoly_cli.exe -- hetero --quick --out "$hetero_b"
cmp "$hetero_a" "$hetero_b"
dune exec bin/mikpoly_cli.exe -- hetero --quick --jobs 4 --out "$hetero_b"
cmp "$hetero_a" "$hetero_b"
rm -f "$hetero_a" "$hetero_b"

echo "== hetero bench =="
dune exec bench/main.exe -- --quick --only hetero
test -s BENCH_hetero.json
grep -q '"gates_ok":true' BENCH_hetero.json

echo "== perfbench smoke =="
# The host-time benchmark's correctness checks on one short run: it
# exits non-zero unless compiled programs are byte-identical and
# numerically correct, every serving loop gives each request exactly
# one terminal status, statuses and counts repeat across reps and runs
# of the seed, and every metric is finite. Its timings are not gated
# here. The compile-cold run covers the search path: it also fails on
# a wrong executor result, on warm programs that differ from the
# sequential ones, or on search tallies that do not repeat.
python3 perfbench/run.py --workload serve-nominal --seed 1 --seconds 1 --trace 0
python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 1 --trace 0

echo "CI OK"
