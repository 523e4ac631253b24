#!/usr/bin/env bash
# Reproduces BENCH_PR2.json + BENCH_PR3.json + BENCH_PR5.json +
# BENCH_PR6.json + BENCH_PR7.json + BENCH_PR9.json: Release build, then
# the perf gate.
#
#   scripts/bench.sh                 # full gates (n=50k): BENCH_PR2.json
#                                    # + BENCH_PR3.json (thread scaling)
#                                    # + BENCH_PR5.json (stream ingestion)
#                                    # + BENCH_PR6.json (parallel scaling
#                                    #   after the batching fix; enforces
#                                    #   speedup > 1 at >= 4 CPUs)
#                                    # + BENCH_PR7.json (WAL overhead +
#                                    #   50k-delta recovery wall time)
#                                    # + BENCH_PR9.json (sentinel audit
#                                    #   overhead; every-16 cadence must
#                                    #   stay within 1.15x of audits-off)
#   scripts/bench.sh --smoke         # small run for CI (bench_smoke.json
#                                    # + bench_smoke_pr3.json
#                                    # + bench_smoke_pr5.json
#                                    # + bench_smoke_pr6.json
#                                    # + bench_smoke_pr7.json
#                                    # + bench_smoke_pr9.json)
#   scripts/bench.sh --stream-out=X.json   # redirect the PR-5 JSON
#   scripts/bench.sh --scale-out=X.json    # ALSO run bench_scalability
#                                    # (n=1M stream->track->anchor tier +
#                                    # text-vs-binlog ingestion gate >=1.5x;
#                                    # AVT_SCALE_10M=1 adds the 10M tier)
#   scripts/bench.sh -- --n=100000   # extra args forwarded to bench_perf_gate
#
# The gate measures the eager ("before", seed execution strategy) and
# lazy ("after", certified-bound) pick loops on identical inputs, the
# lazy loops across the --threads-list worker counts, the three
# ingestion drivers (materialized snapshot-pull / streamed AvtEngine /
# coalesced windows), and the sentinel-audit cadences (off / every-16 /
# every-1), checks all outputs are bit-identical, and emits the
# before/after JSON that docs/PERFORMANCE.md explains. Wall times move
# with the host (the PR-3 JSON records host_cpus for that reason); the
# work counters (oracle_queries, bound_probes) are deterministic.

set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_PR2.json"
threads_out="BENCH_PR3.json"
stream_out="BENCH_PR5.json"
scaling_out="BENCH_PR6.json"
durability_out="BENCH_PR7.json"
selfheal_out="BENCH_PR9.json"
extra=()
if [[ "${1:-}" == "--smoke" ]]; then
  shift
  out="bench_smoke.json"
  threads_out="bench_smoke_pr3.json"
  stream_out="bench_smoke_pr5.json"
  scaling_out="bench_smoke_pr6.json"
  durability_out="bench_smoke_pr7.json"
  selfheal_out="bench_smoke_pr9.json"
  extra+=(--n=8000 --t=6 --repeats=1 --recovery-deltas=2000 --audit-transitions=48)
fi
if [[ "${1:-}" == --stream-out=* ]]; then
  stream_out="${1#--stream-out=}"
  shift
fi
scale_out=""
if [[ "${1:-}" == --scale-out=* ]]; then
  scale_out="${1#--scale-out=}"
  shift
fi
if [[ "${1:-}" == "--" ]]; then
  shift
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$jobs" --target bench_perf_gate

./build/bench_perf_gate --out="$out" --threads-out="$threads_out" \
  --stream-out="$stream_out" --scaling-out="$scaling_out" \
  --durability-out="$durability_out" --selfheal-out="$selfheal_out" \
  "${extra[@]}" "$@"
echo "bench output: $out + $threads_out + $stream_out + $scaling_out + $durability_out + $selfheal_out"

# Scalability tier (PR 10): full stream->track->anchor pipeline at
# n=1M driven from the binary edge log, plus the text-vs-binlog
# ingestion gate (>= 1.5x). Opt-in because the 1M tier alone needs a
# few GB of scratch and ~2 minutes; AVT_SCALE_10M=1 adds the 10M tier
# (nightly-sized: ~10 GB scratch, several minutes).
if [[ -n "$scale_out" ]]; then
  cmake --build build -j "$jobs" --target bench_scalability
  scale_flags=(--out="$scale_out")
  if [[ -n "${AVT_SCALE_10M:-}" ]]; then
    scale_flags+=(--full)
  fi
  ./build/bench_scalability "${scale_flags[@]}"
  echo "scalability output: $scale_out"
fi
