#!/usr/bin/env bash
# Bench smoke: run every bench driver once at minimal sizes and fail on any
# nonzero exit. Benches are not part of ctest, so without this they only
# ever compile in CI and can bit-rot at runtime (stale flags, renamed
# registry algorithms, workload API drift). This is a liveness check, not a
# measurement: timings printed here are meaningless — with one gate that
# holds on every host, and SIX machine-keyed exceptions.
#
# The host-independent gate:
#   - bench_evaluate_kernel ROUTESTAT lines: at batch widths 1, 8 and 40,
#     auto-routing (EvaluationBackendRegistry::Route with no name) must run
#     at >= 0.9x the best explicitly named backend. Each line is a
#     same-run, interleaved-trial ratio, so it carries across hosts; the
#     gate takes the median over the bench's workloads at each width, so
#     one workload caught in a burst of host noise cannot fail it, while a
#     routing policy that systematically picks a slower backend does.
#
# The machine-keyed exceptions are each only checked when the current
# MACHINEKEY (cpu model) matches the cpu recorded in the reference JSON; on
# other machines the thresholds are skipped (noise):
#   - bench_evaluate_kernel (vs BENCH_evaluate.json): the simd_batch
#     backend must not fall below 1.0x the single-scenario compiled loop at
#     the recorded batch width. A vectorized backend slower than the scalar
#     loop it batches is a regression even at smoke scale.
#   - bench_evaluate_kernel (vs BENCH_evaluate.json): the jit arm's
#     single-scenario sweep must not fall below 1.0x the compiled loop —
#     but only JITSTAT lines with mode=native; hosts where the jit fell
#     back (forced off, no executable memory) skip cleanly, since the
#     fallback IS the compiled kernel and its ratio is just noise.
#   - bench_server_throughput (vs BENCH_baseline.json): the cached-compress
#     ratio (cold DP / cache hit) must stay >= 100x. The hot serving path
#     is a mutex + hash probe; two orders of magnitude of headroom under
#     the ~2000x recorded means the path grew real work.
#   - bench_server_throughput (vs BENCH_baseline.json): foreground Info
#     RPC latency with 64 idle connections parked must stay >= 0.5x the
#     lone-client latency. Idle connections are bare fds on the epoll
#     loop; if they drag request latency, per-connection threads, busy
#     wakeups, or O(conns) scans crept back into the front end.
#   - bench_scenario_expand (vs BENCH_baseline.json): one scenario-program
#     request must stay >= 5.0x faster than the same 1000 scenarios as
#     individual RPCs (the subsystem's raison d'etre), and its built-in
#     bitwise-identity check must pass (enforced by the driver's exit
#     code on every machine).
#   - bench_incremental_update (vs BENCH_baseline.json): patching a
#     retained DP after a localized append must stay >= 2.0x faster than
#     the cold full DP on every standard workload (min ratio). The
#     driver's built-in patched-vs-full differential (field equality +
#     byte-identical serialization) is enforced by its exit code on every
#     machine; only the latency ratio is machine-keyed.
#
# Usage: tools/bench_smoke.sh [BUILD_DIR]   (default: build)
set -u

BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"

if [ ! -d "$BENCH_DIR" ]; then
  echo "bench_smoke: no such directory: $BENCH_DIR" >&2
  exit 2
fi

# Minimal sizes: tiny workload scale, a low brute-force cut ceiling, and a
# short benchmark_min_time for the Google Benchmark ablation drivers (which
# ignore the env vars' scale only partially — the flag keeps them fast).
export PROVABS_BENCH_SCALE="${PROVABS_BENCH_SCALE:-0.05}"
export PROVABS_BRUTE_MAX_CUTS="${PROVABS_BRUTE_MAX_CUTS:-300}"

failures=0
count=0
for bench in "$BENCH_DIR"/bench_*; do
  [ -x "$bench" ] || continue
  [ -f "$bench" ] || continue
  name=$(basename "$bench")
  count=$((count + 1))
  args=()
  # Google Benchmark drivers accept --benchmark_min_time; the self-timed
  # drivers would reject unknown flags, so sniff by name.
  case "$name" in
    bench_ablation_mlcompute|bench_ablation_sparse_dp)
      args=(--benchmark_min_time=0.01) ;;
  esac
  echo "== $name ${args[*]:-}"
  # These drivers' stdout carries the MACHINEKEY/stat lines the threshold
  # checks below parse; every other driver's is discarded.
  out=/dev/null
  case "$name" in
    bench_evaluate_kernel)    out=/tmp/bench_smoke_eval.$$ ;;
    bench_server_throughput)  out=/tmp/bench_smoke_srv.$$ ;;
    bench_scenario_expand)    out=/tmp/bench_smoke_scn.$$ ;;
    bench_incremental_update) out=/tmp/bench_smoke_incr.$$ ;;
  esac
  "$bench" "${args[@]}" > "$out" 2> /tmp/bench_smoke_err.$$
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAILED: $name (exit $rc)" >&2
    sed 's/^/    /' /tmp/bench_smoke_err.$$ >&2
    failures=$((failures + 1))
  fi
  rm -f /tmp/bench_smoke_err.$$
done

# Routing gate (every host): median ROUTESTAT ratio per batch width.
EVAL_OUT=/tmp/bench_smoke_eval.$$
if [ -s "$EVAL_OUT" ]; then
  for width in 1 8 40; do
    median=$(awk -v width="$width" '$1 == "ROUTESTAT" && $3 == "batch=" width {
      for (i = 1; i <= NF; i++) if ($i ~ /^ratio=/) { sub("ratio=", "", $i); print $i }
    }' "$EVAL_OUT" | sort -g | awk '{ v[NR] = $1 } END {
      if (NR == 0) print "none"; else print v[int((NR + 1) / 2)] }')
    if [ "$median" = "none" ]; then
      echo "FAILED: no ROUTESTAT lines at batch $width" >&2
      failures=$((failures + 1))
    elif awk -v m="$median" 'BEGIN { exit !(m + 0 < 0.9) }'; then
      echo "FAILED: auto-routing at ${median}x the best explicit backend at batch $width (median over workloads, floor 0.9):" >&2
      grep "^ROUTESTAT .* batch=$width " "$EVAL_OUT" | sed 's/^/    /' >&2
      failures=$((failures + 1))
    else
      echo "bench_smoke: auto-routing at ${median}x the best explicit backend at batch $width (median over workloads, floor 0.9)"
    fi
  done
fi

# Threshold the batched-arm ratios, keyed by machine: only meaningful on
# the CPU the reference numbers were recorded on.
REFERENCE_JSON="$(cd "$(dirname "$0")/.." && pwd)/BENCH_evaluate.json"
if [ -s "$EVAL_OUT" ] && [ -f "$REFERENCE_JSON" ]; then
  recorded_cpu=$(sed -n 's/^[[:space:]]*"cpu": "\(.*\)",*$/\1/p' "$REFERENCE_JSON" | head -1)
  this_cpu=$(sed -n 's/^MACHINEKEY cpu=//p' "$EVAL_OUT" | head -1)
  if [ -n "$recorded_cpu" ] && [ "$recorded_cpu" = "$this_cpu" ]; then
    slow=$(awk '/^BATCHSTAT / && /backend=simd_batch/ {
      for (i = 1; i <= NF; i++) {
        if ($i ~ /^ratio=/) { sub("ratio=", "", $i); if ($i + 0 < 1.0) print }
      }
    }' "$EVAL_OUT")
    if [ -n "$slow" ]; then
      echo "FAILED: simd_batch below 1.0x compiled on the recorded machine ($this_cpu):" >&2
      grep 'backend=simd_batch' "$EVAL_OUT" | sed 's/^/    /' >&2
      failures=$((failures + 1))
    else
      echo "bench_smoke: simd_batch batched-arm ratios >= 1.0x compiled (machine key matched)"
    fi
    # The jit arm: native code must beat the compiled loop it replaces.
    # Only mode=native lines are thresholded — a fallback line measures
    # the compiled kernel against itself plus dispatch overhead.
    jit_slow=$(awk '/^JITSTAT / && /mode=native/ {
      for (i = 1; i <= NF; i++) {
        if ($i ~ /^ratio=/) { sub("ratio=", "", $i); if ($i + 0 < 1.0) print }
      }
    }' "$EVAL_OUT")
    if [ -n "$jit_slow" ]; then
      echo "FAILED: jit below 1.0x compiled on the recorded machine ($this_cpu):" >&2
      grep '^JITSTAT ' "$EVAL_OUT" | sed 's/^/    /' >&2
      failures=$((failures + 1))
    elif grep -q 'mode=native' "$EVAL_OUT"; then
      echo "bench_smoke: jit single-scenario ratios >= 1.0x compiled (machine key matched)"
    else
      echo "bench_smoke: skipping jit threshold (jit arm ran in fallback mode)"
    fi
  else
    echo "bench_smoke: skipping simd_batch/jit thresholds (machine key '$this_cpu' != recorded '$recorded_cpu')"
  fi
fi
rm -f "$EVAL_OUT"

# Serving-layer ratios, keyed against the machine BENCH_baseline.json was
# recorded on (same skip-on-foreign-machine policy as above).
BASELINE_JSON="$(cd "$(dirname "$0")/.." && pwd)/BENCH_baseline.json"
baseline_cpu=""
if [ -f "$BASELINE_JSON" ]; then
  baseline_cpu=$(sed -n 's/^[[:space:]]*"cpu": "\(.*\)",*$/\1/p' "$BASELINE_JSON" | head -1)
fi

check_ratio() {
  # check_ratio <out-file> <stat-prefix> <min-ratio> <label> [metric]
  # A driver may print several <stat-prefix> lines, distinguished by a
  # metric=NAME field; pass [metric] to threshold only that line (empty
  # matches every line, the pre-multi-metric behaviour).
  local out="$1" prefix="$2" min="$3" label="$4" metric="${5:-}"
  [ -s "$out" ] && [ -n "$baseline_cpu" ] || return 0
  local this_cpu
  this_cpu=$(sed -n 's/^MACHINEKEY cpu=//p' "$out" | head -1)
  if [ "$this_cpu" != "$baseline_cpu" ]; then
    echo "bench_smoke: skipping $label threshold (machine key '$this_cpu' != recorded '$baseline_cpu')"
    return 0
  fi
  local bad
  bad=$(awk -v prefix="$prefix" -v min="$min" -v metric="$metric" \
    '$1 == prefix && (metric == "" || $2 == "metric=" metric) {
    for (i = 1; i <= NF; i++) {
      if ($i ~ /^ratio=/) { sub("ratio=", "", $i); if ($i + 0 < min) print }
    }
  }' "$out")
  if [ -n "$bad" ]; then
    echo "FAILED: $label ratio below ${min}x on the recorded machine ($this_cpu):" >&2
    grep "^$prefix " "$out" | sed 's/^/    /' >&2
    failures=$((failures + 1))
  else
    echo "bench_smoke: $label ratio >= ${min}x (machine key matched)"
  fi
}

check_ratio /tmp/bench_smoke_srv.$$ SRVSTAT 100 "cached-compress" cached_compress
check_ratio /tmp/bench_smoke_srv.$$ SRVSTAT 0.5 "idle-connection latency" concurrent_connections
check_ratio /tmp/bench_smoke_scn.$$ SCENARIOSTAT 5.0 "scenario fan-out"
check_ratio /tmp/bench_smoke_incr.$$ PATCHSTAT 2.0 "incremental patch" patched_vs_full
rm -f /tmp/bench_smoke_srv.$$ /tmp/bench_smoke_scn.$$ /tmp/bench_smoke_incr.$$

if [ "$count" -eq 0 ]; then
  echo "bench_smoke: no bench binaries found under $BENCH_DIR" >&2
  exit 2
fi

echo "bench_smoke: $count drivers, $failures failures"
[ "$failures" -eq 0 ]
