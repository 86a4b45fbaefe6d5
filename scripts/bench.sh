#!/usr/bin/env bash
# Run the benchmark suites and gate each against its checked-in
# baseline:
#
#   scripts/bench.sh                        # all suites, full workloads
#   scripts/bench.sh --smoke                # CI-size workloads
#   scripts/bench.sh --suite datapath       # one suite only
#   scripts/bench.sh --suite service --smoke
#
# Suites (each emits BENCH_<suite>.json, schema {bench, metric, value,
# unit, seed} per row, gated against bench/BENCH_<suite>.baseline.json):
#
#   datapath — shuffle data plane: batched FIFO vs per-record, codec
#              pair, partial stores.  The batched_speedup baseline of
#              2.5 makes the 80% floor exactly the 2x acceptance bar;
#              likewise the codec baselines of 0.375 (wire bytes saved)
#              and 1.125 (lz4-vs-none decode) pin their acceptance bars.
#              The in-memory/spill-merge store and fetch_to_reduce
#              baselines put their floors (4.4 M ops/s, 4.2 M rec/s)
#              above what an ordered memtable (one tree probe per fold)
#              reaches on the 4-vCPU reference host (<= 3.8 M / 3.6 M),
#              so a return to a per-record ordered index fails the gate.
#   service  — multi-tenant job service under saturation: sustained
#              jobs/sec, per-tenant fairness, p99 latency (as inverse).
#              The fair_share_min_fraction baseline of 0.5 makes the
#              80% floor exactly 0.4 — the 50%±10% per-tenant bar.
#
# Every gated metric is higher-is-better; the gate fails if any metric
# lands below 80% of its baseline value.  Baselines are deliberately
# conservative — far below what current hardware delivers — so they
# catch structural regressions (a lost batching path, a reintroduced
# per-record lock cycle, a starved tenant), not machine-to-machine
# noise.
set -euo pipefail
cd "$(dirname "$0")/.."

args=()
suites=()
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) args+=(--smoke) ;;
    --suite)
      shift
      case "${1:-}" in
        datapath|service) suites+=("$1") ;;
        *) echo "usage: scripts/bench.sh [--smoke] [--suite datapath|service]" >&2; exit 2 ;;
      esac
      ;;
    *) echo "usage: scripts/bench.sh [--smoke] [--suite datapath|service]" >&2; exit 2 ;;
  esac
  shift
done
if [ ${#suites[@]} -eq 0 ]; then
  suites=(datapath service)
fi

jobs=$(nproc 2>/dev/null || echo 2)
cmake --preset default >/dev/null
for suite in "${suites[@]}"; do
  cmake --build build -j "${jobs}" --target "bench_${suite}" >/dev/null
done

gate() {
  local baseline="$1" out="$2"
  echo "== regression gate: ${out} vs ${baseline} (floor: 80% of baseline) =="
  awk '
    function parse(line) {
      if (match(line, /"bench": "[^"]+"/) == 0) return 0
      bench = substr(line, RSTART + 10, RLENGTH - 11)
      if (match(line, /"metric": "[^"]+"/) == 0) return 0
      metric = bench "/" substr(line, RSTART + 11, RLENGTH - 12)
      if (match(line, /"value": [0-9.eE+-]+/) == 0) return 0
      value = substr(line, RSTART + 9, RLENGTH - 9) + 0
      return 1
    }
    FNR == 1 { file_idx++ }
    file_idx == 1 { if (parse($0)) base[metric] = value }
    file_idx == 2 { if (parse($0)) cur[metric] = value }
    END {
      failed = 0
      for (m in base) {
        if (!(m in cur)) {
          printf "bench gate: FAIL: metric %s missing from current run\n", m
          failed = 1
          continue
        }
        floor = base[m] * 0.8
        status = (cur[m] >= floor) ? "ok" : "FAIL"
        if (cur[m] < floor) failed = 1
        printf "bench gate: %-6s %-36s current %14.3f  floor %14.3f\n", \
               status, m, cur[m], floor
      }
      exit failed
    }
  ' "${baseline}" "${out}"
}

for suite in "${suites[@]}"; do
  out="BENCH_${suite}.json"
  "./build/bench/bench_${suite}" "${args[@]+"${args[@]}"}" --out "${out}"
  gate "bench/BENCH_${suite}.baseline.json" "${out}"
done
echo "== bench gate passed: ${suites[*]} =="
