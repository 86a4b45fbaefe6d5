#!/usr/bin/env bash
# Repo lint gate: fast greppable checks over src/, plus clang-tidy when
# a clang-tidy binary is available.  Run directly or via
# `scripts/check.sh lint`; `scripts/check.sh all` runs it first.
#
# Checks
#   1. raw-threading   std::thread / std::mutex / std::lock_guard / ...
#                      only inside src/common/ and src/concurrency/.
#                      Everything else uses bmr::Mutex / bmr::OrderedMutex /
#                      bmr::MutexLock / bmr::CondVar / ThreadPool.
#   3. determinism     src/sim/ and src/simmr/ are simulation layers:
#                      no wall clocks, no rand(), no sleeps.
#   6. batched-fifo     no per-record fifo_.Push() in src/mr/ — shuffle
#                      sinks move RecordBatches via PushAll (one lock
#                      cycle and one wakeup per batch, see
#                      mr/record_batch.h).
#
# Former checks 2 (nodiscard), 4 (include layering), 5 (faults/internal.h
# private to src/faults/), 7 (metric names) and 8 (only net/transport.h
# leaves src/net/) moved to the static analyzer, tools/bmr_check
# (`check.sh analyze`), which checks them token-exactly and
# transitively — the grep/awk versions missed multi-line declarations
# and could not see include cycles or dead metric constants.  Keep them
# out of this file: two enforcers of one rule drift and double-report.
#
# Tests, benches and examples are exempt: the gate polices the library
# layers, not the harnesses around them.
set -uo pipefail
cd "$(dirname "$0")/.."

failures=0

fail() {
  echo "lint: FAIL: $1" >&2
  failures=$((failures + 1))
}

# ---------------------------------------------------------------------
# 1. Raw threading primitives outside src/common/ + src/concurrency/.
#    (std::this_thread is fine — the pattern requires a non-identifier
#    character after "thread" so it only matches the std::thread type.)
raw_re='std::(thread[^:_a-zA-Z]|mutex|condition_variable|shared_mutex|recursive_mutex|lock_guard|unique_lock|scoped_lock)'
hits=$(grep -rnE "${raw_re}" src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/common/' | grep -v '^src/concurrency/' || true)
if [ -n "${hits}" ]; then
  echo "${hits}" >&2
  fail "raw threading primitives outside src/common//src/concurrency/ — use bmr::Mutex/OrderedMutex/MutexLock/CondVar or ThreadPool (common/mutex.h)"
fi

# ---------------------------------------------------------------------
# 3. Determinism in the simulation layers: simulated time only.
det_re='[^_a-zA-Z](rand|srand|time)\(|random_device|system_clock|steady_clock|high_resolution_clock|sleep_for|sleep_until|this_thread'
hits=$(grep -rnE "${det_re}" src/sim/ src/simmr/ --include='*.h' --include='*.cc' || true)
if [ -n "${hits}" ]; then
  echo "${hits}" >&2
  fail "wall-clock/randomness in src/sim//src/simmr/ — simulators must be deterministic (virtual time only)"
fi

# ---------------------------------------------------------------------
# 6. Batched FIFO: the shuffle data plane moves record batches.  A raw
#    per-record fifo_.Push() in a src/mr/ sink reintroduces one
#    lock/wakeup cycle per record — the exact overhead the batched
#    design removed.
hits=$(grep -rnE 'fifo_\.Push\(' src/mr/ --include='*.h' --include='*.cc' || true)
if [ -n "${hits}" ]; then
  echo "${hits}" >&2
  fail "per-record fifo_.Push() in src/mr/ — sinks must batch via PushAll (mr/record_batch.h)"
fi

# ---------------------------------------------------------------------
# clang-tidy (when available — the container may only have GCC).
if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f build/compile_commands.json ]; then
    cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  echo "lint: running clang-tidy"
  if ! find src -name '*.cc' -print0 \
      | xargs -0 -P "$(nproc 2>/dev/null || echo 2)" -n 8 \
          clang-tidy -p build --quiet; then
    fail "clang-tidy reported diagnostics"
  fi
else
  echo "lint: clang-tidy not found; skipping (grep checks still enforced)"
fi

# ---------------------------------------------------------------------
if [ "${failures}" -ne 0 ]; then
  echo "lint: ${failures} check(s) failed" >&2
  exit 1
fi
echo "lint: OK"
