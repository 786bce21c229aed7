#!/usr/bin/env bash
# Fault-matrix sweep: runs the test suite against the simulated fabric with
# fault injection off (full suite, baseline) and then with random faults
# enabled through the MPICD_FAULT_* environment across several seeds.
#
# With faults on, tests that assert the exact wire-model timing are excluded
# (injected delay/drop legitimately changes arrival times):
#   - test_netsim  : asserts modeled latencies to the microsecond
#   - test_engine  : compares timing between engine variants
#   - bench_compare: gates bench throughput/latency against baselines
#     recorded on a lossless fabric; retransmits and injected delay shift
#     those numbers legitimately. The benches themselves still run in the
#     lossy legs (their built-in correctness asserts — matched pairings,
#     wire-identical ablation — must hold under faults); only the
#     performance gate is restricted to the faults-off leg.
# Everything else must pass unmodified — that is the point of the sweep: the
# reliable-delivery protocol makes packet loss invisible to correctness.
#
# A final AddressSanitizer leg rebuilds the datapath-relevant tests in a
# separate build tree (-DMPICD_SANITIZE=address) and replays the lossy
# configuration through them: the pooled hot path recycles and shares
# buffers across threads, and ASan turns any use-after-release or
# double-release of a slab into a hard failure. The leg also covers the
# custom-type staging buffers and derived-type descriptors, whose lifetimes
# rest on shared_ptr anchors alone, and — through test_p2p, test_traits and
# test_capi — the one payload lowering in p2p/communicator.cpp, which owns
# the sized-header anchor and the custom receive op of every message.
# test_collectives, test_coll_faults and test_coll_schedule cover the
# collective front door: the Payload blocks it builds are copied into the
# schedule's steps and must never be read after the call returns.
# MPICD_SKIP_ASAN=1 skips it.
#
# A ThreadSanitizer leg (-DMPICD_SANITIZE=thread) then replays the
# matcher-heavy tests — test_matcher's randomized differential sweeps, the
# test_ucx conformance set, the multi-threaded many-rank soak, and the
# collectives (whose dissemination-barrier rounds historically aliased one
# token byte between concurrent send and recv — the TSan regression for
# that bug lives in test_collectives) — plus test_integration and test_p2p,
# whose threaded ranks poll completions that other threads publish into
# recycled request slots, so the finely-locked progress path (busy-flag
# serialization, sharded admission, lock-free completion publishing and
# slot recycling, collective progress hooks) is checked for data races,
# not just correctness. MPICD_SKIP_TSAN=1 skips it.
#
# A final tracing leg replays the lossy fault/collective tests with
# MPICD_TRACE=1 over one seed: span instrumentation (MsgScope stamping,
# coll.* op/round instants, flight-recorder sources) must stay a pure
# observer — the reliability protocol and every collective must behave
# identically with the rings recording. MPICD_SKIP_TRACE=1 skips it.
#
# Every leg runs even when an earlier one fails; the script then prints
# the failing legs and exits non-zero if there were any.
#
# Usage: tools/run_faults_matrix.sh [build-dir] (default: build)
set -euo pipefail

BUILD_DIR=${1:-build}
if [[ ! -f "$BUILD_DIR/CTestTestfile.cmake" ]]; then
    echo "error: '$BUILD_DIR' is not a configured build directory" >&2
    exit 1
fi

SEEDS=(1 42 999983)
EXCLUDE='test_netsim|test_engine|bench_compare'
JOBS=${CTEST_PARALLEL_LEVEL:-4}
FAILED=()

# --repeat until-pass:2 absorbs the pre-existing scheduler-dependent flake in
# test_engine's rail-striping race (flaky on the lossless seed as well).
run_ctest() {
    ctest --test-dir "$BUILD_DIR" -j "$JOBS" --output-on-failure \
          --repeat until-pass:2 "$@"
}

# Run one leg in a subshell (its environment stays local). A failing leg is
# recorded, not fatal. Errexit does not apply inside the leg, so multi-step
# legs chain their steps with &&.
leg() {
    local name=$1
    shift
    echo "=== $name ==="
    if ! ( "$@" ); then
        echo "=== $name: FAILED ==="
        FAILED+=("$name")
    fi
}

# The lossy fault configuration shared by every faults-on leg.
export_lossy() {
    export MPICD_FAULT_SEED=$1 \
           MPICD_FAULT_DROP=0.01 \
           MPICD_FAULT_DUP=0.01 \
           MPICD_FAULT_REORDER=0.01 \
           MPICD_FAULT_CORRUPT=0.01
}

seed_leg() {
    export_lossy "$1"
    export MPICD_FAULT_DELAY=0.05 MPICD_FAULT_DELAY_US=10
    run_ctest -E "$EXCLUDE"
}

asan_leg() {
    local dir=${BUILD_DIR}-asan
    cmake -B "$dir" -S . \
          -DMPICD_SANITIZE=address \
          -DMPICD_BUILD_BENCH=OFF \
          -DMPICD_BUILD_EXAMPLES=OFF >/dev/null &&
    cmake --build "$dir" -j "$JOBS" --target \
          test_base test_ucx test_faults test_reliability_soak \
          test_custom test_pack_plan test_engine test_p2p test_traits test_capi \
          test_collectives test_coll_faults test_coll_schedule &&
    export_lossy 42 &&
    ctest --test-dir "$dir" -j "$JOBS" --output-on-failure \
          --repeat until-pass:2 \
          -R 'test_base|test_ucx|test_faults|test_reliability_soak|test_custom|test_pack_plan|test_engine|test_p2p|test_traits|test_capi|test_collectives|test_coll_faults|test_coll_schedule'
}

tsan_leg() {
    local dir=${BUILD_DIR}-tsan
    cmake -B "$dir" -S . \
          -DMPICD_SANITIZE=thread \
          -DMPICD_BUILD_BENCH=OFF \
          -DMPICD_BUILD_EXAMPLES=OFF >/dev/null &&
    cmake --build "$dir" -j "$JOBS" --target \
          test_ucx test_matcher test_reliability_soak \
          test_collectives test_coll_faults test_integration test_p2p &&
    export_lossy 42 &&
    ctest --test-dir "$dir" -j "$JOBS" --output-on-failure \
          --repeat until-pass:2 \
          -R 'test_ucx|test_matcher|test_reliability_soak|test_collectives|test_coll_faults|test_integration|test_p2p'
}

trace_leg() {
    export_lossy 42
    export MPICD_TRACE=1 MPICD_FAULT_DELAY=0.05 MPICD_FAULT_DELAY_US=10
    run_ctest -R 'test_trace|test_faults|test_coll_faults|test_collectives'
}

leg "faults off: full suite" run_ctest

for seed in "${SEEDS[@]}"; do
    leg "faults on: seed=$seed (excluding: $EXCLUDE)" seed_leg "$seed"
done

if [[ "${MPICD_SKIP_ASAN:-0}" != "1" ]]; then
    leg "asan leg: lossy datapath tests under AddressSanitizer" asan_leg
else
    echo "=== asan leg: skipped (MPICD_SKIP_ASAN=1) ==="
fi

if [[ "${MPICD_SKIP_TSAN:-0}" != "1" ]]; then
    leg "tsan leg: matcher + threaded soak under ThreadSanitizer" tsan_leg
else
    echo "=== tsan leg: skipped (MPICD_SKIP_TSAN=1) ==="
fi

if [[ "${MPICD_SKIP_TRACE:-0}" != "1" ]]; then
    leg "trace leg: lossy seed 42 with MPICD_TRACE=1" trace_leg
else
    echo "=== trace leg: skipped (MPICD_SKIP_TRACE=1) ==="
fi

if ((${#FAILED[@]} > 0)); then
    echo "=== fault matrix: ${#FAILED[@]} leg(s) failed ==="
    printf '  - %s\n' "${FAILED[@]}"
    exit 1
fi
echo "=== fault matrix: all passes green ==="
