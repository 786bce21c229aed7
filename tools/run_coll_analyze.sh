#!/bin/sh
# End-to-end validation of the collective-op analysis pipeline:
#
#   run_coll_analyze.sh <coll_trace_demo-binary> [out-dir]
#
# Runs the 12-rank two-level collective demo (every schedule builder:
# barrier, bytes/custom bcast, gather, allreduce, allgatherv, and the
# bytes/custom gatherv and alltoallv, then the topology-aware families
# again with the flat algorithm forced) with tracing on, then feeds the
# Chrome trace to tools/coll_analyze.py --check, which requires every
# op's round tree to be complete on every rank and the cross-rank
# critical path to tile the op's end-to-end virtual-time latency
# exactly. Wired into ctest under the `analyze` label.
set -eu

if [ $# -lt 1 ]; then
    echo "usage: $0 <coll_trace_demo-binary> [out-dir]" >&2
    exit 2
fi

demo=$1
dir=${2:-$(dirname "$demo")/coll_analyze_out}
tools_dir=$(dirname "$0")
mkdir -p "$dir"
out="$dir/coll_trace.json"
rm -f "$out"

if ! command -v python3 >/dev/null 2>&1; then
    echo "run_coll_analyze: python3 not found, skipping" >&2
    exit 77 # ctest SKIP_RETURN_CODE
fi

MPICD_TRACE=1 MPICD_TRACE_FILE="$out" "$demo" > "$dir/coll_trace_demo.log" 2>&1

if [ ! -s "$out" ]; then
    echo "run_coll_analyze: $demo did not write $out" >&2
    exit 1
fi

python3 "$tools_dir/coll_analyze.py" --check "$out"

# The machine-readable report must also parse and carry the aggregate:
# every family of the demo present, both algorithms of each
# topology-aware family, each op with a critical path no longer than its
# end-to-end latency and at least one traced message.
python3 "$tools_dir/coll_analyze.py" --json "$out" > "$dir/report.json"
python3 - "$dir/report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
agg = doc["aggregate"]
assert agg["ops"] >= 15, "expected >= 15 collective ops, got %d" % agg["ops"]
assert agg["ops_with_critical_path"] == agg["ops"], "incomplete op trees"
builders = {(op["fam"], op["algo"]) for op in doc["ops"]}
expected = {(f, a) for f in ("bcast", "gather", "allreduce", "allgatherv")
            for a in ("flat", "hier")}
expected |= {("barrier", "flat"), ("gatherv", "flat"), ("alltoallv", "flat")}
assert expected <= builders, sorted(expected - builders)
for op in doc["ops"]:
    assert op["cp_us"] <= op["e2e_us"] + 0.01, op
    assert op["rounds"] >= 1 and op["messages"] >= 1, op
EOF

echo "run_coll_analyze: OK $out"
