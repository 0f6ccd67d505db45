#!/usr/bin/env bash
# One command for the whole benchmark: builds train_bench, runs the five
# workloads untraced and then traced, prints one `workload metric value unit`
# line per number, and writes every run's result line to a results file that
# `train_bench --compare` reads.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]
#
# Exits non-zero if any run failed a step or an identity.
set -uo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=10
out=benchmark/out/results.json
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        *) echo "usage: benchmark/run.sh [--seed N] [--seconds S] [--out FILE]" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml || exit 2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/train_bench"

mkdir -p "$(dirname "$out")"
runs=()
status=0
for trace in 0 1; do
    for workload in wide_mlp long_seq tp2_sp tp2_sp_overlap pp2_1f1b; do
        lines=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace") || status=1
        # Everything but the last line is for people; the last is the result.
        printf '%s\n' "$lines" | sed '$d'
        result=$(printf '%s\n' "$lines" | tail -n 1)
        runs+=("{\"workload\":\"$workload\",\"trace\":$trace,\"result\":$result}")
    done
done

(IFS=,; printf '{"seed":%s,"seconds":%s,"runs":[%s]}\n' "$seed" "$seconds" "${runs[*]}") > "$out"
echo "# wrote $out"
exit $status
