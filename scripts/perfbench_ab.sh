#!/usr/bin/env bash
# A/B runner for perfbench: builds the benchmark once from each of two git
# revisions and runs alternating pairs of runs per workload, then prints,
# per metric, each side's median and quartiles, the median of the per-pair
# ratios change/parent and in how many pairs the change did better.
#
#   scripts/perfbench_ab.sh [-n pairs] [-s seconds] [-S first-seed] [-t 0|1]
#                           [-w workload,...] [-o runs.jsonl] <parent> <change>
#
# <parent> and <change> are git tree-ishes: a commit, a branch, or the
# staged index as `git write-tree` prints it (`git add -A && git write-tree`
# measures uncommitted work). Each is exported with `git archive` into a
# temporary directory and built there with `cargo build --release
# --offline`, so the working tree is never touched. Pair k runs seed
# first-seed + k, parent first on odd seeds and change first on even ones.
# Defaults: 10 pairs of 15-s untraced (-t 0) runs of every workload, seeds
# from 1. -o appends each run's result line, tagged with workload, seed and
# side, to a JSON-lines file. Whether a metric is better higher or lower
# comes from the repository's BENCHMARK.json.
set -euo pipefail

pairs=10
seconds=15
first_seed=1
trace=0
workloads="optwin-paper,fleet-zipf,fleet-durable"
out=""
usage() {
    sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}
while getopts "n:s:S:t:w:o:h" opt; do
    case "$opt" in
        n) pairs=$OPTARG ;;
        s) seconds=$OPTARG ;;
        S) first_seed=$OPTARG ;;
        t) trace=$OPTARG ;;
        w) workloads=$OPTARG ;;
        o) out=$OPTARG ;;
        *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -eq 2 ] || usage

repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perfbench-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
runs="$tmp/runs.jsonl"

# build <side> <tree-ish>: exports the revision and builds its perfbench.
build() {
    local dir="$tmp/$1"
    mkdir -p "$dir/src"
    git -C "$repo" archive "$2" | tar -x -C "$dir/src"
    echo "building $1 ($2)" >&2
    CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
        --manifest-path "$dir/src/perfbench/Cargo.toml"
}
build parent "$1"
build change "$2"

# run <side> <workload> <seed>: one run, its result line tagged and kept.
run() {
    local line
    line=$("$tmp/$1/target/release/optwin-perfbench" --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1)
    line="{\"workload\": \"$2\", \"seed\": $3, \"side\": \"$1\", \"result\": $line}"
    echo "$line" >>"$runs"
    if [ -n "$out" ]; then echo "$line" >>"$out"; fi
}
for workload in ${workloads//,/ }; do
    for ((k = 0; k < pairs; k++)); do
        seed=$((first_seed + k))
        echo "$workload seed $seed" >&2
        if ((seed % 2)); then
            run parent "$workload" "$seed"
            run change "$workload" "$seed"
        else
            run change "$workload" "$seed"
            run parent "$workload" "$seed"
        fi
    done
done

python3 - "$runs" "$repo/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

runs = [json.loads(line) for line in open(sys.argv[1])]
declared = json.load(open(sys.argv[2]))
better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


for workload in dict.fromkeys(run["workload"] for run in runs):
    sides = {"parent": {}, "change": {}}
    for run in runs:
        if run["workload"] == workload:
            sides[run["side"]][run["seed"]] = run["result"]
    seeds = sorted(set(sides["parent"]) & set(sides["change"]))
    results = [sides[side][seed] for side in sides for seed in seeds]
    correct = sum(result["correct"] for result in results)
    failed = sum(result["failed"] for result in results)
    print(f"{workload}: {len(seeds)} pairs, {correct}/{len(results)} runs correct, "
          f"{failed} failed")
    print(f"  {'metric':<28} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
          f"{'ratio':>7} {'wins':>6}")
    for metric in sides["parent"][seeds[0]]["metrics"]:
        parent = [sides["parent"][seed]["metrics"][metric]["value"] for seed in seeds]
        change = [sides["change"][seed]["metrics"][metric]["value"] for seed in seeds]
        ratios = [c / p for p, c in zip(parent, change) if p != 0]
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
        direction = better.get(metric)
        if direction is None:
            wins = "-"
        else:
            sign = 1 if direction == "higher" else -1
            wins = f"{sum(sign * (c - p) > 0 for p, c in zip(parent, change))}/{len(seeds)}"

        def summary(values):
            q1, median, q3 = quartiles(values)
            return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

        print(f"  {metric:<28} {summary(parent):>36} {summary(change):>36} {ratio:>7} {wins:>6}")
EOF
