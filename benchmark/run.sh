#!/usr/bin/env bash
# Builds dybench, runs it untraced, runs it traced, and compares the
# untraced result against a previous one if given.
#
#   benchmark/run.sh [--workload <name>] [--seed <n>] [--seconds <s>] [previous-result.json]
#
# --workload selects a single workload for iteration; without it all seven
# run. Result files land in benchmark/out/ (git-ignored), never over the
# legacy BENCH_*.json at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
pass=()
previous=""
seed=1
which=all
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) which="$2"; pass+=("$1" "$2"); shift 2 ;;
        --seed) seed="$2"; pass+=("$1" "$2"); shift 2 ;;
        --seconds) pass+=("$1" "$2"); shift 2 ;;
        -h|--help) sed -n '2,9p' "$0"; exit 0 ;;
        *) previous="$1"; shift ;;
    esac
done

cargo build --release --manifest-path "$here/Cargo.toml"
dybench=(cargo run --release --quiet --manifest-path "$here/Cargo.toml" --)

"${dybench[@]}" run "${pass[@]}" --trace 0
"${dybench[@]}" run "${pass[@]}" --trace 1

if [ -n "$previous" ]; then
    "${dybench[@]}" compare "$previous" "$here/out/dybench-e2e-seed$seed-$which.json"
fi
