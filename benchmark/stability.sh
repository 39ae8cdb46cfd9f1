#!/usr/bin/env bash
# Checks that the benchmark repeats: for each workload, two sets of
# full runs (5 per set unless RUNS says otherwise), every run with its
# own seed. For each end-to-end metric it prints, per set, the median,
# quartiles, interquartile range and (max-min) as shares of the median,
# and then the same over both sets together. It exits non-zero when a
# run fails a check, when within a set a metric's runs lie further apart
# ((max-min)/median) than its bound in BENCHMARK.json, or than a tenth
# for a timing metric, setup_s included, or when the two sets' medians
# differ by more than the bound. The listing over both sets together is
# for reading only.
#
# Run it from the root of the repository:
#
#   bash benchmark/stability.sh                  # all workloads, 2 x 5 runs
#   RUNS=3 bash benchmark/stability.sh serve_mix # one workload, 2 x 3 runs
#
# Result lines and each run's standard error are kept in
# .bench_build/stability/.
set -euo pipefail

runs="${RUNS:-5}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
workloads=("$@")
if [ "${#workloads[@]}" -eq 0 ]; then
    workloads=(table2 stream_16x adaptive_bank serve_mix)
fi
dir=.bench_build/stability
mkdir -p "$dir"
bash benchmark/run.sh -workload table2 -check >/dev/null # build once
bin=.bench_build/chipvqa-benchmark

status=0
for w in "${workloads[@]}"; do
    for set in 1 2; do
        : >"$dir/$w.$set.jsonl"
        : >"$dir/$w.$set.log"
        for i in $(seq 1 "$runs"); do
            seed=$(((set - 1) * runs + i))
            "$bin" -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 2>>"$dir/$w.$set.log" |
                tail -n 1 >>"$dir/$w.$set.jsonl"
        done
    done
    cat "$dir/$w.1.jsonl" "$dir/$w.2.jsonl" >"$dir/$w.all.jsonl"
    echo "== $w: sets 1 and 2 of $runs runs"
    "$bin" spread BENCHMARK.json "$dir/$w.1.jsonl" "$dir/$w.2.jsonl" || status=1
    echo "== $w: all $((2 * runs)) runs"
    "$bin" spread BENCHMARK.json "$dir/$w.all.jsonl" 2>/dev/null || true
done
exit "$status"
