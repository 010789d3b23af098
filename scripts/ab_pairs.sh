#!/usr/bin/env bash
# Times one ampsbench workload in alternating parent/change pairs and ends
# with `ampsbench compare` over the records.
#
# Usage: scripts/ab_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS [SECONDS]
#
# PARENT_DIR and CHANGE_DIR are two checkouts of the repository (say, a
# `git archive` of the parent commit and the working tree). Each side's
# `ampsbench` is built in release mode into that checkout's own
# `.bench_build/` (ignored by git). Pair k runs the parent first when k
# is even and the change first when it is odd, so a drift in machine
# speed during the session falls on both sides alike. Each run measures
# SECONDS (default 20) and writes its `--out` record to
# CHANGE_DIR/.bench_build/ab/WORKLOAD-seedSEED-<time>/{parent,change}/
# as NN.json, so `compare` pairs the runs of one pair by file name.
set -euo pipefail

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS [SECONDS]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
pairs=$5
seconds=${6:-20}

# Builds the checkout's ampsbench and prints the binary's path.
build() {
    CARGO_TARGET_DIR="$1/.bench_build" \
        cargo build --release -q --manifest-path "$1/ampsbench/Cargo.toml" >&2
    echo "$1/.bench_build/release/ampsbench"
}
parent_bin=$(build "$parent")
change_bin=$(build "$change")

out="$change/.bench_build/ab/$workload-seed$seed-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$out/parent" "$out/change"

# Runs side $1 (parent|change) for pair $2 and prints its median
# operation time, the run's reference-task time, the raw median it stands
# for and the peak RSS. ampsbench reports operation times normalised to a
# 10-ms reference task (`op_ms_p50` = raw median x 10 / `reference_ms`),
# so a side whose process runs the reference task faster reads a smaller
# raw gain than the normalised one; the raw median shows it.
run() {
    local bin=$parent_bin
    [ "$1" = change ] && bin=$change_bin
    local record line p50 rss ref raw
    record=$(printf '%s/%s/%02d.json' "$out" "$1" "$2")
    line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --out "$record" |
        tail -n 1)
    p50=$(grep -o '"op_ms_p50": {"value": [0-9.e+-]*' <<<"$line" | sed 's/.*: //')
    rss=$(grep -o '"peak_rss_mb": {"value": [0-9.e+-]*' <<<"$line" | sed 's/.*: //')
    ref=$(grep -o '"reference_ms": [0-9.e+-]*' "$record" | head -n 1 | sed 's/.*: //')
    raw=$(awk -v p="$p50" -v r="$ref" 'BEGIN { printf "%.6g", p * r / 10 }')
    echo "pair $2 $1: op_ms_p50 $p50 reference_ms $ref raw_p50_ms $raw peak_rss_mb $rss"
}

for ((k = 0; k < pairs; k++)); do
    if ((k % 2 == 0)); then
        run parent "$k"
        run change "$k"
    else
        run change "$k"
        run parent "$k"
    fi
done

echo "records: $out"
"$change_bin" compare "$out/parent" "$out/change"
