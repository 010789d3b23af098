#!/usr/bin/env bash
# Prints the non-test source lines of each crate (`crates/*/src`), of the
# root package (`src/`) and their total. A file counts up to its first
# `#[cfg(test)]` line, or whole when it has none, so inline test modules
# are left out; `tests/`, `benches/` and `examples/` are not read at all.
#
# Usage: scripts/nontest_lines.sh   (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of the `.rs` files under directory $1.
count() {
    find "$1" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk 'FNR == 1 { test = 0 }
                         /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
                         !test { n++ }
                         END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
    n=$(count "$dir")
    n=${n:-0}
    printf '%-24s %7d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-24s %7d\n' total "$total"
