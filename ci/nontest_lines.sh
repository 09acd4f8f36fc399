#!/usr/bin/env bash
# Non-test Rust lines per crate and in total: for every `.rs` file under a
# crate's `src/`, the lines above its first column-0 `#[cfg(test)]` — the
# test module; an indented one gates a single item and is counted — (the
# whole file when it has none): the count CHANGES.md entries quote. Report
# only.
#
#   ./ci/nontest_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }'
}

total=0
for src in crates/*/src src; do
    [ -d "$src" ] || continue
    name="${src%/src}"
    n="$(count "$src")"
    total=$((total + n))
    printf '%-20s %6d\n' "$name" "$n"
done
printf '%-20s %6d\n' total "$total"
