#!/usr/bin/env bash
# Prints the non-test Rust lines of every crate and of the root package,
# then the total.
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (all of them when it has none), counted over every `.rs` file under
# `crates/*/src` and the root `src/`. Integration tests, examples,
# benches, `vendor/` and `perfbench/` are not counted.
#
# Usage: scripts/loc.sh

set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { lines++ }
        END { print lines + 0 }'
}

total=0
for dir in crates/*/src src; do
    name="${dir%/src}"
    [ "$dir" = src ] && name="(root) src"
    lines="$(count "$dir")"
    total=$((total + lines))
    printf '%-24s %7d\n' "$name" "$lines"
done
printf '%-24s %7d\n' total "$total"
