#!/bin/sh
# Counts the product's non-test lines, per crate and in total.
#
# Counted: every `.rs` file under `crates/*/src` except `crates/bench` (the
# experiment harness) and `crates/shims` (offline stand-ins for external
# crates), plus `src/` (the facade and its CLI). In each file only the
# lines above its first `#[cfg(test)]` count, blank and comment lines
# included. Run from anywhere: `sh scripts/product-lines.sh`.
set -eu
cd "$(dirname "$0")/.."
{
    for dir in crates/*/src src; do
        case "$dir" in
        crates/bench/* | crates/shims/*) continue ;;
        esac
        find "$dir" -name '*.rs' | sort | while read -r file; do
            n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
            echo "${dir%/src} $n"
        done
    done
} | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (c in lines) printf "%-16s %7d\n", c, lines[c] | "sort"
        close("sort")
        printf "%-16s %7d\n", "total", total
    }'
