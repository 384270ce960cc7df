#!/bin/sh
# Counts the product's non-test lines and its test lines, per crate and in
# total.
#
# Counted: every `.rs` file under `crates/*/src` except `crates/bench` (the
# experiment harness) and `crates/shims` (offline stand-ins for external
# crates), plus `src/` (the facade and its CLI). In each such file the
# lines above its first `#[cfg(test)]` are product, and the lines from it
# on (its test module) are test; blank and comment lines count either way.
# Every `.rs` file under `tests/` and under `crates/*/tests` of the same
# crates counts as test. Run from anywhere: `sh scripts/product-lines.sh`.
#
# A `#[cfg(test)]` on anything but a `mod tests` (attributes and comments
# between them aside) would hide the product lines after it, so the script
# names each such `file:line` on stderr and then exits 1.
set -eu
cd "$(dirname "$0")/.."
hidden=0
for file in $(find crates/*/src src -name '*.rs' | sort); do
    case "$file" in
    crates/bench/* | crates/shims/*) continue ;;
    esac
    awk -v file="$file" '
        at && !/^[[:space:]]*(#\[|\/\/|$)/ {
            if ($0 !~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod tests[[:space:]]*[{;]/) {
                print file ":" at ": #[cfg(test)] hides product lines" > "/dev/stderr"
                bad = 1
            }
            at = 0
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { at = NR }
        END { exit bad }' "$file" || hidden=1
done
{
    for dir in crates/*/src src crates/*/tests tests; do
        case "$dir" in
        crates/bench/* | crates/shims/*) continue ;;
        esac
        crate=${dir%/src}
        crate=${crate%/tests}
        [ "$crate" = tests ] && crate=src
        find "$dir" -name '*.rs' | sort | while read -r file; do
            case "$dir" in
            */tests | tests) echo "$crate 0 $(wc -l <"$file")" ;;
            *) awk -v crate="$crate" '
                /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
                { if (test) t++; else p++ }
                END { print crate, p + 0, t + 0 }' "$file" ;;
            esac
        done
    done
} | awk '
    { product[$1] += $2; tests[$1] += $3; p += $2; t += $3 }
    END {
        printf "%-16s %7s %7s\n", "", "product", "test"
        for (c in product) printf "%-16s %7d %7d\n", c, product[c], tests[c] | "sort"
        close("sort")
        printf "%-16s %7d %7d\n", "total", p, t
    }'
exit "$hidden"
