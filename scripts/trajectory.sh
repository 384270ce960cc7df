#!/bin/sh
# The line counts of TRAJECTORY.jsonl, the repository's per-PR history.
# A reading aid, not a CI gate.
#
#   sh scripts/trajectory.sh           # prints the `"lines":{...}` field
#                                      # for HEAD, to paste into the line
#                                      # a PR appends
#   sh scripts/trajectory.sh --check   # confirms that the last line of
#                                      # HEAD's TRAJECTORY.jsonl carries
#                                      # exactly that field
#
# Both read HEAD's committed tree, exported to a temporary directory, and
# count it with that tree's own `scripts/product-lines.sh`: product and
# test lines in total and per crate, as `"by_crate":{"<crate>":[product,
# test],...}` in the script's order. `--check` exits 1, printing both
# fields, when they differ.
set -eu
cd "$(dirname "$0")/.."

tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
git archive HEAD | tar -x -C "$tree"

field=$(sh "$tree/scripts/product-lines.sh" | awk '
    NR == 1 { next }
    $1 == "total" { total = sprintf("\"product\":%d,\"test\":%d", $2, $3); next }
    { crates = crates sep sprintf("\"%s\":[%d,%d]", $1, $2, $3); sep = "," }
    END { printf "\"lines\":{%s,\"by_crate\":{%s}}\n", total, crates }')

case "${1:-}" in
"")
    echo "$field"
    ;;
--check)
    last=$(git show HEAD:TRAJECTORY.jsonl | tail -n 1)
    case "$last" in
    *"$field"*)
        echo "ok: the last line's line counts are HEAD's"
        ;;
    *)
        echo "the last line of TRAJECTORY.jsonl does not carry HEAD's line counts" >&2
        echo "HEAD:      $field" >&2
        echo "last line: $(echo "$last" | grep -o '"lines":{[^}]*}[^}]*}' || echo none)" >&2
        exit 1
        ;;
    esac
    ;;
*)
    echo "usage: $0 [--check]" >&2
    exit 2
    ;;
esac
