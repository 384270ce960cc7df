#!/bin/sh
# Replays the planted mutants catalogued in MUTANTS.md. A reading aid for
# whoever changes the code a row plants into; it is not a CI gate.
#
#   sh scripts/mutants.sh --check          # every row's search literal
#                                          # occurs exactly once in its
#                                          # file; builds nothing
#   sh scripts/mutants.sh <row> [<row>...] # plants each row in turn in a
#                                          # copy and runs the workspace
#                                          # tests there
#
# Rows are numbered from 1 in table order; `--check` prints each number
# beside its PR and file. `--check` reads the working tree (HEAD, when it
# is clean) and names every row whose literal is missing or occurs more
# than once; it exits 1 if there is one.
#
# `<row>...` first brings `target/mutants/tree`, a copy of the working
# tree without `.git/` and build output, up to date with the tree: a file
# whose content differs is copied anew, a file the tree no longer has is
# removed. The copy is taken once, so edits made while the rows run reach
# none of them. For each row it then replaces the one occurrence of the
# row's search literal with its replace literal, runs `cargo test -q
# --workspace --no-fail-fast` in the copy, and puts the file back. The
# copy keeps its own `target/`, and a planted or restored file is written
# anew (a fresh mtime), so each row rebuilds only the planted crate and
# those above it; the first row in a new copy builds everything (a few
# minutes). Each row prints one matrix line:
#
#   row <n> (PR <pr>, <file>): <p> passed, <f> failed: <test>, <test>, ...
#
# naming every failing test (`-q` names no test binary; the full log,
# `target/mutants/<row>.log`, has the output).
#
# Literals are read as MUTANTS.md states them: the text between the first
# pair of backticks in the cell, `\|` standing for `|`. A replace cell that
# goes on "+ newline + the search literal" plants its literal, a newline and
# the search literal.
set -eu
cd "$(dirname "$0")/.."

# One line per row: `<n>\t<pr>\t<file>\t<search>\t<replace>`. No literal
# holds a tab; a newline planted by a replace cell travels as \002.
rows() {
    awk '
        function literal(cell) {
            if (!match(cell, /`[^`]*`/)) return ""
            return substr(cell, RSTART + 1, RLENGTH - 2)
        }
        /^\| *[0-9]+ *\|/ {
            line = $0
            gsub(/\\\|/, "\001", line)
            n = split(line, cell, "|")
            for (i = 1; i <= n; i++) gsub("\001", "|", cell[i])
            pr = cell[2]
            gsub(/ /, "", pr)
            search = literal(cell[4])
            replace = literal(cell[5])
            if (cell[5] ~ /\+ newline \+ the search literal/) replace = replace "\002" search
            printf "%d\t%s\t%s\t%s\t%s\n", ++row, pr, literal(cell[3]), search, replace
        }' MUTANTS.md
}

# Occurrences of the literal $2 in the file $1.
occurrences() {
    WANT=$2 awk '
        BEGIN { want = ENVIRON["WANT"] }
        { text = text $0 "\n" }
        END {
            n = 0
            while ((i = index(text, want)) > 0) { n++; text = substr(text, i + length(want)) }
            print n
        }' "$1"
}

if [ $# -lt 1 ]; then
    echo "usage: $0 --check | <row> [<row>...]" >&2
    exit 2
fi

if [ "$1" = --check ]; then
    bad=0
    tab=$(printf '\t')
    rows >"${TMPDIR:-/tmp}/mutants.$$"
    while IFS="$tab" read -r n pr file search replace; do
        if [ ! -f "$file" ]; then
            echo "row $n (PR $pr, $file): no such file"
            bad=1
            continue
        fi
        count=$(occurrences "$file" "$search")
        if [ "$count" -eq 1 ]; then
            echo "row $n (PR $pr, $file): ok"
        else
            echo "row $n (PR $pr, $file): search literal occurs $count times"
            bad=1
        fi
    done <"${TMPDIR:-/tmp}/mutants.$$"
    rm -f "${TMPDIR:-/tmp}/mutants.$$"
    exit "$bad"
fi

# The rows are read once, so editing MUTANTS.md while they run moves none.
mkdir -p target/mutants
rows >target/mutants/rows
for row in "$@"; do
    entry=$(awk -F '\t' -v row="$row" '$1 == row' target/mutants/rows)
    if [ -z "$entry" ]; then
        echo "no row $row in MUTANTS.md" >&2
        exit 2
    fi
    file=$(printf '%s\n' "$entry" | cut -f3)
    count=$(occurrences "$file" "$(printf '%s\n' "$entry" | cut -f4)")
    if [ "$count" -ne 1 ]; then
        echo "row $row: the search literal occurs $count times in $file" >&2
        exit 1
    fi
done

# Bring the copy up to date, leaving the mtime of every unchanged file alone.
copy=target/mutants/tree
fresh=target/mutants/fresh
rm -rf "$fresh"
mkdir -p "$copy" "$fresh"
tar -c --exclude=./target --exclude=./.git --exclude=./benchmark/target --exclude=./benchmark/out . |
    tar -x -C "$fresh"
(cd "$fresh" && find . -type f) | while read -r f; do
    if ! cmp -s "$fresh/$f" "$copy/$f"; then
        mkdir -p "$(dirname "$copy/$f")"
        cp "$fresh/$f" "$copy/$f"
    fi
done
(cd "$copy" && find . -path ./target -prune -o -type f -print) | while read -r f; do
    [ -f "$fresh/$f" ] || rm -f "$copy/$f"
done
rm -rf "$fresh"

for row in "$@"; do
    entry=$(awk -F '\t' -v row="$row" '$1 == row' target/mutants/rows)
    pr=$(printf '%s\n' "$entry" | cut -f2)
    file=$(printf '%s\n' "$entry" | cut -f3)
    cp "$copy/$file" target/mutants/original
    printf '%s\n' "$entry" | awk -F '\t' -v path="$copy/$file" '
        {
            search = $4
            replace = $5
            gsub("\002", "\n", replace)
        }
        END {
            while ((getline line < path) > 0) text = text line "\n"
            close(path)
            i = index(text, search)
            printf "%s%s%s", substr(text, 1, i - 1), replace, substr(text, i + length(search)) > path
        }'
    echo "row $row planted in $copy/$file; running the workspace tests there" >&2
    log=target/mutants/$row.log
    (cd "$copy" && cargo test -q --workspace --no-fail-fast) >"$log" 2>&1 || true
    cp target/mutants/original "$copy/$file"
    awk -v head="row $row (PR $pr, $file)" '
        /^test result:/ { passed += $4; failed += $6 }
        /^---- .* stdout ----$/ {
            sub(/^---- /, ""); sub(/ stdout ----$/, "")
            killed = killed (killed == "" ? ": " : ", ") $0
        }
        /^error: could not compile/ { broken = " (the copy did not build: see the log)" }
        END { printf "%s: %d passed, %d failed%s%s\n", head, passed, failed, killed, broken }' "$log"
done
