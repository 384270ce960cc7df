#!/bin/sh
# Compares two builds of the perf ledger, a parent's and a change's, by
# running them in alternating pairs at seed 7 and printing, for each
# end-to-end metric, the first quartile, median and third quartile of each
# side and the pairs the change won. Its last line, after `# trajectory:`,
# is the workload's cell of the `"ledger"` field of a TRAJECTORY.jsonl
# line: each metric's quartiles on the change side, the parent's median
# and the pairs won. It is a reading aid, not a gate.
#
#   sh scripts/ledger-pairs.sh <parent-tree> <change-tree> <workload> <pairs> [seconds | ops=N]
#
# Each tree is a checkout whose ledger is built, each once, from its own
# source: `cargo build --release --manifest-path benchmark/Cargo.toml`. The
# binary is looked for at `<tree>/target/release/perf-ledger`, then at
# `<tree>/benchmark/target/release/perf-ledger`. A run lasts `seconds`
# (20 by default) with tracing off; `ops=N` runs `--ops N` instead, so
# both sides complete the same requests (the fair reading of
# `peak_rss_mb`, which grows with the requests a run completes). Which
# side runs first alternates from pair to pair. `req_per_s` is better
# higher, every other metric lower; a tie wins for neither side. A run
# that is not `correct` or that failed any request is named on its own
# line.
set -eu

usage() {
    echo "usage: $0 <parent-tree> <change-tree> <workload> <pairs> [seconds | ops=N]" >&2
    exit 2
}
[ $# -ge 4 ] && [ $# -le 5 ] || usage
workload=$3
pairs=$4
budget=${5:-20}
case $budget in
ops=*[!0-9]* | ops=) usage ;;
ops=*)
    length="--ops ${budget#ops=}"
    label="${budget#ops=} ops"
    cell="\"ops\":${budget#ops=}"
    ;;
*)
    length="--seconds $budget"
    label="$budget s"
    cell="\"seconds\":$budget"
    ;;
esac

ledger() {
    for bin in "$1/target/release/perf-ledger" "$1/benchmark/target/release/perf-ledger"; do
        if [ -x "$bin" ]; then
            (cd "$(dirname "$bin")" && echo "$(pwd)/perf-ledger")
            return
        fi
    done
    echo "no built perf-ledger under $1" >&2
    return 1
}
parent=$(ledger "$1")
change=$(ledger "$2")

runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT

# One run: `<side> <pair> <metric> <value>` lines into $runs/all.
run() {
    out="$runs/$1.$2"
    # $length is two words on purpose
    # shellcheck disable=SC2086
    (cd "$runs" && "$3" --workload "$workload" --seed 7 $length --trace 0 >"$out")
    awk -v side="$1" -v pair="$2" 'NF == 3 && $1 !~ /^#/ { print side, pair, $1, $3 }' "$out" >>"$runs/all"
    if ! grep -q '"correct":true' "$out" || ! grep -q '"failed":0[,}]' "$out"; then
        echo "$1 run of pair $2 was not correct or failed requests" >&2
    fi
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$i" "$parent"
        run change "$i" "$change"
    else
        run change "$i" "$change"
        run parent "$i" "$parent"
    fi
    i=$((i + 1))
done

echo "# $workload, seed 7, $label a run, $pairs pairs: Q1 median Q3 per side"
printf "%-24s %-28s %-28s %s\n" metric parent change "change won"
sort -k1,1 -k3,3 -k4,4g "$runs/all" | awk -v pairs="$pairs" -v cells="$runs/cells" '
    function q(p,    at, lo) {
        at = (n - 1) * p
        lo = int(at)
        return lo + 1 < n ? v[lo] + (v[lo + 1] - v[lo]) * (at - lo) : v[lo]
    }
    function flush() {
        if (n == 0) return
        line[key] = sprintf("%.6g %.6g %.6g", q(0.25), q(0.5), q(0.75))
        json[key] = sprintf("\"q1\":%.6g,\"median\":%.6g,\"q3\":%.6g", q(0.25), q(0.5), q(0.75))
        mid[key] = sprintf("%.6g", q(0.5))
        n = 0
    }
    {
        if ($1 " " $3 != key) { flush(); key = $1 " " $3 }
        v[n++] = $4
        value[$1, $2, $3] = $4
        metrics[$3] = 1
    }
    END {
        flush()
        for (m in metrics) {
            won = 0
            for (p = 1; p <= pairs; p++) {
                a = value["parent", p, m] + 0
                b = value["change", p, m] + 0
                if (m == "req_per_s" ? b > a : b < a) won++
            }
            printf "%-24s %-28s %-28s %d/%d\n", m, line["parent " m], line["change " m], won, pairs
            printf "\"%s\":{%s,\"parent_median\":%s,\"won\":\"%d/%d\"}\n", m, json["change " m],
                mid["parent " m], won, pairs >cells
        }
    }' | sort
printf '# trajectory: "%s":{"pairs":%d,%s,%s}\n' "$workload" "$pairs" "$cell" \
    "$(sort "$runs/cells" | paste -sd, -)"
