#!/bin/sh
# perfbench_smoke.sh [WORK_DIR]
#
# Repository-benchmark smoke (perfbench/README.md). Runs every
# BENCHMARK.json workload once, briefly and untraced, at seed 1
# through perfbench/run.py (which builds the driver over src/). Each
# run must end with a "correct": true result line, and its
# result_digest must equal the one pinned in
# tools/perfbench_digests.txt: the digest covers every simulated
# result, so a host-only change that moves it changed behaviour.
#
# Run from anywhere; WORK_DIR (default: a fresh temp dir) keeps each
# workload's driver output as pb-<workload>.out.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work="${1:-$(mktemp -d /tmp/widir_perfbench.XXXXXX)}"
mkdir -p "$work"
work=$(cd "$work" && pwd)
digests="$root/tools/perfbench_digests.txt"
cd "$root"

workloads=$(python3 -c \
    'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
status=0
for w in $workloads; do
    out="$work/pb-$w.out"
    if ! python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 \
            --trace 0 > "$out"; then
        echo "perfbench_smoke: $w: run failed" >&2
        status=1
        continue
    fi
    tail -n 1 "$out"
    if ! tail -n 1 "$out" | python3 -c \
            'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)'; then
        echo "perfbench_smoke: $w: result is not correct" >&2
        status=1
    fi
    got=$(sed -n 's/.*"result_digest": "\([0-9a-f]*\)".*/\1/p' "$out")
    want=$(awk -v w="$w" '$1 == w { print $2 }' "$digests")
    echo "$w $got"
    if [ -z "$want" ]; then
        echo "perfbench_smoke: $w: no digest pinned in $digests" >&2
        status=1
    elif [ "$got" != "$want" ]; then
        echo "perfbench_smoke: $w: result_digest $got != pinned $want" >&2
        status=1
    fi
done
exit $status
