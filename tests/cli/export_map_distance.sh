#!/usr/bin/env bash
# export-map must write the mapping the cells of its pair simulate: the
# Algorithm 1 distance inspect-map reads from the exported file equals
# the distance `run --scheme=anchor` selects for the same pair.
#
# usage: export_map_distance.sh <path/to/anchortlb>

set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <path/to/anchortlb>" >&2
    exit 2
fi
bin="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

pair=(--workload=mcf --scenario=demand --scale=0.05)
run_distance="$("$bin" run "${pair[@]}" --scheme=anchor --accesses=20000 \
    --csv | awk -F, '$1 == "Dynamic" { print $NF }')"
"$bin" export-map "${pair[@]}" --out="$tmp/mcf.map" > /dev/null
map_distance="$("$bin" inspect-map "$tmp/mcf.map" --csv |
    awk -F, '$1 == "Algorithm 1 anchor distance" { print $2 }')"

if [ -z "$run_distance" ] || [ "$run_distance" != "$map_distance" ]; then
    echo "run selects distance '$run_distance' but the exported" \
        "mapping gives '$map_distance'" >&2
    exit 1
fi
echo "export-map OK: distance $run_distance"
