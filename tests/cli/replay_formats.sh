#!/usr/bin/env bash
# replay must read both trace formats and run every scheme the way a
# cell does:
#  - for each scheme, replaying an ATLBTRC1 trace and its ATLBTRC2
#    conversion prints the same bytes;
#  - `--scheme=ideal` is the static-ideal oracle: its page walks equal
#    the fewest walks `--scheme=anchor --distance=d` gives over every
#    candidate distance d (2 to 65536).
#
# usage: replay_formats.sh <path/to/anchortlb>

set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <path/to/anchortlb>" >&2
    exit 2
fi
bin="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

pair=(--workload=canneal --scenario=medium --scale=0.05)
"$bin" gen-trace --workload=canneal --scale=0.05 --accesses=20000 \
    --out="$tmp/canneal.atlbtrc1" > /dev/null
"$bin" trace convert "$tmp/canneal.atlbtrc1" "$tmp/canneal.atlbtrc2" \
    > /dev/null

walks() {
    awk -F, '$1 == "page walks" { print $2 }'
}

for scheme in base thp cluster cluster-2mb rmm anchor ideal; do
    v1="$("$bin" replay "$tmp/canneal.atlbtrc1" "${pair[@]}" \
        --scheme="$scheme" --csv)"
    v2="$("$bin" replay "$tmp/canneal.atlbtrc2" "${pair[@]}" \
        --scheme="$scheme" --csv)"
    if [ "$v1" != "$v2" ]; then
        echo "replay --scheme=$scheme differs between the formats:" >&2
        diff <(printf '%s\n' "$v1") <(printf '%s\n' "$v2") >&2 || true
        exit 1
    fi
done

ideal="$("$bin" replay "$tmp/canneal.atlbtrc1" "${pair[@]}" \
    --scheme=ideal --csv | walks)"
best=""
for ((d = 2; d <= 65536; d *= 2)); do
    w="$("$bin" replay "$tmp/canneal.atlbtrc1" "${pair[@]}" \
        --scheme=anchor --distance="$d" --csv | walks)"
    if [ -z "$best" ] || [ "$w" -lt "$best" ]; then
        best="$w"
    fi
done

if [ -z "$ideal" ] || [ "$ideal" != "$best" ]; then
    echo "replay --scheme=ideal reports '$ideal' page walks, but the" \
        "best anchor distance gives '$best'" >&2
    exit 1
fi
echo "replay OK: both formats agree; ideal = best anchor ($best walks)"
