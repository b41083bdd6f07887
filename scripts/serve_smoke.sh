#!/usr/bin/env bash
#
# Sweep-service smoke test: start `anchortlb serve` on a private
# socket/store, submit a small grid twice, and require the second pass
# (and a follow-up query) to be answered entirely from the persistent
# result store — zero recomputation. A submit naming a file that is no
# trace must fail only its cell, leaving the same server to answer the
# query. Finishes with a clean `serve stop` and a `store info` over the
# store the server left behind.
#
# Usage:
#   scripts/serve_smoke.sh [path/to/anchortlb]
#
# The binary defaults to the tier-1 checked build's tool.

set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bin="${1:-$repo/build-checked/tools/anchortlb}"
if [[ ! -x "$bin" ]]; then
    echo "serve_smoke: '$bin' not built (run the checked build first)" >&2
    exit 2
fi

# Keep the directory short: unix socket paths are limited to ~100 bytes.
tmp="$(mktemp -d /tmp/atlb-smoke.XXXXXX)"
socket="$tmp/serve.sock"
store="$tmp/results"
server_log="$tmp/server.log"
server_pid=

cleanup() {
    if [[ -n "$server_pid" ]] && kill -0 "$server_pid" 2> /dev/null; then
        kill "$server_pid" 2> /dev/null || true
        wait "$server_pid" 2> /dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT

fail() {
    echo "serve_smoke: $*" >&2
    echo "--- server log ---" >&2
    cat "$server_log" >&2 || true
    exit 1
}

"$bin" serve --socket="$socket" --store="$store" \
    --accesses=20000 --scale=0.02 > "$server_log" 2>&1 &
server_pid=$!

for _ in $(seq 1 100); do
    [[ -S "$socket" ]] && break
    kill -0 "$server_pid" 2> /dev/null || fail "server exited early"
    sleep 0.1
done
[[ -S "$socket" ]] || fail "server socket never appeared"

submit() {
    "$bin" "$1" --socket="$socket" --csv \
        --workloads=canneal,sphinx3 --scenarios=medium \
        --schemes=Base,Dynamic
}

echo "== first submit (cold: every cell computed) =="
first="$(submit submit)"
echo "$first"
cold_computed="$(grep -c 'computed' <<< "$first" || true)"
[[ "$cold_computed" -eq 4 ]] ||
    fail "expected 4 computed cells on the cold pass, saw $cold_computed"

echo "== second submit (warm: every cell a store hit) =="
second="$(submit submit)"
echo "$second"
# Match the CSV status column only: counter names like
# "admission_stalls" must not trip the miss check.
if grep -Eq ',(computed|deduped),' <<< "$second"; then
    fail "second pass recomputed cells — the store did not serve them"
fi
warm_hits="$(grep -c ',hit' <<< "$second" || true)"
[[ "$warm_hits" -ge 4 ]] ||
    fail "expected 4 store hits on the warm pass, saw $warm_hits"

echo "== unusable trace file (a cell error, not a dead server) =="
echo "not a trace file" > "$tmp/not_a_trace.txt"
bad_status=0
bad="$("$bin" submit --socket="$socket" --csv \
    --workloads="trace:$tmp/not_a_trace.txt" --scenarios=medium \
    --schemes=Base)" || bad_status=$?
echo "$bad"
[[ "$bad_status" -eq 1 ]] ||
    fail "submit of an unusable trace file exited $bad_status, not 1"
grep -q ',error: ' <<< "$bad" ||
    fail "the unusable trace file was not reported as a cell error"

echo "== query (read-only: must hit, never simulate) =="
query="$(submit query)"
echo "$query"
if grep -Eq ',(computed|deduped|miss),' <<< "$query"; then
    fail "query pass missed the store"
fi

echo "== store gc while the server is running must be refused =="
if gc_out="$("$bin" store gc "$store" 2>&1)"; then
    fail "store gc succeeded against a live server's store"
fi
grep -q 'in use' <<< "$gc_out" ||
    fail "store gc refusal did not mention the lock: $gc_out"

echo "== serve stop =="
"$bin" serve stop --socket="$socket"
wait "$server_pid" || fail "server exited non-zero"
server_pid=

echo "== store info =="
"$bin" store info "$store" --csv
cells="$("$bin" store info "$store" --csv | grep -E '^live_cells,' |
    cut -d, -f2)"
[[ "$cells" -eq 4 ]] || fail "expected 4 live cells in store, saw $cells"

echo "serve_smoke: OK"
