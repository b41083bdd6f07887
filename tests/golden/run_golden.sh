#!/usr/bin/env bash
# Golden-file regression check for one binary.
#
# usage: run_golden.sh [--threads=N] <binary> <golden-file> [arg...]
#
# Runs the binary (any extra args are passed through — the trace-info
# golden runs `anchortlb trace info ...`) under the pinned environment
# (golden_env.sh) and diffs its *stdout* against the checked-in golden.
# --threads=N overrides the pinned ANCHORTLB_THREADS, so one golden
# pins the same bytes at several worker counts.
# Stdout only: the sweep summary (cache hit rate, timing-ish numbers)
# goes to stderr precisely so the bytes compared here are
# deterministic. Any difference — down to a single character — fails
# with the diff shown.
#
# To regenerate after an intentional output change:
#   scripts/update_goldens.sh <build-dir>

set -euo pipefail

threads=""
case "${1:-}" in
--threads=*)
    threads="${1#--threads=}"
    shift
    ;;
esac
if [ $# -lt 2 ]; then
    echo "usage: $0 [--threads=N] <binary> <golden-file> [arg...]" >&2
    exit 2
fi
bench="$1"
golden="$2"
shift 2

# shellcheck source=golden_env.sh
. "$(dirname "$0")/golden_env.sh"
if [ -n "$threads" ]; then
    export ANCHORTLB_THREADS="$threads"
fi

if [ ! -x "$bench" ]; then
    echo "bench binary '$bench' not found or not executable" >&2
    exit 2
fi
if [ ! -f "$golden" ]; then
    echo "golden file '$golden' missing — run scripts/update_goldens.sh" >&2
    exit 2
fi

actual="$("$bench" "$@" 2>/dev/null)"
if ! diff -u "$golden" <(printf '%s\n' "$actual"); then
    echo "" >&2
    echo "GOLDEN MISMATCH: $(basename "$bench") no longer reproduces" >&2
    echo "$golden byte-for-byte." >&2
    echo "If the change is intentional, regenerate with:" >&2
    echo "  scripts/update_goldens.sh <build-dir>" >&2
    exit 1
fi
echo "golden OK: $(basename "$golden")"
