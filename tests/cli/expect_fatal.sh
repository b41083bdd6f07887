#!/usr/bin/env bash
# Run a command that must stop with a fatal diagnostic.
#
# usage: expect_fatal.sh <expected-message> <command> [arg...]
#
# Passes when the command exits with status 1 (ATLB_FATAL's exit code:
# not a signal, an abort or a hang, which ctest's timeout catches) and
# its stderr contains <expected-message>.

set -uo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <expected-message> <command> [arg...]" >&2
    exit 2
fi
expected="$1"
shift

stderr="$("$@" 2>&1 > /dev/null)"
status=$?
if [ "$status" -ne 1 ]; then
    echo "expected exit status 1, got $status; stderr:" >&2
    printf '%s\n' "$stderr" >&2
    exit 1
fi
if [[ "$stderr" != *"$expected"* ]]; then
    echo "stderr lacks '$expected':" >&2
    printf '%s\n' "$stderr" >&2
    exit 1
fi
echo "fatal OK: $expected"
