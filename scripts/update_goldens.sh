#!/usr/bin/env bash
# Regenerate the golden files under tests/golden/ from a built tree.
#
# usage: scripts/update_goldens.sh [build-dir]   (default: build)
#
# The goldens are the ctest tests named golden_* (atlb_add_golden_test
# in tests/CMakeLists.txt), read from `ctest --show-only=json-v1`, so a
# new golden is registered in one place. Each registered command is
#   run_golden.sh [--threads=N] <binary> <golden> [args...]
# and is regenerated as `<binary> [args...] > <golden>`, once per golden
# file, under the same pinned environment as the checker
# (tests/golden/golden_env.sh), so a regeneration followed by an
# unchanged build always passes the golden tests. Review the diff of
# the regenerated files before committing — every changed byte is a
# changed experiment output.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "${1:-$repo/build}" && pwd)"
golden_dir="$repo/tests/golden"

# shellcheck source=../tests/golden/golden_env.sh
. "$golden_dir/golden_env.sh"

# The miniature binary trace is itself derived from the checked-in
# text capture — re-import first so a codec change regenerates both
# the .atlbtrc2 bytes and the pinned `trace info` output together.
if [ ! -x "$build/tools/anchortlb" ]; then
    echo "error: $build/tools/anchortlb not built" >&2
    exit 1
fi
"$build/tools/anchortlb" trace import "$golden_dir/mini.trace" \
    "$golden_dir/mini.atlbtrc2" --block-capacity=64 >/dev/null
echo "regenerated tests/golden/mini.atlbtrc2"

# One tab-separated line per golden file: golden, binary, args. A
# --threads=N run pins the same bytes as the pinned worker count.
goldens="$(cd "$build" && ctest --show-only=json-v1 -R '^golden_' |
    python3 -c '
import json, sys
seen = set()
for test in json.load(sys.stdin)["tests"]:
    cmd = test["command"][1:]  # after run_golden.sh
    if cmd[0].startswith("--threads="):
        cmd = cmd[1:]
    binary, golden, args = cmd[0], cmd[1], cmd[2:]
    if golden not in seen:
        seen.add(golden)
        print("\t".join([golden, binary] + args))
')"
if [ -z "$goldens" ]; then
    echo "error: ctest in $build lists no golden_* tests" >&2
    exit 1
fi

while IFS=$'\t' read -r -a fields; do
    golden="${fields[0]}"
    cmd=("${fields[@]:1}")
    if [ ! -x "${cmd[0]}" ]; then
        echo "error: ${cmd[0]} not built (build first: cmake --build $build)" >&2
        exit 1
    fi
    # From the build tree, as ctest runs it: side files a bench writes
    # (BENCH_*.json) must not overwrite the checked-in ones.
    (cd "$build" && "${cmd[@]}" 2>/dev/null </dev/null >"$golden")
    echo "regenerated ${golden#"$repo"/}"
done <<<"$goldens"

echo "done — review with: git diff tests/golden/"
