#!/usr/bin/env bash
# Regenerate the golden files under tests/golden/ from a built tree.
#
# usage: scripts/update_goldens.sh [build-dir]   (default: build)
#
# Uses the same pinned environment as the ctest checker
# (tests/golden/golden_env.sh), so a regeneration followed by an
# unchanged build always passes the golden tests. Review the diff of
# the regenerated files before committing — every changed byte is a
# changed experiment output.

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
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

# Value = command line relative to the build tree; word-split on
# purpose (no paths with spaces in this repo).
declare -A benches=(
    [bench_fig2.txt]="$build/bench/bench_fig2_prior_schemes"
    [bench_fig9.txt]="$build/bench/bench_fig9_all_mappings"
    [bench_context_switch.txt]="$build/bench/bench_ext_context_switch"
    [bench_ext_churn.txt]="$build/bench/bench_ext_churn"
    [trace_info_mini.txt]="$build/tools/anchortlb trace info \
$golden_dir/mini.atlbtrc2 --profile"
)

for golden in "${!benches[@]}"; do
    # shellcheck disable=SC2206
    cmd=(${benches[$golden]})
    if [ ! -x "${cmd[0]}" ]; then
        echo "error: ${cmd[0]} not built (build first: cmake --build $build)" >&2
        exit 1
    fi
    "${cmd[@]}" 2>/dev/null > "$golden_dir/$golden"
    echo "regenerated tests/golden/$golden"
done

echo "done — review with: git diff tests/golden/"
