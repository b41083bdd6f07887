#!/usr/bin/env bash
#
# Full correctness gate: clang-format (check only), shellcheck, a
# parse of every CI workflow file, clang-tidy, the anchortlb_lint
# domain-rule pass, a -Werror + ANCHORTLB_CHECKED build with the whole
# test suite (including the parallel-engine determinism tests), an
# unchecked build running the goldens and batch suites through both
# batch kernels, the same full suite again under AddressSanitizer and
# UndefinedBehaviorSanitizer, and the concurrency suites plus the
# bench_e2e smoke under ThreadSanitizer.
#
# This is the tier-1 entry point (see ROADMAP.md). The fast inner loop
# remains:  cmake -B build -S . && cmake --build build -j && ctest
#
# Usage:
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # skip the sanitizer builds
#
# Tools that are not installed (clang-format, clang-tidy, shellcheck,
# python3 with PyYAML) are reported and skipped, so the script is
# still a meaningful gate on a gcc-only box; CI runs the full set.
# anchortlb_lint is built by the project itself and always runs.

set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${JOBS:-$(nproc)}"
fast=0
for arg in "$@"; do
    case "$arg" in
    --fast) fast=1 ;;
    -h | --help)
        sed -n '2,17p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'
        exit 0
        ;;
    *)
        printf 'check.sh: unknown option %s (try --help)\n' "$arg" >&2
        exit 2
        ;;
    esac
done

failures=()
note() { printf '\n==> %s\n' "$*"; }

# ----------------------------------------------------------- format --
if command -v clang-format > /dev/null 2>&1; then
    note "clang-format (check only)"
    if ! git -C "$repo" ls-files '*.cc' '*.hh' |
        xargs -I{} clang-format --dry-run --Werror "$repo/{}"; then
        failures+=("clang-format")
    fi
else
    note "clang-format not installed; skipping format check"
fi

# ------------------------------------------------------- shellcheck --
if command -v shellcheck > /dev/null 2>&1; then
    note "shellcheck"
    # -x -P SCRIPTDIR: follow the `# shellcheck source=` directives
    # (run_golden.sh and update_goldens.sh source golden_env.sh).
    if ! git -C "$repo" ls-files 'scripts/*.sh' 'tests/golden/*.sh' 'tests/cli/*.sh' |
        xargs -I{} shellcheck -x -P SCRIPTDIR "$repo/{}"; then
        failures+=("shellcheck")
    fi
else
    note "shellcheck not installed; skipping shell script lint"
fi

# ---------------------------------------------------- workflow YAML --
# Every CI workflow file must load as YAML: a workflow that does not
# parse runs no job at all.
if command -v python3 > /dev/null 2>&1 &&
    python3 -c 'import yaml' > /dev/null 2>&1; then
    note "workflow YAML parse"
    for workflow in "$repo"/.github/workflows/*.yml; do
        python3 -c 'import sys, yaml; yaml.safe_load(open(sys.argv[1]))' \
            "$workflow" || failures+=("workflow YAML: ${workflow#"$repo"/}")
    done
else
    note "python3 or PyYAML not installed; skipping workflow YAML check"
fi

# ------------------------------------------------------------- tidy --
if command -v clang-tidy > /dev/null 2>&1; then
    note "clang-tidy"
    cmake -S "$repo" -B "$repo/build-tidy" \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
    mapfile -t tidy_sources < <(git -C "$repo" ls-files \
        'src/*.cc' 'bench/*.cc' 'tests/*.cc' 'tools/*.cc')
    run_tidy=clang-tidy
    command -v run-clang-tidy > /dev/null 2>&1 && run_tidy=
    if [[ -n "$run_tidy" ]]; then
        ok=1
        for f in "${tidy_sources[@]}"; do
            clang-tidy -p "$repo/build-tidy" --quiet "$repo/$f" || ok=0
        done
        [[ $ok == 1 ]] || failures+=("clang-tidy")
    else
        run-clang-tidy -p "$repo/build-tidy" -quiet \
            "${tidy_sources[@]/#/$repo/}" || failures+=("clang-tidy")
    fi
else
    note "clang-tidy not installed; skipping static analysis"
fi

# ----------------------------------------- checked + -Werror + ctest --
build_and_test() {
    local dir="$1"
    shift
    note "build $dir ($*)"
    cmake -S "$repo" -B "$repo/$dir" -DANCHORTLB_WERROR=ON \
        -DANCHORTLB_CHECKED=ON "$@" > /dev/null
    cmake --build "$repo/$dir" -j "$jobs"
    (cd "$repo/$dir" && ctest --output-on-failure -j "$jobs")
}

build_and_test build-checked || failures+=("checked build")

# ------------------------------------------------- anchortlb_lint ----
# Domain-rule pass over the tree the checked build just compiled. A
# hard gate: the linter is built by the project itself, so there is no
# not-installed escape.
note "anchortlb_lint (domain rules)"
"$repo/build-checked/tools/anchortlb_lint" -p "$repo/build-checked" ||
    failures+=("anchortlb_lint")

# ------------------------------------------- scalar-forced dispatch --
# The SIMD kernels must be pure speed, never behaviour: the same
# checked build re-runs the whole suite (goldens included) with the
# scalar dispatch level forced, pinning byte-identical results.
note "ctest build-checked (ANCHORTLB_SIMD=scalar)"
(cd "$repo/build-checked" &&
    ANCHORTLB_SIMD=scalar ctest --output-on-failure -j "$jobs") ||
    failures+=("scalar-forced ctest")

# ------------------------------------------- unchecked batch kernels --
# Under ANCHORTLB_CHECKED translateBatch loops translate() so the
# oracle sees every access, so the legs above never run a batch kernel.
# An unchecked build runs the goldens and the batch-equivalence suites
# through the vector kernel (auto level) and again through the scalar
# loop (ANCHORTLB_SIMD=scalar).
unchecked_leg() {
    note "build build-unchecked (goldens + batch suites, both kernels)"
    cmake -S "$repo" -B "$repo/build-unchecked" -DANCHORTLB_WERROR=ON \
        > /dev/null
    cmake --build "$repo/build-unchecked" -j "$jobs" \
        --target test_sim test_ingest bench_fig2_prior_schemes \
        bench_fig9_all_mappings bench_ext_context_switch bench_ext_churn \
        anchortlb
    (cd "$repo/build-unchecked" &&
        ctest --output-on-failure -j "$jobs" -R 'golden|Batch' &&
        ANCHORTLB_SIMD=scalar ctest --output-on-failure -j "$jobs" \
            -R 'golden|Batch')
}

unchecked_leg || failures+=("unchecked batch kernels")

# ------------------------------------------------------ serve smoke --
# The sweep service end to end: server up, a grid submitted twice, the
# second pass answered entirely from the persistent store, clean stop.
note "serve smoke (sweep service + result store)"
"$repo/scripts/serve_smoke.sh" "$repo/build-checked/tools/anchortlb" ||
    failures+=("serve smoke")

# TSan over the concurrency suites and the e2e smoke only: the full
# grid under TSan is slow, and everything else is single-threaded by
# construction.
tsan_leg() {
    note "build build-tsan (ThreadSanitizer, concurrency suites)"
    cmake -S "$repo" -B "$repo/build-tsan" -DANCHORTLB_WERROR=ON \
        -DANCHORTLB_SANITIZE=thread > /dev/null
    cmake --build "$repo/build-tsan" -j "$jobs" \
        --target test_common test_sim test_integration test_ingest \
        test_serve bench_e2e anchortlb
    (cd "$repo/build-tsan" &&
        ctest --output-on-failure -j "$jobs" \
            -R 'ParallelRunner|Batch|MultiProcess|SwitchPolicy|AsidRetention|Serve|ResultCache|bench_e2e_smoke')
}

if [[ $fast == 0 ]]; then
    build_and_test build-asan -DANCHORTLB_SANITIZE=address ||
        failures+=("asan build")
    build_and_test build-ubsan -DANCHORTLB_SANITIZE=undefined ||
        failures+=("ubsan build")
    tsan_leg || failures+=("tsan build")
else
    note "--fast: skipping sanitizer builds"
fi

# ------------------------------------------------------------ report --
if ((${#failures[@]})); then
    note "FAILED: ${failures[*]}"
    exit 1
fi
note "all checks passed"
