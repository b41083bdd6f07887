# shellcheck shell=bash
# Pinned environment for the golden-file regression harness.
#
# Sourced by run_golden.sh (the ctest checker) and by
# scripts/update_goldens.sh (the regenerator) so the two can never
# drift. The budget is deliberately tiny — goldens guard the *exact
# bytes* of the bench tables at a fixed seed, not the paper shapes
# (test_paper_shapes.cc does that at realistic budgets).
#
# ANCHORTLB_THREADS=2 is part of the contract being pinned: stdout must
# be byte-identical to a serial 1-thread run.

export ANCHORTLB_ACCESSES=20000
export ANCHORTLB_SCALE=0.02
export ANCHORTLB_SEED=42
export ANCHORTLB_THREADS=2
