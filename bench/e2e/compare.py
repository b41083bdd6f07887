#!/usr/bin/env python3
"""Compare two sets of bench_e2e result files: a parent set and a change.

    python3 bench/e2e/compare.py --parent runs/parent --change runs/change

Each argument is a result file written by `bench_e2e --out` or a
directory of them (*.json). Only --trace 0 results are compared; the
end-to-end metrics, their units, bounds and directions come from
BENCHMARK.json at the repository root.

Every workload x metric gets its own row: each side's median and
quartiles, the change's relative worsening, the paired wins and a
verdict:

  regressed    the change is worse than the parent by more than the
               metric's bound
  unresolved   the run-to-run spread (quartile distance over median)
               is wider than the bound, so the comparison cannot tell,
               unless the change wins every comparison
  improved     the gain rule holds: at least 10 pairs (runs with the
               same seed), the change wins at least 90% of them (ties
               count for neither), and the medians differ by more than
               the parent's quartile distance
  unchanged    otherwise

When every run has a partner with the same seed, as in alternating
pairs, "worse" is the median per-pair ratio and the spread is that of
the ratios, so a slow spell of the host that hits both runs of a pair
cancels out; otherwise both come from the two sides' medians and
quartiles. A workload whose change runs fail more cells than its parent
runs is regressed whatever its timings. Results from different host
fingerprints (CPU, nproc, compiler, build type, SIMD level) are never
compared.

Exit status: 0 nothing regressed or unresolved, 1 a regression,
2 unresolved metrics only, 3 refused (fingerprints differ or no data).
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load(paths):
    """Every --trace 0 result under @paths."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(glob.glob(os.path.join(path, "*.json"))))
        else:
            files.append(path)
    results = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            doc = json.loads(handle.read())
        if doc.get("bench") != "bench_e2e" or doc.get("trace") != 0:
            continue
        doc["file"] = name
        results.append(doc)
    return results


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(parent, change, spec):
    """Verdict, relative worsening, (wins, pairs) for one metric."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    p_med, p_q1, p_q3 = summary([v for _, v in parent])
    c_med, c_q1, c_q3 = summary([v for _, v in change])

    def better(a, b):
        return a < b if lower else a > b

    by_seed = dict(parent)
    pairs = [(by_seed[s], c) for s, c in change if s in by_seed]
    wins = sum(1 for p, c in pairs if better(c, p))

    if len(pairs) >= 2 and len(pairs) == len(parent) == len(change):
        # Alternating pairs share the host's state, so judge the per-pair
        # ratios: drift that slows both runs of a pair cancels out.
        ratios = [c / p if lower else p / c for p, c in pairs if p and c]
        r_med, r_q1, r_q3 = summary(ratios)
        worse = r_med - 1.0
        spread = (r_q3 - r_q1) / r_med
        all_better = all(better(c, p) for p, c in pairs)
    else:
        worse = ((c_med - p_med) / p_med if lower
                 else (p_med - c_med) / p_med)
        spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                     (c_q3 - c_q1) / c_med if c_med else 0.0)
        all_better = all(better(c, p) for _, c in change for _, p in parent)
    gain = (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
            better(c_med, p_med) and abs(c_med - p_med) > p_q3 - p_q1)

    if spread > bound and not all_better:
        return "unresolved", worse, (wins, len(pairs))
    if worse > bound:
        return "regressed", worse, (wins, len(pairs))
    if gain:
        return "improved", worse, (wins, len(pairs))
    return "unchanged", worse, (wins, len(pairs))


def fmt(value):
    return f"{value:.4g}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark, encoding="utf-8") as handle:
        specs = json.load(handle)["end_to_end"]
    parent = load(args.parent)
    change = load(args.change)
    if not parent or not change:
        print("compare.py: no --trace 0 results on one side",
              file=sys.stderr)
        return 3

    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in parent + change}
    if len(prints) != 1:
        print("compare.py: refusing to compare across host fingerprints:",
              file=sys.stderr)
        for fingerprint in sorted(prints):
            print("  " + fingerprint, file=sys.stderr)
        return 3

    commits = {side: sorted({r["commit"] for r in runs})
               for side, runs in (("parent", parent), ("change", change))}
    print(f"host: {prints.pop()}")
    print(f"parent commit(s): {', '.join(commits['parent'])}; "
          f"change commit(s): {', '.join(commits['change'])}")

    header = (f"{'workload':13} {'metric':22} {'unit':13} "
              f"{'parent median [q1, q3]':32} "
              f"{'change median [q1, q3]':32} {'worse':>8} "
              f"{'wins':>7} verdict")
    print(header)
    print("-" * len(header))
    counts = {}
    workloads = sorted({r["workload"] for r in parent} &
                       {r["workload"] for r in change})
    for workload in workloads:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        p_failed = sum(r["result"]["failed"] for r in p_runs)
        c_failed = sum(r["result"]["failed"] for r in c_runs)
        for spec in specs:
            name = spec["name"]
            p_vals = [(r["seed"], r["result"]["metrics"][name]["value"])
                      for r in p_runs if name in r["result"]["metrics"]]
            c_vals = [(r["seed"], r["result"]["metrics"][name]["value"])
                      for r in c_runs if name in r["result"]["metrics"]]
            if not p_vals or not c_vals:
                continue
            result, worse, (wins, pairs) = verdict(p_vals, c_vals, spec)
            if c_failed > p_failed:
                result = "regressed"
            counts[result] = counts.get(result, 0) + 1
            p_med, p_q1, p_q3 = summary([v for _, v in p_vals])
            c_med, c_q1, c_q3 = summary([v for _, v in c_vals])
            parent_col = f"{fmt(p_med)} [{fmt(p_q1)}, {fmt(p_q3)}]"
            change_col = f"{fmt(c_med)} [{fmt(c_q1)}, {fmt(c_q3)}]"
            print(f"{workload:13} {name:22} {spec['unit']:13} "
                  f"{parent_col:32} {change_col:32} {worse:+8.2%} "
                  f"{f'{wins}/{pairs}':>7} {result}")
        if c_failed or p_failed:
            print(f"{workload:13} failed cells: parent {p_failed}, "
                  f"change {c_failed}")

    print("summary: " + ", ".join(f"{n} {v}" for v, n in
                                  sorted(counts.items())))
    if counts.get("regressed"):
        return 1
    if counts.get("unresolved"):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
