#!/usr/bin/env python3
"""Noise-aware comparison of two sets of spine runs.

    python3 benchmarks/spine/compare.py A.json B.json [--layers]

``A.json`` (the parent) and ``B.json`` (the change) are files written by
``run.py --out``; each may hold several runs of a workload.  For every
end-to-end metric and workload this prints both medians, the run-to-run
spread, the bound from ``BENCHMARK.json`` and a verdict:

* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound (share of A's median), in that direction;
* ``unresolved`` — the run-to-run spread (distance between the quartiles,
  as a share of the median) exceeds the bound, so a difference of the
  bound's size could not be seen — *not* ``unchanged`` — unless every run
  of one side reads better than every run of the other;
* ``unchanged`` — within the bound, and the spread would have shown it.

Runs flagged ``invalid`` (a disturbed measurement) are left out.  Digests
(`sim_digest`, replay counts, trace bytes) of runs with equal seeds must
agree exactly.  Exit status 1 on any ``worse`` row or digest mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.normpath(os.path.join(HERE, "..", "..", "BENCHMARK.json"))


def load_runs(path: str) -> "dict[str, list[dict]]":
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    grouped: "dict[str, list[dict]]" = {}
    for run in runs:
        if run["violations"]:
            raise SystemExit(f"{path}: {run['workload']} run violated its "
                             f"output checks: {run['violations']}")
        if not run["invalid"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def spread(values: "list[float]") -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else float("inf")


def verdict(a: "list[float]", b: "list[float]", better: str, bound: float) -> str:
    """The verdict for one metric on one workload (see module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    gain = sign * (median_b - median_a)          # > 0: B reads better
    allowed = bound * abs(median_a)
    if max(spread(a), spread(b)) > bound:
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "better"
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "worse"
        return "unresolved"
    if gain < -allowed:
        return "worse"
    if gain > allowed:
        return "better"
    return "unchanged"


def compare(runs_a: dict, runs_b: dict, spec: dict, layers: bool) -> int:
    status = 0
    header = (f"{'workload':<14} {'metric':<34} {'A median':>14} "
              f"{'B median':>14} {'B/A':>7} {'spread':>7} {'bound':>6}  verdict")
    print(header)
    for workload in (entry["name"] for entry in spec["workloads"]):
        a_runs, b_runs = runs_a.get(workload), runs_b.get(workload)
        if not a_runs or not b_runs:
            print(f"{workload:<14} (missing on one side: skipped)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["end_to_end"][name] for run in a_runs]
            b = [run["end_to_end"][name] for run in b_runs]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            if outcome == "worse":
                status = 1
            _row(workload, name, a, b, f"{metric['bound']:.2f}", outcome)
        if layers:
            for metric in spec["per_layer"]:
                name = metric["name"]
                a = [run["per_layer"][name] for run in a_runs if run["per_layer"]]
                b = [run["per_layer"][name] for run in b_runs if run["per_layer"]]
                if a and b and (any(a) or any(b)):
                    _row(workload, name, a, b, "-", "")
        status |= _digests(workload, a_runs, b_runs)
    return status


def _row(workload, name, a, b, bound, outcome) -> None:
    median_a, median_b = statistics.median(a), statistics.median(b)
    ratio = median_b / median_a if median_a else float("nan")
    print(f"{workload:<14} {name:<34} {median_a:>14.4f} {median_b:>14.4f} "
          f"{ratio:>7.3f} {max(spread(a), spread(b)):>7.3f} {bound:>6}  {outcome}")


def _digests(workload: str, a_runs, b_runs) -> int:
    """Exact-repeat checks between runs of equal seed and length."""
    status = 0
    for a in a_runs:
        for b in b_runs:
            if (a["seed"], a["seconds"]) != (b["seed"], b["seconds"]):
                continue
            pairs = [
                ("sim_digest", a["info"].get("sim_digest"),
                 b["info"].get("sim_digest")),
                ("trace_sha256", a["info"].get("trace_sha256"),
                 b["info"].get("trace_sha256")),
                ("replay counts", (a["info"].get("replay") or {}).get("counts_digest"),
                 (b["info"].get("replay") or {}).get("counts_digest")),
            ]
            for label, left, right in pairs:
                if left is not None and right is not None and left != right:
                    print(f"{workload:<14} {label} differs for seed "
                          f"{a['seed']}: {left[:12]} vs {right[:12]}  MISMATCH")
                    status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="A.json")
    parser.add_argument("change", metavar="B.json")
    parser.add_argument("--layers", action="store_true",
                        help="also list the per-layer medians (no verdicts: "
                        "layer metrics have no bound)")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    return compare(load_runs(args.parent), load_runs(args.change), spec,
                   args.layers)


if __name__ == "__main__":
    sys.exit(main())
