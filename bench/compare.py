#!/usr/bin/env python3
"""Compare two benchmark result sets against the bounds in BENCHMARK.json.

    python3 bench/compare.py A B

``A`` and ``B`` are ``results.json`` files written by ``bench/run.py
--out DIR``, or directories whose ``results.json`` files are merged; A
is the parent (or the first set), B the change (or the second set).
For every (workload, metric) pair the script prints both medians with
their quartiles, the relative change, how many same-seed pairs B wins,
and a verdict:

* ``within``     -- B's median is within the metric's bound of A's;
* ``worse``      -- B is worse than A by more than the bound;
* ``better``     -- B is better than A by more than the bound;
* ``unresolved`` -- the run-to-run spread (quartile distance over the
  median) of A or B is wider than the bound, and neither set reads
  better than the other on every run.

Per-layer metrics have no bound and get ``-``. ``results_digest`` values
are compared for every (workload, seed) both sets ran. The exit status
is 1 when any verdict is ``worse`` or any digest differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from run import quartiles

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> List[dict]:
    """The runs of a ``results.json``, or of every one under a directory."""
    files = sorted(path.rglob("results.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no results.json under {path}")
    runs: List[dict] = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            runs += json.load(fh)["runs"]
    return runs


def by_metric(runs: Sequence[dict]) -> Dict[Tuple[str, str], Dict[int, float]]:
    """{(workload, metric): {seed: value}}."""
    out: Dict[Tuple[str, str], Dict[int, float]] = {}
    for run in runs:
        for name, m in run["metrics"].items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = \
                m["value"]
    return out


def summarize(runs: Sequence[dict]) -> Dict[str, Dict[str, dict]]:
    """{workload: {metric: {median, q1, q3, n, unit}}} over the runs."""
    units = {name: m["unit"] for run in runs
             for name, m in run["metrics"].items()}
    out: Dict[str, Dict[str, dict]] = {}
    for (workload, name), values in by_metric(runs).items():
        q1, med, q3 = quartiles(list(values.values()))
        out.setdefault(workload, {})[name] = {
            "median": med, "q1": q1, "q3": q3, "n": len(values),
            "unit": units[name]}
    return out


def spread(values: Sequence[float]) -> float:
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    """Verdict for B against A under one metric's direction and bound."""
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0

    def beats(x: float, y: float) -> bool:
        return sign * (y - x) > 0

    if max(spread(a), spread(b)) > bound:
        if all(beats(y, x) for x in a for y in b):
            return "better"
        if all(beats(x, y) for x in a for y in b):
            return "worse"
        return "unresolved"
    ma, mb = quartiles(a)[1], quartiles(b)[1]
    if ma == mb:
        return "within"
    change = sign * (mb - ma) / abs(ma) if ma else float("inf")
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def main(argv: Optional[Sequence[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path, help="results of the parent")
    p.add_argument("b", type=Path, help="results of the change")
    args = p.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    runs_a, runs_b = load(args.a), load(args.b)
    va, vb = by_metric(runs_a), by_metric(runs_b)

    status = 0
    print(f"{'workload':11s} {'metric':34s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s} {'wins':>6s} verdict")
    for key in sorted(set(va) & set(vb)):
        workload, name = key
        a, b = va[key], vb[key]
        better, bound = rules.get(name, ("lower", None))
        result = verdict(list(a.values()), list(b.values()), better, bound)
        status |= result == "worse"
        sign = 1.0 if better == "lower" else -1.0
        seeds = sorted(set(a) & set(b))
        wins = sum(sign * (a[s] - b[s]) > 0 for s in seeds)
        qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
        change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
        a_txt = f"{qa[1]:.6g} [{qa[0]:.5g}, {qa[2]:.5g}]"
        b_txt = f"{qb[1]:.6g} [{qb[0]:.5g}, {qb[2]:.5g}]"
        print(f"{workload:11s} {name:34s} {a_txt:>32s} {b_txt:>32s} "
              f"{change:+8.2%} {wins:>2d}/{len(seeds):<3d} {result}")

    digests_a = {(r["workload"], r["seed"]): r["digest"] for r in runs_a}
    compared = mismatched = 0
    for run in runs_b:
        key = (run["workload"], run["seed"])
        if key not in digests_a:
            continue
        compared += 1
        if run["digest"] != digests_a[key]:
            mismatched += 1
            print(f"results_digest differs: {key[0]} seed {key[1]}: "
                  f"A {digests_a[key]} B {run['digest']}")
    print(f"results_digest: {compared - mismatched}/{compared} "
          "(workload, seed) pairs identical")
    return 1 if status or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
