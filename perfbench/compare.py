#!/usr/bin/env python3
"""Compare two result sets of ``perfbench/run.py``.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a saved stdout file of one or more runs, or a
directory of such files.  For every workload and metric the script prints
each side's median and quartiles and a verdict:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound from ``BENCHMARK.json``;
* ``better``: the change's median is better by more than the parent's
  quartile spread, and the change wins at least nine of ten pairs of runs
  with the same seed (no pairs, no gain);
* ``unresolved``: either side's run-to-run spread (quartile distance over
  median) is wider than the bound, unless every change run beats every
  parent run;
* ``unchanged`` otherwise.

Per-command latencies use the bound of ``latency_p50_ms``; failure counts
and ratios have a bound of zero.  Per-layer metrics (from ``--trace 1``
runs) have no bound and are listed as ``info``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CORRECTNESS = ("failed_ratio", "wrong_verdicts", "undecided_ratio")


def load_runs(path: Path) -> dict:
    """workload -> list of {seed, values: {metric: value}} from saved stdout."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    runs = defaultdict(list)
    for f in files:
        for line in f.read_text(errors="replace").splitlines():
            if not line.startswith("detail "):
                continue
            d = json.loads(line[len("detail "):])
            values = {k: m["value"] for k, m in d["metrics"].items()}
            if not d["trace"]:
                values.update({k: v for k, v in d["per_command"].items()
                               if k.endswith("_ms")})
                values.update({k: d[k] for k in CORRECTNESS})
            runs[d["workload"]].append({"seed": d["seed"], "values": values})
    return runs


def rules() -> dict:
    bench = json.loads(BENCH.read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    latency_bound = out["latency_p50_ms"][1]
    for cmd in ("check", "certify", "simulate", "verify"):
        for kind in ("p50", "tail"):
            out[f"{cmd}_{kind}_ms"] = ("lower", latency_bound)
    for name in CORRECTNESS:
        out[name] = ("lower", 0.0)
    return out


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def _spread(v):
    q1, med, q3 = quartiles(v)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def verdict(parent, change, better, bound, pairs) -> str:
    if bound is None:
        return "info"
    sign = 1.0 if better == "lower" else -1.0
    p1, mp, p3 = quartiles(parent)
    _, mc, _ = quartiles(change)
    # how much worse the change is, as a share of the parent's median
    if mp == 0:
        worse = 0.0 if mc == 0 else math.copysign(math.inf, sign * mc)
    else:
        worse = sign * (mc - mp) / abs(mp)
    if max(_spread(parent), _spread(change)) > bound:
        if all(sign * c < sign * p for c in change for p in parent):
            return "better"
        return "unresolved"
    if worse > bound:
        return "worse"
    wins = sum(sign * c < sign * p for p, c in pairs)
    if worse < 0 and abs(mc - mp) > (p3 - p1) and pairs and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    parent, change = load_runs(args.parent), load_runs(args.change)
    table = rules()
    status = 0
    for workload in sorted(set(parent) | set(change)):
        pr, cr = parent.get(workload, []), change.get(workload, [])
        print(f"\n{workload}: parent {len(pr)} runs, change {len(cr)} runs")
        if not pr or not cr:
            print("  missing on one side")
            continue
        print(f"  {'metric':<40} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'delta':>8}  verdict")
        names = [n for n in table if n in pr[0]["values"] and n in cr[0]["values"]]
        for name in names:
            pv = [r["values"][name] for r in pr if name in r["values"]]
            cv = [r["values"][name] for r in cr if name in r["values"]]
            by_seed = {r["seed"]: r["values"][name] for r in pr if name in r["values"]}
            pairs = [(by_seed[r["seed"]], r["values"][name]) for r in cr
                     if r["seed"] in by_seed and name in r["values"]]
            better, bound = table[name]
            v = verdict(pv, cv, better, bound, pairs)
            status |= v == "worse"
            (p1, mp, p3), (c1, mc, c3) = quartiles(pv), quartiles(cv)
            delta = f"{100 * (mc - mp) / abs(mp):+.1f}%" if mp else "n/a"
            print(f"  {name:<40} {mp:>12.5g} [{p1:.5g}, {p3:.5g}]".ljust(77)
                  + f"{mc:>12.5g} [{c1:.5g}, {c3:.5g}]".ljust(35)
                  + f"{delta:>8}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main())
