#!/usr/bin/env python3
"""Spread of one set of stamped results, or one set against another.

Usage:
    python3 perfbench/compare.py A/*.json
    python3 perfbench/compare.py A/*.json --against B/*.json

The files are written by `run.py --out`. For each workload, trace mode
and metric the report gives the median, the quartiles
(statistics.quantiles with n=4) and the spread (q3 - q1) / median. With
one set, an end-to-end metric whose spread exceeds a third of its bound
in BENCHMARK.json is flagged. With --against, a
metric whose median in the second set is worse than in the first by
more than its bound is flagged.

Exit codes: 0 when nothing is flagged, 1 when a metric is flagged or a
result failed its correctness check, 3 when the results come from
different lanes (kernel backend and integer type), which are never
compared.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    out = []
    for p in paths:
        with open(p, encoding="ascii") as f:
            out.append(json.load(f))
    return out


def lanes(results):
    return {r["env"]["lane"] for r in results}


def group(results):
    """(workload, trace) -> metric name -> list of values."""
    out = {}
    for r in results:
        metrics = out.setdefault((r["workload"], r["trace"]), {})
        for name, m in r["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def compare(base, new, bounds):
    """Printed rows and the number of flagged metrics."""
    rows, flagged = [], 0
    for key in sorted(base):
        for name, values in sorted(base[key].items()):
            med, q1, q3, spread = summary(values)
            row = "%-14s %d %-44s n=%-2d median %-12.6g [%.6g, %.6g] spread %.4f" % (
                key[0], key[1], name, len(values), med, q1, q3, spread)
            bound, better = bounds.get(name, (None, None))
            if new is None:
                if bound is not None and not spread < bound / 3:
                    row += "  FLAG spread above bound/3 = %.4f" % (bound / 3)
                    flagged += 1
            elif name in new.get(key, {}):
                new_med = statistics.median(new[key][name])
                rel = new_med / med if med else float("nan")
                row += "  against %-12.6g x%.4f" % (new_med, rel)
                worse = rel - 1 if better == "lower" else 1 - rel
                if bound is not None and worse > bound:
                    row += "  FLAG worse by more than %.2f" % bound
                    flagged += 1
            rows.append(row)
    return rows, flagged


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--against", nargs="+", default=[])
    args = ap.parse_args(argv)
    base = load(args.files)
    new = load(args.against)
    seen = lanes(base + new)
    if len(seen) != 1:
        print("compare: refusing results from different lanes: %s"
              % ", ".join(sorted(seen)), file=sys.stderr)
        return 3
    bounds = {}
    if SPEC.is_file():
        spec = json.loads(SPEC.read_text(encoding="ascii"))
        bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    rows, flagged = compare(group(base), group(new) if new else None, bounds)
    print("\n".join(rows))
    wrong = [r for r in base + new if not r["result"]["correct"]]
    for r in wrong:
        print("compare: %s seed %s trace %s failed its check"
              % (r["workload"], r["seed"], r["trace"]), file=sys.stderr)
    return 1 if flagged or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
