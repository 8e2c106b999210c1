#!/usr/bin/env python3
"""Benchmark the compiled elimination kernels against the pure-Python lane.

The workloads are the matrices the certifier actually spends its time on:
the coefficient Gram of a strongly regular graph at the 36-vertex scale,
plus random dense integer matrices. --heavy adds the 406 x 406 Gram of
the 64-vertex Hamming graph, the largest desk-scale case.

Every lane must return each case's known rank; any mismatch makes the
exit code nonzero. Times are the median over --repeat runs.

Usage: python benchmarks/bench_kernels.py [--heavy] [--repeat N]
"""

import argparse
import random
import statistics
import sys
import time

from uvcore import canonical_gram, hamming_h
from uvcore._kernels import pykernels
from uvcore.certify import _coefficient_gram

try:
    from uvcore._kernels import ckernels
except ImportError:
    ckernels = None


def latin_square_graph_z6():
    from uvcore import from_edges

    sq = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    edges = []
    for v in range(36):
        for w in range(v + 1, 36):
            r1, c1 = divmod(v, 6)
            r2, c2 = divmod(w, 6)
            if r1 == r2 or c1 == c2 or sq[r1][c1] == sq[r2][c2]:
                edges.append((v, w))
    return from_edges(36, edges)


def coefficient_gram(g):
    """The D x D Gram the rank test eliminates, D = d(d+1)/2."""
    cg = canonical_gram(g)
    return _coefficient_gram(cg.b, list(g.edges()), cg.spectral.d)


def bench(fn, mat, repeat):
    times = []
    ranks = set()
    for _ in range(repeat):
        t0 = time.perf_counter()
        ranks.add(fn(mat))
        times.append(time.perf_counter() - t0)
    return statistics.median(times), ranks


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--heavy", action="store_true",
                    help="include the 406x406 Hamming H_{7,4} Gram")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    rng = random.Random(8128)
    cases = []

    srg = latin_square_graph_z6()
    cases.append(("srg36 coefficient Gram (210x210, rank<=210)",
                  "psd_rank", coefficient_gram(srg), 192))

    dense = [[rng.randint(-50, 50) for _ in range(120)] for _ in range(120)]
    cases.append(("random dense 120x120", "bareiss_rank", dense, 120))

    x = [[rng.randint(-6, 6) for _ in range(90)] for _ in range(140)]
    gram = [[sum(x[i][t] * x[j][t] for t in range(90)) for j in range(140)]
            for i in range(140)]
    cases.append(("random PSD 140x140 (rank 90)", "psd_rank", gram, 90))

    if args.heavy:
        cases.append(("hamming H_{7,4} coefficient Gram (406x406)",
                      "psd_rank", coefficient_gram(hamming_h(7, 4)), 364))

    lanes = [("python", pykernels)]
    if ckernels is not None:
        lanes.append(("c", ckernels))
    else:
        print("note: compiled kernels unavailable, timing pure lane only")

    print("%-48s %-12s %10s %10s %8s" % ("case", "kernel", "python", "c", "speedup"))
    wrong = 0
    for label, kernel, mat, want in cases:
        times = {}
        ranks = set()
        for lane_name, mod in lanes:
            times[lane_name], got = bench(getattr(mod, kernel), mat, args.repeat)
            ranks |= got
        cstr = "%.3fs" % times["c"] if "c" in times else "-"
        speed = "%.1fx" % (times["python"] / times["c"]) if "c" in times else "-"
        print("%-48s %-12s %9.3fs %10s %8s  rank=%s"
              % (label, kernel, times["python"], cstr, speed,
                 ",".join(map(str, sorted(ranks)))))
        if ranks != {want}:
            print("WRONG RANK on %s: expected %d" % (label, want))
            wrong += 1
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
