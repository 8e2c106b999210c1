#!/usr/bin/env python3
"""Self-test of the benchmark: its gate, its tracer and its comparisons.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

It checks that
  * the correctness gate fails a report against a deliberately wrong
    expected rank or error code, in the closed loop too;
  * two traced runs of every workload, with the default seed, give
    exactly the same counts: calls, calls per record, psd_rank order
    sum and operations;
  * minimal_polynomial runs 3 times and walk_regularity 2 times on
    every 1-walk-regular record, 1 and 0 times on a spectral reject;
    psd_rank has no calls on reject_stream and at least 99% of the
    traced time on rank_stream;
  * a wrapped attribute that does not exist is reported as missing and
    its layer as absent, without a crash;
  * compare.py refuses results from different lanes.

Each failed check prints a FAIL line; the exit code is 1 if any failed.
It takes a few minutes: rank_stream alone takes about a minute per
traced run.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import time

import run

sys.path.insert(0, str(run.SRC))

import compare  # noqa: E402
from check import check  # noqa: E402
from launcher import Tracer  # noqa: E402
from spans import calls_by_record, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Timer, cycles  # noqa: E402

# counts that must repeat exactly between two traced runs
EXACT = (".calls", ".calls_per_record", ".order_sum", ".ops_computed")
CHEAP = ("kneser_5_2", "rook_3", "petersen_complement", "kneser_7_3")


class Failures:
    def __init__(self):
        self.count = 0

    def expect(self, ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        self.count += not ok


def gate(fail, deadline):
    """The gate passes true reports and fails tampered expectations."""
    family = next(cycles("family_sweep", 1, Timer(time.perf_counter)))
    rejects = next(cycles("reject_stream", 1, Timer(time.perf_counter)))
    good = [r for r in family if r.kind in CHEAP]
    good += [r for r in rejects if r.error is not None]
    wrong_rank = copy.deepcopy(good[0])
    wrong_rank.expect["rank"] += 1
    wrong_error = copy.deepcopy(good[-1])
    wrong_error.error = "Internal"
    with run.Session(run.cli_argv(), deadline) as session:
        loop = run.Loop(session)
        loop.run_cycle(good + [wrong_rank, wrong_error])
        problems, failed = loop.finish(check)
    n = len(good)
    fail.expect(all(not check(r, rep) for r, rep in zip(good, loop.reports)),
                "gate passes %d true reports" % n)
    fail.expect(any("rank" in p for p in check(wrong_rank, loop.reports[n])),
                "gate fails a report against a wrong expected rank")
    fail.expect(check(wrong_error, loop.reports[n + 1]) != [],
                "gate fails a report against a wrong error code")
    fail.expect(failed == 2 and len(problems) == 2,
                "closed loop counts exactly the 2 tampered records as failed")


def traced(workload, seed, deadline):
    metrics, problems, _, failed, loop = run.run_traced(
        cycles(workload, seed, Timer(time.perf_counter)), deadline, check,
        Timer(time.perf_counter))
    return metrics, problems, failed, loop


def shape(fail, workload, metrics, loop):
    """Per-record call counts and the kernel's share on this workload."""
    mp = calls_by_record(loop.trace, "spectrum.minimal_polynomial")
    wr = calls_by_record(loop.trace, "walkreg.walk_regularity")
    for i, rep in enumerate(loop.reports, 1):
        kind = loop.records[i - 1].kind
        if not isinstance(rep, dict) or "error" in rep:
            continue
        if rep["reasons"] == ["non_integer_least_eigenvalue"]:
            want = (1, 0)
        elif rep["rank"] is not None:
            want = (3, 2)
        else:
            continue
        got = (mp.get(i, 0), wr.get(i, 0))
        fail.expect(got == want, "%s record %d (%s): minimal_polynomial, walk_regularity "
                    "calls %r, expected %r" % (workload, i, kind, got, want))
    if workload == "reject_stream":
        fail.expect(metrics["kernels.psd_rank.calls"]["value"] == 0,
                    "reject_stream: psd_rank has no calls")
    if workload == "rank_stream":
        share = metrics["kernels.psd_rank.share"]["value"]
        fail.expect(share >= 0.99, "rank_stream: psd_rank share %.4f >= 0.99" % share)


def missing_attribute(fail):
    tracer = Tracer()
    tracer.wrap("uvcore.certify", "no_such_stage", "certify.no_such_stage")
    fail.expect(tracer.missing == ["uvcore.certify.no_such_stage"],
                "a missing attribute is listed, not wrapped")
    trace = {"spans": [], "missing": ["uvcore.certify.psd_rank"]}
    out = layer_metrics(trace, {1: {"n": 2}})
    fail.expect("kernels.psd_rank.self_s" not in out and "kernels.psd_rank.share" not in out
                and "certify.uvc_test.self_s" in out,
                "a layer with no wrapped attribute is absent, the others are present")


def lanes(fail):
    def result(lane):
        return {"env": {"lane": lane}, "workload": "w", "seed": 1, "trace": 0,
                "result": {"correct": True, "metrics": {"x": {"value": 1.0}}}}

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        paths = []
        for i, lane in enumerate(("python/int", "python/int", "c/gmpy2")):
            paths.append(os.path.join(tmp, "%d.json" % i))
            with open(paths[-1], "w", encoding="ascii") as f:
                json.dump(result(lane), f)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            same = compare.main(paths[:1] + ["--against"] + paths[1:2])
            mixed = compare.main(paths[:1] + ["--against"] + paths[2:])
    fail.expect(same == 0 and mixed == 3, "compare refuses results from different lanes")


def main():
    fail = Failures()
    deadline = time.perf_counter() + 3600
    missing_attribute(fail)
    lanes(fail)
    gate(fail, deadline)
    for workload in WORKLOADS:
        runs = [traced(workload, DEFAULT_SEED, deadline) for _ in range(2)]
        for metrics, problems, failed, loop in runs:
            fail.expect(not problems and failed == 0, "%s: traced run is correct %r"
                        % (workload, problems[:3]))
        counts = [{k: m["value"] for k, m in metrics.items() if k.endswith(EXACT)}
                  for metrics, _, _, _ in runs]
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        fail.expect(counts[0] and not diff, "%s: %d counts repeat exactly across two "
                    "traced runs %s" % (workload, len(counts[0]), diff))
        shape(fail, workload, runs[0][0], runs[0][3])
    print("selftest: %d failed" % fail.count)
    return 1 if fail.count else 0


if __name__ == "__main__":
    sys.exit(main())
