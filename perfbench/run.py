#!/usr/bin/env python3
"""Closed-loop benchmark of `uvcore certify`, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rank_stream --seed 1 --seconds 40 --trace 0

One client drives `python -m uvcore.cli certify - --jobs 1` over pipes:
it writes the next graph6 line only after it has read the report of the
previous one, and times each record from the outside. Whole cycles of
the workload are sent while the next one is expected to end within
--seconds; the first is always sent. Every report is then checked (check.py).

--trace 0 prints the end-to-end metrics. --trace 1 sends one cycle
untraced and the same cycle through launcher.py, and prints per-layer
metrics from the traced run's spans (spans.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the environment
stamp. The exit code is 1 when any report is wrong, 2 when the
checkout holds no uvcore sources.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15
WARMUP_LINE = "A_"  # K_2
# every child is killed at this many seconds after the run started, so
# the run ends well within three minutes whatever the program does
DEADLINE_S = 170.0

clock = time.perf_counter


def env_stamp():
    """Where a result comes from; `lane` must match for results to compare."""
    import numpy
    import uvcore

    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    gmpy2 = importlib.util.find_spec("gmpy2") is not None
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "src_py_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": uvcore.kernel_backend,
        "gmpy2": gmpy2,
        "lane": "%s/%s" % (uvcore.kernel_backend, "gmpy2" if gmpy2 else "int"),
        "nproc": os.cpu_count(),
    }


class Session:
    """One CLI process fed over pipes, one line at a time.

    The constructor sends the K_2 warm-up line; `setup_s` is the time
    from spawning the process to reading that report. Use it as a
    context manager so the process is reaped on every path.
    """

    def __init__(self, argv, deadline):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        t0 = clock()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.killer = threading.Timer(max(0.0, deadline - clock()), self.proc.kill)
        self.killer.daemon = True
        self.killer.start()
        self.result = None
        self.warmup, _ = self.send(WARMUP_LINE)
        self.setup_s = clock() - t0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.result is None:
            self.proc.kill()
            self.close()

    def send(self, line):
        """(report or None, seconds from writing the line to reading its report)."""
        t0 = clock()
        try:
            self.proc.stdin.write(line.encode("ascii") + b"\n")
            self.proc.stdin.flush()
            raw = self.proc.stdout.readline()
        except (BrokenPipeError, ValueError):
            raw = b""
        dt = clock() - t0
        try:
            return json.loads(raw), dt
        except ValueError:
            return None, dt

    def close(self):
        """(exit code, footer lines, peak RSS in MB) of the finished process."""
        if self.result is None:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            rest = self.proc.stdout.read().decode("ascii", "replace").splitlines()
            self.proc.stdout.close()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.killer.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.result = (self.proc.returncode, rest, usage.ru_maxrss / 1024.0)
        return self.result


def cli_argv(spans_path=None):
    if spans_path is None:
        head = [sys.executable, "-u", "-m", "uvcore.cli"]
    else:
        head = [sys.executable, "-u", str(HERE / "launcher.py"), spans_path]
    return head + ["certify", "-", "--jobs", "1"]


class Loop:
    """Sends records through one session and keeps what came back."""

    def __init__(self, session):
        self.session = session
        self.records = []
        self.reports = []
        self.latencies = []
        self.wall_s = 0.0
        self.peak_rss_mb = None

    def run_cycle(self, cycle):
        t0 = clock()
        for rec in cycle:
            rep, dt = self.session.send(rec.line)
            self.records.append(rec)
            self.reports.append(rep)
            self.latencies.append(dt)
        self.wall_s += clock() - t0

    def finish(self, check):
        """Closes the session; returns (problems, number of failed records)."""
        code, rest, self.peak_rss_mb = self.session.close()
        problems = []
        failed = 0
        if not isinstance(self.session.warmup, dict) or self.session.warmup.get("n") != 2:
            problems.append("warm-up report %r" % (self.session.warmup,))
        for i, (rec, rep) in enumerate(zip(self.records, self.reports)):
            bad = check(rec, rep)
            if bad:
                failed += 1
                problems.append("record %d (%s): %s" % (i + 1, rec.kind, "; ".join(bad)))
        errors = sum(rec.error is not None for rec in self.records)
        want_summary = {"total": len(self.records) + 1, "errors": errors}
        summary = _footer(rest)
        if summary is None or any(summary.get(k) != v for k, v in want_summary.items()):
            problems.append("summary %r, expected %r" % (summary, want_summary))
        if code != min(errors, 100):
            problems.append("exit code %r, expected %d" % (code, min(errors, 100)))
        return problems, failed

    @property
    def records_per_s(self):
        return len(self.records) / self.wall_s


def _footer(lines):
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "summary" in obj:
            return obj["summary"]
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(source, seconds, deadline, check):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        with Session(cli_argv(), deadline) as s:
            setups.append(s.setup_s)
            s.close()
    with Session(cli_argv(), deadline) as session:
        setups.append(session.setup_s)
        loop = Loop(session)
        cycles = 0
        while True:
            loop.run_cycle(next(source))
            cycles += 1
            if loop.wall_s + loop.wall_s / cycles > seconds:
                break
        problems, failed = loop.finish(check)
    metrics = {
        "records_per_s": metric(loop.records_per_s, "1/s"),
        "record_ms_p50": metric(statistics.median(loop.latencies) * 1000.0, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(loop.peak_rss_mb, "MB"),
    }
    return metrics, problems, len(loop.records), failed, loop


def run_traced(source, deadline, check, timer):
    from spans import layer_metrics

    cycle = next(source)
    with Session(cli_argv(), deadline) as session:
        plain = Loop(session)
        plain.run_cycle(cycle)
        problems, failed = plain.finish(check)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        spans_path = os.path.join(tmp, "spans.json")
        with Session(cli_argv(spans_path), deadline) as session:
            traced = Loop(session)
            traced.run_cycle(cycle)
            more, more_failed = traced.finish(check)
        try:
            with open(spans_path, encoding="ascii") as f:
                trace = json.load(f)
        except (OSError, ValueError) as exc:
            trace = None
            more.append("no spans from the traced run: %s" % exc)
    metrics = {}
    traced.trace = trace
    if trace is not None:
        # the CLI numbers records from 0, and record 0 is the warm-up line
        reports = {i + 1: rep for i, rep in enumerate(traced.reports)}
        for name in trace["missing"]:
            print("perfbench: wrapped attribute %s is missing" % name, file=sys.stderr)
        metrics = {name: metric(value, _unit(name))
                   for name, value in layer_metrics(trace, reports).items()}
    metrics["trace.overhead_ratio"] = metric(plain.records_per_s / traced.records_per_s, "ratio")
    metrics["families.generate_s"] = metric(timer.generate_s, "s")
    metrics["graphs.write_graph6_s"] = metric(timer.write_graph6_s, "s")
    return (metrics, problems + more, len(plain.records) + len(traced.records),
            failed + more_failed, traced)


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", ".calls_per_record")):
        return "ratio"
    if name.endswith(".ops_computed"):
        return "ops"
    return "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the stamped result to this JSON file")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "uvcore" / "cli.py").is_file():
        print("perfbench: no uvcore sources under %s" % SRC, file=sys.stderr)
        return 2
    deadline = clock() + DEADLINE_S
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from check import check
    from workloads import WORKLOADS, Timer, cycles

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (one of %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    timer = Timer(clock)
    source = cycles(args.workload, args.seed, timer)
    if args.trace:
        metrics, problems, attempted, failed, loop = run_traced(source, deadline, check, timer)
    else:
        metrics, problems, attempted, failed, loop = run_untraced(
            source, args.seconds, deadline, check)
    for line in problems[:20]:
        print("perfbench: FAIL %s" % line, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    stamp = {"env": env_stamp(), "workload": args.workload, "seed": args.seed,
             "trace": args.trace, "failed_ratio": failed / attempted}
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            json.dump(dict(stamp, result=result), f, indent=1)
    print(json.dumps(stamp))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
