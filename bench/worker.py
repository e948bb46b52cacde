"""Workload process: set up, run passes of in-process CLI calls, check, report.

Started by run.py with BLAS pinned to one thread.  Imports nterm from
the ``src`` directory of the checkout that holds this file, generates
the workload's inputs from the seed, and then acts as a single closed-loop
caller: each operation is one ``nterm.cli.main(argv)`` call whose output
goes to files in the work directory; the next call starts only after the
previous one returned and its output was checked.

Between operations, at most every ``SpeedProbe.EVERY_S`` seconds, a fixed
piece of work that does not call nterm is timed (:class:`SpeedProbe`); run.py
uses it to take the host's changes of speed out of the latencies.

The first pass is a warm-up (its outputs are checked, its latencies are
not kept).  Timed passes follow until ``--seconds`` have elapsed; a pass
is never cut short, so every run measures whole copies of the same
operation mix.  With ``--trace 1`` untraced and traced passes alternate,
which gives the per-layer metrics and the tracing overhead from one run.

Writes one JSON document to ``--report``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

OUT_CSV = "out.csv"
OUT_JSON = "out.json"


def _import_nterm():
    sys.path.insert(0, str(ROOT / "src"))
    import nterm
    from nterm import cli

    if Path(nterm.__file__).resolve().parent != ROOT / "src" / "nterm":
        raise ImportError(f"nterm imported from {nterm.__file__}, not from this checkout")
    return cli


def run_op(cli, op) -> tuple[float, float, int, str, dict | None, int]:
    """One timed CLI call: (start, seconds, exit code, stderr, parsed JSON doc, bytes written)."""
    for name in (OUT_CSV, OUT_JSON):
        with contextlib.suppress(FileNotFoundError):
            os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    argv = op.argv + ["--out", OUT_CSV, "--json-out", OUT_JSON]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an exception the CLI does not map to an exit code
            rc = -1
            traceback.print_exc()
        dt = time.perf_counter() - t0
    nbytes = len(out.getvalue().encode())
    doc = None
    for name in (OUT_CSV, OUT_JSON):
        if os.path.exists(name):
            nbytes += os.path.getsize(name)
    if os.path.exists(OUT_JSON):
        with open(OUT_JSON) as fh:
            doc = json.load(fh)
    return t0, dt, rc, err.getvalue(), doc, nbytes


class SpeedProbe:
    """A fixed piece of interpreter and small-array numpy work, timed now and then.

    The shared host this benchmark runs on changes speed by up to 1.5x in
    phases that last tens of seconds, which moves every latency of a run
    together.  The probe runs between operations, never inside one, and
    calls no nterm code, so a change to nterm cannot change its time.
    """

    EVERY_S = 0.05

    def __init__(self):
        self._x = np.arange(1, 2049, dtype=float)
        self._last = -math.inf
        self.samples: list[list[float]] = []  # [perf_counter at start, seconds]

    def time_once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += (i * i) % 7
        for _ in range(4):
            np.cumsum(np.sort(self._x[::-1]) ** -1.5)
        return time.perf_counter() - t0

    def maybe_sample(self) -> None:
        t0 = time.perf_counter()
        if t0 - self._last >= self.EVERY_S:
            self.samples.append([t0, self.time_once()])
            self._last = time.perf_counter()


class Pass:
    """Latencies and check results of one pass over the operation list."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.frontier: dict[str, str] = {}
        self.bytes_out = 0


def run_pass(cli, ops, expected, probe: SpeedProbe, tracer=None) -> Pass:
    res = Pass()
    state: dict = {}
    for i, (op, want) in enumerate(zip(ops, expected)):
        probe.maybe_sample()
        if tracer is not None:
            tracer.op = i
        t0, dt, rc, err, doc, nbytes = run_op(cli, op)
        res.starts.append(t0)
        res.latencies.append(dt)
        res.bytes_out += nbytes
        outcome = workloads.Outcome(rc, err, doc)
        if op.frontier and rc != 0 and op.frontier in err:
            res.frontier[" ".join(op.argv)] = op.frontier
            continue
        try:
            reason = op.check(outcome, want, state)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if op.frontier:
            res.frontier[" ".join(op.argv)] = "ok" if reason is None else "wrong"
        if reason is not None:
            res.failures.append(f"{' '.join(op.argv)}: {reason}")
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="shrunken inputs (smoke mode)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true", help="time set-up, then exit")
    mode.add_argument("--expect-only", action="store_true",
                      help="compute the reference values of every check into --report, then exit")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at process launch")
    ap.add_argument("--work", required=True, help="directory for inputs and outputs")
    ap.add_argument("--report", required=True)
    ap.add_argument("--expected", help="report of an --expect-only run (checks read it)")
    args = ap.parse_args(argv)

    # --- set-up: import nterm and generate the inputs ---
    cli = _import_nterm()
    inputs = workloads.GENERATORS[args.workload](args.seed, small=args.small)
    os.chdir(args.work)
    for name, text in inputs.files.items():
        with open(name, "w") as fh:
            fh.write(text)
    setup_s = time.monotonic() - args.t0
    report = {"setup_s": setup_s, "numpy": np.__version__, "python": sys.version.split()[0]}
    if args.expect_only:
        report["expected"] = [op.expect() for op in inputs.ops]
    if args.setup_only or args.expect_only:
        Path(args.report).write_text(json.dumps(report))
        return 0

    ops = inputs.ops
    expected = json.loads(Path(args.expected).read_text())["expected"]
    probe = SpeedProbe()
    passes = [run_pass(cli, ops, expected, probe)]  # warm-up
    timed, traced, traced_metrics, spans = [], [], [], None
    t_start = time.monotonic()
    while True:
        if args.trace and len(timed) > len(traced):
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                p = run_pass(cli, ops, expected, probe, tracer)
            traced.append(p)
            traced_metrics.append(tracing.layer_metrics(tracer.spans))
            spans = spans or tracer.spans
        else:
            p = run_pass(cli, ops, expected, probe)
            timed.append(p)
        passes.append(p)
        if time.monotonic() - t_start >= args.seconds and (traced or not args.trace):
            break

    failures = [f for p in passes for f in p.failures]
    report.update(
        ops_per_pass=len(ops),
        passes_timed=len(timed),
        passes_traced=len(traced),
        attempted=sum(len(p.latencies) for p in passes),
        failed=len(failures),
        failures=failures[:20],
        frontier=passes[0].frontier,
        timed_passes=[[p.starts, p.latencies] for p in timed],
        traced_passes=[[p.starts, p.latencies] for p in traced],
        probe=probe.samples,
        bytes_out_per_pass=passes[0].bytes_out,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if args.trace:
        counts_repeat = all(
            {k: v for k, v in m.items() if not k.endswith("self_s")}
            == {k: v for k, v in traced_metrics[0].items() if not k.endswith("self_s")}
            for m in traced_metrics)
        report["layers"] = tracing.median_metrics(traced_metrics)
        report["layers"]["cli.bytes_out"] = traced[0].bytes_out
        report["counts_repeat"] = counts_repeat
        report["spans"] = [
            [s.name, s.start, s.end, s.parent, s.op, s.error] for s in spans]
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
