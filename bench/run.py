"""nterm benchmark: one command for every workload, metric and output check.

Usage (from the root of a checkout):

    python3 bench/run.py --workload class_stream --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --smoke

Each run launches the workload process (bench/worker.py) with BLAS pinned
to one thread, after timing several fresh set-up processes.  It prints one
line per metric (name, value, unit) and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Operation latencies are scaled to a reference speed of
the host, measured by a probe between operations (see PROBE_REF_S).
The full record (provenance, sample counts, failures,
frontier outcomes) goes to bench/results/.  See bench/README.md.

This file uses the standard library only; numpy is imported by the
workload process, after the thread settings are in its environment.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("class_stream", "lattice_shells", "witness_quadrature")

# one BLAS/OpenMP thread: the load model is one caller on one core
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170.0

# Operation latencies are reported at the speed at which the workload
# process's SpeedProbe (bench/worker.py) takes PROBE_REF_S, about its
# median on the 2-core VM the benchmark was sized on.  A latency is scaled
# by PROBE_REF_S over the median probe time within PROBE_WINDOW_S of the
# operation.  Set-up time is reported as measured.
PROBE_REF_S = 0.45e-3
PROBE_WINDOW_S = 1.0
PROBE_MIN_SAMPLES = 5

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name == "cli.bytes_out":
        return "B"
    if name == "lattice.max_radius":
        return "shell"
    if name.endswith("_per_eval") or name.startswith("weights.streams_per_eval"):
        return "1/eval"
    if name == "trace.overhead_share":
        return "1"
    if name.startswith("trace.") and "ops_per_s" in name:
        return "op/s"
    return "count"


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, crashed worker, timeout)."""


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _worker(args: list[str], work: Path, env: dict, deadline: float) -> dict:
    """Run bench/worker.py to completion and return its report."""
    report = work / f"report-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--work", str(work), "--report", str(report), "--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process exceeded its time limit: {' '.join(args)}") from None
    except BaseException:  # interrupted: stop the child before leaving
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 or not report.exists():
        raise BenchError(f"workload process failed (exit {proc.returncode}):\n{err[-2000:]}")
    return dict(json.loads(report.read_text()), report=str(report))


def _scaled(passes: list, probe: list) -> list[list[float]]:
    """Each pass's latencies (s) at the probe's reference speed."""
    starts = [t for t, _ in probe]
    out = []
    for op_starts, latencies in passes:
        row = []
        for t, dt in zip(op_starts, latencies):
            lo = bisect.bisect_left(starts, t - PROBE_WINDOW_S)
            hi = bisect.bisect_right(starts, t + dt + PROBE_WINDOW_S)
            if hi - lo < PROBE_MIN_SAMPLES:  # widen to the nearest samples
                lo, hi = max(0, lo - PROBE_MIN_SAMPLES), min(len(starts), hi + PROBE_MIN_SAMPLES)
            row.append(dt * PROBE_REF_S / statistics.median(s for _, s in probe[lo:hi]))
        out.append(row)
    return out


def _timings(passes: list[list[float]], ops_per_pass: int) -> dict:
    """ops_per_s from whole passes, p50 and the high percentile of single operations."""
    lat_ms = [t * 1000.0 for row in passes for t in row]
    pct, p_hi = _percentile(lat_ms)
    # the median pass is robust to a pass slowed by something else on the machine
    return {"ops_per_s": ops_per_pass / statistics.median(sum(row) for row in passes),
            "op_p50_ms": statistics.median(lat_ms), "op_p90_ms": p_hi,
            "high_percentile": pct, "latency_samples": len(lat_ms)}


def _percentile(values: list[float]) -> tuple[int, float]:
    """The highest percentile (at most 90) with >= 10 samples beyond it."""
    pct = max(50, min(90, math.floor(100 * (1 - 10 / len(values)))))
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool = False,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; return the full record (metrics plus provenance)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = HERE / ".work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    base = ["--workload", workload, "--seed", str(seed)] + (["--small"] if small else [])
    try:
        setup = []
        if not trace:
            # the first process writes the bytecode cache, as installing the
            # package would have done; it is not timed
            for i in range(setup_repeats + 1):
                rep = _worker(base + ["--setup-only"], work, env, deadline)
                if i:
                    setup.append(rep["setup_s"])
        expected = _worker(base + ["--expect-only"], work, env, deadline)["report"]
        rep = _worker(base + ["--seconds", str(seconds), "--trace", str(int(trace)),
                              "--expected", expected], work, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    n = rep["ops_per_pass"]
    timed = _timings(_scaled(rep["timed_passes"], rep["probe"]), n)
    unscaled = _timings([lat for _, lat in rep["timed_passes"]], n)
    attempted, failed = rep["attempted"], rep["failed"]
    if trace:
        ops_per_s = timed["ops_per_s"]
        traced_ops_per_s = _timings(_scaled(rep["traced_passes"], rep["probe"]), n)["ops_per_s"]
        metrics = dict(rep["layers"])
        metrics["frontier.raised"] = sum(1 for v in rep["frontier"].values() if v not in ("ok", "wrong"))
        metrics["trace.untraced_ops_per_s"] = ops_per_s
        metrics["trace.traced_ops_per_s"] = traced_ops_per_s
        metrics["trace.overhead_ops_per_s"] = ops_per_s - traced_ops_per_s
        metrics["trace.overhead_share"] = (ops_per_s - traced_ops_per_s) / ops_per_s
        units = {k: layer_unit(k) for k in metrics}
    else:
        setup.append(rep["setup_s"])
        metrics = {
            "ops_per_s": timed["ops_per_s"],
            "op_p50_ms": timed["op_p50_ms"],
            "op_p90_ms": timed["op_p90_ms"],
            "ok_ratio": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rep["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    probe_s = [s for _, s in rep["probe"]]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "small": small,
        "correct": failed == 0 and rep.get("counts_repeat", True),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": {
            "ops_per_pass": n,
            "passes_timed": rep["passes_timed"],
            "passes_traced": rep["passes_traced"],
            "latency_samples": timed["latency_samples"],
            "high_percentile": timed["high_percentile"],
            "setup_samples": len(setup),
            "probe_samples": len(probe_s),
        },
        # the same timings as measured, before scaling to the probe's reference speed
        "unscaled": {k: v for k, v in unscaled.items() if k not in ("high_percentile", "latency_samples")},
        "probe": {"ref_s": PROBE_REF_S, "median_s": statistics.median(probe_s),
                  "window_s": PROBE_WINDOW_S},
        "failures": rep["failures"],
        "frontier": rep["frontier"],
        "counts_repeat": rep.get("counts_repeat"),
        "spans": rep.get("spans"),
        "provenance": {
            "git_commit": _git_commit(),
            "python": rep["python"],
            "numpy": rep["numpy"],
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "blas_threads": PINNED_ENV,
            "load_model": "closed loop, one caller, in-process nterm.cli.main calls",
        },
    }


def write_record(record: dict) -> Path:
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans")
    if spans is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "error"], "spans": spans}))
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def print_record(record: dict) -> None:
    s = record["samples"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['attempted']} ops attempted, {record['failed']} failed, "
          f"{s['latency_samples']} latency samples over {s['passes_timed']} timed passes "
          f"(p{s['high_percentile']} as the high percentile)")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for reason in record["failures"]:
        print(f"! {reason}")


def smoke() -> int:
    """Each workload at a tiny size, traced and untraced; check metric names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            rec = run_workload(workload, seed=0, seconds=0.0, trace=bool(trace), small=True,
                               setup_repeats=1)
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want[trace]}")
            if not rec["correct"]:
                problems.append(f"{workload} trace={trace}: {rec['failures']}")
            print(f"# smoke {workload} trace={trace}: {rec['attempted']} ops, "
                  f"{rec['failed']} failed, {len(got)} metrics")
    for p in problems:
        print(f"! {p}")
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nterm benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="quick self-test at tiny sizes")
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit, so the child is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "nterm" / "__init__.py").is_file():
        print(f"error: no nterm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        records = []
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            rec = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            write_record(rec)
            print_record(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        setup.append(rep["setup_s"])
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
