"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, traced and untraced, and checks that
each metric named in BENCHMARK.json is emitted with its unit and that
every output passed its check:

    python3 -m pytest bench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_emits_every_metric():
    res = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.strip().splitlines()[-1] == "smoke ok"


def test_missing_program_fails_without_result(tmp_path):
    # a directory with only the benchmark: nonzero exit, no JSON line
    (tmp_path / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "class_stream",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert "correct" not in res.stdout
