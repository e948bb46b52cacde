"""Record every benchmark operation's output, or diff two such records.

Runs each operation of the ``class_stream``, ``lattice_shells`` and
``witness_quadrature`` workloads (``bench/workloads.py`` of this
checkout, imported read-only) through ``nterm.cli.main`` of the nterm
checkout at ROOT, in-process and with ``--out``/``--json-out`` appended
as the benchmark does, and writes::

    {op: [exit code, stdout, stderr, {"csv": text or null, "json": text or null}]}

where ``op`` is ``workload:seed:index argv``.  Comparing two checkouts
shows whether a change moved any output byte::

    git worktree add ../nterm-parent HEAD~1
    python tools/op_outputs.py ../nterm-parent parent.json
    python tools/op_outputs.py . change.json
    python tools/op_outputs.py --diff parent.json change.json
    git worktree remove ../nterm-parent

``--seeds`` defaults to 0,13,31: seed 0 is the default of
``bench/run.py --seed``, and 13 and 31 add two more draws of each
workload.

``--diff A.json B.json`` lists the ops whose records differ and exits 1
if any do, 0 otherwise.  Run one checkout per process: both import as
``nterm``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("class_stream", "lattice_shells", "witness_quadrature")
OUT_CSV = "out.csv"
OUT_JSON = "out.json"


def _read(name: str) -> str | None:
    with contextlib.suppress(FileNotFoundError):
        text = Path(name).read_text()
        os.remove(name)
        return text
    return None


def record(root: Path, seeds: list[int]) -> dict[str, list]:
    """Run every op of the three workloads at each seed through ROOT's cli.main."""
    sys.path.insert(0, str(HERE / "bench"))
    sys.path.insert(0, str(root / "src"))
    import workloads

    import nterm
    from nterm import cli

    if Path(nterm.__file__).resolve().parent != (root / "src" / "nterm").resolve():
        raise ImportError(f"nterm imported from {nterm.__file__}, not from {root}")
    records: dict[str, list] = {}
    cwd = os.getcwd()
    for workload in WORKLOADS:
        for seed in seeds:
            inputs = workloads.GENERATORS[workload](seed)
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)
                for name, text in inputs.files.items():
                    Path(name).write_text(text)
                for i, op in enumerate(inputs.ops):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                            warnings.catch_warnings():
                        warnings.simplefilter("always")
                        try:
                            rc = cli.main(op.argv + ["--out", OUT_CSV, "--json-out", OUT_JSON])
                        except Exception as exc:  # an exception the CLI does not map to an exit code
                            rc = -1
                            err.write(f"{type(exc).__name__}: {exc}\n")
                    files = {"csv": _read(OUT_CSV), "json": _read(OUT_JSON)}
                    key = f"{workload}:{seed}:{i:03d} {' '.join(op.argv)}"
                    records[key] = [rc, out.getvalue(), err.getvalue(), files]
                os.chdir(cwd)
    return records


def diff(a: dict[str, list], b: dict[str, list]) -> list[str]:
    """Lines naming each op that is missing from one record or differs."""
    fields = ("exit code", "stdout", "stderr", "files")
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'B' if key not in a else 'A'}")
        elif a[key] != b[key]:
            changed = [f for f, x, y in zip(fields, a[key], b[key]) if x != y]
            lines.append(f"{key}: {', '.join(changed)} differ")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", type=Path, help="nterm checkout whose src/ to run")
    ap.add_argument("out", nargs="?", type=Path, help="JSON file to write")
    ap.add_argument("--seeds", default="0,13,31", help="comma list of workload seeds")
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"), help="compare two records")
    args = ap.parse_args(argv)
    if args.diff:
        a, b = (json.loads(p.read_text()) for p in args.diff)
        lines = diff(a, b)
        print("\n".join(lines + [f"{len(lines)} of {len(a.keys() | b.keys())} ops differ"]))
        return 1 if lines else 0
    if args.root is None or args.out is None:
        ap.error("need ROOT and OUT, or --diff A B")
    seeds = [int(tok) for tok in args.seeds.split(",")]
    records = record(args.root.resolve(), seeds)
    args.out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} ops recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
