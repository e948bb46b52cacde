"""Command-line interface.

One command per process.  Subcommands: shells, hfunc, en-class,
greedy, lemma51, rates, check-psi.  Each command takes only the flags
it reads, declared once in its ``_SUBCOMMANDS`` row, plus ``--out``,
``--json-out`` and ``--config``.  Tabular results go to stdout as CSV
(or to ``--out``); every command also emits a JSON document
(``--json-out`` or stdout for scalar results) whose metadata block
records the command's own flags as resolved, so it round-trips.  A
``--config FILE`` JSON object (keyed like that metadata block)
supplies flags: it is parsed as if its ``--key value`` pairs came
right after the subcommand, so explicit flags win, every value is
validated like the flag it sets, and a key the command does not take
is an error.

Exit status: 0 on success, 1 on a compute error (a machine-readable
JSON error record is written to stderr), 2 on parse or validation
errors.  Output is deterministic: identical configurations produce
byte-identical files.

Only the parser of the subcommand named first in argv is built, so a
call pays for one command's flags; its ``--help`` and value errors are
the ones the full parser prints.  The full parser (:func:`build_parser`)
serves the top-level help and the errors only it reports: no or an
unknown command, and unrecognized arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import shutil
import sys

import numpy as np

from . import lattice, rates, trig_lp, weights
from .approx import CoefficientSequence, FunctionClassSpec, class_best_nterm_sp_grid, greedy_order, greedy_remainders_sp
from .functionals import DEFAULT_SCAN_BUDGET, DEFAULT_TOL, DivergentTailError, NoThresholdError, h_functional
from .lattice import BudgetExceededError
from .trig_lp import GridSpec
from .weights import RearrangedWeight, parse_weight


class CliValidationError(Exception):
    """Bad flag combination detected before any computation."""


def _jsonable(val):
    if isinstance(val, (int, str)):
        return val
    if isinstance(val, float):
        if math.isinf(val):
            return "inf" if val > 0 else "-inf"
        if math.isnan(val):
            return "nan"
        return val
    if isinstance(val, (np.floating, np.integer)):
        return _jsonable(val.item())
    if isinstance(val, np.ndarray):
        # integer arrays hold no inf or nan: one conversion, no per-element pass
        return val.tolist() if val.dtype.kind in "iu" else _jsonable(val.tolist())
    if isinstance(val, (list, tuple)):
        return [_jsonable(v) for v in val]
    if isinstance(val, dict):
        return {k: _jsonable(v) for k, v in val.items()}
    return val


def _parse_r(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        r = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad quasi-norm order {text!r}")
    if r <= 0:
        raise argparse.ArgumentTypeError("quasi-norm order must be positive")
    return r


def _parse_int_list(text: str) -> list[int]:
    try:
        vals = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty integer list")
    return vals


def _parse_float_list(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}")
    if not vals:
        raise argparse.ArgumentTypeError("empty number list")
    return vals


def _flag(*names: str, **kwargs) -> tuple:
    return names, kwargs


_R = _flag("--r", type=_parse_r, default=math.inf)
_D = _flag("--d", type=int, default=1)
_N_LIST = _flag("--n", type=_parse_int_list, help="n or comma list")
_BUDGET = _flag("--budget", type=int,
                help=f"enumeration/grid point budget (default {lattice.DEFAULT_POINT_BUDGET})")
_SCAN = (
    _flag("--scan-budget", type=int, default=DEFAULT_SCAN_BUDGET,
          help="threshold-scan budget for the extremal functionals"),
    _flag("--tol", type=float, default=DEFAULT_TOL, help="relative tail truncation tolerance"),
)
_COMMON = (
    _flag("--out", help="write CSV table here instead of stdout"),
    _flag("--json-out", help="write the JSON mirror here"),
    _flag("--config", help="JSON file of flag defaults (explicit flags win)"),
)


def _formatter():
    # argparse builds a formatter (which asks for the terminal size) on
    # every add_argument call; one width per parser build keeps the
    # wrapping and saves those queries
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def _with_flags(parser: argparse.ArgumentParser, flags) -> argparse.ArgumentParser:
    for names, kwargs in flags + _COMMON:
        parser.add_argument(*names, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the top level and every subcommand."""
    fmt = _formatter()
    parser = argparse.ArgumentParser(
        prog="nterm",
        description="n-term approximation characteristics of weighted Fourier classes",
        formatter_class=fmt,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _, flags) in _SUBCOMMANDS.items():
        _with_flags(sub.add_parser(name, formatter_class=fmt, help=help_line), flags)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    if argv and argv[0] in _SUBCOMMANDS:
        parser = argparse.ArgumentParser(prog=f"nterm {argv[0]}", formatter_class=_formatter())
        args, extras = _with_flags(parser, _SUBCOMMANDS[argv[0]][3]).parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    # otherwise the full parser, which prints top-level help and usage errors
    return build_parser().parse_args(argv)


def _apply_config(argv: list[str]) -> argparse.Namespace:
    args = _parse(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliValidationError(f"cannot read config {args.config}: {exc}")
    if not isinstance(config, dict):
        raise CliValidationError("config file must hold a JSON object")
    if config.pop("command", args.command) != args.command:
        raise CliValidationError(f"config file is for another command, not {args.command}")
    tokens = []
    for key, val in config.items():
        if key.replace("-", "_") not in vars(args):
            raise CliValidationError(f"unknown config key {key!r} for {args.command}")
        if val is None:
            continue
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        tokens.append(f"--{'in' if key == 'infile' else key.replace('_', '-')}={val}")
    # right after the subcommand, so the flags given explicitly come later and win
    at = argv.index(args.command) + 1
    return _parse(argv[:at] + tokens + argv[at:])


def _validate(args: argparse.Namespace) -> None:
    missing = [d for d in _SUBCOMMANDS[args.command][2] if getattr(args, d) is None]
    if missing:
        flags = ", ".join("--" + ("in" if d == "infile" else d.replace("_", "-"))
                          for d in missing)
        raise CliValidationError(f"missing required flags for {args.command}: {flags}")
    if getattr(args, "budget", None) is not None and args.budget < 1:
        raise CliValidationError(f"need --budget >= 1, got {args.budget}")


def _emit(args, csv_text: str | None, result: dict) -> None:
    metadata = {key: _jsonable(val) for key, val in vars(args).items()}
    doc = json.dumps({"metadata": metadata, "result": _jsonable(result)}, sort_keys=True)
    if csv_text is not None:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(csv_text)
        else:
            sys.stdout.write(csv_text)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(doc + "\n")
    if csv_text is None and not args.json_out:
        sys.stdout.write(doc + "\n")


def _cmd_shells(args) -> int:
    if args.d < 1 or args.m_max < 1:
        raise CliValidationError("need d >= 1 and m-max >= 1")
    sd = lattice.shell_counts(args.r, args.d, args.m_max, budget=args.budget)
    fit = lattice.fit_growth_bounds(sd)
    nu, V = sd.nu.tolist(), sd.V.tolist()
    csv_text = "m,nu,V\n" + "".join(f"{m},{a},{b}\n" for m, (a, b) in enumerate(zip(nu, V)))
    result = {"nu": nu, "V": V, "fit": dataclasses.asdict(fit)}
    _emit(args, csv_text, result)
    return 0


def _cmd_hfunc(args) -> int:
    psi = parse_weight(args.psi)
    if args.d < 1:
        raise CliValidationError("need d >= 1")
    rw = RearrangedWeight(psi, args.r, args.d, p_power=args.p_power, budget=args.budget)
    res = h_functional(rw, int(args.n), args.s, tol=args.tol, scan_budget=args.scan_budget)
    result = {
        "value": res.value,
        "l_star": res.l_star,
        "regime": res.regime,
        "tail_truncation_error_bound": res.tail_truncation_error_bound,
    }
    _emit(args, None, result)
    return 0


def _cmd_en_class(args) -> int:
    psi = parse_weight(args.psi)
    spec = FunctionClassSpec(q=args.q, r=args.r, psi=psi, d=args.d)
    results = class_best_nterm_sp_grid(spec, args.n, args.p, tol=args.tol,
                                       scan_budget=args.scan_budget, budget=args.budget)
    rows = [(n, res.value, res.l_star, res.regime) for n, res in zip(args.n, results)]
    buf = ["n,en"] + [f"{n},{v:.17g}" for n, v, _, _ in rows]
    csv_text = "\n".join(buf) + "\n"
    result = {"rows": [
        {"n": n, "en": v, "l_star": l, "regime": reg} for n, v, l, reg in rows
    ]}
    _emit(args, csv_text, result)
    return 0


def _cmd_greedy(args) -> int:
    try:
        with open(args.infile) as fh:
            f = CoefficientSequence.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise CliValidationError(f"cannot read coefficient file {args.infile}: {exc}")
    rows = list(zip(args.n, greedy_remainders_sp(f, args.n, args.p)))
    order = greedy_order(f)
    buf = ["n,remainder"] + [f"{n},{v:.17g}" for n, v in rows]
    csv_text = "\n".join(buf) + "\n"
    result = {
        "rows": [{"n": n, "remainder": v} for n, v in rows],
        "order": order,
    }
    _emit(args, csv_text, result)
    return 0


def _cmd_lemma51(args) -> int:
    if args.d < 1 or args.trials < 1 or min(args.n_grid) < 1:
        raise CliValidationError("need d >= 1, trials >= 1 and every n >= 1")
    if not 0.0 < args.cube_scale < math.inf:
        raise CliValidationError(f"need finite --cube-scale > 0, got {args.cube_scale}")
    if not all(1.0 <= p < math.inf for p in args.p):
        raise CliValidationError(f"need every --p finite and >= 1, got {args.p}")
    rng = np.random.default_rng(args.seed)
    buf = ["n,p,trial,norm,ratio"]
    rows = []
    for n in args.n_grid:
        side = max(1, int(math.ceil(args.cube_scale * n ** (1.0 / args.d))))
        box = 2 * side + 1
        if box ** args.d < n:
            raise CliValidationError(f"cube of side {side} too small for n={n} frequencies")
        for trial in range(args.trials):
            flat = rng.choice(box ** args.d, size=n, replace=False)
            gamma = np.stack([flat // box**i % box - side for i in range(args.d)], axis=1)
            kmax = int(np.abs(gamma).max())
            for p in args.p:
                N = trig_lp.grid_points(p, kmax, int(2 * math.ceil(p) * max(kmax, 1) + 1))
                g = GridSpec(d=args.d, N=N)
                val = trig_lp.exponential_sum_norm(gamma, p, g, budget=args.budget)
                ratio = val / n ** (1.0 - 1.0 / p)
                rows.append({"n": n, "p": p, "trial": trial, "norm": val, "ratio": ratio})
                buf.append(f"{n},{p:g},{trial},{val:.17g},{ratio:.17g}")
    csv_text = "\n".join(buf) + "\n"
    _emit(args, csv_text, {"rows": rows})
    return 0


def _cmd_rates(args) -> int:
    psi = parse_weight(args.psi)
    table = rates.rate_table(
        args.quantity,
        args.n_grid,
        psi,
        args.d,
        r=args.r,
        q=args.q,
        p=args.p,
        s=args.s,
        theorem=args.theorem,
        tol=args.tol,
        scan_budget=args.scan_budget,
        budget=args.budget,
    )
    k1, k2 = rates.ratio_window(table)
    result = json.loads(table.to_json())
    result["ratio_window"] = {"K1": k1, "K2": k2}
    _emit(args, table.to_csv(), result)
    return 0


def _cmd_check_psi(args) -> int:
    psi = parse_weight(args.psi)
    report = {"class_b": dataclasses.asdict(weights.check_class_b(psi))}
    report["convexity_evidence"] = weights.convexity_evidence(psi)
    report["decreasing_evidence"] = weights.decreasing_evidence(psi)
    if args.s is not None:
        report["decay"] = dataclasses.asdict(
            weights.check_decay_condition(psi, args.s, args.d))
    _emit(args, None, report)
    return 0


# subcommand -> (handler, help line, required flag dests, flags before
# the common ones), in help order
_SUBCOMMANDS = {
    "shells": (_cmd_shells, "shell counts of the integer lattice and growth fit", ("m_max",), (
        _R, _D, _flag("--m-max", type=int), _BUDGET)),
    "hfunc": (_cmd_hfunc, "extremal functional H_n over a rearranged weight", ("psi", "n", "s"), (
        _flag("--psi", help="weight, e.g. power:s=2 or const"),
        _flag("--n", type=int), _flag("--s", type=float), _R, _D,
        _flag("--p-power", type=float, default=1.0, help="rearrange psi^p-power instead of psi"),
        _BUDGET, *_SCAN)),
    "en-class": (_cmd_en_class, "exact best n-term class error in the p coefficient norm",
                 ("psi", "q", "p", "n"), (
        _flag("--psi"), _flag("--q", type=float), _flag("--p", type=float), _N_LIST, _R, _D,
        _BUDGET, *_SCAN)),
    "greedy": (_cmd_greedy, "greedy n-term remainder of a coefficient file", ("infile", "n", "p"), (
        _flag("--in", dest="infile", help="coefficient sequence JSON"),
        _N_LIST, _flag("--p", type=float))),
    "lemma51": (_cmd_lemma51, "L_p norms of random unit exponential sums", ("n_grid", "p"), (
        _flag("--n-grid", type=_parse_int_list),
        _flag("--p", type=_parse_float_list, help="p or comma list"),
        _D, _flag("--trials", type=int, default=5), _flag("--cube-scale", type=float, default=2.0),
        _BUDGET, _flag("--seed", type=int, default=0, help="RNG seed of the frequency sets"))),
    "rates": (_cmd_rates, "computed vs predicted order table with ratio window",
              ("quantity", "psi", "n_grid"), (
        _flag("--quantity", choices=rates.QUANTITIES),
        _flag("--theorem", choices=rates.THEOREM_TAGS),
        _flag("--psi"),
        _flag("--n-grid", type=_parse_int_list),
        _flag("--q", type=float), _flag("--p", type=float), _flag("--s", type=float), _R, _D,
        _BUDGET, *_SCAN)),
    "check-psi": (_cmd_check_psi, "slow-vanishing class and decay-condition evidence", ("psi",), (
        _flag("--psi"), _flag("--s", type=float, help="also check the decay condition at this s"), _D)),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _apply_config(argv)
        _validate(args)
        return _SUBCOMMANDS[args.command][0](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (CliValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergentTailError, NoThresholdError, BudgetExceededError,
            OverflowError, FloatingPointError) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
