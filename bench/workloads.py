"""The three benchmark workloads: argv lists generated from a seed, plus checks.

A workload is one "pass": a fixed list of CLI operations (argv lists for
``nterm.cli.main``).  The seed picks weight parameters, n values,
frequency sets and the coefficient file; the structure of the pass
(commands, dimensions, sizes) is the same for every seed, so that
run-to-run cost stays comparable.  ``small=True`` shrinks every heavy
parameter for the smoke mode.

Each operation carries two functions.  ``expect()`` computes reference
values with :mod:`oracles`; it runs in a separate process before the
workload process starts, so that brute-force memory never shows in the
measured peak RSS.  ``check(outcome, expected, state)`` runs in the
workload process after each call and returns None when the output is
correct, or a one-line reason.  Neither calls into nterm.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles

REL = 1e-6  # class errors and H_n against the brute-force rearrangement
REL_EXACT = 1e-9  # quadrature that is exact up to rounding


@dataclass
class Outcome:
    """What one operation left behind: exit code, stderr text and the JSON doc."""

    rc: int
    err: str
    doc: dict | None


@dataclass
class Op:
    """One CLI call.  ``frontier`` is text of the error the call raises today, if any."""

    argv: list[str]
    check: Callable[[Outcome, Any, dict], str | None]
    expect: Callable[[], Any]
    frontier: str | None = None


@dataclass
class Inputs:
    ops: list[Op]
    files: dict[str, str] = field(default_factory=dict)  # name -> text, written at set-up


def _close(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


def _nonincreasing(vals) -> bool:
    return all(b <= a * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))


def _fmt_r(r: float) -> str:
    return "inf" if math.isinf(r) else f"{r:g}"


def _exit_problem(out: Outcome) -> str | None:
    if out.rc != 0:
        return f"exit {out.rc}: {out.err.strip()[:200]}"
    if out.doc is None:
        return "no JSON output"
    return None


# --- class errors and H_n ----------------------------------------------------

# enumeration radius of the oracle per dimension: the shells beyond it
# change the tail sums by far less than REL for the weights used here
_ORACLE_M = {1: 100_000, 2: 2000, 3: 200, 6: 3}
_oracle_cache: dict = {}


def _rearranged(psi: str, r: float, d: int, p_power: float) -> oracles.RearrangedOracle:
    key = (psi, r, d, p_power)
    if key not in _oracle_cache:
        _oracle_cache.clear()  # ops are grouped by weight: keep one oracle alive
        _oracle_cache[key] = oracles.RearrangedOracle(psi, r, d, p_power, _ORACLE_M[d])
    return _oracle_cache[key]


def _class_errors(psi, r, d, q, p, ns) -> list[float]:
    orc = _rearranged(psi, r, d, p)
    return [orc.h(n, q / p) ** (1.0 / p) for n in ns]


def _check_class_rows(psi, r, d, q, p, ns, vals, want, state) -> str | None:
    """Checks shared by en-class and rates rows: oracle, monotonicity, r=1 <= r=inf."""
    if not all(math.isfinite(v) and v > 0 for v in vals):
        return f"non-positive or non-finite class error in {vals}"
    if not _nonincreasing(vals):
        return f"class errors increase with n: {vals}"
    for n, v, w in zip(ns, vals, want):
        if not _close(v, w, REL):
            return f"n={n}: got {v!r}, brute force {w!r}"
        key = (psi, d, q, p, n)
        if math.isinf(r):
            state[key] = v
        elif r == 1.0 and key in state and v > state[key] * (1.0 + 1e-12):
            return f"n={n}: r=1 error {v!r} exceeds r=inf error {state[key]!r}"
    return None


def _en_class(psi, r, d, q, p, ns, frontier=None) -> Op:
    argv = ["en-class", "--psi", psi, "--q", f"{q:g}", "--p", f"{p:g}",
            "--n", ",".join(map(str, ns)), "--r", _fmt_r(r), "--d", str(d)]
    regime = "tail" if q / p > 1.0 else "sup"

    def check(out: Outcome, want, state: dict) -> str | None:
        bad = _exit_problem(out)
        if bad:
            return bad
        rows = out.doc["result"]["rows"]
        if [row["n"] for row in rows] != list(ns):
            return "rows do not match the requested n list"
        if any(row["regime"] != regime for row in rows):
            return f"expected regime {regime}"
        return _check_class_rows(psi, r, d, q, p, ns, [row["en"] for row in rows], want, state)

    return Op(argv, check, lambda: _class_errors(psi, r, d, q, p, ns), frontier)


def _rates_class(psi, r, d, q, p, ns) -> Op:
    argv = ["rates", "--quantity", "class_sp", "--psi", psi, "--n-grid", ",".join(map(str, ns)),
            "--q", f"{q:g}", "--p", f"{p:g}", "--r", _fmt_r(r), "--d", str(d)]

    def check(out: Outcome, want, state: dict) -> str | None:
        bad = _exit_problem(out)
        if bad:
            return bad
        rows = out.doc["result"]["rows"]
        if [row["n"] for row in rows] != list(ns):
            return "rows do not match the n grid"
        return _check_class_rows(psi, r, d, q, p, ns, [row["computed"] for row in rows], want, state)

    return Op(argv, check, lambda: _class_errors(psi, r, d, q, p, ns))


def _hfunc(psi, r, d, n, s) -> Op:
    argv = ["hfunc", "--psi", psi, "--n", str(n), "--s", f"{s:g}", "--r", _fmt_r(r), "--d", str(d)]

    def check(out: Outcome, want, state: dict) -> str | None:
        bad = _exit_problem(out)
        if bad:
            return bad
        res = out.doc["result"]
        if res["regime"] != ("tail" if s > 1.0 else "sup"):
            return f"wrong regime {res['regime']}"
        if res["l_star"] is None or res["l_star"] <= n:
            return f"l_star {res['l_star']} not beyond n={n}"
        if not _close(res["value"], want, REL):
            return f"H_n got {res['value']!r}, brute force {want!r}"
        return None

    return Op(argv, check, lambda: _rearranged(psi, r, d, 1.0).h(n, s))


def _psi_for(rnd: random.Random, family: str, d: int) -> str:
    # power and powerlog need s > d/2 for the tail regime (q=2, p=1) to
    # converge; s in [d+2, d+3] keeps the tail certification short and the
    # shells beyond the oracle's radius below its tolerance
    s = d + 2 + rnd.random()
    if family == "power":
        return f"power:s={s:.2f}"
    if family == "powerlog":
        return f"powerlog:s={s:.2f},eps={rnd.uniform(-1.0, 1.0):.2f}"
    return f"exp:R={rnd.uniform(1.5, 3.0):.2f}"


def _jitter(rnd: random.Random, base: int) -> int:
    return base + rnd.randrange(max(base // 4, 1))


def _near(rnd: random.Random, size: int) -> int:
    """A size within 2% below ``size``: operations whose cost follows their
    size vary little from seed to seed."""
    return size - rnd.randrange(max(size // 50, 1))


def class_stream(seed: int, small: bool = False) -> Inputs:
    """Class errors and H_n through rates, en-class and hfunc.

    Sup regime (q=1, p=2; hfunc s=0.5, 1) and tail regime (q=2, p=1;
    hfunc s=2) over r in {inf, 1}, d in {1, 2, 3} and three weight
    families.  Lattice counts are closed-form here.
    """
    rnd = random.Random(seed)
    ops = []
    dims = (1, 2) if small else (1, 2, 3)
    grid = (16, 32, 64) if small else (16, 32, 64, 128, 256, 512)
    for d in dims:
        for family in ("power", "powerlog", "exp"):
            psi = _psi_for(rnd, family, d)
            ns = [_jitter(rnd, b) for b in grid]
            en_ns = sorted(rnd.sample(range(2, 65), 3))
            h_n = rnd.randrange(8, 257)
            for r in (math.inf, 1.0):  # r=inf first: the r=1 checks compare to it
                ops.append(_rates_class(psi, r, d, 1.0, 2.0, ns))
                ops.append(_en_class(psi, r, d, 1.0, 2.0, en_ns))
                ops.append(_hfunc(psi, r, d, h_n, 0.5))
                ops.append(_hfunc(psi, r, d, h_n, 1.0))
                ops.append(_rates_class(psi, r, d, 2.0, 1.0, ns))
                ops.append(_en_class(psi, r, d, 2.0, 1.0, en_ns))
                ops.append(_hfunc(psi, r, d, h_n, 2.0))
    return Inputs(ops)


# --- shell tables ------------------------------------------------------------

def _shells(r: float, d: int, m_max: int) -> Op:
    argv = ["shells", "--r", _fmt_r(r), "--d", str(d), "--m-max", str(m_max)]

    def check(out: Outcome, want, state: dict) -> str | None:
        bad = _exit_problem(out)
        if bad:
            return bad
        V, nu = out.doc["result"]["V"], out.doc["result"]["nu"]
        if V != want:
            first = next((i for i, (a, b) in enumerate(zip(V, want)) if a != b), min(len(V), len(want)))
            return f"V differs from enumeration first at m={first} ({len(V)} rows, {len(want)} expected)"
        if nu != [V[0]] + [b - a for a, b in zip(V, V[1:])]:
            return "nu is not the difference of V"
        return None

    def expect() -> list[int]:
        if math.isinf(r):
            return [(2 * m + 1) ** d for m in range(m_max + 1)]
        return np.cumsum(oracles.shell_histogram(r, d, m_max)).tolist()

    return Op(argv, check, expect)


def lattice_shells(seed: int, small: bool = False) -> Inputs:
    """Shell tables by closed form (r=inf, r=2 d=2) and by box enumeration.

    Also r=2, d=2 class errors (the Gauss-circle table is recomputed
    for every chunk of the stream) and three frontier operations that
    raise today.
    """
    rnd = random.Random(seed)

    def size(m_max: int) -> int:  # the growth fit of `shells` needs m-max >= 3
        return max(_near(rnd, m_max) // (10 if small else 1), 3)

    ops = [_shells(2.0, 2, size(1000)), _shells(2.0, 2, size(2000)),
           _shells(math.inf, 3, size(100_000))]
    for r in (1.5, 0.5):
        for m_max in (150, 250):
            ops.append(_shells(r, 2, size(m_max)))
    for r in (2.0, 3.0):
        for m_max in (25, 35):
            ops.append(_shells(r, 3, size(m_max)))
    psi = f"power:s={rnd.uniform(1.5, 2.5):.2f}"
    # one n per call: each costs the same, so the p90 falls among several
    # operations of one kind instead of at the edge of a single one
    for n in sorted(rnd.sample(range(4, 65), 2 if small else 4)):
        ops.append(_en_class(psi, 2.0, 2, 1.0, 2.0, [n]))
    # frontier: the budget is exhausted by the up-front 4096-radius request
    # (r=1.5 d=2, r=2 d=3), and ball_counts overflows int64 at d=6; kept at
    # small n so that a repaired version stays cheap
    ops.append(_en_class("power:s=2", 1.5, 2, 1.0, 2.0, sorted(rnd.sample(range(2, 17), 2)),
                         frontier="BudgetExceededError"))
    ops.append(_en_class("power:s=2", 2.0, 3, 1.0, 2.0, sorted(rnd.sample(range(2, 17), 2)),
                         frontier="BudgetExceededError"))
    ops.append(_en_class("power:s=7", math.inf, 6, 1.0, 2.0, [rnd.randrange(2, 9)],
                         frontier="no admissible l"))
    return Inputs(ops)


# --- grid evaluation and greedy ordering -----------------------------------

def _witness(psi: str, q: float, p: float, ns) -> Op:
    argv = ["rates", "--quantity", "greedy_lp_witness", "--psi", psi,
            "--n-grid", ",".join(map(str, ns)), "--q", f"{q:g}", "--p", f"{p:g}", "--d", "1"]

    def expect() -> list[dict]:
        rows = []
        for n in ns:
            # witness: amplitude c1 on {-n..n}; greedy keeps 0, -1, 1, -2, 2, ...
            k = np.arange(-n, n + 1)
            c1 = float(np.sum(np.exp(-q * oracles.log_psi(psi, np.abs(k))))) ** (-1.0 / q)
            rest = np.array(sorted(k.tolist(), key=lambda v: (abs(v), v))[n:])
            m = len(rest)
            rows.append({
                "L4": c1 * oracles.additive_energy(rest) ** 0.25 if p == 4.0 else None,
                # L2 <= Lp <= coefficient p'-norm (Hausdorff-Young)
                "lo": c1 * math.sqrt(m), "hi": c1 * m ** (1.0 - 1.0 / p),
            })
        return rows

    def check(out: Outcome, want, state: dict) -> str | None:
        bad = _exit_problem(out)
        if bad:
            return bad
        for n, row, w in zip(ns, out.doc["result"]["rows"], want):
            got = row["computed"]
            if w["L4"] is not None and not _close(got, w["L4"], REL_EXACT):
                return f"n={n}: L4 witness {got!r}, additive energy gives {w['L4']!r}"
            if not w["lo"] * (1 - 1e-9) <= got <= w["hi"] * (1 + 1e-9):
                return f"n={n}: witness {got!r} outside [L2, Hausdorff-Young] = [{w['lo']!r}, {w['hi']!r}]"
        return None

    return Op(argv, check, expect)


def _lemma51_gamma(n_grid, d, trials, seed, cube_scale=2.0):
    """The frequency sets that lemma51 draws for this seed (its documented recipe)."""
    rng = np.random.default_rng(seed)
    out = []
    for n in n_grid:
        side = max(1, int(math.ceil(cube_scale * n ** (1.0 / d))))
        box = 2 * side + 1
        for _ in range(trials):
            flat = rng.choice(box**d, size=n, replace=False)
            out.append(np.stack([(flat // box**i) % box - side for i in range(d)], axis=1))
    return out


def _lemma51(n_grid, d: int, trials: int, seed: int) -> Op:
    ps = (2.0, 4.0)
    argv = ["lemma51", "--n-grid", ",".join(map(str, n_grid)), "--p", "2,4", "--d", str(d),
            "--trials", str(trials), "--seed", str(seed)]

    def expect() -> list[float]:
        # p=2: Parseval; p=4: ||f||_4^4 is the additive energy of the set
        return [math.sqrt(len(g)) if p == 2.0 else oracles.additive_energy(g) ** 0.25
                for g in _lemma51_gamma(n_grid, d, trials, seed) for p in ps]

    def check(out: Outcome, want, state: dict) -> str | None:
        bad = _exit_problem(out)
        if bad:
            return bad
        rows = out.doc["result"]["rows"]
        if len(rows) != len(want):
            return f"expected {len(want)} rows, got {len(rows)}"
        for row, w in zip(rows, want):
            if row["ratio"] > 1.0 + 1e-12:  # Hausdorff-Young gap n^(1-1/p) - norm >= 0
                return f"n={row['n']}, p={row['p']:g}: negative Hausdorff-Young gap (ratio {row['ratio']!r})"
            if not _close(row["norm"], w, REL_EXACT):
                return f"n={row['n']}, p={row['p']:g}: norm {row['norm']!r}, exact {w!r}"
        return None

    return Op(argv, check, expect)


def _greedy(path: str, amp_of: dict, ns, p: float) -> Op:
    argv = ["greedy", "--in", path, "--n", ",".join(map(str, ns)), "--p", f"{p:g}"]

    def check(out: Outcome, want, state: dict) -> str | None:
        bad = _exit_problem(out)
        if bad:
            return bad
        got = [row["remainder"] for row in out.doc["result"]["rows"]]
        if not _nonincreasing(got):
            return f"greedy remainders increase with n: {got}"
        for n, g, w in zip(ns, got, want):
            if not _close(g, w, 1e-10):
                return f"n={n}: remainder {g!r}, sorted amplitudes give {w!r}"
        order = [tuple(k) for k in out.doc["result"]["order"]]
        if len(order) != len(amp_of) or set(order) != amp_of.keys():
            return "greedy order is not a permutation of the support"
        if not _nonincreasing([amp_of[k] for k in order]):
            return "greedy order is not by descending amplitude"
        return None

    return Op(argv, check, lambda: oracles.greedy_remainders(np.array(list(amp_of.values())), ns, p))


def witness_quadrature(seed: int, small: bool = False) -> Inputs:
    """Grid evaluation (all three evaluate_on_grid branches) and greedy ordering."""
    rnd = random.Random(seed)
    ops = []
    witness_grids = ([64], [128]) if small else ([1024], [512], [128, 256])
    for p in (4.0, 3.0):
        psi = f"power:s={rnd.uniform(0.5, 1.5):.2f}"
        q = rnd.choice((1.5, 2.0, 3.0))
        for grid in witness_grids:
            ops.append(_witness(psi, q, p, [_near(rnd, b) for b in grid]))
    sizes = {1: (32, 64, 128, 256), 2: (32, 64, 128, 256), 3: (16, 32, 48, 64)}
    for d in (1, 2, 3):
        for base in sizes[d][: 2 if small else 4]:
            ops.append(_lemma51([_near(rnd, base)], d, 2, rnd.randrange(1 << 30)))
    # six more draws of one mid-cost operation: the median then falls inside
    # a group of seven operations of one cost, not on a single operation
    # with a gap on either side
    for _ in range(0 if small else 6):
        ops.append(_lemma51([_near(rnd, 32)], 3, 2, rnd.randrange(1 << 30)))
    # greedy over a seed-generated d=2 coefficient file
    terms = 2000 if small else 20000
    rng = np.random.default_rng(seed)
    side = 200
    flat = rng.choice((2 * side + 1) ** 2, size=terms, replace=False)
    keys = [(int(i // (2 * side + 1)) - side, int(i % (2 * side + 1)) - side) for i in flat]
    amps = (rng.standard_normal(terms) + 1j * rng.standard_normal(terms)) / (
        1.0 + np.hypot(*np.array(keys).T))
    text = json.dumps({"d": 2, "entries": [
        {"k": list(k), "re": float(a.real), "im": float(a.imag)} for k, a in zip(keys, amps)]})
    amp_of = dict(zip(keys, np.abs(amps).tolist()))
    path = "coeffs.json"
    for p in (1.0, 2.0, 3.0):
        # the cost of a call depends on its n values, so they stay near
        # fixed shares of the support
        ns = [_near(rnd, terms * k // 10) for k in (1, 3, 5, 7)]
        ops.append(_greedy(path, amp_of, ns, p))
    return Inputs(ops, files={path: text})


GENERATORS = {
    "class_stream": class_stream,
    "lattice_shells": lattice_shells,
    "witness_quadrature": witness_quadrature,
}
