"""Order-estimate verification: predicted rates, tables, ratio windows.

Each supported estimate predicts that a computed quantity stays within
constant factors of ``psi(n^(1/d))`` times a power of n:

==============  =============================  =========================
tag             predicted rate                 quantity it describes
==============  =============================  =========================
thm31_p_le_2    psi(n^(1/d)) / n^(1/q - 1/2)   greedy L_p error, p <= 2
thm31_p_ge_2    psi(n^(1/d)) / n^(1/q+1/p-1)   greedy L_p error, p >= 2
lemma41         psi(n^(1/d)) / n^(1/s - 1)     H_n(rearranged psi, s)
assertion41     psi(n^(1/d)) / n^(1/q - 1/p)   class error in the
                                               p-coefficient norm
==============  =============================  =========================

A rate table pairs computed values with the prediction over an n-grid;
the ratio window (K1, K2) = (min, max) of computed/predicted certifies
the order estimate when K2/K1 is small.  Tables built outside a tag's
hypotheses are flagged and should be excluded from window assertions.

CSV output uses the fixed header ``n,computed,predicted,ratio`` with 17
significant digits; the JSON mirror carries the same rows plus a
metadata block.  Identical configurations produce byte-identical
output (no timestamps, fixed formatting).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import trig_lp, weights
from .approx import FunctionClassSpec, class_best_nterm_sp_grid, extremal_function_f1, greedy_order
from .functionals import DEFAULT_SCAN_BUDGET, DEFAULT_TOL, h_functional_grid
from .trig_lp import GridSpec
from .weights import RearrangedWeight, WeightFunction

# tag -> (parameters it needs, exponent of n in the predicted rate)
_RATE_EXPONENTS = {
    "thm31_p_le_2": (("q", "p"), lambda q, p, s: 1.0 / q - 0.5),
    "thm31_p_ge_2": (("q", "p"), lambda q, p, s: 1.0 / q + 1.0 / p - 1.0),
    "lemma41": (("s",), lambda q, p, s: 1.0 / s - 1.0),
    "assertion41": (("q", "p"), lambda q, p, s: 1.0 / q - 1.0 / p),
}
THEOREM_TAGS = tuple(_RATE_EXPONENTS)
QUANTITIES = ("class_sp", "h_functional", "greedy_lp_witness")


def _check_tag(theorem: str, q: float | None, p: float | None, s: float | None) -> None:
    """Raise ValueError on an unknown tag or on a parameter it needs left unset."""
    if theorem not in _RATE_EXPONENTS:
        raise ValueError(f"unknown theorem tag {theorem!r}, expected one of {THEOREM_TAGS}")
    needs = _RATE_EXPONENTS[theorem][0]
    if any({"q": q, "p": p, "s": s}[name] is None for name in needs):
        raise ValueError(f"{theorem} needs {' and '.join(needs)}")


def predicted_rate(theorem: str, n: int, psi: WeightFunction, d: int,
                   q: float | None = None, p: float | None = None,
                   s: float | None = None) -> float:
    """The predicted order at n for one of the tags above.

    Raises
    ------
    ValueError
        On an unknown tag or missing parameters for it.
    FloatingPointError
        If the rate underflows to 0, which would leave computed/predicted
        undefined.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    _check_tag(theorem, q, p, s)
    rate = float(psi(float(n) ** (1.0 / d))) / float(n) ** _RATE_EXPONENTS[theorem][1](q, p, s)
    if rate == 0.0:
        raise FloatingPointError(f"predicted {theorem} rate for {psi.spec_string()} "
                                 f"underflows to 0 at n={n}")
    return rate


def hypotheses_met(theorem: str, psi: WeightFunction, d: int,
                   q: float | None = None, p: float | None = None,
                   s: float | None = None) -> tuple[bool, str]:
    """(met, reason) evidence check for a tag's hypotheses.

    Combines slow-vanishing class evidence, discrete convexity where
    the tag needs it, and the decay-characteristic bound in the
    convention appropriate to the tag.
    """
    _check_tag(theorem, q, p, s)
    if theorem == "lemma41":
        rep = weights.check_class_b(psi)
        if not rep.in_class:
            return False, "weight lacks slow-vanishing class evidence"
        if s > 1.0:
            dec = weights.check_decay_condition(psi, s, d)
            if not dec.satisfied:
                return False, (
                    f"decay condition fails: sup alpha = {dec.alpha_sup:.4g} "
                    f">= {dec.bound:.4g} = s'/d"
                )
        return True, "ok"
    if theorem == "assertion41":
        rep = weights.check_class_b(psi.raised_to(p))
        if not rep.in_class:
            return False, "psi^p lacks slow-vanishing class evidence"
        if p < q:
            dec = weights.check_decay_condition(psi.raised_to(p), q / p, d)
            if not dec.satisfied:
                return False, (
                    f"decay condition fails for psi^p at s=q/p: sup alpha = "
                    f"{dec.alpha_sup:.4g} >= {dec.bound:.4g}"
                )
            if not weights.convexity_evidence(psi.raised_to(p)):
                return False, "psi^p lacks convexity evidence"
        return True, "ok"
    # thm31_p_le_2 and thm31_p_ge_2
    rep = weights.check_class_b(psi)
    if not rep.in_class:
        return False, "weight lacks slow-vanishing class evidence"
    p_prime = p / (p - 1.0) if p > 1 else math.inf
    if p_prime < q:
        thresh = d * (0.5 - 1.0 / q) if theorem == "thm31_p_le_2" else d * (1.0 - 1.0 / p - 1.0 / q)
        dec = weights.check_decay_condition(psi, 2.0, d)  # populate alpha bounds
        inv_alpha = dec.inv_alpha_inf
        if not inv_alpha > thresh:
            return False, (
                f"reciprocal decay bound fails: inf 1/alpha = {inv_alpha:.4g} "
                f"<= {thresh:.4g}"
            )
        if not weights.convexity_evidence(psi):
            return False, "weight lacks convexity evidence"
    return True, "ok"


@dataclass(eq=False)
class RateTable:
    """Computed-vs-predicted values over an n-grid, with metadata."""

    quantity: str
    theorem: str
    n: np.ndarray
    computed: np.ndarray
    predicted: np.ndarray
    metadata: dict = field(default_factory=dict)
    flagged: bool = False

    @property
    def ratio(self) -> np.ndarray:
        return self.computed / self.predicted

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,computed,predicted,ratio\n")
        for n, c, pr, ra in zip(self.n, self.computed, self.predicted, self.ratio):
            buf.write(f"{int(n)},{c:.17g},{pr:.17g},{ra:.17g}\n")
        return buf.getvalue()

    def to_json(self) -> str:
        meta = dict(self.metadata)
        meta.update(quantity=self.quantity, theorem=self.theorem, flagged=self.flagged)
        rows = [
            {"n": int(n), "computed": c, "predicted": pr, "ratio": ra}
            for n, c, pr, ra in zip(self.n, self.computed, self.predicted, self.ratio)
        ]
        return json.dumps({"metadata": meta, "rows": rows}, sort_keys=True)


def ratio_window(table: RateTable) -> tuple[float, float]:
    """(K1, K2) = (min, max) of computed/predicted over the table."""
    r = table.ratio
    if len(r) == 0:
        raise ValueError("empty rate table has no ratio window")
    return float(np.min(r)), float(np.max(r))


def _greedy_witness_error(n: int, q: float, p: float, psi: WeightFunction, d: int,
                          budget: int | None = None) -> float:
    """L_p error of the n-term greedy approximant of the equal-coefficient
    witness on Z^d: the amplitude times the norm of the leftover
    exponential sum."""
    f = extremal_function_f1(n, q, psi, d, budget=budget)
    rest = greedy_order(f)[n:]
    amp = float(f.amplitudes()[0])
    kmax = trig_lp.max_abs_frequency(f)
    g = GridSpec(d=d, N=trig_lp.grid_points(p, kmax, 8 * max(kmax, 1) + 1))
    return amp * trig_lp.exponential_sum_norm(rest, p, g, budget=budget)


def rate_table(
    quantity: str,
    n_grid,
    psi: WeightFunction,
    d: int,
    r: float = math.inf,
    q: float | None = None,
    p: float | None = None,
    s: float | None = None,
    theorem: str | None = None,
    tol: float = DEFAULT_TOL,
    scan_budget: int = DEFAULT_SCAN_BUDGET,
    budget: int | None = None,
) -> RateTable:
    """Build a rate table for one quantity over an n-grid.

    quantity 'class_sp' computes the exact class best n-term error
    (needs q, p; default tag assertion41); 'h_functional' computes
    H_n(rearranged psi, s) (needs s; default tag lemma41);
    'greedy_lp_witness' computes the greedy L_p error of the
    equal-coefficient witness on Z^d (needs q, p; default tag
    thm31_p_ge_2).  Rows come in ascending n.  The two functional
    quantities evaluate the whole grid from one stream of the
    rearranged weight; the witness is built and evaluated per n.
    ``budget`` is the point budget of that stream's shell table and of
    the witness quadrature grids (see :func:`lattice.point_budget`).
    ``tol`` and ``scan_budget`` default to the functionals' own
    defaults and go to every functional evaluation.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}, expected one of {QUANTITIES}")
    n_arr = np.array(sorted(int(v) for v in n_grid), dtype=np.int64)
    if len(n_arr) == 0:
        raise ValueError("empty n grid")
    if quantity == "class_sp":
        if q is None or p is None:
            raise ValueError("class_sp needs q and p")
        theorem = theorem or "assertion41"
        spec = FunctionClassSpec(q=q, r=r, psi=psi, d=d)
        results = class_best_nterm_sp_grid(spec, n_arr, p, tol=tol, scan_budget=scan_budget,
                                           budget=budget)
        computed = np.array([res.value for res in results], dtype=np.float64)
    elif quantity == "h_functional":
        if s is None:
            raise ValueError("h_functional needs s")
        theorem = theorem or "lemma41"
        rw = RearrangedWeight(psi, r, d, budget=budget)
        results = h_functional_grid(rw, n_arr, s, tol=tol, scan_budget=scan_budget)
        computed = np.array([res.value for res in results], dtype=np.float64)
    else:
        if q is None or p is None:
            raise ValueError("greedy_lp_witness needs q and p")
        theorem = theorem or "thm31_p_ge_2"
        computed = np.array([_greedy_witness_error(int(n), q, p, psi, d, budget=budget)
                             for n in n_arr], dtype=np.float64)
    predicted = np.array(
        [predicted_rate(theorem, int(n), psi, d, q=q, p=p, s=s) for n in n_arr],
        dtype=np.float64,
    )
    met, reason = hypotheses_met(theorem, psi, d, q=q, p=p, s=s)
    meta = {
        "psi": psi.spec_string(),
        "d": d,
        "r": "inf" if math.isinf(r) else r,
        "q": q,
        "p": p,
        "s": s,
        "tol": tol,
        "scan_budget": scan_budget,
        "hypotheses_met": met,
        "hypotheses_note": reason,
    }
    return RateTable(
        quantity=quantity,
        theorem=theorem,
        n=n_arr,
        computed=computed,
        predicted=predicted,
        metadata=meta,
        flagged=not met,
    )
