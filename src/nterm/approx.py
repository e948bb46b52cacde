"""Coefficient sequences, greedy approximants, and exact class errors.

A trigonometric polynomial (or absolutely summable series) on the
d-torus is represented by its nonzero Fourier coefficients.  In the
coefficient norm ``sp_norm(f, p) = (sum_k |c_k|^p)^(1/p)`` the best
n-term approximant keeps the n largest amplitudes, so the greedy
remainder is simultaneously the best n-term and the best orthogonal
(kept-coefficient) n-term error.

A function class is the unit ball ``sum_k (|c_k| / psi(|k|_r))^q <= 1``
for a decreasing weight psi.  Its exact best n-term error in the
p-coefficient norm is ``H_n(rearranged psi^p, q/p)^(1/p)``, computed by
:func:`class_best_nterm_sp` (one n) or :func:`class_best_nterm_sp_grid`
(an n-grid, one stream) through the extremal functionals; for
``p < q`` this requires ``sum_k psi(|k|_r)^(pq/(q-p)) < infinity``.

:func:`extremal_function_f1` builds the equal-coefficient witness
supported on an l1 ball whose normalization ``C1(n)`` realizes the
lower-bound order ``psi(n^(1/d)) / n^(1/q)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .functionals import DEFAULT_SCAN_BUDGET, DEFAULT_TOL, FunctionalResult, h_functional_grid
from .weights import RearrangedWeight, WeightFunction


@dataclass(eq=False)
class CoefficientSequence:
    """Sparse complex coefficients indexed by integer multi-indices.

    Entries with amplitude exactly zero are dropped; keys are coerced
    to int tuples of length d.
    """

    d: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for k, v in self.entries.items():
            key = tuple(int(c) for c in k)
            if len(key) != self.d:
                raise ValueError(f"index {key} has length {len(key)}, expected d={self.d}")
            v = complex(v)
            if v != 0:
                clean[key] = v
        self.entries = clean

    def support(self) -> list:
        return sorted(self.entries)

    def to_json(self) -> str:
        items = [
            {"k": list(k), "re": self.entries[k].real, "im": self.entries[k].imag}
            for k in sorted(self.entries)
        ]
        return json.dumps({"d": self.d, "entries": items})

    @classmethod
    def from_json(cls, text: str) -> "CoefficientSequence":
        data = json.loads(text)
        entries = {tuple(e["k"]): complex(e["re"], e["im"]) for e in data["entries"]}
        return cls(d=int(data["d"]), entries=entries)


@dataclass(frozen=True)
class FunctionClassSpec:
    """Unit ball of coefficients weighted by psi(|k|_r) in l_q."""

    q: float
    r: float
    psi: WeightFunction
    d: int

    def __post_init__(self):
        if not self.q > 0:
            raise ValueError(f"need q > 0, got q={self.q}")
        if not (math.isinf(self.r) or self.r > 0):
            raise ValueError(f"need r > 0, got r={self.r}")
        if self.d < 1:
            raise ValueError(f"need d >= 1, got d={self.d}")


def sp_norm(f: CoefficientSequence, p: float) -> float:
    """(sum_k |c_k|^p)^(1/p) over the stored coefficients, p > 0."""
    if not p > 0:
        raise ValueError(f"need p > 0, got p={p}")
    if not f.entries:
        return 0.0
    amps = np.abs(np.fromiter(f.entries.values(), dtype=np.complex128))
    return float(np.sum(amps**p) ** (1.0 / p))


def class_membership_norm(f: CoefficientSequence, spec: FunctionClassSpec) -> float:
    """The weighted coefficient norm (sum_k (|c_k|/psi(|k|_r))^q)^(1/q).

    Values at most 1 certify membership in the class.
    """
    if f.d != spec.d:
        raise ValueError(f"dimension mismatch: f.d={f.d}, spec.d={spec.d}")
    if not f.entries:
        return 0.0
    keys = sorted(f.entries)
    amps = np.array([abs(f.entries[k]) for k in keys])
    norms = np.array([lattice.quasi_norm(k, spec.r) for k in keys], dtype=np.float64)
    w = spec.psi(np.maximum(norms, 1.0))
    return float(np.sum((amps / w) ** spec.q) ** (1.0 / spec.q))


def greedy_order(f: CoefficientSequence) -> list:
    """Indices by descending amplitude; ties by |k|_inf then lexicographic."""
    return sorted(
        f.entries,
        key=lambda k: (-abs(f.entries[k]), max(abs(c) for c in k), k),
    )


def greedy_remainders_sp(f: CoefficientSequence, ns, p: float) -> list[float]:
    """Greedy n-term errors in the p-coefficient norm for each n in ns.

    The greedy approximant keeps the n largest amplitudes, and ties
    among equal amplitudes leave the error unchanged, so one descending
    sort of the amplitudes serves every n: the error at n is
    ``(sum of |c_k|^p past the n largest)^(1/p)``, summed in the same
    order as the entries of :func:`greedy_order`.
    """
    ns = [int(n) for n in ns]
    if any(n < 0 for n in ns):
        raise ValueError(f"need n >= 0, got n={min(ns)}")
    if not p > 0:
        raise ValueError(f"need p > 0, got p={p}")
    amps = -np.sort(-np.array([abs(v) for v in f.entries.values()], dtype=np.float64))
    return [float(np.sum(amps[n:] ** p) ** (1.0 / p)) for n in ns]


def greedy_remainder_sp(f: CoefficientSequence, n: int, p: float) -> float:
    """Error of the n-term greedy approximant in the p-coefficient norm.

    Equal to the exact best n-term (and best orthogonal n-term) error
    in this norm.
    """
    return greedy_remainders_sp(f, [n], p)[0]


def class_best_nterm_sp(
    spec: FunctionClassSpec,
    n: int,
    p: float,
    tol: float = DEFAULT_TOL,
    scan_budget: int = DEFAULT_SCAN_BUDGET,
    budget: int | None = None,
) -> FunctionalResult:
    """Exact best n-term error of the class in the p-coefficient norm.

    The one-n case of :func:`class_best_nterm_sp_grid`.
    """
    return class_best_nterm_sp_grid(spec, [n], p, tol=tol, scan_budget=scan_budget,
                                    budget=budget)[0]


def class_best_nterm_sp_grid(
    spec: FunctionClassSpec,
    ns,
    p: float,
    tol: float = DEFAULT_TOL,
    scan_budget: int = DEFAULT_SCAN_BUDGET,
    budget: int | None = None,
) -> list[FunctionalResult]:
    """Exact best n-term errors of the class at every n of ``ns``.

    Evaluates ``H_n(Psi, q/p)^(1/p)`` for the rearranged weight
    ``Psi = rearrangement of psi(|k|_r)^p`` over one stream of that
    weight (see :func:`functionals.h_functional_grid`); results follow
    the order of ``ns``.  Each result keeps the threshold index / regime
    / tail bound of the underlying functional evaluation.  ``budget`` is
    the point budget of the weight stream's shell table (see
    :func:`lattice.point_budget`).

    Raises
    ------
    DivergentTailError
        When p < q and the convergence condition
        sum_k psi(|k|_r)^(pq/(q-p)) < infinity fails its certification.
    """
    if not p > 0:
        raise ValueError(f"need p > 0, got p={p}")
    rw = RearrangedWeight(spec.psi, spec.r, spec.d, p_power=p, budget=budget)
    return [
        FunctionalResult(
            value=base.value ** (1.0 / p),
            l_star=base.l_star,
            regime=base.regime,
            tail_truncation_error_bound=base.tail_truncation_error_bound,
        )
        for base in h_functional_grid(rw, ns, spec.q / p, tol=tol, scan_budget=scan_budget)
    ]


def extremal_function_f1(n: int, q: float, psi: WeightFunction, d: int) -> CoefficientSequence:
    """Equal-coefficient witness on the l1 ball of radius (2n/M0)^(1/d).

    M0 = 2^d/d! is the l1 growth constant; the common amplitude
    ``C1(n) = (sum_{|k|_1<=R} psi(|k|_1)^(-q))^(-1/q)`` normalizes the
    weighted l_q coefficient norm to exactly 1, so the result lies on
    the class boundary.

    Raises
    ------
    ValueError
        If n is too small for the support radius to reach 1.
    OverflowError
        If ``sum psi^(-q)`` leaves the float range, so that C1 would be 0.
    """
    if not q > 0:
        raise ValueError(f"need q > 0, got q={q}")
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    # largest R with R^d * M0 <= 2n, via exact integer arithmetic:
    # R^d * 2^d <= 2n * d!
    R = int((2.0 * n / (2.0**d / math.factorial(d))) ** (1.0 / d))
    while (R + 1) ** d * 2**d <= 2 * n * math.factorial(d):
        R += 1
    while R >= 1 and R**d * 2**d > 2 * n * math.factorial(d):
        R -= 1
    if R < 1:
        raise ValueError(f"n={n} is too small for a d={d} witness (support radius below 1)")
    sd = lattice.shell_counts(1.0, d, R)
    m = np.arange(R + 1, dtype=np.float64)
    # an overflowing (or underflowed, hence 0^-q) term makes the sum inf and C1 zero
    with np.errstate(over="ignore", divide="ignore"):
        inv_q_sum = float(np.sum(sd.nu * psi(np.maximum(m, 1.0)) ** (-q)))
    c1 = inv_q_sum ** (-1.0 / q)
    if not c1 > 0.0:
        raise OverflowError(f"witness normalization for {psi.spec_string()} at n={n}: "
                            f"sum of psi^-q over the l1 ball leaves the float range")
    entries = {k: complex(c1) for k in lattice.enumerate_ball(R, 1.0, d)}
    return CoefficientSequence(d=d, entries=entries)
