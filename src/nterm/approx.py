"""Coefficient sequences, greedy approximants, and exact class errors.

A trigonometric polynomial (or absolutely summable series) on the
d-torus is represented by its nonzero Fourier coefficients, held in two
arrays: ``keys``, the (m, d) int64 multi-indices in lexicographic
order, and ``values``, their complex128 coefficients.  In the
coefficient norm ``sp_norm(f, p) = (sum_k |c_k|^p)^(1/p)`` the best
n-term approximant keeps the n largest amplitudes, so the greedy
remainder is simultaneously the best n-term and the best orthogonal
(kept-coefficient) n-term error.

:func:`greedy_order` ranks the indices by descending amplitude, ties by
``|k|_inf`` and then lexicographically: one stable sort of the stored
(lexicographic) keys.  Amplitudes come from ``np.hypot`` of the real
and imaginary parts, which equals Python's ``abs(complex)`` bit for
bit, so the order and the remainders match a per-term Python sort.

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

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import lattice
from .functionals import DEFAULT_SCAN_BUDGET, DEFAULT_TOL, FunctionalResult, h_functional_grid
from .weights import RearrangedWeight, WeightFunction


_KMAX = 2**63 - 1  # largest |k_i|: every index and |k|_inf fit int64


def _index_problem(k, d: int) -> str | None:
    """Why k is not a multi-index of d integers of magnitude at most _KMAX."""
    try:
        comps = list(k)
    except TypeError:
        return "index is not a list"
    if len(comps) != d:
        return f"index has length {len(comps)}, expected d={d}"
    for c in comps:
        v = int(c) if isinstance(c, (float, np.floating)) and float(c).is_integer() else c
        if not isinstance(v, (int, np.integer)) or not -_KMAX <= v <= _KMAX:
            return f"index component {c!r} is not an integer in [-(2**63 - 1), 2**63 - 1]"
    return None


def _index_array(raw, d: int) -> np.ndarray:
    """The (m, d) int64 array of the multi-indices in ``raw``.

    Integers and integral floats are accepted; a ValueError names the
    first entry that is not d integers of magnitude at most 2**63 - 1.
    """
    m = len(raw)
    if m == 0:
        return np.empty((0, d), dtype=np.int64)
    try:
        arr = np.array(raw)
    except (TypeError, ValueError):  # ragged
        arr = None
    if arr is not None and arr.shape == (m, d) and arr.dtype.kind == "i" and arr.min() >= -_KMAX:
        return arr.astype(np.int64, copy=False)
    # anything else (integral floats, ints past int64, bad entries) goes
    # entry by entry, converting each component exactly
    for i, k in enumerate(raw):
        problem = _index_problem(k, d)
        if problem:
            raise ValueError(f"coefficient entry {i} (k={_shown(k)}): {problem}")
    return np.array([[int(c) for c in k] for k in raw], dtype=np.int64)


def _shown(k) -> str:
    return repr(k.tolist() if isinstance(k, np.ndarray) else k)


def _real_column(col: list, name: str) -> np.ndarray:
    """``col`` (JSON numbers) as float64; ValueError naming the first non-number."""
    try:
        arr = np.array(col)
    except ValueError:  # ragged
        arr = None
    if arr is not None and arr.dtype.kind in "iuf" and arr.shape == (len(col),):
        return arr.astype(np.float64, copy=False)
    for i, v in enumerate(col):
        try:
            ok = isinstance(v, (int, float)) and math.isfinite(v)
        except OverflowError:  # an int beyond the float range
            ok = False
        if not ok:
            raise ValueError(f"coefficient entry {i}: {name}={v!r} is not a finite number")
    return np.array(col, dtype=np.float64)


class _Entries(Mapping):
    """Read-only dict view ``index tuple -> coefficient`` of a sequence.

    ``len`` reads the array length; the dict itself is built on first
    lookup or iteration.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        self._keys = keys
        self._values = values
        self._dict = None

    def _as_dict(self) -> dict:
        if self._dict is None:
            self._dict = dict(zip(map(tuple, self._keys.tolist()), self._values.tolist()))
        return self._dict

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, k):
        return self._as_dict()[k]

    def __iter__(self):
        return iter(self._as_dict())


class CoefficientSequence:
    """Sparse complex coefficients indexed by integer multi-indices.

    Stored as two arrays: ``keys``, the (m, d) int64 indices in
    lexicographic order, and ``values``, their complex128 coefficients.
    ``entries`` is a read-only dict view of the same data.  Coefficients
    exactly zero are dropped.  A ValueError names the offending entry
    when an index is not d integers of magnitude at most 2**63 - 1
    (integral floats and numpy integers are accepted), when a
    coefficient is not finite, or when an index repeats.
    """

    def __init__(self, d: int, entries: Mapping | None = None):
        entries = {} if entries is None else entries
        values = np.fromiter((complex(v) for v in entries.values()), np.complex128, len(entries))
        self._set(d, list(entries), values)

    @classmethod
    def from_arrays(cls, d: int, keys, values) -> "CoefficientSequence":
        """The sequence with coefficient ``values[i]`` at index ``keys[i]``."""
        f = cls.__new__(cls)
        f._set(d, keys, np.asarray(values, dtype=np.complex128))
        return f

    def _set(self, d: int, raw_keys, values: np.ndarray) -> None:
        if d < 1:
            raise ValueError(f"need d >= 1, got d={d}")
        if len(raw_keys) != len(values):
            raise ValueError(f"{len(raw_keys)} indices for {len(values)} coefficients")
        keys = _index_array(raw_keys, d)
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            i = int(bad[0])
            raise ValueError(f"coefficient entry {i} (k={_shown(raw_keys[i])}): "
                             f"coefficient {complex(values[i])} is not finite")
        order = np.lexsort(keys.T[::-1])
        keys, values = keys[order], values[order]
        dup = np.flatnonzero((keys[1:] == keys[:-1]).all(axis=1))
        if len(dup):
            j = int(dup[0])
            raise ValueError(f"coefficient entries {order[j]} and {order[j + 1]} "
                             f"repeat the index {keys[j].tolist()}")
        nonzero = values != 0
        self.d = d
        self.keys = keys[nonzero]
        self.values = values[nonzero]
        self.keys.flags.writeable = self.values.flags.writeable = False

    @functools.cached_property
    def entries(self) -> Mapping:
        return _Entries(self.keys, self.values)

    def support(self) -> list:
        return [tuple(k) for k in self.keys.tolist()]

    def amplitudes(self) -> np.ndarray:
        """|c_k| in key order, bit for bit Python's ``abs(complex)``."""
        return np.hypot(self.values.real, self.values.imag)

    def to_json(self) -> str:
        items = [
            {"k": k, "re": re, "im": im}
            for k, re, im in zip(self.keys.tolist(), self.values.real.tolist(),
                                 self.values.imag.tolist())
        ]
        return json.dumps({"d": self.d, "entries": items})

    @classmethod
    def from_json(cls, text: str) -> "CoefficientSequence":
        data = json.loads(text)
        items = data["entries"]
        values = np.empty(len(items), dtype=np.complex128)
        values.real = _real_column([e["re"] for e in items], "re")
        values.imag = _real_column([e["im"] for e in items], "im")
        return cls.from_arrays(int(data["d"]), [e["k"] for e in items], values)


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
    if not len(f.values):
        return 0.0
    return float(np.sum(np.abs(f.values) ** p) ** (1.0 / p))


def class_membership_norm(f: CoefficientSequence, spec: FunctionClassSpec) -> float:
    """The weighted coefficient norm (sum_k (|c_k|/psi(|k|_r))^q)^(1/q).

    Values at most 1 certify membership in the class.
    """
    if f.d != spec.d:
        raise ValueError(f"dimension mismatch: f.d={f.d}, spec.d={spec.d}")
    if not len(f.values):
        return 0.0
    norms = np.array([lattice.quasi_norm(k, spec.r) for k in f.keys.tolist()], dtype=np.float64)
    w = spec.psi(np.maximum(norms, 1.0))
    return float(np.sum((f.amplitudes() / w) ** spec.q) ** (1.0 / spec.q))


def greedy_order(f: CoefficientSequence) -> np.ndarray:
    """Indices by descending amplitude; ties by |k|_inf then lexicographic.

    An (m, d) int64 array.  The keys are stored in lexicographic order,
    so one stable sort by (-amplitude, |k|_inf) leaves the remaining
    ties in that order.
    """
    return f.keys[np.lexsort((np.abs(f.keys).max(axis=1), -f.amplitudes()))]


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
    amps = -np.sort(-f.amplitudes())
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
    keys = lattice.enumerate_ball(R, 1.0, d)
    return CoefficientSequence.from_arrays(d, keys, np.full(len(keys), c1))
