"""Integer lattice geometry: quasi-norms, balls, shells, and growth fits.

Multi-indices are plain tuples of Python ints.  For a radius exponent
``r`` (any positive real, or ``math.inf``) the ball of radius ``m`` is
``{k in Z^d : |k|_r <= m}`` and shell ``m`` collects the points whose
rounded-up quasi-norm equals ``m``.  Cumulative counts ``V_m`` grow like
``M0 * m^d`` with ``M0 = 2^d`` for ``r = inf`` and ``M0 = 2^d / d!`` for
``r = 1``; :func:`fit_growth_bounds` recovers the constants empirically.

Shell counts are exact (integer arithmetic) for ``r in {1, inf}`` at
any d and for ``r = 2`` at ``d <= 2``.  Every other case, ``r = 2`` at
``d >= 3`` included, histograms an enumerated box with a float
quasi-norm and a 1e-9 snap when rounding up to the shell index.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import product

import numpy as np

DEFAULT_POINT_BUDGET = 2**24

_CEIL_SNAP = 1e-9


class BudgetExceededError(RuntimeError):
    """An enumeration or grid would exceed the configured point budget."""


def point_budget(override: int | None = None) -> int:
    """Point budget of lattice enumeration, shell tables and quadrature grids.

    Resolution order: explicit ``override`` argument, then the
    ``NTERM_BUDGET_POINTS`` environment variable, then the module default.
    """
    if override is not None:
        return int(override)
    return int(os.environ.get("NTERM_BUDGET_POINTS", DEFAULT_POINT_BUDGET))


def quasi_norm(k, r) -> float:
    """l_r quasi-norm of an integer multi-index.

    ``(sum_i |k_i|^r)^(1/r)`` for finite ``r > 0`` and ``max_i |k_i|``
    for ``r = inf``.  Exact integer arithmetic for ``r in {1, inf}``
    (the result is then an int).

    Raises
    ------
    ValueError
        If ``r <= 0`` or ``k`` is empty.
    """
    coords = [abs(int(c)) for c in k]
    if not coords:
        raise ValueError("multi-index must have at least one coordinate")
    if math.isinf(r):
        return max(coords)
    r = float(r)
    if r <= 0.0:
        raise ValueError(f"quasi-norm exponent must be positive, got {r}")
    if r == 1.0:
        return sum(coords)
    if r == 2.0:
        return math.sqrt(sum(c * c for c in coords))
    return sum(float(c) ** r for c in coords) ** (1.0 / r)


def shell_index(k, r) -> int:
    """Smallest integer m with |k|_r <= m, i.e. ceil of the quasi-norm.

    Integer-exact for ``r in {1, 2, inf}``; other exponents snap values
    within 1e-9 of an integer downward before taking the ceiling.
    """
    coords = [abs(int(c)) for c in k]
    if math.isinf(r):
        return max(coords)
    if r == 1.0:
        return sum(coords)
    if r == 2.0:
        s = sum(c * c for c in coords)
        root = math.isqrt(s)
        return root if root * root == s else root + 1
    return int(math.ceil(quasi_norm(coords, r) - _CEIL_SNAP))


def enumerate_ball(m: int, r, d: int, budget: int | None = None) -> list[tuple[int, ...]]:
    """All k in Z^d with |k|_r <= m, in lexicographic order.

    Raises
    ------
    BudgetExceededError
        If the bounding box (2m+1)^d exceeds the point budget.
    ValueError
        On m < 0 or d < 1.
    """
    if m < 0:
        raise ValueError(f"radius must be nonnegative, got {m}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    limit = point_budget(budget)
    if (2 * m + 1) ** d > limit:
        raise BudgetExceededError(
            f"ball enumeration needs {(2 * m + 1) ** d} candidate points, budget is {limit}"
        )
    if math.isinf(r):
        return list(product(range(-m, m + 1), repeat=d))
    out = []
    if r == 1.0:
        for k in product(range(-m, m + 1), repeat=d):
            if sum(abs(c) for c in k) <= m:
                out.append(k)
        return out
    if r == 2.0:
        mm = m * m
        for k in product(range(-m, m + 1), repeat=d):
            if sum(c * c for c in k) <= mm:
                out.append(k)
        return out
    rf = float(r)
    cap = float(m) ** rf * (1.0 + 1e-12)
    for k in product(range(-m, m + 1), repeat=d):
        if sum(float(abs(c)) ** rf for c in k) <= cap:
            out.append(k)
    return out


# --- cumulative ball counts -------------------------------------------------

def has_closed_counts(r, d: int) -> bool:
    """True when ball_counts has a non-enumerative formula for (r, d)."""
    return math.isinf(r) or r == 1.0 or (r == 2.0 and d <= 2)


def _binom_poly(m: np.ndarray, i: int) -> np.ndarray:
    # C(m, i) elementwise for m >= 0; zero when m < i.  Each step is the
    # exact C(m, j+1) = C(m, j) (m - j) / (j + 1), so no intermediate
    # exceeds (j + 1) C(m, j + 1) <= V_m.
    out = np.ones_like(m)
    for j in range(i):
        out = out * (m - j) // (j + 1)
    return out


def _counts_l1(m: np.ndarray, d: int) -> np.ndarray:
    total = np.zeros_like(m)
    for i in range(d + 1):
        total = total + (2**i) * math.comb(d, i) * _binom_poly(m, i)
    return total


def _counts_l2_d2(m_max: int) -> np.ndarray:
    # number of (k1, k2) with k1^2 + k2^2 <= m^2, exact via isqrt.  The
    # axes hold 1 + 4m points; each open quadrant holds
    # 2 * sum_{x=1..a} isqrt(m^2 - x^2) - a^2 with a = isqrt(m^2 // 2),
    # the columns x <= a and rows y <= a overlapping in an a-by-a square
    out = np.empty(m_max + 1, dtype=np.int64)
    for m in range(m_max + 1):
        a = math.isqrt(m * m // 2)
        x = np.arange(1, a + 1, dtype=np.int64)
        s = m * m - x * x
        t = np.floor(np.sqrt(s.astype(np.float64))).astype(np.int64)
        # repair float rounding at perfect squares
        t = np.where((t + 1) * (t + 1) <= s, t + 1, t)
        t = np.where(t * t > s, t - 1, t)
        out[m] = 1 + 4 * m + 4 * (2 * int(np.sum(t)) - a * a)
    return out


_INT64_MAX = np.iinfo(np.int64).max


def _count_bound(r, d: int, m: int) -> int:
    # V_m in Python ints for r in {1, inf} and r = 2, d = 1; the bounding
    # cube (2m+1)^d, an upper bound, for r = 2, d = 2
    if r == 1.0:
        return sum(2**i * math.comb(d, i) * math.comb(m, i) for i in range(d + 1))
    return (2 * m + 1) ** d


def _check_int64(r, d: int, m_max: int) -> None:
    """Raise OverflowError when V_{m_max} would not fit in int64."""
    if _count_bound(r, d, m_max) <= _INT64_MAX:
        return
    lo, hi = 0, m_max  # _count_bound(lo) fits, _count_bound(hi) does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _count_bound(r, d, mid) <= _INT64_MAX:
            lo = mid
        else:
            hi = mid
    raise OverflowError(
        f"ball counts for r={r}, d={d} exceed int64 past radius {lo}; requested radius {m_max}"
    )


def ball_counts(r, d: int, m) -> np.ndarray:
    """Cumulative counts V_m = #{k : |k|_r <= m} via closed form.

    Vectorized over ``m`` (nonnegative ints).  Only valid when
    :func:`has_closed_counts` is true for ``(r, d)``.

    Raises
    ------
    OverflowError
        If V_m for the largest requested m does not fit in int64; the
        message names the largest radius that does (for r = 2, d = 2
        the bound is the one of the enclosing cube).
    """
    m_arr = np.asarray(m, dtype=np.int64)
    if has_closed_counts(r, d) and m_arr.size:
        _check_int64(r, d, int(m_arr.max()))
    if math.isinf(r):
        return (2 * m_arr + 1) ** d
    if r == 1.0:
        return _counts_l1(m_arr, d)
    if r == 2.0 and d == 1:
        return 2 * m_arr + 1
    if r == 2.0 and d == 2:
        table = _counts_l2_d2(int(m_arr.max()))
        return table[m_arr]
    raise ValueError(f"no closed-form ball count for r={r}, d={d}")


def _counts_enumerated(r, d: int, m_max: int, budget: int | None) -> np.ndarray:
    limit = point_budget(budget)
    box = (2 * m_max + 1) ** d
    if box > limit:
        raise BudgetExceededError(
            f"shell histogram needs {box} candidate points, budget is {limit}"
        )
    nu = np.zeros(m_max + 1, dtype=np.int64)
    rf = float(r)
    if d == 1:
        nu[0] = 1
        nu[1:] = 2
        return np.cumsum(nu)
    # vectorize over all but the first coordinate
    rest = np.array(
        list(product(range(-m_max, m_max + 1), repeat=d - 1)), dtype=np.int64
    )
    rest_pow = np.abs(rest).astype(np.float64) ** rf
    rest_sum = rest_pow.sum(axis=1)
    for k1 in range(-m_max, m_max + 1):
        norms = (abs(k1) ** rf + rest_sum) ** (1.0 / rf)
        idx = np.ceil(norms - _CEIL_SNAP).astype(np.int64)
        keep = idx <= m_max
        nu += np.bincount(idx[keep], minlength=m_max + 1)
    return np.cumsum(nu)


@dataclass(eq=False)
class ShellDecomposition:
    """Cumulative counts V_m for radii 0..m_max, and shell sizes nu_m.

    ``V[m]`` counts lattice points with shell index at most m and
    ``nu[m]`` those with shell index exactly m; ``V[0] = nu[0] = 1``
    (the origin) and V is strictly increasing.
    """

    r: float
    d: int
    V: np.ndarray

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=np.int64)
        if self.V.ndim != 1 or not self.V.size or self.V[0] != 1:
            raise ValueError("V must be a 1-d array with V[0] = 1 (the origin)")
        if np.any(self.V[1:] <= self.V[:-1]):
            raise ValueError("cumulative counts must be strictly increasing")

    @property
    def nu(self) -> np.ndarray:
        return np.diff(self.V, prepend=0)

    @property
    def m_max(self) -> int:
        return len(self.V) - 1


def shell_counts(r, d: int, m_max: int, budget: int | None = None) -> ShellDecomposition:
    """Shell decomposition of Z^d under |.|_r up to radius m_max.

    Uses closed forms for ``r in {1, inf}`` (any d) and ``r = 2`` with
    ``d <= 2``; other cases enumerate a bounding box under the point
    budget.  The table holds one entry per radius, and its length counts
    against the point budget like enumerated points do.

    Raises
    ------
    BudgetExceededError
        If m_max + 1 entries exceed the point budget, or enumeration is
        required and its box exceeds it.
    OverflowError
        When closed-form counts up to m_max do not fit in int64.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not math.isinf(r) and float(r) <= 0.0:
        raise ValueError(f"radius exponent must be positive, got {r}")
    limit = point_budget(budget)
    if m_max + 1 > limit:
        raise BudgetExceededError(
            f"shell table to radius {m_max} needs {m_max + 1} entries, budget is {limit}"
        )
    if has_closed_counts(r, d):
        V = ball_counts(r, d, np.arange(m_max + 1, dtype=np.int64))
    else:
        V = _counts_enumerated(r, d, m_max, budget)
    return ShellDecomposition(r=float(r) if not math.isinf(r) else math.inf, d=d, V=V)


@dataclass(frozen=True)
class GrowthFit:
    """Result of fitting V_m ~ M0 * m^d with shift allowances c1, c2."""

    M0: float
    c1: float
    c2: float
    ok: bool


def fit_growth_bounds(sd: ShellDecomposition, k0: int = 1, cap: float = 16.0) -> GrowthFit:
    """Empirical growth constants for a shell decomposition.

    Fits ``V_m^(1/d)`` linearly in ``m`` over ``m in (k0, m_max]`` (the
    slope to the d-th power estimates M0, which is exact whenever
    ``V_m^(1/d)`` is affine in m, as for r = inf) and then finds the
    smallest nonnegative shifts with

        M0 * (m - c1)^d < V_m <= M0 * (m + c2)^d

    on the fitted range.  ``ok`` requires both shifts at most ``cap``.

    Raises
    ------
    ValueError
        If fewer than two shells lie in (k0, m_max].
    """
    m = np.arange(sd.m_max + 1, dtype=np.float64)
    mask = m > k0
    if mask.sum() < 2:
        raise ValueError(f"need at least two shells above k0={k0}, have {int(mask.sum())}")
    mm = m[mask]
    roots = sd.V[mask].astype(np.float64) ** (1.0 / sd.d)
    slope, _ = np.polyfit(mm, roots, 1)
    M0 = float(slope) ** sd.d
    radii = (sd.V[mask].astype(np.float64) / M0) ** (1.0 / sd.d)
    c1 = max(0.0, float(np.max(mm - radii)))
    c2 = max(0.0, float(np.max(radii - mm)))
    # the lower bound is strict and both bounds must survive float
    # re-evaluation; nudge the shifts past rounding if needed
    lower = M0 * np.maximum(mm - c1, 0.0) ** sd.d
    if np.any(lower >= sd.V[mask]):
        c1 = c1 + 1e-9 * max(1.0, c1)
    upper = M0 * (mm + c2) ** sd.d
    if np.any(upper < sd.V[mask]):
        c2 = c2 + 1e-9 * max(1.0, c2)
    ok = bool(slope > 0 and c1 <= cap and c2 <= cap)
    return GrowthFit(M0=M0, c1=c1, c2=c2, ok=ok)
