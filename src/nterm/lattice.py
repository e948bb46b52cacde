"""Integer lattice geometry: quasi-norms, balls, shells, and their growth.

Multi-indices are plain tuples of Python ints.  For a radius exponent
``r`` (any positive real, or ``math.inf``) the ball of radius ``m`` is
``{k in Z^d : |k|_r <= m}`` and shell ``m`` collects the points whose
rounded-up quasi-norm equals ``m``.  A shell table is the int64 array of
cumulative counts ``V_0..V_m``; it grows like ``M0 * m^d`` with ``M0``
the volume of the unit l_r ball (:func:`ball_volume`).

Shell counts are exact for ``r in {1, inf}`` at any d, for every r at
``d = 1`` (``V_m = 2m + 1``) and for ``r = 2`` at ``d = 2``.  The last
sums ``isqrt(m^2 - x^2)`` over columns as ``floor(sqrt(.))`` in float64,
exact for integers below 2^50, so radii stop below 2^25.  Every other
case, ``r = 2`` at ``d >= 3`` included, histograms the orthant
``[0, m]^d`` with a float quasi-norm and a 1e-9 snap when rounding up to
the shell index, each point counted with its 2^(nonzero coordinates)
sign copies.  :func:`shell_index` is that rule for one point, and
:func:`enumerate_ball` decides ball membership by it.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_POINT_BUDGET = 2**24

_CEIL_SNAP = 1e-9

# points (or radius-column pairs) per vectorized block of a shell table
_BLOCK_POINTS = 2**15

# r = 2, d = 2 counts take float square roots of integers below m^2 < 2^50
_L2_EXACT_RADIUS = 2**25


class BudgetExceededError(RuntimeError):
    """An enumeration or grid would exceed the configured point budget."""


def point_budget(override: int | None = None) -> int:
    """Point budget of lattice enumeration, shell tables and quadrature grids:
    ``override`` when given, else the module default."""
    return DEFAULT_POINT_BUDGET if override is None else int(override)


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

    Integer-exact for ``r in {1, 2, inf}`` and for points with at most
    one nonzero coordinate; other points snap values within 1e-9 of an
    integer downward before taking the ceiling.
    """
    coords = [abs(int(c)) for c in k]
    if math.isinf(r) or sum(map(bool, coords)) <= 1:  # an axis point: its coordinate, for every r
        return max(coords)
    if r == 1.0:
        return sum(coords)
    if r == 2.0:
        s = sum(c * c for c in coords)
        root = math.isqrt(s)
        return root if root * root == s else root + 1
    return int(math.ceil(quasi_norm(coords, r) - _CEIL_SNAP))


def ball_volume(r, d: int) -> float:
    """Volume ``(2 Gamma(1 + 1/r))^d / Gamma(1 + d/r)`` of the unit l_r ball in R^d.

    The growth constant M0 of the counts, ``V_m ~ M0 * m^d``; exact at
    ``r = inf`` and d = 1.  OverflowError, naming r and d, when it is not
    a positive normal float (it underflows for r < 0.00195 at d = 2).
    """
    # log(volume / 2^d) = j ln 2 + a rest in [0, ln 2), so exp stays in range
    log_rest = d * math.lgamma(1.0 + 1.0 / r) - math.lgamma(1.0 + d / r)
    try:
        j = math.floor(log_rest / math.log(2.0))
        volume = math.ldexp(math.exp(log_rest - j * math.log(2.0)), d + j)
    except (OverflowError, ValueError):  # an infinite or nan log, or past ldexp's range
        volume = 0.0
    if volume < 2.0**-1022:  # the smallest normal float
        raise OverflowError(f"unit l_r ball volume for r={r}, d={d} is not a positive normal float")
    return volume


def _power_bound(m: int, r: float) -> float:
    # largest float S with ceil(S ** (1/r) - snap) <= m: shell_index's
    # ball boundary moved to the power domain (pow is monotone), so that
    # the ball is the points whose sum of |k_i|^r is at most this bound
    def inside(s: float) -> bool:
        try:
            return math.ceil(s ** (1.0 / r) - _CEIL_SNAP) <= m
        except OverflowError:  # a root past the float range is past m
            return False

    s = (m + _CEIL_SNAP) ** r
    while not inside(s):
        s = math.nextafter(s, 0.0)
    while inside(math.nextafter(s, math.inf)):
        s = math.nextafter(s, math.inf)
    return s


def enumerate_ball(m: int, r, d: int, budget: int | None = None) -> list[tuple[int, ...]]:
    """All k in Z^d with |k|_r <= m, in lexicographic order.

    Membership is ``shell_index(k, r) <= m``, the rule the shell counts
    use, so the ball holds exactly ``V_m`` points.  It is decided for
    the whole box at once: in integers for ``r in {1, 2, inf}`` and at
    d = 1, and otherwise by comparing the sum of ``|k_i|^r`` (the terms
    and coordinate order of :func:`shell_index`) with the largest sum
    whose snapped ceiling of the root is at most m, with about 9 bytes
    of scratch per box point.

    Raises
    ------
    BudgetExceededError
        If the bounding box (2m+1)^d exceeds the point budget.
    OverflowError, FloatingPointError
        Where :func:`shell_counts` raises them for the same r, d and
        radius: m^r leaves the float range, or float rounding moves an
        axis point off its shell.
    ValueError
        On m < 0, d < 1 or r <= 0.
    """
    if m < 0:
        raise ValueError(f"radius must be nonnegative, got {m}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not math.isinf(r) and float(r) <= 0.0:
        raise ValueError(f"radius exponent must be positive, got {r}")
    limit = point_budget(budget)
    if (2 * m + 1) ** d > limit:
        raise BudgetExceededError(
            f"ball enumeration needs {(2 * m + 1) ** d} candidate points, budget is {limit}"
        )
    # per-coordinate terms combined over the box by broadcasting, one
    # coordinate after the other, so the flat C order is lexicographic
    c = np.abs(np.arange(-m, m + 1, dtype=np.int64))
    if math.isinf(r) or d == 1:  # at d = 1 the ball is {-m, ..., m} for every r
        terms, combine, bound = c, np.maximum, m
    elif r in (1.0, 2.0):
        terms, combine, bound = c ** int(r), np.add, m ** int(r)
    else:
        terms, combine, bound = _axis_powers(r, d, m)[0][c], np.add, _power_bound(m, float(r))
    total = terms
    for _ in range(1, d):
        total = combine.outer(total, terms)
    inside = np.flatnonzero(total <= bound)
    points = np.stack(np.unravel_index(inside, total.shape), axis=1) - m
    return list(map(tuple, points.tolist()))


# --- cumulative ball counts -------------------------------------------------

def has_closed_counts(r, d: int) -> bool:
    """True when ball_counts has a non-enumerative formula for (r, d).

    At d = 1 the ball of radius m is {-m, ..., m} for every r.
    """
    return d == 1 or math.isinf(r) or r == 1.0 or (r == 2.0 and d == 2)


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
    # number of (k1, k2) with k1^2 + k2^2 <= m^2: the axes hold 1 + 4m
    # points and each open quadrant sum_{x=1..m} isqrt(m^2 - x^2), taken
    # for a block of radii at once as floor(sqrt(.)) in float64, where
    # squares, roots and row sums are exact integers while m < 2^25
    m = np.arange(m_max + 1, dtype=np.int64)
    mf = m.astype(np.float64)
    out = 1 + 4 * m
    rows = max(1, _BLOCK_POINTS // max(m_max, 1))
    for lo in range(1, m_max + 1, rows):
        radii = mf[lo:lo + rows, None]
        s = np.maximum(radii * radii - mf[1:lo + len(radii)] ** 2, 0.0)
        out[lo:lo + len(radii)] += 4 * np.floor(np.sqrt(s)).sum(axis=1).astype(np.int64)
    return out


_INT64_MAX = np.iinfo(np.int64).max


def _count_bound(r, d: int, m: int) -> int:
    # V_m in Python ints for r in {1, inf} and for every r at d = 1; the
    # bounding cube (2m+1)^d, an upper bound, for r = 2, d = 2
    if r == 1.0:
        return sum(2**i * math.comb(d, i) * math.comb(m, i) for i in range(d + 1))
    return (2 * m + 1) ** d


def _check_closed_range(r, d: int, m_max: int) -> None:
    """Raise OverflowError when V_{m_max} would not fit in int64, or for
    r = 2, d = 2 when m_max is past the float column sums' exact range."""
    if _count_bound(r, d, m_max) > _INT64_MAX:
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
    if r == 2.0 and d == 2 and m_max >= _L2_EXACT_RADIUS:
        raise OverflowError(
            f"r=2, d=2 ball counts are exact only below radius {_L2_EXACT_RADIUS}; "
            f"requested radius {m_max}"
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
        the bound is the one of the enclosing cube).  For r = 2, d = 2
        also past radius 2^25 - 1, where the float column sums stop
        being exact; the message names the requested radius.
    """
    m_arr = np.asarray(m, dtype=np.int64)
    if has_closed_counts(r, d) and m_arr.size:
        _check_closed_range(r, d, int(m_arr.max()))
    if math.isinf(r):
        return (2 * m_arr + 1) ** d
    if r == 1.0:
        return _counts_l1(m_arr, d)
    if d == 1:
        return 2 * m_arr + 1
    if r == 2.0 and d == 2:
        table = _counts_l2_d2(int(m_arr.max()))
        return table[m_arr]
    raise ValueError(f"no closed-form ball count for r={r}, d={d}")


def _axis_powers(r, d: int, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """k^r for k = 0..m_max by Python's float pow and by numpy's (which may
    differ in the last bit), once float rounding is seen to leave every
    axis point k on shell k under both: FloatingPointError when it does
    not (r near 0), OverflowError when m_max^r leaves the float range."""
    rf = float(r)
    try:
        first = np.array([k ** rf for k in range(m_max + 1)])
    except OverflowError:
        raise OverflowError(f"shell table for r={r}, d={d}: radius {m_max} raised to r "
                            f"leaves the float range") from None
    axis = np.arange(m_max + 1, dtype=np.int64)
    powers = axis.astype(np.float64) ** rf
    with np.errstate(over="ignore"):
        for along in (first, powers):
            off = np.flatnonzero(np.ceil(along ** (1.0 / rf) - _CEIL_SNAP) != axis)
            if off.size:
                raise FloatingPointError(f"shell table for r={r}, d={d}: float rounding moves "
                                         f"the axis point at radius {off[0]} off its shell")
    return first, powers


def _counts_enumerated(r, d: int, m_max: int, budget: int | None) -> np.ndarray:
    limit = point_budget(budget)
    box = (2 * m_max + 1) ** d
    if box > limit:
        raise BudgetExceededError(
            f"shell histogram needs {box} candidate points, budget is {limit}"
        )
    rf = float(r)
    # |k1|^r by Python's float pow, the others' by numpy's: the frozen
    # per-point sums of these tables
    first, powers = _axis_powers(r, d, m_max)
    axis = np.arange(m_max + 1, dtype=np.int64)
    # the orthant [0, m_max]^d, each point weighted by its 2^(nonzero
    # coordinates) sign copies; per point |k1|^r plus the sum of the
    # other coordinates' powers, blocks of k1 rows at a time
    rest = np.stack(np.meshgrid(*[axis] * (d - 1), indexing="ij"), axis=-1).reshape(-1, d - 1)
    rest_copies = 2.0 ** np.count_nonzero(rest, axis=1)
    first_copies = np.where(axis > 0, 2.0, 1.0)
    nu = np.zeros(m_max + 2, dtype=np.int64)
    rows = max(1, _BLOCK_POINTS // len(rest))
    # an off-axis sum or root past the float range is a shell past m_max
    with np.errstate(over="ignore"):
        rest_sum = powers[rest].sum(axis=1)
        for lo in range(0, m_max + 1, rows):
            norms = (first[lo:lo + rows, None] + rest_sum) ** (1.0 / rf)
            # shells past m_max share one overflow bin, dropped below
            idx = np.minimum(np.ceil(norms - _CEIL_SNAP), m_max + 1).astype(np.int64)
            copies = first_copies[lo:lo + rows, None] * rest_copies
            # a block's weighted counts stay far below 2^53: exact float sums
            nu += np.bincount(idx.ravel(), weights=copies.ravel(), minlength=m_max + 2).astype(np.int64)
    return np.cumsum(nu[:-1])


def shell_counts(r, d: int, m_max: int, budget: int | None = None) -> np.ndarray:
    """Cumulative counts V_0..V_{m_max} of Z^d under |.|_r, as int64.

    ``V[0] = 1`` (the origin), V increases strictly, and the shell sizes
    are ``np.diff(V, prepend=0)``.  Closed forms cover ``r in {1, inf}``,
    every r at ``d = 1`` and ``r = 2`` at ``d = 2`` (exact below radius
    2^25); other cases histogram the orthant ``[0, m_max]^d`` with sign
    multiplicities, in blocks of at most 2^15 points, while the box
    ``(2 m_max + 1)^d`` fits the point budget.  The table's length
    counts against the point budget like enumerated points do.

    Raises
    ------
    BudgetExceededError
        If m_max + 1 entries exceed the point budget, or enumeration is
        required and its box exceeds it.
    OverflowError
        When closed-form counts up to m_max do not fit in int64, for
        r = 2, d = 2 past radius 2^25 - 1, or when m_max^r leaves the
        float range.
    FloatingPointError
        When float rounding (r near 0) moves points off their shells.
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
        _check_closed_range(r, d, m_max)  # before the radii are allocated
        V = ball_counts(r, d, np.arange(m_max + 1, dtype=np.int64))
    else:
        V = _counts_enumerated(r, d, m_max, budget)
    if V[0] != 1 or np.any(V[1:] <= V[:-1]):
        raise FloatingPointError(f"shell counts for r={r}, d={d} to radius {m_max} do not start "
                                 f"at 1 and increase strictly")
    return V
