import math
from itertools import product

import numpy as np
import pytest

from nterm.approx import CoefficientSequence
from nterm.lattice import ball_volume, shell_index
from nterm.weights import RearrangedWeight


def coeffs(d: int, mapping: dict) -> CoefficientSequence:
    """The sequence with coefficient ``mapping[k]`` at each index k."""
    return CoefficientSequence(d, list(mapping), list(mapping.values()))


def as_dict(f: CoefficientSequence) -> dict:
    """``{index tuple: coefficient}`` of the stored (nonzero) coefficients."""
    return dict(zip(map(tuple, f.keys.tolist()), f.values.tolist()))


def ball_by_points(r, d: int, m: int) -> list[tuple[int, ...]]:
    """Points k of [-m, m]^d with shell_index(k, r) <= m, in lexicographic order.

    A pure-Python oracle: one shell_index call per box point.
    """
    return [k for k in product(range(-m, m + 1), repeat=d) if shell_index(k, r) <= m]


def shell_sizes_by_points(r, d: int, m: int) -> list[int]:
    """nu_0..nu_m of Z^d under |.|_r: one shell_index call per point of [-m, m]^d."""
    nu = [0] * (m + 1)
    for k in product(range(-m, m + 1), repeat=d):
        i = shell_index(k, r)
        if i <= m:
            nu[i] += 1
    return nu


def count_bracket(r, d: int, m: int) -> tuple[float, float]:
    """Proven bounds ``lo <= V_m <= hi`` on the counts of Z^d under |.|_r.

    With M0 the unit-ball volume, t = min(r, 1) and rho = d^(1/r)/2 (1/2
    at r = inf) the l_r norm of a unit cube's half-diagonal:

        M0 * max(m^t - rho^t, 0)^(d/t) <= V_m <= M0 * (m^t + rho^t)^(d/t).

    The unit cubes centred on the counted points are disjoint; they
    cover the ball of the lower radius and lie inside that of the upper
    one, since |x + y|_r <= |x|_r + |y|_r for r >= 1 and
    |x + y|_r^r <= |x|_r^r + |y|_r^r for r < 1.  A non-integer r counts
    points up to m + 1e-9 (the shell-index snap), which is then the
    upper radius.  Both ends are rounded outward by one ulp, which keeps
    the top exact at r = inf, where it equals V_m.
    """
    M0 = ball_volume(r, d)
    t = min(r, 1.0)
    rho = 0.5 if math.isinf(r) else d ** (1.0 / r) / 2.0
    top = m if math.isinf(r) or float(r).is_integer() else m + 1e-9
    lo = M0 * max(m**t - rho**t, 0.0) ** (d / t)
    hi = M0 * (top**t + rho**t) ** (d / t)
    return math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)


class ExplicitSequence:
    """Adapter turning a vectorized callable j -> Psi(j) into a sequence.

    ``fn`` must accept an int64 ndarray and return positive values; an
    optional ``log_fn`` supplies log Psi directly for values far below
    the float range.  ``iter_blocks()`` yields runs of length one, 4096
    per block.
    """

    def __init__(self, fn, log_fn=None):
        self.fn = fn
        self.log_fn = log_fn

    def iter_blocks(self):
        j0 = 1
        while True:
            j_arr = np.arange(j0, j0 + 4096, dtype=np.int64)
            if self.log_fn is not None:
                lv = self.log_fn(j_arr)
            else:
                lv = np.log(np.asarray(self.fn(j_arr), dtype=np.float64))
            yield j_arr, np.asarray(lv, dtype=np.float64)
            j0 += 4096


def stream_runs(seq, upto: int):
    """(run ordinal, log value) at positions 1..upto, read from iter_blocks().

    For a rearranged weight the run ordinal is the shell index m.
    """
    bounds, logs = [], []
    for V, lv in seq.iter_blocks():
        bounds.append(np.asarray(V, dtype=np.int64))
        logs.append(np.asarray(lv, dtype=np.float64))
        if bounds[-1][-1] >= upto:
            break
    runs = np.searchsorted(np.concatenate(bounds), np.arange(1, upto + 1), side="left")
    return runs, np.concatenate(logs)[runs]


@pytest.fixture
def stream_count(monkeypatch):
    """Counts RearrangedWeight.iter_blocks() calls: one per stream."""
    calls = []
    original = RearrangedWeight.iter_blocks

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RearrangedWeight, "iter_blocks", counted)
    return calls
