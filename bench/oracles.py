"""Brute-force reference values for the benchmark's output checks.

Nothing here imports nterm.  Each oracle recomputes a quantity from its
definition by a different route than the package takes:

* class errors and H_n: enumerate the lattice out to a fixed shell, give
  each point the value ``psi(m)^p`` at its shell index ``m = ceil(|k|_r)``
  (the package's definition of the rearranged weight), sort, and
  evaluate the functional at every position with cumulative sums;
* shell counts: histogram of exact shell indices over a whole box;
* L_4 norms of unit exponential sums: the additive energy
  ``#{k1 + k2 = k3 + k4}``, counted in integers;
* greedy remainders: a plain sort of the amplitudes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SNAP = 1e-9


def parse_psi(spec: str) -> tuple[str, dict]:
    family, _, rest = spec.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        key, _, val = item.partition("=")
        params[key] = float(val)
    return family, params


def log_psi(spec: str, t: np.ndarray) -> np.ndarray:
    """log psi(t) with psi(0) read as psi(1), for the families the benchmark uses."""
    family, par = parse_psi(spec)
    t = np.maximum(np.asarray(t, dtype=np.float64), 1.0)
    if family == "power":
        return -par["s"] * np.log(t)
    if family == "powerlog":
        return -par["s"] * np.log(t) + par["eps"] * np.log(np.log(t + math.e))
    if family == "exp":
        return -t * math.log(par["R"])
    raise ValueError(f"no oracle for weight family {family!r}")


def orthant_points(d: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Points of [0, M]^d and how many sign copies in [-M, M]^d each stands for."""
    axes = np.arange(M + 1, dtype=np.int64)
    grid = np.meshgrid(*([axes] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grid], axis=1)
    return pts, 2 ** np.count_nonzero(pts, axis=1)


def _int_root_ceil(n: np.ndarray, r: int) -> np.ndarray:
    """Smallest integer m with m^r >= n, exact for int64 n."""
    m = np.ceil(n.astype(np.float64) ** (1.0 / r)).astype(np.int64)
    m = np.where(m**r < n, m + 1, m)
    return np.where((m > 0) & ((m - 1) ** r >= n), m - 1, m)


def shell_indices(pts: np.ndarray, r: float) -> np.ndarray:
    """ceil(|k|_r) per point; integer-exact for r in {1, 2, 3, inf}."""
    a = np.abs(pts)
    if math.isinf(r):
        return a.max(axis=1)
    if r == 1.0:
        return a.sum(axis=1)
    if r in (2.0, 3.0):
        return _int_root_ceil((a ** int(r)).sum(axis=1), int(r))
    norms = (a.astype(np.float64) ** r).sum(axis=1) ** (1.0 / r)
    return np.ceil(norms - _SNAP).astype(np.int64)


@functools.lru_cache(maxsize=None)
def shell_histogram(r: float, d: int, M: int) -> np.ndarray:
    """nu_m = #{k in Z^d : ceil(|k|_r) = m}, m = 0..M, by enumerating [-M, M]^d.

    Every norm here is symmetric under sign changes, so only the orthant
    [0, M]^d is visited, one slice k_1 = x at a time to bound memory, and
    each point is counted with its number of sign copies.
    """
    if d == 1:
        pts, copies = orthant_points(1, M)
        return np.bincount(shell_indices(pts, r), weights=copies).astype(np.int64)
    rest, copies = orthant_points(d - 1, M)
    hist = np.zeros(M + 1)
    for x in range(M + 1):
        idx = shell_indices(np.column_stack([np.full(len(rest), x), rest]), r)
        keep = idx <= M
        hist += (1 if x == 0 else 2) * np.bincount(idx[keep], weights=copies[keep], minlength=M + 1)
    return hist.astype(np.int64)  # counts far below 2^53: the float sums are exact


class RearrangedOracle:
    """The nonincreasing rearrangement of psi(shell index)^p_power over Z^d.

    Lattice points are enumerated out to shell M and grouped by shell
    (points of one shell share a value); the shells are sorted by value.
    The first ``head`` positions are expanded one value per position, and
    the remaining shells up to M enter tail sums with their multiplicity.
    """

    def __init__(self, psi: str, r: float, d: int, p_power: float, M: int, head: int = 200_000):
        nu = shell_histogram(r, d, M)
        lv = p_power * log_psi(psi, np.arange(M + 1))
        order = np.argsort(-lv, kind="stable")
        lv, nu = lv[order], nu[order]
        k = int(np.searchsorted(np.cumsum(nu), head, side="right"))
        self.log_vals = np.repeat(lv[:k], nu[:k])
        filled = nu[k:] > 0
        self.rest_log = lv[k:][filled]
        self.rest_log_nu = np.log(nu[k:][filled])
        self._log_prefix: dict[float, np.ndarray] = {}

    def h(self, n: int, s: float) -> float:
        """H_n(Psi, s) evaluated from the definition over every head position."""
        L = len(self.log_vals)
        if s not in self._log_prefix:  # log sum_{j<=l} Psi^-s, shared by every n
            self._log_prefix[s] = np.logaddexp.accumulate(-s * self.log_vals)
        logS = self._log_prefix[s]
        l = np.arange(1, L + 1, dtype=np.float64)
        live = l > n
        if s <= 1.0:
            log_h = np.full(L, -np.inf)
            log_h[live] = np.log(l[live] - n) - logS[live] / s
            best = int(np.argmax(log_h))
            if best > L // 4:
                raise ValueError(f"oracle head too short: maximizer at {best + 1} of {L}")
            return float(math.exp(log_h[best]))
        log_q = np.full(L, -np.inf)
        log_q[live] = np.log(l[live] - n) - logS[live]
        top = float(log_q.max())
        l_star = int(np.nonzero(log_q >= top - 1e-12)[0][-1]) + 1
        if l_star > L // 4:
            raise ValueError(f"oracle head too short: threshold at {l_star} of {L}")
        s_prime = s / (s - 1.0)
        head = s_prime * math.log(l_star - n) - (s_prime / s) * float(logS[l_star - 1])
        tail = np.logaddexp.reduce(np.concatenate([
            s_prime * self.log_vals[l_star:], s_prime * self.rest_log + self.rest_log_nu]))
        return float(math.exp(np.logaddexp(head, tail) / s_prime))


def additive_energy(points: np.ndarray) -> int:
    """#{(a, b, c, e) in G^4 : a + b = c + e} for distinct integer points G."""
    pts = np.asarray(points, dtype=np.int64).reshape(len(points), -1)
    lo = pts.min(axis=0)
    span = 2 * (pts.max(axis=0) - lo) + 1
    shifted = pts - lo
    # encode each pairwise sum as one integer (mixed radix over coordinates)
    code = np.zeros(len(pts) ** 2, dtype=np.int64)
    for axis in range(pts.shape[1]):
        sums = (shifted[:, axis][:, None] + shifted[:, axis][None, :]).ravel()
        code = code * int(span[axis]) + sums
    counts = np.bincount(code) if code.max() < 50_000_000 else np.unique(code, return_counts=True)[1]
    return int(np.sum(counts.astype(np.int64) ** 2))


def greedy_remainders(amplitudes: np.ndarray, ns, p: float) -> list[float]:
    """(sum of the smallest len-n amplitudes^p)^(1/p) for each n."""
    a = np.sort(np.abs(amplitudes))  # ascending: the remainder keeps a prefix
    out = []
    for n in ns:
        rest = a[: max(len(a) - n, 0)]
        out.append(float(np.sum(rest**p) ** (1.0 / p)) if len(rest) else 0.0)
    return out
