"""Extremal functionals over nonincreasing positive sequences.

For a nonincreasing positive step sequence ``Psi(j)``, ``j = 1, 2, ...``
(typically a rearranged weight) and parameters ``n >= 0``, ``s > 0``,
this module computes

    h(l)   = (l - n) * (sum_{j<=l} Psi(j)^(-s))^(-1/s),      l > n,
    q(l)   = (l - n) / sum_{j<=l} Psi(j)^(-s),

the threshold index ``l_star`` (last maximizer of q; for vanishing Psi
it is the first l with ``q(l) > Psi(l+1)^s`` and always falls on a step
boundary), geometric-decay-certified tail sums, and the functional

    H_n(Psi, s) = sup_{l>n} h(l)                                (s <= 1)
    H_n(Psi, s) = ((l*-n)^s' * (sum_{j<=l*} Psi^(-s))^(-s'/s)
                  + sum_{j>l*} Psi(j)^s')^(1/s'),  s' = s/(s-1)  (s > 1).

The q sequence is nondecreasing up to l_star and strictly decreasing
after it, which makes the threshold scan and the certified stopping
rule of the supremum search exact rather than heuristic: within a step
block h is unimodal with a closed-form interior maximizer, and the
envelope obtained by freezing the next block's value bounds everything
beyond the current boundary.

Sequences enter through a small duck-typed protocol: ``value(j)``,
``values(j_array)``, ``log_value(j)``, ``log_values(j_array)`` and
``iter_blocks()`` yielding ``(boundaries, log_values)`` arrays of
constant-value runs; the functionals call ``iter_blocks()`` without
arguments and stop consuming as soon as they are done.
``weights.RearrangedWeight`` implements it shell-wise, with blocks that
start at 16 shells and double up to 4096, so the shell table grows only
as far as a scan reads; :class:`ExplicitSequence` wraps an arbitrary
callable with runs of length one.

Accumulation is linear with compensated (Kahan) block sums while the
magnitudes stay inside the float range and switches to log-domain
``logaddexp`` accumulation beyond it, so fast-decaying weights (where
``Psi(j)^(-s)`` overflows) stay usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_CHUNK = 4096
DEFAULT_SCAN_BUDGET = 1_000_000


class NoThresholdError(RuntimeError):
    """No finite threshold index found within the scan budget."""


class DivergentTailError(RuntimeError):
    """The tail sum failed the geometric-decay certification."""


@dataclass(frozen=True)
class FunctionalResult:
    """Value of an extremal functional with evaluation metadata.

    ``l_star`` is the maximizer (sup regime) or threshold index (tail
    regime); absent when the supremum is only approached as a limit
    within the scan budget.  ``tail_truncation_error_bound`` is the
    certified remainder bound of the tail sum (0 in the sup regime).
    """

    value: float
    l_star: int | None
    regime: str  # 'sup' or 'tail'
    tail_truncation_error_bound: float = 0.0


class ExplicitSequence:
    """Adapter turning a vectorized callable j -> Psi(j) into a sequence.

    ``fn`` must accept an int64 ndarray and return positive values; an
    optional ``log_fn`` supplies log Psi directly for values far below
    the float range.
    """

    def __init__(self, fn: Callable, log_fn: Callable | None = None):
        self.fn = fn
        self.log_fn = log_fn

    def values(self, j) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(j, dtype=np.int64)), dtype=np.float64)

    def value(self, j) -> float:
        return float(self.values(j))

    def log_values(self, j) -> np.ndarray:
        j_arr = np.asarray(j, dtype=np.int64)
        if self.log_fn is not None:
            return np.asarray(self.log_fn(j_arr), dtype=np.float64)
        return np.log(self.values(j_arr))

    def log_value(self, j) -> float:
        return float(self.log_values(j))

    def iter_blocks(self, chunk: int = _CHUNK):
        j0 = 1
        while True:
            j_arr = np.arange(j0, j0 + chunk, dtype=np.int64)
            yield j_arr, self.log_values(j_arr)
            j0 += chunk


class _Kahan:
    """Compensated scalar accumulator (error O(eps) per added term)."""

    __slots__ = ("total", "comp")

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, x: float) -> None:
        y = x - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


def _acc_log(carry: float, terms: np.ndarray) -> np.ndarray:
    """Running logaddexp of carry followed by terms (length of terms)."""
    return np.logaddexp.accumulate(np.concatenate(([carry], terms)))[1:]


def _logsub(a, b):
    """Elementwise log(e^a - e^b); -inf where the difference is <= 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        diff = b - a
        out = a + np.log1p(-np.exp(diff))
        return np.where(diff < 0, out, -np.inf)


def _blocks_with_lookahead(seq):
    """Yield (prev_boundary, boundary, logval, next_logval) block arrays.

    Emission of each block is deferred until the next block's value is
    known (needed by threshold predicates and stopping envelopes).
    """
    pend_V = np.empty(0, dtype=np.int64)
    pend_lv = np.empty(0, dtype=np.float64)
    prev_boundary = 0
    for V_arr, lv_arr in seq.iter_blocks():
        V_all = np.concatenate([pend_V, np.asarray(V_arr, dtype=np.int64)])
        lv_all = np.concatenate([pend_lv, np.asarray(lv_arr, dtype=np.float64)])
        if len(V_all) < 2:
            pend_V, pend_lv = V_all, lv_all
            continue
        V_emit = V_all[:-1]
        lv_emit = lv_all[:-1]
        lv_next = lv_all[1:]
        Vp_emit = np.concatenate(([prev_boundary], V_emit[:-1]))
        yield Vp_emit, V_emit, lv_emit, lv_next
        prev_boundary = int(V_emit[-1])
        pend_V, pend_lv = V_all[-1:], lv_all[-1:]


def _prefix_sums(seq, l: int, s: float) -> tuple[float | None, float]:
    """(linear, log) of sum_{j<=l} Psi(j)^(-s); linear is None on overflow."""
    kah = _Kahan()
    lin_ok = True
    log_total = -math.inf
    pos = 0
    for V_arr, lv_arr in seq.iter_blocks():
        V_arr = np.asarray(V_arr, dtype=np.int64)
        Vp = np.concatenate(([pos], V_arr[:-1]))
        take = np.minimum(V_arr, l) - Vp
        valid = take > 0
        if np.any(valid):
            t_log = np.log(take[valid].astype(np.float64)) - s * lv_arr[valid]
            log_total = np.logaddexp(log_total, np.logaddexp.reduce(t_log))
            if lin_ok:
                with np.errstate(over="ignore"):
                    chunk_sum = float(np.sum(np.exp(-s * lv_arr[valid]) * take[valid]))
                if math.isfinite(chunk_sum):
                    kah.add(chunk_sum)
                else:
                    lin_ok = False
        pos = int(V_arr[-1])
        if pos >= l:
            break
    return (kah.total if lin_ok else None, float(log_total))


def q_n(seq, n: int, l: int, s: float) -> float:
    """(l - n) / sum_{j<=l} Psi(j)^(-s).

    Accumulates block-by-block with compensated addition, switching to
    log-domain accumulation when the partial sums leave the float range.

    Raises
    ------
    ValueError
        Unless 0 <= n < l and s > 0.
    """
    if n < 0 or l <= n:
        raise ValueError(f"need 0 <= n < l, got n={n}, l={l}")
    if not s > 0:
        raise ValueError(f"need s > 0, got s={s}")
    lin, log_total = _prefix_sums(seq, int(l), float(s))
    if lin is not None and lin > 0.0:
        return (l - n) / lin
    return math.exp(math.log(l - n) - log_total)


def find_l_star(seq, n: int, s: float, scan_budget: int = DEFAULT_SCAN_BUDGET) -> int:
    """Threshold index: the last maximizer of l -> q(l) over l > n.

    Equivalently the first l with ``q(l) > Psi(l+1)^s`` (the predicate
    is monotone, false before the threshold and true from it on, and
    the tie rule 'equal q values resolve to the larger index' is built
    into the strict inequality).  For step sequences the result falls
    on a block boundary, so only boundaries are tested.  Exceedance is
    required beyond a relative margin of 1e-10 so that exact ties stay
    on the right branch despite accumulated-sum rounding.

    Raises
    ------
    NoThresholdError
        If no index up to ``scan_budget`` satisfies the predicate
        (e.g. a sequence that does not vanish).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if not s > 0:
        raise ValueError(f"need s > 0, got s={s}")
    carry = -math.inf
    for Vp, V, lv, lv_next in _blocks_with_lookahead(seq):
        nu = (V - Vp).astype(np.float64)
        logS = _acc_log(carry, np.log(nu) - s * lv)
        carry = float(logS[-1])
        active = V > n
        if np.any(active):
            with np.errstate(invalid="ignore"):
                logQ = np.where(active, np.log(np.maximum(V - n, 1).astype(np.float64)), -np.inf) - logS
            hit = np.nonzero(active & (logQ > s * lv_next + 1e-10))[0]
            if len(hit):
                return int(V[hit[0]])
        if int(V[-1]) >= scan_budget:
            raise NoThresholdError(
                f"no threshold index up to scan budget {scan_budget}; "
                "the sequence may not vanish fast enough"
            )


def tail_sum(
    seq,
    l: int,
    s_prime: float,
    tol: float = 1e-9,
    max_doublings: int = 48,
) -> tuple[float, float]:
    """(value, bound) with value = sum_{j>l} Psi(j)^s' truncated so that
    the certified remainder is at most ``bound <= tol * value``.

    Certification samples sums over index windows that at least double:
    each window ends on the first block boundary at or past twice the
    previous end, so no window is empty.  Once the window ratio rho
    stays below 1 the remainder is bounded by the
    geometric series ``B * rho / (1 - rho)``.  Terms are accumulated
    largest-first (the sequence is nonincreasing) with compensated
    addition.

    Raises
    ------
    DivergentTailError
        When window sums stop decaying (divergent tail) or the bound
        cannot reach ``tol`` within ``max_doublings`` windows.
    """
    if l < 0:
        raise ValueError(f"need l >= 0, got l={l}")
    total = _Kahan()
    pos = 0
    next_cp = 2 * max(l, 8)
    carry_cum = 0.0
    last_cp_cum = 0.0
    prev_window: float | None = None
    ratios: list[float] = []
    bad = 0
    windows = 0
    for V_arr, lv_arr in seq.iter_blocks():
        V_arr = np.asarray(V_arr, dtype=np.int64)
        Vp = np.concatenate(([pos], V_arr[:-1]))
        pos = int(V_arr[-1])
        start = np.maximum(Vp, l)
        take = np.maximum(V_arr - start, 0)
        with np.errstate(over="raise"):
            try:
                terms = take * np.exp(s_prime * lv_arr)
            except FloatingPointError:
                raise DivergentTailError(
                    "tail terms overflow the float range; the tail diverges"
                ) from None
        total.add(float(np.sum(terms)))
        cums = carry_cum + np.cumsum(terms)
        while next_cp <= pos:
            # next target is twice this boundary, not twice the old
            # target: two targets in one block would make an empty window
            i = int(np.searchsorted(V_arr, next_cp, side="left"))
            cp_cum = float(cums[i])
            window = cp_cum - last_cp_cum
            last_cp_cum = cp_cum
            windows += 1
            if prev_window is not None:
                if window == 0.0:
                    return total.total, 0.0
                ratio = window / prev_window if prev_window > 0.0 else math.inf
                ratios.append(ratio)
                if ratio >= 0.999:
                    bad += 1
                    if bad >= 6:
                        raise DivergentTailError(
                            f"window sums are not decaying (latest ratio {ratio:.6g})"
                        )
                else:
                    bad = 0
                if len(ratios) >= 2:
                    rho = max(ratios[-2:])
                    if rho < 0.97:
                        bound = window * rho / (1.0 - rho)
                        if bound <= tol * max(total.total, 5e-324):
                            return total.total, bound
            elif window == 0.0:
                return total.total, 0.0
            prev_window = window
            next_cp = 2 * int(V_arr[i])
            if windows > max_doublings:
                raise DivergentTailError(
                    f"tail not certified to tol={tol} within {max_doublings} dyadic windows"
                )
        carry_cum = float(cums[-1])


def h_functional(
    seq,
    n: int,
    s: float,
    tol: float = 1e-9,
    scan_budget: int = DEFAULT_SCAN_BUDGET,
) -> FunctionalResult:
    """H_n(Psi, s) for a nonincreasing positive sequence.

    For ``s <= 1`` the supremum of h(l) = (l-n)(sum_{j<=l} Psi^(-s))^(-1/s)
    over l > n, with a certified stopping rule; when the scan budget is
    exhausted without certification (a supremum approached only in the
    limit, e.g. constant Psi at s = 1) the value at the budget is
    returned with ``l_star = None``.

    For ``s > 1`` the closed two-term form at the threshold index, with
    the certified tail sum; requires sum_j Psi(j)^s' < infinity.

    Raises
    ------
    ValueError
        Unless n >= 0 and s > 0.
    NoThresholdError, DivergentTailError
        Propagated from the threshold scan / tail certification (s > 1).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if not s > 0:
        raise ValueError(f"need s > 0, got s={s}")
    if s > 1.0:
        return _h_tail_regime(seq, int(n), float(s), tol, scan_budget)
    return _h_sup_regime(seq, int(n), float(s), scan_budget)


def _h_tail_regime(seq, n, s, tol, scan_budget) -> FunctionalResult:
    s_prime = s / (s - 1.0)
    l_star = find_l_star(seq, n, s, scan_budget)
    lin, logS = _prefix_sums(seq, l_star, s)
    head_log = s_prime * math.log(l_star - n) - (s_prime / s) * logS
    tail, bound = tail_sum(seq, l_star, s_prime, tol)
    tail_log = math.log(tail) if tail > 0.0 else -math.inf
    value = math.exp(np.logaddexp(head_log, tail_log) / s_prime)
    return FunctionalResult(
        value=value, l_star=l_star, regime="tail", tail_truncation_error_bound=bound
    )


def _h_sup_regime(seq, n, s, scan_budget) -> FunctionalResult:
    inv_s = 1.0 / s
    best_log = -math.inf
    best_l = None
    certified = False
    carry = -math.inf
    nf = float(n)
    for Vp, V, lv, lv_next in _blocks_with_lookahead(seq):
        nu = (V - Vp).astype(np.float64)
        logw = -s * lv
        logw_next = -s * lv_next
        logS = _acc_log(carry, np.log(nu) + logw)
        logS_prev = np.concatenate(([carry], logS[:-1]))
        carry = float(logS[-1])

        active = V > n
        Vf = V.astype(np.float64)
        Vpf = Vp.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            g_bnd = np.where(active, np.log(np.maximum(Vf - nf, 1.0)), -np.inf) - inv_s * logS
            cand_logs = [np.where(active, g_bnd, -np.inf)]
            cand_pos = [Vf]
            if s < 1.0:
                # left edge of the admissible range within the block
                l1 = np.maximum(Vpf, nf) + 1.0
                in_block = active & (l1 <= Vf)
                logS_l1 = np.logaddexp(logS_prev, np.log(np.maximum(l1 - Vpf, 1.0)) + logw)
                g_l1 = np.where(in_block, np.log(np.maximum(l1 - nf, 1.0)) - inv_s * logS_l1, -np.inf)
                cand_logs.append(g_l1)
                cand_pos.append(l1)
                # interior maximizer u* = s A / ((1-s) w), A = S_prev + (n - Vp) w
                gap = nf - Vpf
                log_gap_w = np.where(gap != 0.0, np.log(np.abs(gap)) + logw, -np.inf)
                logA = np.where(
                    gap > 0.0,
                    np.logaddexp(logS_prev, log_gap_w),
                    np.where(gap < 0.0, _logsub(logS_prev, log_gap_w), logS_prev),
                )
                log_u = math.log(s) + logA - math.log1p(-s) - logw
                u_star = np.exp(log_u)
                base = np.floor(nf + u_star)
                for lc in (base, base + 1.0):
                    lc = np.clip(lc, l1, Vf)
                    okc = active & np.isfinite(logA) & (lc > nf) & (lc <= Vf)
                    logS_c = np.logaddexp(logS_prev, np.log(np.maximum(lc - Vpf, 1.0)) + logw)
                    g_c = np.where(okc, np.log(np.maximum(lc - nf, 1.0)) - inv_s * logS_c, -np.inf)
                    cand_logs.append(g_c)
                    cand_pos.append(lc)

            stacked = np.stack(cand_logs)
            flat = int(np.argmax(stacked))
            if stacked.flat[flat] > best_log:
                best_log = float(stacked.flat[flat])
                best_l = int(np.stack(cand_pos).flat[flat])

            # stopping envelope for everything beyond each boundary
            if s == 1.0:
                logB = -logw_next
            else:
                logA2 = _logsub(logS, np.log(np.maximum(Vf - nf, 1.0)) + logw_next)
                log_u2 = math.log(s) + logA2 - math.log1p(-s) - logw_next
                u2 = np.exp(log_u2)
                interior = np.isfinite(logA2) & (u2 > Vf - nf)
                logB = np.where(
                    interior, log_u2 - inv_s * (logA2 - math.log1p(-s)), g_bnd
                )
            logB = np.where(active, logB, math.inf)

        if np.min(logB) <= best_log:
            certified = True
            break
        if int(V[-1]) >= scan_budget:
            break

    if best_l is None:
        raise ValueError(f"no admissible l > n = {n} within the scan budget {scan_budget}")
    return FunctionalResult(
        value=math.exp(best_log),
        l_star=best_l if certified else None,
        regime="sup",
        tail_truncation_error_bound=0.0,
    )
