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

:func:`h_functional_grid` evaluates a whole n-grid in one pass over the
sequence; :func:`h_functional` is its one-n case.  The prefix sum
``S(l) = sum_{j<=l} Psi(j)^(-s)`` does not depend on n, and raising n
lowers every q(l), so ``l_star(n)`` is nondecreasing in n: the scan
resolves the thresholds in ascending n as it reaches them.  In the
tail regime each distinct threshold gets its own certified tail sum,
fed from the block in which the threshold resolves; the pass ends when
the last of them is certified.  In the supremum regime each n keeps its
own candidates and stopping envelope, evaluated for all live n at once,
and freezes when its own certification holds.  Either way every n of a
grid gets the value (and bound) of its one-n evaluation, bit for bit.

Sequences enter through one duck-typed protocol: ``iter_blocks()``,
called without arguments, yields ``(boundaries, log_values)`` arrays of
constant-value runs, where boundaries are cumulative positions.  The
functionals call it once per evaluation and stop consuming as soon as
they are done.  ``weights.RearrangedWeight`` implements it shell-wise,
with blocks that start at 16 shells and double up to 4096, so the shell
table grows only as far as a scan reads.

Prefix sums ``S(l)`` are accumulated in the log domain (``logaddexp``),
so fast-decaying weights, where ``Psi(j)^(-s)`` overflows, stay usable;
tail sums of ``Psi^s'`` (bounded positive terms) use compensated
(Kahan) addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SCAN_BUDGET = 1_000_000
DEFAULT_TOL = 1e-9
MAX_DOUBLINGS = 48
_SUP_ROWS = 32  # n values evaluated together by the sup-regime scan


class NoThresholdError(RuntimeError):
    """No finite threshold index (or admissible l) found within the scan budget."""


class DivergentTailError(RuntimeError):
    """The tail sum failed the geometric-decay certification."""


@dataclass(frozen=True)
class FunctionalResult:
    """Value of an extremal functional with evaluation metadata.

    ``l_star`` is the maximizer (sup regime) or threshold index (tail
    regime); absent when the supremum is only approached as a limit
    within the scan budget.  ``tail_truncation_error_bound`` is the
    certified remainder bound of the tail sum (0 in the sup regime).
    A row of :func:`h_functional_grid` equals its one-n evaluation.
    """

    value: float
    l_star: int | None
    regime: str  # 'sup' or 'tail'
    tail_truncation_error_bound: float = 0.0


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


def _log_prefix(carry: float, Vp: np.ndarray, V: np.ndarray, slv: np.ndarray) -> np.ndarray:
    """log S at each boundary of a block, continuing from log S = carry;
    ``slv`` is s times the block's log values."""
    return _acc_log(carry, np.log((V - Vp).astype(np.float64)) - slv)


def _scaled(a: float, lv: np.ndarray, seq, name: str) -> np.ndarray:
    """a * lv for log values of ``seq``.

    Raises OverflowError naming ``seq`` and ``name=a`` when a product
    leaves the float range.  Rounding is monotone, so every product is
    finite exactly when the one of largest magnitude is: one scalar
    check per block, and no warning.  Log values already infinite pass.
    """
    top = float(np.abs(lv).max())
    if math.isinf(a * top) and not math.isinf(top):
        raise OverflowError(f"{name}={a:g} times the log of weight {seq} leaves the float range")
    return a * lv


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
    # the last emitted boundary, then the boundaries and values of the
    # runs still waiting for their successor's value
    V_buf = np.zeros(1, dtype=np.int64)
    lv_buf = np.empty(0, dtype=np.float64)
    for V_arr, lv_arr in seq.iter_blocks():
        V_all = np.concatenate([V_buf, np.asarray(V_arr, dtype=np.int64)])
        lv_all = np.concatenate([lv_buf, np.asarray(lv_arr, dtype=np.float64)])
        if len(lv_all) < 2:
            V_buf, lv_buf = V_all, lv_all
            continue
        yield V_all[:-2], V_all[1:-1], lv_all[:-1], lv_all[1:]
        V_buf, lv_buf = V_all[-2:], lv_all[-1:]


class _Thresholds:
    """Threshold indices of an ascending n-grid, resolved in one scan.

    Fed the lookahead blocks in order; ``l_star[i]`` and ``log_S[i]``
    (log of the prefix sum at it) are valid for ``i < done``.  Since
    the predicate ``q(l) > Psi(l+1)^s`` holding for n implies it for
    every smaller n, the thresholds resolve in ascending n.
    """

    def __init__(self, seq, ns: np.ndarray, s: float, scan_budget: int):
        self.seq = seq
        self.ns = ns
        self.s = s
        self.scan_budget = scan_budget
        self.l_star = np.zeros(len(ns), dtype=np.int64)
        self.log_S = np.zeros(len(ns), dtype=np.float64)
        self.done = 0
        self.carry = -math.inf

    def feed(self, Vp, V, lv, lv_next) -> bool:
        """Scan one block; True once every threshold is resolved."""
        s = self.s
        logS = _log_prefix(self.carry, Vp, V, _scaled(s, lv, self.seq, "s"))
        self.carry = float(logS[-1])
        bar = _scaled(s, lv_next, self.seq, "s") + 1e-10
        while self.done < len(self.ns):
            n = int(self.ns[self.done])
            active = V > n
            if not np.any(active):
                break
            with np.errstate(invalid="ignore"):
                logQ = np.where(active, np.log(np.maximum(V - n, 1).astype(np.float64)), -np.inf) - logS
            hit = np.nonzero(active & (logQ > bar))[0]
            if not len(hit):
                break
            self.l_star[self.done] = V[hit[0]]
            self.log_S[self.done] = logS[hit[0]]
            self.done += 1
        if self.done == len(self.ns):
            return True
        if int(V[-1]) >= self.scan_budget:
            raise NoThresholdError(
                f"no threshold index up to scan budget {self.scan_budget}; "
                "the sequence may not vanish fast enough"
            )
        return False


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
    ValueError
        Unless n >= 0, s is finite and > 0, and scan_budget >= 1.
    NoThresholdError
        If no index up to ``scan_budget`` satisfies the predicate
        (e.g. a sequence that does not vanish).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")
    if not 0.0 < s < math.inf:
        raise ValueError(f"need finite s > 0, got s={s}")
    if scan_budget < 1:
        raise ValueError(f"need scan_budget >= 1, got scan_budget={scan_budget}")
    thresholds = _Thresholds(seq, np.array([int(n)], dtype=np.int64), float(s), scan_budget)
    for block in _blocks_with_lookahead(seq):
        if thresholds.feed(*block):
            return int(thresholds.l_star[0])


def _tail_terms(seq, Vp, V, lv, l: int, s_prime: float) -> np.ndarray:
    """Psi^s' summed over the positions past l of each run of a block."""
    slv = _scaled(s_prime, lv, seq, "s'")
    if Vp[0] >= l:
        take = V - Vp
    else:
        take = np.maximum(V - np.maximum(Vp, l), 0)
        slv = np.where(take > 0, slv, -np.inf)
    with np.errstate(over="raise"):
        try:
            return take * np.exp(slv)
        except FloatingPointError:
            raise DivergentTailError(
                "tail terms overflow the float range; the tail diverges"
            ) from None


class _TailCertifier:
    """Certified sum over j > l of per-run tail terms, fed block by block.

    See :func:`tail_sum` for the dyadic-window rule.  ``total`` and
    ``bound`` are final once :meth:`feed` has returned True.
    """

    def __init__(self, l: int, tol: float):
        self.tol = tol
        self.total = _Kahan()
        self.bound = 0.0
        self.next_cp = 2 * max(l, 8)
        self.window = 0.0  # terms since the last checkpoint
        self.prev_window: float | None = None
        self.prev_ratio: float | None = None
        self.bad = 0
        self.windows = 0

    def feed(self, V: np.ndarray, terms: np.ndarray) -> bool:
        """Add one block of terms (zero before l); True once certified."""
        pos = int(V[-1])
        block_sum = float(terms.sum())
        self.total.add(block_sum)
        if self.next_cp > pos:
            self.window += block_sum
            return False
        start = 0
        while self.next_cp <= pos:
            # next target is twice this boundary, not twice the old
            # target: two targets in one block would make an empty window
            i = int(V.searchsorted(self.next_cp))
            # summed from its own terms: a difference of running totals
            # reads 0 once the terms fall below eps times the total
            window = self.window + float(terms[start : i + 1].sum())
            self.window, start = 0.0, i + 1
            self.windows += 1
            if window == 0.0:
                return True
            if self.prev_window is not None:
                ratio = window / self.prev_window if self.prev_window > 0.0 else math.inf
                if ratio >= 0.999:
                    self.bad += 1
                    if self.bad >= 6:
                        raise DivergentTailError(
                            f"window sums are not decaying (latest ratio {ratio:.6g})"
                        )
                else:
                    self.bad = 0
                if self.prev_ratio is not None:
                    rho = max(self.prev_ratio, ratio)
                    if rho < 0.97:
                        bound = window * rho / (1.0 - rho)
                        if bound <= self.tol * max(self.total.total, 5e-324):
                            self.bound = bound
                            return True
                self.prev_ratio = ratio
            self.prev_window = window
            self.next_cp = 2 * int(V[i])
            if self.windows > MAX_DOUBLINGS:
                raise DivergentTailError(
                    f"tail not certified to tol={self.tol} within {MAX_DOUBLINGS} dyadic windows"
                )
        self.window = float(terms[start:].sum())
        return False


def tail_sum(seq, l: int, s_prime: float, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """(value, bound) with value = sum_{j>l} Psi(j)^s' truncated so that
    the certified remainder is at most ``bound <= tol * value``.

    Certification samples sums over index windows that at least double:
    each window ends on the first block boundary at or past twice the
    previous end, so no window is empty.  Once the window ratio rho
    stays below 1 the remainder is bounded by the
    geometric series ``B * rho / (1 - rho)``.  Terms are accumulated
    largest-first (the sequence is nonincreasing) with compensated
    addition.  The tail regime of :func:`h_functional_grid` runs the
    same certification inside its threshold scan.

    Raises
    ------
    DivergentTailError
        When window sums stop decaying (divergent tail) or the bound
        cannot reach ``tol`` within ``MAX_DOUBLINGS`` windows.
    """
    if l < 0:
        raise ValueError(f"need l >= 0, got l={l}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"need finite tol > 0, got tol={tol}")
    cert = _TailCertifier(int(l), tol)
    for Vp, V, lv, _ in _blocks_with_lookahead(seq):
        if cert.feed(V, _tail_terms(seq, Vp, V, lv, int(l), s_prime)):
            return cert.total.total, cert.bound


def h_functional(
    seq,
    n: int,
    s: float,
    tol: float = DEFAULT_TOL,
    scan_budget: int = DEFAULT_SCAN_BUDGET,
) -> FunctionalResult:
    """H_n(Psi, s) for a nonincreasing positive sequence.

    The one-n case of :func:`h_functional_grid`, which documents the
    two regimes and the errors raised.
    """
    return h_functional_grid(seq, [n], s, tol=tol, scan_budget=scan_budget)[0]


def h_functional_grid(
    seq,
    ns,
    s: float,
    tol: float = DEFAULT_TOL,
    scan_budget: int = DEFAULT_SCAN_BUDGET,
) -> list[FunctionalResult]:
    """H_n(Psi, s) at every n of ``ns``, from one pass over the sequence.

    Results follow the order of ``ns``; repeated values are allowed.
    Each result, tail bound included, is bit for bit the one-n result
    :func:`h_functional` returns, so a value never depends on which
    other n share the call.

    For ``s <= 1`` the supremum of h(l) = (l-n)(sum_{j<=l} Psi^(-s))^(-1/s)
    over l > n, with a certified stopping rule; when the scan budget is
    exhausted without certification (a supremum approached only in the
    limit, e.g. constant Psi at s = 1) the value at the budget is
    returned with ``l_star = None``.

    For ``s > 1`` the closed two-term form at the threshold index, with
    the certified tail sum past that n's threshold; requires
    sum_j Psi(j)^s' < infinity.

    Raises
    ------
    ValueError
        Unless every n >= 0, s is finite and > 0, tol is finite and > 0,
        and scan_budget >= 1.
    NoThresholdError
        When some n has no threshold index (s > 1) or no admissible
        l > n (s <= 1) within the scan budget.
    DivergentTailError
        From the tail certification (s > 1).
    """
    ns = [int(n) for n in ns]
    if any(n < 0 for n in ns):
        raise ValueError(f"need n >= 0, got n={min(ns)}")
    if not 0.0 < s < math.inf:
        raise ValueError(f"need finite s > 0, got s={s}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"need finite tol > 0, got tol={tol}")
    if scan_budget < 1:
        raise ValueError(f"need scan_budget >= 1, got scan_budget={scan_budget}")
    if not ns:
        return []
    grid = np.unique(np.array(ns, dtype=np.int64))
    if s > 1.0:
        results = _h_tail_regime(seq, grid, float(s), tol, scan_budget)
    else:
        results = _h_sup_regime(seq, grid, float(s), scan_budget)
    by_n = dict(zip(grid.tolist(), results))
    return [by_n[n] for n in ns]


def _h_tail_regime(seq, ns, s, tol, scan_budget) -> list[FunctionalResult]:
    s_prime = s / (s - 1.0)
    thresholds = _Thresholds(seq, ns, s, scan_budget)
    certs: dict[int, _TailCertifier] = {}  # one per distinct threshold
    live: list[int] = []  # ascending thresholds whose tail is not yet certified
    for Vp, V, lv, lv_next in _blocks_with_lookahead(seq):
        if thresholds.done < len(ns):
            done = thresholds.done
            thresholds.feed(Vp, V, lv, lv_next)
            for l in thresholds.l_star[done : thresholds.done].tolist():
                if l not in certs:
                    certs[l] = _TailCertifier(l, tol)
                    live.append(l)
        if live:
            # the terms past the smallest live threshold serve every
            # certifier; one whose threshold lies inside the block drops
            # the runs before it, as its one-n evaluation does
            terms = _tail_terms(seq, Vp, V, lv, live[0], s_prime)
            live = [l for l in live
                    if not certs[l].feed(V, terms if l <= Vp[0] else np.where(Vp >= l, terms, 0.0))]
        if not live and thresholds.done == len(ns):
            break
    results = []
    for n, l_star, log_S in zip(ns.tolist(), thresholds.l_star.tolist(), thresholds.log_S.tolist()):
        cert = certs[l_star]
        head_log = s_prime * math.log(l_star - n) - (s_prime / s) * log_S
        tail_log = math.log(cert.total.total) if cert.total.total > 0.0 else -math.inf
        value = math.exp(np.logaddexp(head_log, tail_log) / s_prime)
        results.append(FunctionalResult(
            value=value, l_star=l_star, regime="tail", tail_truncation_error_bound=cert.bound
        ))
    return results


def _h_sup_regime(seq, ns, s, scan_budget) -> list[FunctionalResult]:
    k = len(ns)
    best_log = np.full(k, -math.inf)
    best_l = np.full(k, -1, dtype=np.int64)
    certified = np.zeros(k, dtype=bool)
    live = np.arange(k)
    carry = -math.inf
    for Vp, V, lv, lv_next in _blocks_with_lookahead(seq):
        # s <= 1 here, so s * lv stays in the float range
        logS = _log_prefix(carry, Vp, V, s * lv)
        logS_prev = np.concatenate(([carry], logS[:-1]))
        carry = float(logS[-1])
        # n at or past the block's last boundary has nothing to do here;
        # bounded row chunks keep the (rows x runs) arrays small
        busy = live[ns[live] < V[-1]]
        for i in range(0, len(busy), _SUP_ROWS):
            rows = busy[i : i + _SUP_ROWS]
            top, top_l, envelope = _sup_block(ns[rows], s, Vp, V, lv, lv_next, logS, logS_prev)
            better = top > best_log[rows]
            best_log[rows[better]] = top[better]
            best_l[rows[better]] = top_l[better]
            certified[rows[envelope <= best_log[rows]]] = True
        live = live[~certified[live]]
        if not len(live) or int(V[-1]) >= scan_budget:
            break

    if np.any(best_l < 0):
        n = int(ns[np.argmax(best_l < 0)])
        raise NoThresholdError(f"no admissible l > n = {n} within the scan budget {scan_budget}")
    return [
        FunctionalResult(
            value=math.exp(b),
            l_star=int(l) if c else None,
            regime="sup",
            tail_truncation_error_bound=0.0,
        )
        for b, l, c in zip(best_log.tolist(), best_l.tolist(), certified.tolist())
    ]


def _sup_block(ns, s, Vp, V, lv, lv_next, logS, logS_prev):
    """Best candidate of h and the stopping envelope within one block.

    Returns, per n, the largest log h among the block's candidates
    (boundaries, the left edge of the admissible range and the integer
    neighbours of the interior maximizer; the first maximum in
    (candidate, run) order), its position, and the smallest bound on
    log h beyond any boundary.  Every array is (n) x (runs), and each
    row is computed exactly as a one-n evaluation computes it.
    """
    inv_s = 1.0 / s
    logw = -s * lv
    logw_next = -s * lv_next
    n_col = ns[:, None]
    nf = n_col.astype(np.float64)
    active = V > n_col
    Vf = V.astype(np.float64)
    Vpf = Vp.astype(np.float64)
    shape = active.shape
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        g_bnd = np.where(active, np.log(np.maximum(Vf - nf, 1.0)), -np.inf) - inv_s * logS
        cand_logs = [np.where(active, g_bnd, -np.inf)]
        cand_pos = [np.broadcast_to(Vf, shape)]
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

        stacked = np.stack(cand_logs, axis=1).reshape(len(ns), -1)
        flat = np.argmax(stacked, axis=1)[:, None]
        top = np.take_along_axis(stacked, flat, axis=1)[:, 0]
        positions = np.stack(cand_pos, axis=1).reshape(len(ns), -1)
        top_l = np.take_along_axis(positions, flat, axis=1)[:, 0].astype(np.int64)

        # stopping envelope for everything beyond each boundary
        if s == 1.0:
            logB = np.broadcast_to(-logw_next, shape)
        else:
            logA2 = _logsub(logS, np.log(np.maximum(Vf - nf, 1.0)) + logw_next)
            log_u2 = math.log(s) + logA2 - math.log1p(-s) - logw_next
            u2 = np.exp(log_u2)
            interior = np.isfinite(logA2) & (u2 > Vf - nf)
            logB = np.where(
                interior, log_u2 - inv_s * (logA2 - math.log1p(-s)), g_bnd
            )
        logB = np.where(active, logB, math.inf)
    return top, top_l, np.min(logB, axis=1)
