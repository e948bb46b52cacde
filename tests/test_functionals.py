import math

import mpmath
import numpy as np
import pytest
from conftest import stream_runs
from hypothesis import given, settings
from hypothesis import strategies as st

from nterm.functionals import (
    DivergentTailError,
    ExplicitSequence,
    NoThresholdError,
    find_l_star,
    h_functional,
    h_functional_grid,
    tail_sum,
)
from nterm.weights import RearrangedWeight, WeightFunction


def geometric(base: float) -> ExplicitSequence:
    return ExplicitSequence(lambda j: base ** j, log_fn=lambda j: j * math.log(base))


def power_seq(sigma: float) -> ExplicitSequence:
    return ExplicitSequence(lambda j: j ** -sigma, log_fn=lambda j: -sigma * np.log(j))


def test_find_l_star_tie_goes_right():
    seq = ExplicitSequence(lambda j: np.where(np.asarray(j) <= 2, 1.0, 1e-6))
    # Q(1) = 1 equals Psi^s(2) = 1: the strict rule moves past the tie
    assert find_l_star(seq, 0, 2.0) == 2


def test_find_l_star_frozen():
    assert find_l_star(geometric(0.5), 1, 2.0) == 2


def _scan_oracle(values: np.ndarray, n: int, s: float) -> int:
    # full-scan argmax of log Q over (n, L], ties resolved to the right
    L = len(values)
    l = np.arange(n + 1, L + 1, dtype=np.float64)
    log_terms = -s * np.log(values)
    log_S = np.logaddexp.accumulate(log_terms)[n:]
    logq = np.log(l - n) - log_S
    best = np.max(logq)
    idx = np.nonzero(logq >= best - 1e-12)[0]
    return int(l[idx[-1]])


def test_find_l_star_matches_full_scan():
    rng = np.random.default_rng(11)
    for _ in range(40):
        sigma = float(rng.uniform(0.5, 3.0))
        n = int(rng.integers(1, 30))
        s = float(rng.uniform(1.1, 4.0))
        values = (np.arange(1, 4001, dtype=np.float64)) ** -sigma
        seq = ExplicitSequence(lambda j, sig=sigma: np.asarray(j, dtype=float) ** -sig)
        got = find_l_star(seq, n, s, scan_budget=4000)
        want = _scan_oracle(values, n, s)
        assert got == want


def test_find_l_star_no_threshold():
    ones = ExplicitSequence(lambda j: np.ones_like(np.asarray(j, dtype=float)))
    with pytest.raises(NoThresholdError):
        find_l_star(ones, 0, 2.0, scan_budget=5000)


def test_tail_sum_geometric():
    value, bound = tail_sum(geometric(0.5), 0, 1.0)
    assert value == pytest.approx(1.0, rel=1e-12)
    assert bound <= 1e-9 * value
    value2, _ = tail_sum(geometric(0.5), 2, 1.0)
    assert value2 == pytest.approx(0.25, rel=1e-12)


def test_tail_sum_zeta_oracle():
    # sum_{j>2} j^-2 with mpmath zeta as the oracle; the certified
    # remainder for so slow a tail forces a loose tolerance
    want = float(mpmath.zeta(2) - 1 - mpmath.mpf(1) / 4)
    value, bound = tail_sum(power_seq(1.0), 2, 2.0, tol=2e-5)
    assert bound <= 2e-5 * value
    assert abs(value - want) <= bound + 1e-13 * want


def test_tail_sum_rearranged_zeta():
    # d = 1, r = inf, psi = t^-2: the rearranged sequence repeats m^-2
    # twice per shell, so sum_{j>3} of its square is 2 (zeta(4) - 1)
    rw = RearrangedWeight(WeightFunction("power", s=2.0), math.inf, 1)
    value, bound = tail_sum(rw, 3, 2.0, tol=1e-10)
    want = float(2 * (mpmath.zeta(4) - 1))
    assert value == pytest.approx(want, rel=1e-9)


def test_tail_bound_covers_remainder_at_tight_tol():
    # at tol = 1e-15 the windows fall below eps times the running total;
    # each is summed from its own terms, so the bound stays positive
    value, bound = tail_sum(power_seq(4.0), 10, 1.0, tol=1e-15)
    with mpmath.workdps(40):
        remainder = float(mpmath.zeta(4, 11) - mpmath.mpf(value))
    assert bound >= remainder > 0.0


def test_tol_and_s_must_be_finite_and_positive():
    seq = power_seq(2.0)
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol > 0"):
            tail_sum(seq, 3, 1.0, tol=tol)
        for s in (0.5, 2.0):
            with pytest.raises(ValueError, match="tol > 0"):
                h_functional_grid(seq, [1, 4], s, tol=tol)
    for s in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="s > 0"):
            h_functional(seq, 1, s)


def test_tail_sum_divergent():
    with pytest.raises(DivergentTailError):
        tail_sum(power_seq(1.0), 1, 1.0, max_doublings=24)    # harmonic
    ones = ExplicitSequence(lambda j: np.ones_like(np.asarray(j, dtype=float)))
    with pytest.raises(DivergentTailError):
        tail_sum(ones, 1, 2.0, max_doublings=24)


def test_h_constant_budget_limit():
    ones = ExplicitSequence(lambda j: np.ones_like(np.asarray(j, dtype=float)))
    res = h_functional(ones, 10, 1.0)
    assert res.regime == "sup"
    assert res.l_star is None
    assert 1 - 1e-3 <= res.value <= 1.0


def test_h_sup_continuous_relaxation_frozen():
    # Psi == 1, s = 1/2: G(x) = (x - n)/x^2 peaks at x = 2n with value 1/(4n)
    ones = ExplicitSequence(lambda j: np.ones_like(np.asarray(j, dtype=float)))
    res = h_functional(ones, 5, 0.5)
    assert res.value == pytest.approx(0.05, rel=1e-12)
    assert res.l_star == 10
    assert res.regime == "sup"


def _sup_oracle(values: np.ndarray, n: int, s: float) -> float:
    S = np.cumsum(values ** -s)
    l = np.arange(1, len(values) + 1, dtype=np.float64)
    good = l > n
    return float(np.max((l[good] - n) * S[good] ** (-1.0 / s)))


def test_h_sup_matches_integer_scan():
    rng = np.random.default_rng(23)
    for _ in range(30):
        sigma = float(rng.uniform(0.2, 2.0))
        n = int(rng.integers(0, 20))
        s = float(rng.uniform(0.15, 1.0))
        values = (np.arange(1, 20001, dtype=np.float64)) ** -sigma
        seq = ExplicitSequence(lambda j, sig=sigma: np.asarray(j, dtype=float) ** -sig)
        res = h_functional(seq, n, s, scan_budget=20000)
        want = _sup_oracle(values, n, s)
        assert res.value == pytest.approx(want, rel=1e-12)
        if res.l_star is not None:
            assert res.l_star <= 20000


def test_h_tail_mpmath_oracle():
    # Psi(j) = j^-2, n = 3, s = 2: head and tail recomputed in mpmath
    n, s = 3, 2.0
    sp = s / (s - 1)
    values = (np.arange(1, 4001, dtype=np.float64)) ** -2.0
    lstar = _scan_oracle(values, n, s)
    S = mpmath.nsum(lambda j: j ** 4, [1, lstar])   # Psi^-s = j^4
    head = (mpmath.mpf(lstar) - n) ** sp * S ** (-sp / s)
    tail = (mpmath.zeta(4) - mpmath.nsum(lambda j: j ** -4, [1, lstar]))
    want = float((head + tail) ** (1 / sp))
    res = h_functional(power_seq(2.0), n, s, tol=1e-11)
    assert res.regime == "tail"
    assert res.l_star == lstar
    assert res.value == pytest.approx(want, rel=1e-9)


def test_h_scaling_invariance():
    rng = np.random.default_rng(31)
    for _ in range(10):
        sigma = float(rng.uniform(0.5, 2.5))
        n = int(rng.integers(0, 12))
        for s in (0.5, 1.0, 2.0):
            c = float(rng.uniform(0.1, 10.0))
            base = power_seq(sigma)
            scaled = ExplicitSequence(lambda j, c=c, sig=sigma: c * np.asarray(j, dtype=float) ** -sig)
            if s > 1.0 and sigma * s / (s - 1) < 2.0:
                continue        # divergent or too slow to certify term by term
            r1 = h_functional(base, n, s, tol=1e-6, scan_budget=200000)
            r2 = h_functional(scaled, n, s, tol=1e-6, scan_budget=200000)
            assert r2.value == pytest.approx(c * r1.value, rel=1e-11)


def test_h_monotone_in_n():
    seq = power_seq(1.5)
    vals = [h_functional(seq, n, 0.7).value for n in (1, 2, 4, 8, 16)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    vals_t = [h_functional(seq, n, 2.0).value for n in (1, 2, 4, 8, 16)]
    assert all(a >= b - 1e-15 for a, b in zip(vals_t, vals_t[1:]))


def test_h_regime_dispatch():
    seq = power_seq(2.0)
    assert h_functional(seq, 2, 1.0).regime == "sup"
    assert h_functional(seq, 2, 1.5).regime == "tail"


def test_explicit_sequence_protocol():
    bounds, logs = next(iter(power_seq(2.0).iter_blocks()))
    assert bounds.tolist() == list(range(1, 4097))
    np.testing.assert_allclose(logs, -2.0 * np.log(np.arange(1, 4097)), rtol=1e-13)
    # without log_fn the log values come from fn; runs of length one
    runs, lv = stream_runs(ExplicitSequence(lambda j: j ** -2.0), 5000)
    assert runs.tolist() == list(range(5000))
    np.testing.assert_allclose(np.exp(lv), np.arange(1, 5001) ** -2.0, rtol=1e-13)


def _cube_tail_oracle(sigma, n, m_scan=400):
    # r = inf, d = 3: shell m >= 1 holds nu_m = 24 m^2 + 2 points of value
    # m^-sigma (the origin has value 1).  With s = s' = 2 the head is an
    # exact finite sum and the tail past shell M is
    # 24 zeta(2 sigma - 2, M + 1) + 2 zeta(2 sigma, M + 1).
    with mpmath.workdps(40):
        V, S = 1, mpmath.mpf(1)
        best = None
        for m in range(1, m_scan + 1):
            V += 24 * m * m + 2
            S += (24 * m * m + 2) * mpmath.mpf(m) ** (2 * sigma)
            q = (V - n) / S
            if V > n and (best is None or q >= best[0]):
                best = (q, m, V, S)
        _, M, l_star, S = best
        assert M < m_scan // 2  # the maximizer is interior to the scan
        tail = 24 * mpmath.zeta(2 * sigma - 2, M + 1) + 2 * mpmath.zeta(2 * sigma, M + 1)
        head = mpmath.mpf(l_star - n) ** 2 / S
        return l_star, float(mpmath.sqrt(head + tail)), float(tail)


@pytest.mark.parametrize("sigma", [2.5, 3.0])
@pytest.mark.parametrize("n", [5, 40])
def test_tail_regime_hurwitz_zeta_oracle(sigma, n):
    l_star, want, want_tail = _cube_tail_oracle(sigma, n)
    rw = RearrangedWeight(WeightFunction("power", s=sigma), math.inf, 3)
    res = h_functional(rw, n, 2.0)
    assert res.regime == "tail"
    assert res.l_star == l_star
    assert res.tail_truncation_error_bound > 0.0
    assert res.value == pytest.approx(want, rel=1e-9)
    tail, bound = tail_sum(rw, l_star, 2.0)
    assert 0.0 < bound <= 1e-9 * tail
    assert tail == pytest.approx(want_tail, rel=1e-9)


def test_tail_regime_slow_tail_raises_typed_error():
    # sigma = 2: the tail 24 zeta(2, M+1) + ... decays like 1/M, too slowly
    # to certify to tol = 1e-9 within the window limit
    rw = RearrangedWeight(WeightFunction("power", s=2.0), math.inf, 3)
    with pytest.raises(DivergentTailError):
        h_functional(rw, 5, 2.0)


def test_sup_scan_budget_raises_typed_error():
    # the scan stops at the first block boundary past 50, before any l > 100
    rw = RearrangedWeight(WeightFunction("power", s=2.0), math.inf, 1)
    with pytest.raises(NoThresholdError, match="scan budget 50"):
        h_functional(rw, 100, 0.5, scan_budget=50)
    with pytest.raises(NoThresholdError, match="scan budget 50"):
        h_functional_grid(rw, [3, 100], 0.5, scan_budget=50)


@st.composite
def grid_cases(draw):
    d = draw(st.integers(1, 3))
    r = draw(st.sampled_from([math.inf, 1.0]))
    family = draw(st.sampled_from(["power", "powerlog", "exp"]))
    # decay of at least 3d keeps the tail certification (s' >= 1.5) short
    a = draw(st.floats(3.0 * d, 4.0 * d))
    if family == "power":
        psi = WeightFunction("power", s=a)
    elif family == "powerlog":
        psi = WeightFunction("powerlog", s=a, eps=draw(st.floats(-1.0, 1.0)))
    else:
        psi = WeightFunction("exp", R=draw(st.floats(1.5, 3.0)))
    s = draw(st.one_of(st.just(1.0), st.floats(0.05, 3.0)))
    pool = draw(st.lists(st.integers(0, 300), min_size=1, max_size=4))
    ns = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    return d, r, psi, s, ns


@settings(max_examples=100, deadline=None)
@given(grid_cases())
def test_grid_matches_one_n_evaluations(case):
    d, r, psi, s, ns = case
    grid = h_functional_grid(RearrangedWeight(psi, r, d), ns, s)
    assert len(grid) == len(ns)
    for n, res in zip(ns, grid):
        one = h_functional(RearrangedWeight(psi, r, d), n, s)
        if s <= 1.0:
            assert res == one
        else:
            assert res.regime == one.regime == "tail"
            assert res.l_star == one.l_star
            assert res.value == pytest.approx(one.value, rel=1e-9)
            assert 0.0 <= res.tail_truncation_error_bound <= 1e-9 * res.value ** (s / (s - 1.0))
    by_n = sorted((n, res.l_star) for n, res in zip(ns, grid) if res.l_star is not None)
    assert all(a[1] <= b[1] for a, b in zip(by_n, by_n[1:]))


def test_dense_sup_grid_matches_one_n_evaluations():
    # more n values than the scan evaluates together in one row chunk
    rw = RearrangedWeight(WeightFunction("powerlog", s=2.5, eps=0.5), 1.0, 2)
    ns = list(range(150, 0, -2))
    for s in (0.3, 1.0):
        for n, res in zip(ns, h_functional_grid(rw, ns, s)):
            assert res == h_functional(rw, n, s)


def test_grid_tail_regime_mpmath_oracle():
    # the same r = inf, d = 3 oracle as above, with the whole grid (unsorted,
    # with a repeat) evaluated from one pass
    ns = [40, 5, 12, 5]
    rw = RearrangedWeight(WeightFunction("power", s=3.0), math.inf, 3)
    for n, res in zip(ns, h_functional_grid(rw, ns, 2.0)):
        l_star, want, _ = _cube_tail_oracle(3.0, n)
        assert res.l_star == l_star
        assert res.value == pytest.approx(want, rel=1e-9)


def test_one_stream_per_evaluation(stream_count):
    rw = RearrangedWeight(WeightFunction("power", s=3.0), math.inf, 2)
    h_functional(rw, 20, 2.0)
    assert len(stream_count) == 1
    h_functional_grid(rw, [64, 4, 16, 4], 2.0)
    assert len(stream_count) == 2
    h_functional_grid(rw, [64, 4, 16, 4], 0.5)
    assert len(stream_count) == 3
