import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nterm.approx import CoefficientSequence, sp_norm
from nterm.lattice import BudgetExceededError
from nterm.trig_lp import (
    GridSpec,
    evaluate_on_grid,
    exponential_sum_norm,
    grid_points,
    hausdorff_young_gap,
    is_exact_quadrature,
    lp_norm,
    max_abs_frequency,
)


def additive_energy(points) -> int:
    """#{(k1, k2, k3, k4) in S^4 : k1 + k2 = k3 + k4}, counted in integers."""
    sums = Counter(tuple(a + b for a, b in zip(k1, k2)) for k1 in points for k2 in points)
    return sum(c * c for c in sums.values())


def direct_sum(entries: dict, d: int, N: int) -> np.ndarray:
    """sum_k c_k e^{i (k, x_j)} at every point x_j = 2 pi j / N of the grid."""
    x = 2.0 * np.pi * np.indices((N,) * d).reshape(d, -1).T / N
    ks = np.array(list(entries), dtype=np.float64).reshape(-1, d)
    cs = np.array(list(entries.values()), dtype=np.complex128)
    return (np.exp(1j * (x @ ks.T)) @ cs).reshape((N,) * d)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(d=0, N=4)
    with pytest.raises(ValueError):
        GridSpec(d=1, N=0)
    assert GridSpec(d=3, N=5).total_points == 125


def test_evaluate_frozen_fourth_roots():
    f = CoefficientSequence(d=1, entries={(1,): 1.0})
    vals = evaluate_on_grid(f, GridSpec(d=1, N=4))
    assert np.allclose(vals, [1.0, 1j, -1.0, -1j], atol=1e-14)


def test_evaluate_empty_and_mismatch():
    g = GridSpec(d=2, N=3)
    assert np.all(evaluate_on_grid(CoefficientSequence(d=2), g) == 0.0)
    assert max_abs_frequency(CoefficientSequence(d=2)) == 0
    with pytest.raises(ValueError):
        evaluate_on_grid(CoefficientSequence(d=1, entries={(1,): 1.0}), g)


def test_evaluate_matches_brute_force_d2_d3():
    rng = np.random.default_rng(11)
    for d, N in ((2, 6), (3, 5)):
        keys = {tuple(int(c) for c in rng.integers(-3, 4, size=d)) for _ in range(5)}
        entries = {k: complex(rng.normal(), rng.normal()) for k in keys}
        f = CoefficientSequence(d=d, entries=entries)
        got = evaluate_on_grid(f, GridSpec(d=d, N=N))
        want = np.zeros((N,) * d, dtype=np.complex128)
        for idx in np.ndindex(*(N,) * d):
            x = 2.0 * np.pi * np.array(idx) / N
            want[idx] = sum(v * np.exp(1j * np.dot(k, x)) for k, v in entries.items())
        assert np.allclose(got, want, atol=1e-12)


def test_parseval_on_exact_grid():
    rng = np.random.default_rng(3)
    entries = {(int(k),): complex(rng.normal(), rng.normal()) for k in range(-6, 7)}
    f = CoefficientSequence(d=1, entries=entries)
    g = GridSpec(d=1, N=13)
    assert is_exact_quadrature(f, 2.0, g)
    assert lp_norm(f, 2.0, g) == pytest.approx(sp_norm(f, 2.0), rel=1e-12)


def test_exactness_predicate_and_doubling():
    f = CoefficientSequence(d=1, entries={(-1,): 0.5, (0,): 1.0, (2,): -0.25})
    g1 = GridSpec(d=1, N=9)
    g2 = GridSpec(d=1, N=18)
    assert is_exact_quadrature(f, 4.0, g1)
    assert not is_exact_quadrature(f, 4.0, GridSpec(d=1, N=8))
    assert not is_exact_quadrature(f, 3.0, g1)
    assert not is_exact_quadrature(f, 2.5, g1)
    # exact quadrature is invariant under refining the grid
    assert lp_norm(f, 4.0, g1) == pytest.approx(lp_norm(f, 4.0, g2), rel=1e-13)


def test_single_exponential_norm_one():
    for d, k in ((1, (5,)), (2, (3, -4)), (3, (1, 0, 2))):
        f = CoefficientSequence(d=d, entries={k: 1.0})
        for p in (1.0, 2.0, 3.5, 6.0):
            assert lp_norm(f, p, GridSpec(d=d, N=7)) == pytest.approx(1.0, rel=1e-13)


def test_dirichlet_fourth_power_frozen():
    # gamma = {-1, 0, 1}: |1 + 2 cos x|^4 averages to 19
    got = exponential_sum_norm([(-1,), (0,), (1,)], 4.0, GridSpec(d=1, N=9))
    assert got == pytest.approx(19.0 ** 0.25, rel=1e-13)


def test_exponential_sum_parseval():
    gamma = [(k,) for k in range(-7, 8)]
    got = exponential_sum_norm(gamma, 2.0, GridSpec(d=1, N=31))
    assert got == pytest.approx(math.sqrt(15.0), rel=1e-12)
    assert exponential_sum_norm([], 2.0, GridSpec(d=1, N=8)) == 0.0


def test_holder_monotone_in_p():
    rng = np.random.default_rng(19)
    entries = {(int(k),): complex(rng.normal(), rng.normal()) for k in rng.integers(-8, 9, size=6)}
    f = CoefficientSequence(d=1, entries=entries)
    g = GridSpec(d=1, N=64)
    ps = (1.0, 1.5, 2.0, 2.7, 4.0, 6.0)
    vals = [lp_norm(f, p, g) for p in ps]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_distinct_gamma_required():
    with pytest.raises(ValueError):
        exponential_sum_norm([(1,), (1,)], 2.0, GridSpec(d=1, N=8))


def test_hausdorff_young_gap():
    rng = np.random.default_rng(5)
    for _ in range(10):
        keys = {(int(k),): complex(rng.normal(), rng.normal()) for k in rng.integers(-5, 6, size=4)}
        f = CoefficientSequence(d=1, entries=keys)
        for p in (2.0, 4.0, 6.0):
            g = GridSpec(d=1, N=int(p) * 5 + 1)
            assert hausdorff_young_gap(f, p, g) >= -1e-9
        g2 = GridSpec(d=1, N=11)
        assert abs(hausdorff_young_gap(f, 2.0, g2)) <= 1e-12 * sp_norm(f, 2.0)
    with pytest.raises(ValueError):
        hausdorff_young_gap(f, 1.5, GridSpec(d=1, N=16))


def test_lp_norm_validation():
    f = CoefficientSequence(d=1, entries={(1,): 1.0})
    with pytest.raises(ValueError):
        lp_norm(f, 0.5, GridSpec(d=1, N=8))


def test_grid_budget():
    f = CoefficientSequence(d=1, entries={(1,): 1.0})
    with pytest.raises(BudgetExceededError):
        evaluate_on_grid(f, GridSpec(d=1, N=16), budget=10)
    with pytest.raises(BudgetExceededError):
        lp_norm(f, 2.0, GridSpec(d=1, N=16), budget=8)
    assert lp_norm(f, 2.0, GridSpec(d=1, N=16), budget=16) == pytest.approx(1.0)


def test_grid_points_smallest_exact_grid_for_even_p():
    f = CoefficientSequence(d=1, entries={(3,): 1.0, (-1,): 2.0})
    for p in (2.0, 4, 6.0):
        N = grid_points(p, 3, 99)
        assert N == int(p) * 3 + 1
        assert is_exact_quadrature(f, p, GridSpec(d=1, N=N))
        assert not is_exact_quadrature(f, p, GridSpec(d=1, N=N - 1))
    assert grid_points(4.0, 0, 99) == 5
    # other p keep the caller's grid: their value depends on N
    assert grid_points(3.0, 3, 99) == 99
    assert grid_points(2.5, 3, 99) == 99


def test_fourth_power_is_additive_energy():
    # unit coefficients: ||f||_4^4 = #{k1 + k2 = k3 + k4}, exact for N > 4 max|k|
    rng = np.random.default_rng(23)
    for d, side, size in ((1, 12, 9), (2, 4, 12), (3, 2, 10)):
        box = np.array(list(np.ndindex(*(2 * side + 1,) * d))) - side
        gamma = [tuple(int(c) for c in k) for k in box[rng.choice(len(box), size=size, replace=False)]]
        assert any(c < 0 for k in gamma for c in k)
        f = CoefficientSequence(d=d, entries={k: 1.0 for k in gamma})
        g = GridSpec(d=d, N=4 * max_abs_frequency(f) + 1)
        assert is_exact_quadrature(f, 4.0, g)
        assert lp_norm(f, 4.0, g) ** 4 == pytest.approx(additive_energy(gamma), rel=1e-12)


def test_aliased_frequencies_add_up():
    # |k| >= N wraps to bin k mod N; (1,) and (8,) share a bin at N = 7
    cases = (
        (1, 7, {(1,): 0.5, (8,): -2.0, (-15,): 1j, (21,): 0.25, (-3,): 1.5}),
        (2, 5, {(0, 0): 1.0, (5, -5): 2.0, (-6, 7): -1j, (1, 2): 0.75, (12, -1): 3.0}),
    )
    for d, N, entries in cases:
        got = evaluate_on_grid(CoefficientSequence(d=d, entries=entries), GridSpec(d=d, N=N))
        l1 = sum(abs(v) for v in entries.values())
        assert np.allclose(got, direct_sum(entries, d, N), rtol=0.0, atol=1e-12 * l1)


@st.composite
def sparse_polynomials(draw):
    d = draw(st.integers(1, 3))
    N = draw(st.integers(1, 9))
    keys = draw(st.sets(st.tuples(*[st.integers(-20, 20)] * d), min_size=1, max_size=12))
    part = st.floats(-10.0, 10.0, allow_subnormal=False)
    entries = {k: complex(draw(part), draw(part)) for k in sorted(keys)}
    return d, N, entries


@settings(max_examples=60, deadline=None)
@given(sparse_polynomials())
def test_fft_grid_matches_direct_sum(case):
    d, N, entries = case
    f = CoefficientSequence(d=d, entries=entries)
    got = evaluate_on_grid(f, GridSpec(d=d, N=N))
    l1 = sum(abs(v) for v in f.entries.values())
    assert np.allclose(got, direct_sum(entries, d, N), rtol=0.0, atol=1e-12 * l1)
