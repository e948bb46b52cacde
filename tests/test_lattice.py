import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from conftest import ball_by_points, shell_sizes_by_points
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nterm.cli import main
from nterm.lattice import (
    BudgetExceededError,
    ShellDecomposition,
    ball_counts,
    enumerate_ball,
    fit_growth_bounds,
    quasi_norm,
    shell_counts,
    shell_index,
)


def test_quasi_norm_frozen():
    k = (3, -4)
    assert quasi_norm(k, 1) == 7
    assert quasi_norm(k, 2) == 5.0
    assert quasi_norm(k, math.inf) == 4
    assert quasi_norm((0, 0, 0), 1) == 0
    assert quasi_norm((-2,), math.inf) == 2


def test_quasi_norm_generic_r():
    # r = 1/2 is a quasi-norm: (sum |k_i|^(1/2))^2
    assert quasi_norm((1, 1), 0.5) == pytest.approx(4.0)
    assert quasi_norm((4,), 0.5) == pytest.approx(4.0)


def test_quasi_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        quasi_norm((1, 2), 0.0)
    with pytest.raises(ValueError):
        quasi_norm((1, 2), -1.0)
    with pytest.raises(ValueError):
        quasi_norm((), 2.0)


def test_shell_index_integer_norms():
    assert shell_index((0, 0), math.inf) == 0
    assert shell_index((3, -4), 2) == 5
    assert shell_index((1, 1), 2) == 2          # ceil(sqrt(2))
    assert shell_index((3, -4), 1) == 7
    assert shell_index((3, -4), math.inf) == 4


def test_shell_index_matches_ceiling_of_norm():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        r = float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, math.inf]))
        k = tuple(int(v) for v in rng.integers(-6, 7, size=d))
        m = shell_index(k, r)
        nk = quasi_norm(k, r)
        # generic-r norms carry float rounding; the index snaps it
        assert m == (0 if nk == 0 else math.ceil(nk - 1e-9))


def test_enumerate_ball_small():
    pts = enumerate_ball(1, math.inf, 2)
    assert len(pts) == 9
    assert pts == sorted(pts)                   # lexicographic
    assert (0, 0) in pts and (-1, 1) in pts
    pts1 = enumerate_ball(2, 1, 2)
    assert len(pts1) == 13


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0.5, 1, 1.5, 2, 3, math.inf]), st.integers(1, 3), st.integers(0, 7))
@example(1.5, 1, 5)
@example(0.5, 2, 4)   # |(1, 1)|_0.5 = 4 exactly
@example(3, 3, 9)     # |(1, 6, 8)|_3 = 9 exactly: on the boundary up to float rounding
def test_enumerate_ball_is_the_counted_ball(r, d, m):
    pts = enumerate_ball(m, r, d)
    assert len(pts) == shell_counts(r, d, m).V[m]
    assert all(shell_index(k, r) <= m for k in pts)
    assert pts == sorted(pts)
    # the vectorized membership test is the per-point shell_index filter
    assert pts == ball_by_points(r, d, m)
    if d == 1:
        # closed form for every r, so the table needs no (2m+1)-point box
        assert shell_counts(r, 1, m, budget=m + 1).V.tolist() == (2 * np.arange(m + 1) + 1).tolist()


def test_enumerate_ball_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_ball(100, math.inf, 3, budget=1000)


def test_ball_counts_frozen():
    V_inf = ball_counts(math.inf, 2, np.arange(4))
    assert V_inf.tolist() == [1, 9, 25, 49]
    V_l1 = ball_counts(1, 2, np.arange(4))
    assert V_l1.tolist() == [1, 5, 13, 25]      # 2m^2 + 2m + 1
    V_l1_d1 = ball_counts(1, 1, np.arange(4))
    assert V_l1_d1.tolist() == [1, 3, 5, 7]
    V_l2 = ball_counts(2, 2, np.arange(6))
    assert V_l2.tolist() == [1, 5, 13, 29, 49, 81]


def test_ball_counts_match_enumeration():
    # closed forms against a brute-force histogram oracle
    for r, d in [(1, 2), (1, 3), (2, 2), (math.inf, 2), (math.inf, 3)]:
        m_max = 6
        sd = shell_counts(r, d, m_max)
        counts = shell_sizes_by_points(r, d, m_max)
        assert sd.nu.tolist() == counts
        assert sd.V.tolist() == np.cumsum(counts).tolist()


def test_shell_counts_generic_r():
    sd = shell_counts(1.5, 2, 5)
    assert sd.nu.tolist() == shell_sizes_by_points(1.5, 2, 5)


# largest radius per dimension of the per-point oracle's box
_ORACLE_M = {2: 30, 3: 9, 4: 3}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0.5, 1.5, 2, 2.5, 3]), st.integers(2, 4), st.integers(0, 30))
@example(2, 2, 5)     # 3^2 + 4^2 = 5^2: points on the circle off the axes
@example(2, 2, 16)    # a perfect square
@example(2, 2, 25)    # 7^2 + 24^2 = 15^2 + 20^2 = 25^2
@example(3, 3, 9)     # |(1, 6, 8)|_3 = 9
def test_shell_counts_match_per_point_oracle(r, d, m):
    # orthant histograms (and the r = 2, d = 2 column sums) against one
    # shell_index call per point of the whole box
    m = min(m, _ORACLE_M[d])
    assert shell_counts(r, d, m).V.tolist() == np.cumsum(shell_sizes_by_points(r, d, m)).tolist()


def test_decomposition_validation():
    for bad in ([2, 6], [1, 5, 5], [1, 9, 5], [], [[1, 9]]):
        with pytest.raises(ValueError):
            ShellDecomposition(r=2.0, d=2, V=np.array(bad, dtype=np.int64))
    sd = ShellDecomposition(r=2.0, d=2, V=np.array([1, 5, 13], dtype=np.int64))
    assert sd.nu.tolist() == [1, 4, 8]


def test_shell_counts_prefix():
    # a longer table starts with the shorter one
    sd = shell_counts(math.inf, 2, 3)
    sd2 = shell_counts(math.inf, 2, 6)
    assert sd2.m_max == 6
    assert sd2.V[:4].tolist() == sd.V.tolist()


def test_fit_growth_frozen():
    sd = shell_counts(math.inf, 2, 64)
    fit = fit_growth_bounds(sd)
    assert fit.ok
    assert abs(fit.M0 - 4.0) < 0.04
    sd1 = shell_counts(1, 2, 64)
    fit1 = fit_growth_bounds(sd1)
    assert fit1.ok
    assert abs(fit1.M0 - 2.0) < 0.1
    sd3 = shell_counts(1, 3, 64)
    fit3 = fit_growth_bounds(sd3)
    assert fit3.ok
    assert abs(fit3.M0 - 8.0 / 6.0) < 0.067


def test_fit_bounds_bracket_counts():
    # the fitted constants must actually bracket V_m on the fit range
    for r, d in [(math.inf, 1), (math.inf, 2), (1, 2), (2, 2), (1, 3)]:
        sd = shell_counts(r, d, 48)
        fit = fit_growth_bounds(sd)
        m = np.arange(2, sd.m_max + 1, dtype=np.float64)
        V = sd.V[2:].astype(np.float64)
        assert np.all(fit.M0 * (m - fit.c1) ** d < V)
        assert np.all(V <= fit.M0 * (m + fit.c2) ** d)


def test_gauss_circle_octant_count_matches_integer_count():
    # pure-int count: sum over the x-column of 2*isqrt(m^2 - x^2) + 1, i.e.
    # 1 + 4m + 4 sum_{x=1..m} isqrt(m^2 - x^2)
    squares = [x * x for x in range(3001)]
    want = [1 + 4 * m + 4 * sum(map(math.isqrt, map((m * m).__sub__, squares[1:m + 1])))
            for m in range(3001)]
    assert ball_counts(2, 2, np.arange(3001)).tolist() == want
    assert int(ball_counts(2, 2, [4095])[0]) == 52681305


def test_gauss_circle_exact_radius_limit(capsys):
    # floor(sqrt(float(s))) = isqrt(s) for integer s < 2^50, hardest next
    # to perfect squares: m < 2^25 keeps every m^2 - x^2 in that range
    top = 2**25 - 1
    for k in [2, 3, 1000, 2**24 + 1, top - 1, top]:
        for s in (k * k - 1, k * k, k * k + 1):
            if s < 2**50:
                assert math.floor(math.sqrt(float(s))) == math.isqrt(s)
    # past it a typed error, raised before any work: no 2^25-radius table,
    # nor the 2^25 radii to tabulate
    tracemalloc.start()
    for m in (2**25, 10**9):
        with pytest.raises(OverflowError, match=f"exact only below radius 33554432; requested radius {m}$"):
            ball_counts(2, 2, [0, m])
        with pytest.raises(OverflowError, match=f"requested radius {m}$"):
            shell_counts(2, 2, m, budget=2**31)
    assert main(["shells", "--r", "2", "--d", "2", "--m-max", str(2**25), "--budget", str(2**26)]) == 1
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2**20
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == "OverflowError"


@pytest.mark.parametrize("r, d, m_max", [("inf", 3, 2000), ("1.5", 2, 60)])
def test_shells_output_bytes_golden(r, d, m_max, tmp_path):
    # the CSV and JSON equal their per-row f-string and per-element list
    # renderings
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    argv = ["shells", "--r", r, "--d", str(d), "--m-max", str(m_max),
            "--out", str(csv_path), "--json-out", str(json_path)]
    assert main(argv) == 0
    sd = shell_counts(float(r), d, m_max)
    nu, V = sd.nu.tolist(), sd.V.tolist()
    want_csv = "m,nu,V\n" + "".join(f"{m},{a},{b}\n" for m, (a, b) in enumerate(zip(nu, V)))
    assert csv_path.read_text() == want_csv
    metadata = {"budget": None, "command": "shells", "config": None, "d": d,
                "json_out": str(json_path), "m_max": m_max, "out": str(csv_path),
                "r": "inf" if r == "inf" else float(r)}
    result = {"nu": nu, "V": V, "fit": asdict(fit_growth_bounds(sd))}
    want_json = json.dumps({"metadata": metadata, "result": result}, sort_keys=True) + "\n"
    assert json_path.read_text() == want_json


def _exact_count(r, d, m):
    # V_m in Python ints: the cube for r = inf, sum_i 2^i C(d,i) C(m,i) for r = 1
    if math.isinf(r):
        return (2 * m + 1) ** d
    return sum(2**i * math.comb(d, i) * math.comb(m, i) for i in range(d + 1))


def test_exact_count_formula_matches_enumeration_high_d():
    for r, d in [(math.inf, 5), (1, 5), (1, 6)]:
        counts = shell_sizes_by_points(r, d, 2)
        assert np.cumsum(counts).tolist() == [_exact_count(r, d, m) for m in range(3)]


@pytest.mark.parametrize("r", [math.inf, 1])
@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_ball_counts_int64_limit(r, d):
    top = 2**63 - 1
    lo, hi = 0, 1
    while _exact_count(r, d, hi) <= top:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _exact_count(r, d, mid) <= top else (lo, mid)
    sd = shell_counts(r, d, lo)
    assert sd.V.tolist() == [_exact_count(r, d, m) for m in range(lo + 1)]
    with pytest.raises(OverflowError, match=f"past radius {lo};"):
        shell_counts(r, d, lo + 1)
    with pytest.raises(OverflowError):
        ball_counts(r, d, [0, lo + 1])


def test_shell_table_length_budget():
    assert shell_counts(math.inf, 1, 49, budget=50).m_max == 49
    with pytest.raises(BudgetExceededError, match="needs 51 entries, budget is 50"):
        shell_counts(math.inf, 1, 50, budget=50)
