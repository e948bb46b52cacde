import json
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from conftest import ball_by_points, count_bracket, shell_sizes_by_points
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nterm.cli import main
from nterm.lattice import (
    BudgetExceededError,
    ball_counts,
    ball_volume,
    enumerate_ball,
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
    assert len(pts) == shell_counts(r, d, m)[m]
    assert all(shell_index(k, r) <= m for k in pts)
    assert pts == sorted(pts)
    # the vectorized membership test is the per-point shell_index filter
    assert pts == ball_by_points(r, d, m)
    if d == 1:
        # closed form for every r, so the table needs no (2m+1)-point box
        assert shell_counts(r, 1, m, budget=m + 1).tolist() == (2 * np.arange(m + 1) + 1).tolist()


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
        counts = shell_sizes_by_points(r, d, m_max)
        assert shell_counts(r, d, m_max).tolist() == np.cumsum(counts).tolist()


def test_shell_counts_generic_r():
    nu = np.diff(shell_counts(1.5, 2, 5), prepend=0)
    assert nu.tolist() == shell_sizes_by_points(1.5, 2, 5)


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
    assert shell_counts(r, d, m).tolist() == np.cumsum(shell_sizes_by_points(r, d, m)).tolist()


def test_shell_counts_prefix():
    # a longer table starts with the shorter one
    V = shell_counts(math.inf, 2, 3)
    V2 = shell_counts(math.inf, 2, 6)
    assert V2.dtype == np.int64 and len(V2) == 7
    assert V2[:4].tolist() == V.tolist()


def test_ball_volume_closed_forms():
    # the growth constants of r = inf and r = 1, exact where the log
    # domain leaves nothing to round (r = inf, d = 1)
    for d in range(1, 9):
        assert ball_volume(math.inf, d) == 2.0**d
        assert ball_volume(1, d) == pytest.approx(2.0**d / math.factorial(d), rel=1e-12, abs=0)
        for r in (0.5, 1.5, 2, 3, 1e-3):
            assert ball_volume(r, 1) == 2.0
    assert ball_volume(2, 2) == pytest.approx(math.pi, rel=1e-12, abs=0)
    assert ball_volume(2, 3) == pytest.approx(4 * math.pi / 3, rel=1e-12, abs=0)


@pytest.mark.parametrize("r", [0.5, 1.5, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_ball_volume_matches_mpmath(r, d):
    with mpmath.workdps(40):
        want = (2 * mpmath.gamma(1 + mpmath.mpf(1) / r)) ** d / mpmath.gamma(1 + mpmath.mpf(d) / r)
        assert ball_volume(r, d) == pytest.approx(float(want), rel=1e-12, abs=0)


def test_ball_volume_outside_the_float_range_is_typed():
    assert ball_volume(0.002, 2) >= 2.2250738585072014e-308
    for r, d in [(0.0018, 2), (1e-300, 2), (5e-324, 3), (1e-3, 1100)]:
        with pytest.raises(OverflowError, match=re.escape(f"r={r}, d={d}")):
            ball_volume(r, d)
    with pytest.raises(OverflowError, match="r=inf, d=1100"):
        ball_volume(math.inf, 1100)


# largest radius per dimension of the bracket property's tables
_BRACKET_M = {1: 400, 2: 60, 3: 14, 4: 6}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([0.5, 1, 1.5, 2, 3, math.inf]), st.integers(1, 4), st.integers(0, 400))
@example(math.inf, 1, 48)
@example(math.inf, 2, 48)
@example(1, 2, 48)
@example(2, 2, 48)
@example(1, 3, 14)
def test_shell_tables_lie_in_count_bracket(r, d, m):
    # every V_m of the table between the proven volume bounds, no slack
    V = shell_counts(r, d, min(m, _BRACKET_M[d]))
    for k, v in enumerate(V.tolist()):
        lo, hi = count_bracket(r, d, k)
        assert lo <= v <= hi, (r, d, k, lo, v, hi)
    if math.isinf(r):
        # the top is V_m itself, one ulp up
        assert [count_bracket(r, d, k)[1] for k in range(len(V))] == [
            math.nextafter(v, math.inf) for v in V.tolist()]


@pytest.mark.parametrize("r, m, error", [
    (200, 100, OverflowError),         # 100^200 leaves the float range
    (1e300, 5, OverflowError),
    (1e-5, 200, FloatingPointError),   # (k^r)^(1/r) rounds axis points off their shells
    (8e-5, 1000, FloatingPointError),
    (1e-300, 5, FloatingPointError),   # every k^r rounds to 1
])
def test_extreme_r_raises_typed_error(r, m, error, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=re.escape(f"r={r}, d=2") + ".*radius"):
            shell_counts(r, 2, m)
        assert main(["shells", "--r", repr(r), "--d", "2", "--m-max", str(m)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"]["type"] == error.__name__


def _outcome(f):
    # a value, or the type and message of a float-range error; warnings are errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return f()
        except (OverflowError, FloatingPointError) as exc:
            return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(st.floats(-24.0, 8.0), st.integers(1, 3), st.integers(0, 12))
@example(math.log2(1e-5), 1, 100)      # axis points rounded out of the ball at d = 1
@example(math.log2(1e-5), 2, 200)      # the tables raise, the ball did not
@example(math.log2(8e-5), 2, 1000)
@example(-996.0, 1, 5)                 # r = 2^-996: k^r rounds to 1, roots overflow
@example(-996.0, 2, 5)
@example(-996.0, 3, 5)
@example(-996.0, 2, 1)
@example(math.log2(200.0), 2, 100)     # 100^200 leaves the float range
def test_ball_is_the_counted_ball_or_both_raise(log2_r, d, m):
    r = 2.0**log2_r
    ball = _outcome(lambda: len(enumerate_ball(m, r, d)))
    table = _outcome(lambda: int(shell_counts(r, d, m)[m]))
    assert ball == table
    if isinstance(table, tuple):
        assert f"r={r}, d={d}" in table[1] and "radius" in table[1]


def test_ball_at_r_near_zero():
    # every r holds the 2m + 1 points of d = 1; at d >= 2 float rounding
    # moves the axes, and the ball raises the tables' error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(enumerate_ball(100, 1e-5, 1)) == 201
        assert len(enumerate_ball(5, 1e-300, 1)) == 11
        for m, r, d in [(200, 1e-5, 2), (1000, 8e-5, 2), (5, 1e-300, 2), (5, 1e-300, 3)]:
            with pytest.raises(FloatingPointError, match=re.escape(f"r={r}, d={d}") + ".*radius"):
                enumerate_ball(m, r, d)


def test_shell_index_of_an_axis_point_is_its_coordinate():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert shell_index((100, 0), 1e-5) == 100
        for r in (1e-300, 1e-5, 0.5, 3.0, 200.0, 1e300):
            for k in ((0, -7, 0), (100,), (0, 0), (-1, 0)):
                assert shell_index(k, r) == max(abs(c) for c in k)


@pytest.mark.parametrize("r", [1e-4, 3e-5])
def test_tiny_r_counts_only_the_axes(r):
    # every off-axis point lies past radius 200 (its root overflows the
    # float range, silently: that is its shell); the axes hold 1 + 4m
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert shell_counts(r, 2, 200).tolist() == (1 + 4 * np.arange(201)).tolist()


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
    counts = shell_counts(float(r), d, m_max)
    nu, V = np.diff(counts, prepend=0).tolist(), counts.tolist()
    want_csv = "m,nu,V\n" + "".join(f"{m},{a},{b}\n" for m, (a, b) in enumerate(zip(nu, V)))
    assert csv_path.read_text() == want_csv
    metadata = {"budget": None, "command": "shells", "config": None, "d": d,
                "json_out": str(json_path), "m_max": m_max, "out": str(csv_path),
                "r": "inf" if r == "inf" else float(r)}
    result = {"nu": nu, "V": V, "M0": ball_volume(float(r), d)}
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
    assert shell_counts(r, d, lo).tolist() == [_exact_count(r, d, m) for m in range(lo + 1)]
    with pytest.raises(OverflowError, match=f"past radius {lo};"):
        shell_counts(r, d, lo + 1)
    with pytest.raises(OverflowError):
        ball_counts(r, d, [0, lo + 1])


def test_shell_table_length_budget():
    assert len(shell_counts(math.inf, 1, 49, budget=50)) == 50
    with pytest.raises(BudgetExceededError, match="needs 51 entries, budget is 50"):
        shell_counts(math.inf, 1, 50, budget=50)
