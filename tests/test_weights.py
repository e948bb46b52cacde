import math

import mpmath
import numpy as np
import pytest
from conftest import stream_runs

from nterm import lattice
from nterm.weights import (
    RearrangedWeight,
    WeightFunction,
    ZeroDerivativeError,
    alpha,
    check_class_b,
    check_decay_condition,
    convexity_evidence,
    decreasing_evidence,
    parse_weight,
)

FAMILIES = [
    WeightFunction("power", s=2.0),
    WeightFunction("power", s=0.5),
    WeightFunction("powerlog", s=1.0, eps=-1.0),
    WeightFunction("powerlog", s=1.5, eps=0.5),
    WeightFunction("log", eps=-2.0),
    WeightFunction("exp", R=2.0),
    WeightFunction("const"),
]


def _mp_expr(psi):
    # re-expressed in mpmath, independently of the implementation
    if psi.family == "power":
        return lambda t: t ** (-mpmath.mpf(psi.s))
    if psi.family == "powerlog":
        return lambda t: t ** (-mpmath.mpf(psi.s)) * mpmath.log(t + mpmath.e) ** mpmath.mpf(psi.eps)
    if psi.family == "log":
        return lambda t: mpmath.log(t + mpmath.e) ** mpmath.mpf(psi.eps)
    if psi.family == "exp":
        return lambda t: mpmath.mpf(psi.R) ** (-t)
    return lambda t: mpmath.mpf(1)


def test_values_frozen():
    assert WeightFunction("power", s=2.0)(4.0) == pytest.approx(1 / 16)
    assert WeightFunction("exp", R=2.0)(3.0) == pytest.approx(1 / 8)
    assert WeightFunction("log", eps=-1.0)(0.0) == pytest.approx(1 / math.log(1 + math.e))
    assert WeightFunction("const")(17.0) == 1.0
    pl = WeightFunction("powerlog", s=1.0, eps=-1.0)
    assert pl(10.0) == pytest.approx(0.1 / math.log(10 + math.e))


def test_argument_clamp_below_one():
    # psi(t) for t < 1 is read as psi(1) so that psi(|k|) at k = 0 is finite
    for psi in FAMILIES:
        assert psi(0.0) == psi(1.0)
        assert psi(0.3) == psi(1.0)


def test_vectorized_and_log_value():
    t = np.geomspace(1.0, 1e5, 40)
    for psi in FAMILIES:
        vals = psi(t)
        assert vals.shape == t.shape
        assert np.all(np.diff(vals) <= 1e-15)
        np.testing.assert_allclose(np.exp(psi.log_value(t)), vals, rtol=1e-13)


def test_validation():
    with pytest.raises(ValueError):
        WeightFunction("power", s=0.0)
    with pytest.raises(ValueError):
        WeightFunction("powerlog", s=-1.0)
    with pytest.raises(ValueError):
        WeightFunction("log", eps=0.5)
    with pytest.raises(ValueError):
        WeightFunction("exp", R=1.0)
    with pytest.raises(ValueError):
        WeightFunction("gauss")


def test_derivative_against_mpmath():
    ts = [1.5, 2.0, 5.0, 37.0, 400.0]
    for psi in FAMILIES:
        expr = _mp_expr(psi)
        for t in ts:
            want = float(mpmath.diff(expr, mpmath.mpf(t)))
            got = float(psi.derivative(t))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


def test_raised_to_matches_power_of_value():
    t_small = np.geomspace(1.0, 50.0, 12)
    t_wide = np.geomspace(1.0, 1e4, 25)
    for psi in FAMILIES:
        for a in (0.5, 1.0, 2.0, 3.5):
            np.testing.assert_allclose(psi.raised_to(a)(t_small), psi(t_small) ** a,
                                       rtol=1e-12)
            # the log identity survives where plain values underflow
            np.testing.assert_allclose(psi.raised_to(a).log_value(t_wide),
                                       a * psi.log_value(t_wide),
                                       rtol=1e-12, atol=1e-12)


def test_raised_to_power_family():
    psi = WeightFunction("power", s=2.0).raised_to(1.5)
    assert psi.family == "power" and psi.s == 3.0


def test_alpha_frozen():
    psi = WeightFunction("power", s=2.0)
    assert alpha(psi, 10.0) == pytest.approx(0.5)
    assert alpha(psi, 3.0) == pytest.approx(0.5)
    ex = WeightFunction("exp", R=2.0)
    assert alpha(ex, 5.0) == pytest.approx(1 / (5.0 * math.log(2.0)))
    with pytest.raises(ZeroDerivativeError):
        alpha(WeightFunction("const"), 2.0)


def test_parse_weight_round_trip():
    for text in ["power:s=2", "powerlog:s=1,eps=-1", "log:eps=-2", "exp:R=2", "const"]:
        psi = parse_weight(text)
        assert parse_weight(psi.spec_string()) == psi


def test_parse_weight_errors():
    for bad in ["gauss:s=1", "power", "power:s=1,eps=2", "power:q=1",
                "exp:R=abc", "log:eps=1", ""]:
        with pytest.raises(ValueError):
            parse_weight(bad)


@pytest.mark.parametrize("spec", [
    "power:s=inf", "power:s=nan",
    "powerlog:s=inf,eps=1", "powerlog:s=nan,eps=1",
    "powerlog:s=2,eps=inf", "powerlog:s=2,eps=-inf", "powerlog:s=2,eps=nan",
    "log:eps=-inf", "log:eps=nan",
    "exp:R=inf", "exp:R=nan",
])
def test_parse_weight_rejects_non_finite(spec):
    with pytest.raises(ValueError, match="must be finite"):
        parse_weight(spec)


def test_class_b_power_in_exp_out():
    rep = check_class_b(WeightFunction("power", s=2.0))
    assert rep.in_class
    assert rep.min_ratio == pytest.approx(4.0)
    assert rep.max_ratio == pytest.approx(4.0)
    rep_exp = check_class_b(WeightFunction("exp", R=2.0))
    assert not rep_exp.in_class
    assert rep_exp.unbounded_ratio


def test_decay_condition():
    psi = WeightFunction("power", s=2.0)
    rep = check_decay_condition(psi, 2.0, 1)      # alpha = 1/2 < s'/d = 2
    assert rep.satisfied
    assert rep.alpha_sup == pytest.approx(0.5, rel=1e-6)
    assert rep.inv_alpha_inf == pytest.approx(2.0, rel=1e-6)
    rep_fail = check_decay_condition(WeightFunction("power", s=0.25), 2.0, 1)
    assert not rep_fail.satisfied                 # alpha = 4 >= 2
    rep_vac = check_decay_condition(psi, 1.0, 1)  # s <= 1 has no condition
    assert rep_vac.satisfied
    rep_const = check_decay_condition(WeightFunction("const"), 2.0, 1)
    assert not rep_const.satisfied


def test_evidence_helpers():
    assert convexity_evidence(WeightFunction("power", s=2.0))
    assert decreasing_evidence(WeightFunction("powerlog", s=1.0, eps=-1.0))


def test_rearranged_frozen():
    # d = 1, r = inf: V = [1, 3, 5], psi(m) = 1/m with psi(0) read as psi(1)
    m, lv = stream_runs(RearrangedWeight(WeightFunction("power", s=1.0), math.inf, 1), 5)
    assert m.tolist() == [0, 1, 1, 2, 2]
    assert np.exp(lv).tolist() == [1.0, 1.0, 1.0, 0.5, 0.5]


def test_rearranged_p_power():
    rw = RearrangedWeight(WeightFunction("power", s=1.0), math.inf, 1, p_power=2.0)
    assert np.exp(stream_runs(rw, 5)[1]).tolist() == [1.0, 1.0, 1.0, 0.25, 0.25]


def test_rearranged_matches_sorted_enumeration():
    # oracle: enumerate the ball, sort the weighted norms, compare exactly
    for r, d in [(math.inf, 1), (1, 2), (2, 2)]:
        psi = WeightFunction("powerlog", s=1.0, eps=-1.0)
        rw = RearrangedWeight(psi, r, d)
        pts = lattice.enumerate_ball(8, r, d)
        oracle = sorted((psi(float(lattice.shell_index(k, r))) for k in pts),
                        reverse=True)
        m, _ = stream_runs(rw, len(pts))
        assert psi(np.maximum(m, 1)).tolist() == oracle


def test_rearranged_on_demand_extension():
    rw = RearrangedWeight(WeightFunction("power", s=2.0), math.inf, 1)
    # j = 10^6 lies far beyond the stream's first table
    m, lv = stream_runs(rw, 1_000_000)
    assert m[-1] == (1_000_000 - 1) // 2 + 1
    assert math.exp(lv[-1]) == pytest.approx(float(m[-1]) ** -2.0)


def test_log_values_match():
    psi = WeightFunction("exp", R=1.5)
    rw = RearrangedWeight(psi, math.inf, 2, p_power=0.5)
    m, lv = stream_runs(rw, 119)
    np.testing.assert_allclose(np.exp(lv), psi(np.maximum(m, 1)) ** 0.5, rtol=1e-13)
