import json
import math
from collections import Counter

import numpy as np
import pytest
from conftest import as_dict

from nterm import lattice
from nterm.approx import extremal_function_f1
from nterm.functionals import h_functional
from nterm.rates import (
    QUANTITIES,
    THEOREM_TAGS,
    RateTable,
    hypotheses_met,
    predicted_rate,
    rate_table,
    ratio_window,
)
from nterm.weights import RearrangedWeight, WeightFunction

P2 = WeightFunction("power", s=2.0)


def test_predicted_rate_frozen():
    assert predicted_rate("thm31_p_le_2", 16, P2, 1, q=1.0, p=2.0) == pytest.approx(0.0009765625, rel=1e-15)
    assert predicted_rate("thm31_p_ge_2", 16, P2, 1, q=1.0, p=4.0) == pytest.approx(0.001953125, rel=1e-15)
    assert predicted_rate("lemma41", 16, P2, 2, s=0.5) == pytest.approx(0.00390625, rel=1e-15)
    assert predicted_rate("assertion41", 16, P2, 1, q=1.0, p=2.0) == pytest.approx(0.0009765625, rel=1e-15)


def test_predicted_rate_corollary_identity_at_p2():
    # the two greedy-error exponents agree exactly when p = 2
    for q in (1.0, 1.5, 2.0):
        for n in (3, 16, 255):
            a = predicted_rate("thm31_p_le_2", n, P2, 1, q=q, p=2.0)
            b = predicted_rate("thm31_p_ge_2", n, P2, 1, q=q, p=2.0)
            assert a == pytest.approx(b, rel=1e-15)


def test_predicted_rate_validation():
    with pytest.raises(ValueError):
        predicted_rate("nope", 4, P2, 1, q=1.0, p=1.0)
    with pytest.raises(ValueError):
        predicted_rate("lemma41", 4, P2, 1)
    with pytest.raises(ValueError):
        predicted_rate("thm31_p_le_2", 4, P2, 1, q=1.0)
    with pytest.raises(ValueError):
        predicted_rate("assertion41", 0, P2, 1, q=1.0, p=1.0)


def test_hypotheses_met_branches():
    ok, note = hypotheses_met("lemma41", P2, 1, s=0.5)
    assert ok and note == "ok"
    ok, note = hypotheses_met("lemma41", P2, 1, s=2.0)
    assert ok
    # alpha ~ 0.99 for power(1.01) violates the s'/d = 0.75 bound at s = 3, d = 2
    ok, note = hypotheses_met("lemma41", WeightFunction("power", s=1.01), 2, s=3.0)
    assert not ok and "decay condition fails" in note
    ok, note = hypotheses_met("assertion41", P2, 1, q=1.0, p=2.0)
    assert ok
    ok, note = hypotheses_met("assertion41", P2, 1, q=2.0, p=1.0)
    assert ok
    ok, note = hypotheses_met("thm31_p_le_2", P2, 1, q=2.0, p=2.0)
    assert ok
    ok, note = hypotheses_met("thm31_p_ge_2", P2, 1, q=2.0, p=4.0)
    assert ok
    exp = WeightFunction("exp", R=2.0)
    ok, note = hypotheses_met("thm31_p_le_2", exp, 1, q=2.0, p=2.0)
    assert not ok and "slow-vanishing" in note
    with pytest.raises(ValueError):
        hypotheses_met("nope", P2, 1, q=1.0, p=1.0)
    with pytest.raises(ValueError):
        hypotheses_met("thm31_p_le_2", P2, 1)


def test_rate_table_class_sp():
    t = rate_table("class_sp", [16, 4, 8], P2, 1, q=1.0, p=2.0)
    assert t.quantity == "class_sp"
    assert t.theorem == "assertion41"
    assert list(t.n) == [4, 8, 16]
    assert not t.flagged
    assert t.metadata["psi"] == P2.spec_string()
    assert t.metadata["r"] == "inf"
    assert t.metadata["hypotheses_met"] is True
    k1, k2 = ratio_window(t)
    assert 0.0 < k1 <= k2
    assert k2 / k1 < 20.0


def test_rate_table_h_functional_matches_direct():
    t = rate_table("h_functional", [4, 8], P2, 1, s=0.5, tol=1e-9)
    for n, c in zip(t.n, t.computed):
        rw = RearrangedWeight(P2, math.inf, 1)
        want = h_functional(rw, int(n), 0.5, tol=1e-9, scan_budget=2_000_000).value
        assert c == pytest.approx(want, rel=1e-15)
    assert t.theorem == "lemma41"


def test_rate_table_greedy_witness_bounds():
    t = rate_table("greedy_lp_witness", [4, 8], P2, 1, q=1.0, p=4.0)
    for n, c in zip(t.n, t.computed):
        # the witness has 2n+1 equal entries of amplitude C1(n); the
        # leftover L_p norm lies between its L_2 norm and its L_inf bound
        rest = 2 * int(n) + 1 - int(n)
        amp = c / rest  # upper-bound normalization check below
        assert c >= math.sqrt(rest) * amp - 1e-12
    assert t.theorem == "thm31_p_ge_2"
    # d = 2, p = 4: the leftover unit exponential sum has ||.||_4^4 equal
    # to its additive energy #{k1 + k2 = k3 + k4}, counted in integers
    t2 = rate_table("greedy_lp_witness", [4, 8], P2, 2, q=1.0, p=4.0)
    for n, c in zip(t2.n, t2.computed):
        f = extremal_function_f1(int(n), 1.0, P2, 2)
        amp = abs(f.values.tolist()[0])
        # equal amplitudes: greedy ties go by |k|_inf, then lexicographic
        rest = sorted(as_dict(f), key=lambda k: (max(abs(kc) for kc in k), k))[int(n):]
        sums = Counter((a[0] + b[0], a[1] + b[1]) for a in rest for b in rest)
        energy = sum(m * m for m in sums.values())
        assert c == pytest.approx(amp * energy ** 0.25, rel=1e-12)
    with pytest.raises(ValueError):
        rate_table("greedy_lp_witness", [4], P2, 2, p=4.0)


def test_rate_table_flagged_for_exp_weight():
    exp = WeightFunction("exp", R=2.0)
    t = rate_table("h_functional", [4, 8], exp, 1, s=0.5)
    assert t.flagged
    assert t.metadata["hypotheses_met"] is False
    assert t.metadata["hypotheses_note"]


def test_rate_table_determinism():
    a = rate_table("class_sp", [4, 8, 16, 32], P2, 1, q=1.0, p=2.0)
    b = rate_table("class_sp", [4, 8, 16, 32], P2, 1, q=1.0, p=2.0)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_rate_table_one_stream_per_grid(stream_count):
    rate_table("class_sp", [64, 4, 16, 8], P2, 2, q=1.0, p=2.0)
    assert len(stream_count) == 1
    rate_table("class_sp", [64, 4, 16, 8], P2, 2, r=1.0, q=2.0, p=1.0)
    assert len(stream_count) == 2
    rate_table("h_functional", [64, 4, 16, 8], P2, 1, s=2.0)
    assert len(stream_count) == 3


def test_rate_table_budget_reaches_stream_and_grid():
    # r = 1.5 enumerates shells: 16 radii at d = 2 need 33^2 > 400 points
    with pytest.raises(lattice.BudgetExceededError):
        rate_table("class_sp", [4], P2, 2, r=1.5, q=1.0, p=2.0, budget=400)
    t = rate_table("class_sp", [4], P2, 2, r=1.5, q=1.0, p=2.0, budget=10_000)
    assert t.computed[0] > 0.0
    # the witness at n = 8, d = 2 reaches |k|_inf = 2 (an l1 ball of radius
    # 2): its exact p = 4 grid has 9^2 points
    t = rate_table("greedy_lp_witness", [8], P2, 2, q=1.0, p=4.0, budget=81)
    with pytest.raises(lattice.BudgetExceededError):
        rate_table("greedy_lp_witness", [8], P2, 2, q=1.0, p=4.0, budget=80)


def test_csv_and_json_formats():
    t = rate_table("class_sp", [4, 8], P2, 1, q=1.0, p=2.0)
    lines = t.to_csv().strip().split("\n")
    assert lines[0] == "n,computed,predicted,ratio"
    assert len(lines) == 3
    n, comp, pred, ratio = lines[1].split(",")
    assert int(n) == 4
    assert float(comp) == t.computed[0]
    assert float(pred) == t.predicted[0]
    assert float(ratio) == t.ratio[0]
    doc = json.loads(t.to_json())
    assert doc["metadata"]["quantity"] == "class_sp"
    assert doc["metadata"]["theorem"] == "assertion41"
    assert doc["metadata"]["flagged"] is False
    assert [row["n"] for row in doc["rows"]] == [4, 8]


def test_rate_table_validation():
    with pytest.raises(ValueError):
        rate_table("nope", [4], P2, 1, q=1.0, p=1.0)
    with pytest.raises(ValueError):
        rate_table("class_sp", [], P2, 1, q=1.0, p=1.0)
    with pytest.raises(ValueError):
        rate_table("class_sp", [4], P2, 1, q=1.0)
    with pytest.raises(ValueError):
        rate_table("h_functional", [4], P2, 1)
    assert set(THEOREM_TAGS) == {"thm31_p_le_2", "thm31_p_ge_2", "lemma41", "assertion41"}
    assert set(QUANTITIES) == {"class_sp", "h_functional", "greedy_lp_witness"}


def test_ratio_window_empty():
    t = RateTable("class_sp", "assertion41", np.array([]), np.array([]), np.array([]))
    with pytest.raises(ValueError):
        ratio_window(t)
