import itertools
import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nterm import lattice, weights
from nterm.approx import (
    CoefficientSequence,
    FunctionClassSpec,
    class_best_nterm_sp,
    class_best_nterm_sp_grid,
    class_membership_norm,
    extremal_function_f1,
    greedy_order,
    greedy_remainder_sp,
    greedy_remainders_sp,
    sp_norm,
)
from nterm.functionals import DivergentTailError, h_functional
from nterm.weights import RearrangedWeight, WeightFunction


def test_construction_normalizes_entries():
    f = CoefficientSequence(d=2, entries={(1.0, -2.0): 3.0, (0, 0): 0.0, (np.int64(4), 5): 1j})
    assert f.entries == {(1, -2): 3 + 0j, (4, 5): 1j}
    assert f.support() == [(1, -2), (4, 5)]
    with pytest.raises(ValueError):
        CoefficientSequence(d=2, entries={(1,): 1.0})


@pytest.mark.parametrize("entries, named", [
    ({(0,): complex("nan"), (1,): 1.0}, "entry 0 (k=(0,))"),
    ({(1,): 1.0, (2,): complex(0.0, math.inf)}, "entry 1 (k=(2,))"),
    ({(0.7,): 1.0}, "index component 0.7"),
    ({(2**63,): 1.0}, f"index component {2**63}"),
    ({(-(2**63),): 1.0}, f"index component {-(2**63)}"),
    ({(math.inf,): 1.0}, "index component inf"),
])
def test_construction_rejects_bad_entries(entries, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        CoefficientSequence(d=1, entries=entries)


def test_repeated_index_rejected():
    # a mapping cannot repeat a key, but arrays and files can
    with pytest.raises(ValueError, match=re.escape("entries 0 and 2 repeat the index [1, -1]")):
        CoefficientSequence.from_arrays(2, [(1, -1), (0, 0), (1.0, -1)], [1.0, 2.0, 3.0])
    text = json.dumps({"d": 1, "entries": [{"k": [4], "re": 1.0, "im": 0.0},
                                           {"k": [4], "re": 0.0, "im": 0.0}]})
    with pytest.raises(ValueError, match=re.escape("entries 0 and 1 repeat the index [4]")):
        CoefficientSequence.from_json(text)


def test_extreme_indices_kept_exactly():
    big = 2**63 - 1
    f = CoefficientSequence(d=2, entries={(big, -big): 1.0, (2.0**60, 1): 2.0})
    assert f.support() == [(2**60, 1), (big, -big)]
    assert CoefficientSequence.from_json(f.to_json()).support() == f.support()


@st.composite
def coefficient_sets(draw):
    # keys in a small box and amplitudes from a few values under sign and
    # conjugate changes, so amplitude and |k|_inf ties are common
    d = draw(st.integers(1, 3))
    keys = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), unique=True, max_size=30))
    base = [1.0, 0.5, 3.0, 1e-300, 0.1 + 0.2j, 2.5 - 1.5j]
    values = []
    for _ in keys:
        c = complex(draw(st.sampled_from(base)))
        c = c.conjugate() if draw(st.booleans()) else c
        values.append(-c if draw(st.booleans()) else c)
    return d, dict(zip(keys, values))


@settings(max_examples=200, deadline=None)
@given(coefficient_sets(), st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_greedy_and_json_match_dict_references(case, p):
    d, entries = case
    f = CoefficientSequence(d=d, entries=entries)
    kept = {k: v for k, v in entries.items() if v != 0}
    want = sorted(kept, key=lambda k: (-abs(kept[k]), max(abs(c) for c in k), k))
    assert [tuple(k) for k in greedy_order(f).tolist()] == want
    amps = [abs(kept[k]) for k in want]
    ns = list(range(len(want) + 2))
    assert greedy_remainders_sp(f, ns, p) == [
        float(np.sum(np.array(amps[n:], dtype=np.float64) ** p) ** (1.0 / p)) for n in ns]
    g = CoefficientSequence.from_json(f.to_json())
    assert np.array_equal(g.keys, f.keys) and g.keys.dtype == np.int64
    assert g.values.tobytes() == f.values.tobytes()
    assert dict(g.entries) == kept


def test_json_round_trip():
    f = CoefficientSequence(d=2, entries={(-3, 7): 1.5 - 0.25j, (0, 0): 2.0})
    g = CoefficientSequence.from_json(f.to_json())
    assert g.d == 2
    assert g.entries == f.entries
    # the serialized form is deterministic: keys in sorted order
    data = json.loads(f.to_json())
    assert [tuple(e["k"]) for e in data["entries"]] == [(-3, 7), (0, 0)]


def test_sp_norm_frozen():
    f = CoefficientSequence(d=1, entries={(0,): 3.0, (1,): -4.0})
    assert sp_norm(f, 2.0) == pytest.approx(5.0, rel=1e-15)
    assert sp_norm(f, 1.0) == pytest.approx(7.0, rel=1e-15)
    assert sp_norm(f, 0.5) == pytest.approx(13.92820323027551, rel=1e-14)
    assert sp_norm(CoefficientSequence(d=1), 2.0) == 0.0
    with pytest.raises(ValueError):
        sp_norm(f, 0.0)


def test_membership_norm_frozen():
    psi = WeightFunction("power", s=2.0)
    spec1 = FunctionClassSpec(q=1.0, r=math.inf, psi=psi, d=1)
    spec2 = FunctionClassSpec(q=2.0, r=math.inf, psi=psi, d=1)
    f = CoefficientSequence(d=1, entries={(0,): 0.5, (2,): 1.0, (-3,): 2.0})
    # weights psi(1)=1, psi(2)=1/4, psi(3)=1/9
    assert class_membership_norm(f, spec1) == pytest.approx(22.5, rel=1e-14)
    assert class_membership_norm(f, spec2) == pytest.approx(18.445866745696716, rel=1e-14)
    assert class_membership_norm(CoefficientSequence(d=1), spec1) == 0.0
    with pytest.raises(ValueError):
        class_membership_norm(CoefficientSequence(d=2), spec1)


def test_spec_validation():
    psi = WeightFunction("power", s=1.0)
    with pytest.raises(ValueError):
        FunctionClassSpec(q=0.0, r=math.inf, psi=psi, d=1)
    with pytest.raises(ValueError):
        FunctionClassSpec(q=1.0, r=-2.0, psi=psi, d=1)
    with pytest.raises(ValueError):
        FunctionClassSpec(q=1.0, r=1.0, psi=psi, d=0)


def test_greedy_order_tie_rules():
    f = CoefficientSequence(d=1, entries={(0,): 1.0, (1,): 1.0, (-1,): 1.0, (2,): 0.5})
    assert greedy_order(f).tolist() == [[0], [-1], [1], [2]]


def test_greedy_remainder_frozen():
    f = CoefficientSequence(d=1, entries={(0,): 3.0, (1,): -4.0, (5,): 1.0})
    assert greedy_remainder_sp(f, 0, 2.0) == pytest.approx(math.sqrt(26.0), rel=1e-14)
    assert greedy_remainder_sp(f, 1, 2.0) == pytest.approx(math.sqrt(10.0), rel=1e-14)
    assert greedy_remainder_sp(f, 2, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert greedy_remainder_sp(f, 3, 1.0) == 0.0
    assert greedy_remainder_sp(f, 7, 1.0) == 0.0
    with pytest.raises(ValueError):
        greedy_remainder_sp(f, -1, 2.0)
    with pytest.raises(ValueError):
        greedy_remainder_sp(f, 1, -2.0)


def test_greedy_remainders_match_greedy_order_sums():
    # one amplitude sort reproduces the sums in greedy order bit for bit
    rng = np.random.default_rng(29)
    keys = [(int(a), int(b)) for a, b in rng.integers(-9, 10, size=(40, 2))]
    amps = rng.choice([0.5, 1.0, 2.0], size=40) * np.exp(2j * np.pi * rng.random(40))
    f = CoefficientSequence(d=2, entries=dict(zip(keys, amps)))
    ns = [0, 3, 10, len(f.entries), len(f.entries) + 5]
    ordered = np.array([abs(f.entries[tuple(k)]) for k in greedy_order(f).tolist()])
    for p in (0.5, 1.0, 3.0):
        want = [float(np.sum(ordered[n:] ** p) ** (1.0 / p)) for n in ns]
        assert greedy_remainders_sp(f, ns, p) == want
    assert greedy_remainders_sp(CoefficientSequence(d=2), [0, 1], 2.0) == [0.0, 0.0]
    with pytest.raises(ValueError):
        greedy_remainders_sp(f, [2, -1], 1.0)


def test_greedy_matches_exhaustive_subsets():
    # the greedy remainder must equal the exact best n-term error
    rng = np.random.default_rng(7)
    for _ in range(60):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 9))
        keys = set()
        while len(keys) < m:
            keys.add(tuple(int(c) for c in rng.integers(-6, 7, size=d)))
        amps = rng.normal(size=m) + 1j * rng.normal(size=m)
        f = CoefficientSequence(d=d, entries=dict(zip(keys, amps)))
        m_eff = len(f.entries)
        for n in range(0, min(m_eff, 4) + 1):
            for p in (0.5, 1.0, 2.0, 3.0):
                best = math.inf
                for kept in itertools.combinations(f.entries, n):
                    rest = [abs(f.entries[k]) for k in f.entries if k not in set(kept)]
                    err = float(np.sum(np.array(rest) ** p) ** (1.0 / p)) if rest else 0.0
                    best = min(best, err)
                got = greedy_remainder_sp(f, n, p)
                assert got == pytest.approx(best, rel=1e-12, abs=1e-15)


def _class_scan_oracle(n: int, q: float, p: float, psi, kmax: int = 400) -> float:
    # direct scan over equal-amplitude configurations on the l largest
    # weights, d = 1 and r = inf: error = (l-n)^(1/p) (sum psi^-q)^(-1/q)
    k = np.arange(-kmax, kmax + 1)
    w = np.sort(psi(np.maximum(np.abs(k), 1.0)))[::-1]
    S = np.cumsum(w ** -q)
    l = np.arange(1, len(w) + 1, dtype=np.float64)
    good = l > n
    return float(np.max((l[good] - n) ** (1.0 / p) * S[good] ** (-1.0 / q)))


def test_class_best_nterm_sup_regime_scan_oracle():
    for psi in (WeightFunction("power", s=1.0), WeightFunction("power", s=2.0),
                WeightFunction("powerlog", s=1.0, eps=-1.0)):
        for q, p in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 3.0)):
            for n in (1, 3, 10):
                spec = FunctionClassSpec(q=q, r=math.inf, psi=psi, d=1)
                res = class_best_nterm_sp(spec, n, p)
                want = _class_scan_oracle(n, q, p, psi)
                assert res.regime == "sup"
                assert res.value == pytest.approx(want, rel=1e-10)


def test_class_best_nterm_tail_regime_mpmath_oracle():
    # q = 2, p = 1, psi(t) = t^-2, d = 1, r = inf, n = 3.  The rearranged
    # weight is 1, 1, 1/4, 1/4, 1/9, 1/9, ... and s = q/p = 2, s' = 2.
    n = 3
    m = np.arange(1, 2001, dtype=np.float64)
    w = np.concatenate(([1.0], np.repeat(m ** -2.0, 2)))
    S = np.cumsum(w ** -2.0)
    l = np.arange(1, len(w) + 1, dtype=np.float64)
    qvals = np.where(l > n, (l - n) / S, -np.inf)
    lstar = int(np.max(np.nonzero(qvals >= np.max(qvals) - 1e-12 * np.max(qvals))[0])) + 1
    head = (mpmath.mpf(lstar) - n) ** 2 / mpmath.mpf(float(S[lstar - 1]))
    total = 1 + 2 * mpmath.zeta(4)
    prefix = mpmath.mpf(float(np.cumsum(w ** 2.0)[lstar - 1]))
    want = float(mpmath.sqrt(head + (total - prefix)))

    psi = WeightFunction("power", s=2.0)
    spec = FunctionClassSpec(q=2.0, r=math.inf, psi=psi, d=1)
    res = class_best_nterm_sp(spec, n, 1.0, tol=1e-11)
    assert res.regime == "tail"
    assert res.l_star == lstar
    assert res.value == pytest.approx(want, rel=1e-9)


def test_class_best_nterm_matches_functional_wrapper():
    psi = WeightFunction("power", s=3.0)
    spec = FunctionClassSpec(q=2.0, r=1.0, psi=psi, d=2)
    res = class_best_nterm_sp(spec, 5, 1.0, tol=1e-9)
    base = h_functional(RearrangedWeight(psi, 1.0, 2), 5, 2.0, tol=1e-9)
    assert res.value == pytest.approx(base.value, rel=1e-15)
    assert res.l_star == base.l_star


def test_class_best_nterm_monotone_in_n():
    psi = WeightFunction("power", s=2.0)
    sup_spec = FunctionClassSpec(q=1.0, r=math.inf, psi=psi, d=1)
    tail_spec = FunctionClassSpec(q=2.0, r=math.inf, psi=psi, d=1)
    for spec, p in ((sup_spec, 2.0), (tail_spec, 1.0)):
        vals = [class_best_nterm_sp(spec, n, p).value for n in (1, 2, 4, 8, 16)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_class_best_nterm_divergent():
    # p < q with sum psi(|k|)^(pq/(q-p)) divergent: the harmonic case
    psi = WeightFunction("power", s=1.0)
    spec = FunctionClassSpec(q=1.0, r=math.inf, psi=psi, d=1)
    with pytest.raises(DivergentTailError):
        class_best_nterm_sp(spec, 2, 0.5)


def test_class_best_nterm_validation():
    psi = WeightFunction("power", s=2.0)
    spec = FunctionClassSpec(q=1.0, r=math.inf, psi=psi, d=1)
    with pytest.raises(ValueError):
        class_best_nterm_sp(spec, 1, 0.0)


def test_extremal_f1_support_and_membership():
    psi = WeightFunction("power", s=2.0)
    f = extremal_function_f1(8, 1.0, psi, 1)
    assert len(f.entries) == 17
    assert set(f.support()) == {(k,) for k in range(-8, 9)}
    amps = {abs(v) for v in f.entries.values()}
    assert len(amps) == 1
    # C1(8) = (1 + 2 sum_{m<=8} m^2)^-1 = 1/409
    assert abs(f.entries[(0,)]) == pytest.approx(1.0 / 409.0, rel=1e-14)
    spec = FunctionClassSpec(q=1.0, r=1.0, psi=psi, d=1)
    assert class_membership_norm(f, spec) == pytest.approx(1.0, rel=1e-12)

    g = extremal_function_f1(9, 2.0, psi, 2)
    assert len(g.entries) == 25
    assert max(abs(k[0]) + abs(k[1]) for k in g.entries) == 3
    spec2 = FunctionClassSpec(q=2.0, r=1.0, psi=psi, d=2)
    assert class_membership_norm(g, spec2) == pytest.approx(1.0, rel=1e-12)


def test_extremal_f1_validation():
    psi = WeightFunction("power", s=2.0)
    with pytest.raises(ValueError):
        extremal_function_f1(0, 1.0, psi, 2)
    with pytest.raises(ValueError):
        extremal_function_f1(8, 0.0, psi, 1)
    with pytest.raises(ValueError):
        extremal_function_f1(8, 1.0, psi, 0)


def _brute_force_sup_class_error(psi, r, d, q, p, n, radius):
    # rearrangement of psi(|k|_r)^p over the ball of the given radius, then
    # the sup of h(l) = (l - n) (sum_{j<=l} Psi^-s)^(-1/s), s = q/p, at every l
    shells = np.array([lattice.shell_index(k, r) for k in lattice.enumerate_ball(radius, r, d)])
    vals = np.sort(psi(np.maximum(shells[shells <= radius], 1)) ** p)[::-1]
    s = q / p
    l = np.arange(1, len(vals) + 1, dtype=np.float64)
    h = np.where(l > n, (l - n) * np.cumsum(vals ** -s) ** (-1.0 / s), -np.inf)
    best = int(np.argmax(h))
    assert l[best] < 0.5 * len(vals)  # the maximizer is interior to the ball
    return float(h[best]) ** (1.0 / p)


@pytest.mark.parametrize("r, d, psi, radius, ns", [
    (1.5, 2, WeightFunction("power", s=2.0), 40, (1, 2, 5, 11, 16)),
    (2.0, 3, WeightFunction("power", s=2.0), 14, (1, 2, 5, 11, 16)),
    (math.inf, 6, WeightFunction("power", s=7.0), 2, (1, 2, 4, 8)),
])
def test_class_best_nterm_enumerated_and_high_d_brute_force(r, d, psi, radius, ns):
    # configurations whose stream used to exhaust the point budget (r = 1.5,
    # r = 2 at d = 3) or wrap int64 counts (d = 6)
    spec = FunctionClassSpec(q=1.0, r=r, psi=psi, d=d)
    for n in ns:
        res = class_best_nterm_sp(spec, n, 2.0)
        assert res.regime == "sup"
        want = _brute_force_sup_class_error(psi, r, d, 1.0, 2.0, n, radius)
        assert res.value == pytest.approx(want, rel=1e-9)


def test_class_best_nterm_grid_brute_force(stream_count):
    # one stream serves an unsorted grid with a repeat; rows keep its order
    psi = WeightFunction("power", s=2.0)
    spec = FunctionClassSpec(q=1.0, r=1.5, psi=psi, d=2)
    ns = [16, 1, 5, 11, 5, 2]
    results = class_best_nterm_sp_grid(spec, ns, 2.0)
    assert len(stream_count) == 1
    for n, res in zip(ns, results):
        assert res.regime == "sup"
        want = _brute_force_sup_class_error(psi, 1.5, 2, 1.0, 2.0, n, 40)
        assert res.value == pytest.approx(want, rel=1e-9)


def test_stream_stays_inside_small_budget(monkeypatch):
    # the scan certifies within the first shells, so a 10 000-point budget
    # (radius 49 at d = 2) suffices for the enumerated r = 1.5 table
    radii = []
    original = weights.shell_counts

    def recorded(r, d, m_max, budget=None):
        radii.append(m_max)
        return original(r, d, m_max, budget=budget)

    monkeypatch.setattr(weights, "shell_counts", recorded)
    psi = WeightFunction("power", s=2.0)
    rw = RearrangedWeight(psi, 1.5, 2, p_power=2.0, budget=10_000)
    res = h_functional(rw, 4, 0.5)
    want = _brute_force_sup_class_error(psi, 1.5, 2, 1.0, 2.0, 4, 40) ** 2.0
    assert res.value == pytest.approx(want, rel=1e-9)
    assert radii and max(radii) <= 49
