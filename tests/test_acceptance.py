"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one summary line (visible with ``pytest -s``); the
toleranced assertions and runtime caps are part of the criterion.
"""

import itertools
import math
import time

import numpy as np
from conftest import ExplicitSequence, stream_runs

from nterm import lattice
from nterm.approx import (
    CoefficientSequence,
    FunctionClassSpec,
    class_best_nterm_sp,
    class_membership_norm,
    extremal_function_f1,
    greedy_remainder_sp,
    sp_norm,
)
from nterm.functionals import find_l_star, h_functional
from nterm.trig_lp import GridSpec, evaluate_on_grid, hausdorff_young_gap
from nterm.weights import RearrangedWeight, WeightFunction

P1 = WeightFunction("power", s=1.0)
P2 = WeightFunction("power", s=2.0)
PL = WeightFunction("powerlog", s=1.0, eps=-1.0)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_rearrangement_oracle():
    t0 = time.perf_counter()
    checked = 0
    for d in (1, 2):
        for r in (1.0, math.inf):
            pts = lattice.enumerate_ball(20, r, d)
            norms = np.array([lattice.quasi_norm(k, r) for k in pts])
            for psi in (P1, P2, PL):
                want = np.sort(psi(norms))[::-1]
                m, _ = stream_runs(RearrangedWeight(psi, r, d), len(pts))
                got = psi(np.maximum(m, 1))
                assert np.array_equal(got, want)
                checked += 1
    elapsed = time.perf_counter() - t0
    _line(1, checked == 12 and elapsed < 1.0,
          f"{checked} configurations elementwise exact, {elapsed:.2f}s < 1s")


def test_criterion_02_greedy_exhaustive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 11))
        keys = set()
        while len(keys) < m:
            keys.add(tuple(int(c) for c in rng.integers(-8, 9, size=d)))
        amps = rng.normal(size=m) + 1j * rng.normal(size=m)
        f = CoefficientSequence(d=d, entries=dict(zip(keys, amps)))
        absamps = np.abs(np.array(list(f.entries.values())))
        for n in range(0, min(len(f.entries), 3) + 1):
            for p in (0.5, 1.0, 2.0, 3.0):
                best = math.inf
                for kept in itertools.combinations(range(len(absamps)), n):
                    rest = np.delete(absamps, kept)
                    err = float(np.sum(rest**p) ** (1.0 / p)) if rest.size else 0.0
                    best = min(best, err)
                got = greedy_remainder_sp(f, n, p)
                worst = max(worst, abs(got - best) / max(1.0, best))
    elapsed = time.perf_counter() - t0
    _line(2, worst <= 1e-12 and elapsed < 5.0,
          f"200 sequences, max deviation {worst:.2e} <= 1e-12, {elapsed:.2f}s < 5s")


def _draw_weight(rng) -> WeightFunction:
    fam = ("power", "powerlog", "log", "exp")[int(rng.integers(0, 4))]
    if fam == "power":
        return WeightFunction("power", s=float(rng.uniform(0.5, 3.0)))
    if fam == "powerlog":
        return WeightFunction("powerlog", s=float(rng.uniform(0.5, 3.0)),
                              eps=float(rng.uniform(-2.0, 2.0)))
    if fam == "log":
        return WeightFunction("log", eps=float(rng.uniform(-3.0, -0.3)))
    return WeightFunction("exp", R=float(rng.uniform(1.1, 3.0)))


def test_criterion_03_unimodality_and_l_star():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    L = 100_000
    j = np.arange(1, L + 1, dtype=np.float64)
    for _ in range(100):
        psi = _draw_weight(rng)
        r = (1.0, math.inf)[int(rng.integers(0, 2))]
        d = int(rng.integers(1, 3))
        n = int(rng.integers(4, 65))
        s = float(rng.uniform(1.1, 4.0))
        rw = RearrangedWeight(psi, r, d)
        log_terms = -s * stream_runs(rw, L)[1]
        logS = np.logaddexp.accumulate(log_terms)
        with np.errstate(divide="ignore"):
            logq = np.where(j > n, np.log(np.maximum(j - n, 1e-300)), -np.inf) - logS
        peak = int(np.argmax(logq))
        diffs = np.diff(logq[n:])
        rel = peak - n
        assert np.all(diffs[:rel] >= -1e-9), f"Q not nondecreasing before peak for {psi.spec_string()}"
        assert np.all(diffs[rel:] <= 1e-9), f"Q not nonincreasing after peak for {psi.spec_string()}"
        ties = np.nonzero(logq >= logq[peak] - 1e-12)[0]
        want = int(ties.max()) + 1
        got = find_l_star(rw, n, s, scan_budget=200_000)
        assert got == want, f"l* mismatch: {got} != {want} for {psi.spec_string()}, n={n}, s={s:.3f}"
    elapsed = time.perf_counter() - t0
    _line(3, elapsed < 30.0, f"100 configurations unimodal, l* matched, {elapsed:.1f}s < 30s")


def _batch_class_error(bmat: np.ndarray, w: np.ndarray, n: int, q: float, p: float) -> np.ndarray:
    a = w[None, :] * bmat ** (1.0 / q)
    a = np.sort(a, axis=1)[:, ::-1]
    return np.sum(a[:, n:] ** p, axis=1) ** (1.0 / p)


def _class_sup_oracle(w: np.ndarray, n: int, q: float, p: float, seed: int) -> float:
    # random search over the simplex b_k = (a_k / psi_k)^q followed by
    # coordinate ascent via vertex mixes and single-coordinate drains
    rng = np.random.default_rng(seed)
    K = len(w)
    cands = []
    for alpha in (0.03, 0.1, 0.3, 1.0):
        g = rng.gamma(alpha, size=(8192, K))
        g /= np.maximum(g.sum(axis=1, keepdims=True), 1e-300)
        cands.append(g)
    prefix = np.zeros((2 * (K - n), K))
    for i, l in enumerate(range(n + 1, K + 1)):
        prefix[2 * i, :l] = 1.0 / l
        # equal amplitudes a_j = c on the l largest weights
        prefix[2 * i + 1, :l] = w[:l] ** -q / np.sum(w[:l] ** -q)
    cands.append(prefix)
    shaped = []
    for theta in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0):
        prof = w**theta
        for l in range(n + 1, K + 1, 7):
            for beta in (0.05, 0.15, 0.3, 0.6):
                v = np.zeros(K)
                v[:l] = w[:l] ** -q
                v[:l] *= (1.0 - beta) / v[:l].sum()
                tail = prof[l:]
                if tail.size and tail.sum() > 0:
                    v[l:] = beta * tail / tail.sum()
                v /= v.sum()
                shaped.append(v)
    if shaped:
        cands.append(np.array(shaped))
    C = np.vstack(cands)
    vals = _batch_class_error(C, w, n, q, p)
    order = np.argsort(vals)[::-1]
    best_val = float(vals[order[0]])
    taus = (0.3, 0.1, 0.03, 0.01)
    eye = np.eye(K)
    for start in order[:3]:
        b = C[start].copy()
        cur = float(_batch_class_error(b[None, :], w, n, q, p)[0])
        stale = 0
        for _ in range(150):
            block = []
            for tau in taus:
                block.append((1.0 - tau) * b[None, :] + tau * eye)
                drained = b[None, :] * (1.0 - tau * eye)
                drained = drained / drained.sum(axis=1, keepdims=True)
                block.append(drained)
            Cb = np.vstack(block)
            v = _batch_class_error(Cb, w, n, q, p)
            i = int(np.argmax(v))
            if v[i] > cur * (1.0 + 1e-14):
                cur = float(v[i])
                b = Cb[i]
                stale = 0
            else:
                stale += 1
                if stale >= 3:
                    break
        best_val = max(best_val, cur)
    return best_val


def test_criterion_04_formula_vs_brute_force():
    t0 = time.perf_counter()
    k = np.arange(-32, 33)
    w = np.sort(P2(np.maximum(np.abs(k), 1.0)))[::-1]
    worst_gap = 0.0
    for q, p in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        spec = FunctionClassSpec(q=q, r=math.inf, psi=P2, d=1)
        for n in (2, 4, 8):
            formula = class_best_nterm_sp(spec, n, p, tol=1e-10).value
            oracle = _class_sup_oracle(w, n, q, p, seed=n * 100 + int(q * 10 + p))
            assert formula >= oracle * (1.0 - 1e-9), (
                f"formula {formula} below oracle {oracle} at q={q}, p={p}, n={n}")
            gap = (formula - oracle) / formula
            worst_gap = max(worst_gap, gap)
            assert gap < 0.01, f"gap {gap:.4%} at q={q}, p={p}, n={n}"
    elapsed = time.perf_counter() - t0
    _line(4, elapsed < 120.0,
          f"9 configurations, max relative gap {worst_gap:.3%} < 1%, {elapsed:.1f}s < 2min")


def test_criterion_05_constant_case_limit():
    t0 = time.perf_counter()
    ones = ExplicitSequence(lambda j: np.ones_like(np.asarray(j, dtype=np.float64)))
    res = h_functional(ones, 5, 1.0, scan_budget=1_000_000)
    elapsed = time.perf_counter() - t0
    ok = (1.0 - 1e-3) <= res.value <= 1.0 and elapsed < 1.0
    _line(5, ok, f"value {res.value:.6f} in [0.999, 1], {elapsed:.2f}s < 1s")


def test_criterion_06_h_functional_order_window():
    t0 = time.perf_counter()
    ns = [2**i for i in range(4, 13)]
    worst = 0.0
    for d in (1, 2):
        for s in (0.5, 2.0):
            ratios = []
            for n in ns:
                rw = RearrangedWeight(P2, math.inf, d)
                h = h_functional(rw, n, s, tol=1e-9, scan_budget=2_000_000).value
                ratios.append(h * n ** (1.0 / s - 1.0) / float(P2(n ** (1.0 / d))))
            spread = max(ratios) / min(ratios)
            worst = max(worst, spread)
            assert spread < 10.0, f"window {spread:.2f} >= 10 at d={d}, s={s}"
    elapsed = time.perf_counter() - t0
    _line(6, elapsed < 60.0, f"4 windows, worst max/min {worst:.2f} < 10, {elapsed:.1f}s < 1min")


def test_criterion_07_class_error_order_window_and_embedding():
    t0 = time.perf_counter()
    ns = [2**i for i in range(4, 13)]
    worst = 0.0
    for d in (1, 2):
        for q, p in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
            values = {}
            for r in (1.0, math.inf):
                spec = FunctionClassSpec(q=q, r=r, psi=P2, d=d)
                vals = [
                    class_best_nterm_sp(spec, n, p, tol=1e-9, scan_budget=2_000_000).value
                    for n in ns
                ]
                values[r] = vals
                ratios = [
                    v * n ** (1.0 / q - 1.0 / p) / float(P2(n ** (1.0 / d)))
                    for v, n in zip(vals, ns)
                ]
                spread = max(ratios) / min(ratios)
                worst = max(worst, spread)
                assert spread < 10.0, f"window {spread:.2f} >= 10 at d={d}, r={r}, q={q}, p={p}"
            for v1, vinf in zip(values[1.0], values[math.inf]):
                assert v1 <= vinf * (1.0 + 1e-12), (
                    f"embedding violated at d={d}, q={q}, p={p}: {v1} > {vinf}")
    elapsed = time.perf_counter() - t0
    _line(7, elapsed < 120.0,
          f"12 windows, worst max/min {worst:.2f} < 10, embedding held, {elapsed:.1f}s < 2min")


def test_criterion_08_shell_growth_constants():
    t0 = time.perf_counter()
    details = []
    for d in (1, 2, 3):
        fit = lattice.fit_growth_bounds(lattice.shell_counts(math.inf, d, 64))
        want = 2.0**d
        err = abs(fit.M0 - want) / want
        assert err < 0.01, f"r=inf d={d}: M0={fit.M0:.4f} vs {want} ({err:.2%})"
        fit = lattice.fit_growth_bounds(lattice.shell_counts(1.0, d, 64))
        want = 2.0**d / math.factorial(d)
        err1 = abs(fit.M0 - want) / want
        assert err1 < 0.05, f"r=1 d={d}: M0={fit.M0:.4f} vs {want} ({err1:.2%})"
        details.append(f"d={d}: {err:.2%}/{err1:.2%}")
    elapsed = time.perf_counter() - t0
    _line(8, elapsed < 10.0, f"M0 errors {'; '.join(details)}, {elapsed:.2f}s < 10s")


def test_criterion_09_exponential_sum_window():
    t0 = time.perf_counter()
    rng = np.random.default_rng(97)
    k1 = {p: math.inf for p in (2.0, 4.0, 6.0)}
    worst_gap = 0.0
    for n in (8, 16, 32, 64, 128, 256):
        pool = np.arange(-2 * n, 2 * n + 1)
        for trial in range(50):
            gamma = rng.choice(pool, size=n, replace=False)
            kmax = int(np.max(np.abs(gamma)))
            N = 6 * max(kmax, 1) + 1
            f = CoefficientSequence(d=1, entries={(int(v),): 1.0 for v in gamma})
            vals = np.abs(evaluate_on_grid(f, GridSpec(d=1, N=N)))
            for p in (2.0, 4.0, 6.0):
                norm = float(np.mean(vals**p) ** (1.0 / p))
                ratio = norm / n ** (1.0 - 1.0 / p)
                assert ratio <= 1.0 + 1e-9, f"ratio {ratio} above 1 at n={n}, p={p}"
                k1[p] = min(k1[p], ratio)
                gap = sp_norm(f, p / (p - 1.0)) - norm
                worst_gap = min(worst_gap, gap)
                assert gap >= -1e-9, f"HY gap {gap} at n={n}, p={p}"
            if trial == 0:
                # the library's gap agrees with the shared-grid computation
                lib_gap = hausdorff_young_gap(f, 4.0, GridSpec(d=1, N=N))
                manual = sp_norm(f, 4.0 / 3.0) - float(np.mean(vals**4.0) ** 0.25)
                assert abs(lib_gap - manual) <= 1e-10 * max(1.0, abs(manual))
    ok = all(v > 0.05 for v in k1.values())
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"K1(p={p:g})={v:.3f}" for p, v in sorted(k1.items()))
    _line(9, ok and elapsed < 120.0,
          f"{detail} all > 0.05, min HY gap {worst_gap:.1e} >= -1e-9, {elapsed:.1f}s < 2min")


def test_criterion_10_extremal_witness():
    t0 = time.perf_counter()
    ns = [2**i for i in range(6, 13)]
    worst = 0.0
    for q in (1.0, 2.0):
        spec = FunctionClassSpec(q=q, r=1.0, psi=P2, d=1)
        ratios = []
        for n in ns:
            f = extremal_function_f1(n, q, P2, 1)
            member = class_membership_norm(f, spec)
            assert member <= 1.0 + 1e-12, f"membership {member} at n={n}, q={q}"
            c1 = abs(f.entries[(0,)])
            ratios.append(c1 * n ** (1.0 / q) / float(P2(float(n))))
        spread = max(ratios) / min(ratios)
        worst = max(worst, spread)
        assert spread < 10.0, f"window {spread:.2f} >= 10 at q={q}"
    elapsed = time.perf_counter() - t0
    _line(10, elapsed < 30.0,
          f"membership <= 1+1e-12, worst C1 window {worst:.2f} < 10, {elapsed:.1f}s < 30s")
