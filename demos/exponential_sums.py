#!/usr/bin/env python3
"""L_p norms of unit exponential sums with random integer frequencies.

Draws n distinct frequencies from [-2n, 2n] and measures the L_p norm
of sum e^{ikx} on an exact quadrature grid.  Parseval forces exactly
sqrt(n) at p = 2; for larger p the norm stays within a constant window
below the trivial bound n^(1 - 1/p).  The last column watches the
Hausdorff-Young gap, which must never go negative.
"""

import numpy as np

from nterm.approx import CoefficientSequence
from nterm.trig_lp import GridSpec, exponential_sum_norm, hausdorff_young_gap


def main():
    rng = np.random.default_rng(1)
    trials = 20
    print(f"{'n':>5} {'p':>3} {'mean ratio':>11} {'min':>8} {'max':>8} {'min HY gap':>11}")
    for n in (16, 64, 256):
        pool = np.arange(-2 * n, 2 * n + 1)
        gammas = [rng.choice(pool, size=n, replace=False) for _ in range(trials)]
        for p in (2.0, 4.0, 6.0):
            ratios, gaps = [], []
            for gamma in gammas:
                kmax = int(np.max(np.abs(gamma)))
                g = GridSpec(d=1, N=6 * kmax + 1)
                keys = [(int(k),) for k in gamma]
                val = exponential_sum_norm(keys, p, g)
                ratios.append(val / n ** (1.0 - 1.0 / p))
                f = CoefficientSequence(d=1, entries={k: 1.0 for k in keys})
                gaps.append(hausdorff_young_gap(f, p, g))
            print(f"{n:>5} {p:>3g} {np.mean(ratios):>11.4f} {min(ratios):>8.4f} "
                  f"{max(ratios):>8.4f} {min(gaps):>11.3e}")
    print()
    print("ratio = 1 exactly at p = 2 (Parseval); the window narrows")
    print("as n grows, and every gap is nonnegative up to rounding")


if __name__ == "__main__":
    main()
