#!/usr/bin/env python3
"""Extremal functional H_n across both evaluation regimes.

For s <= 1 the functional is a supremum over threshold lengths; for
s > 1 it combines the threshold head with a certified infinite tail.
Either way the value tracks psi(n^(1/d)) * n^(1 - 1/s) up to constants,
which the ratio column makes visible.
"""

import math

from nterm.functionals import h_functional
from nterm.weights import RearrangedWeight, WeightFunction


def main():
    psi = WeightFunction("power", s=2.0)
    for s in (0.5, 1.0, 2.0):
        print(f"s = {s:g}  (regime: {'sup' if s <= 1 else 'tail'})")
        print(f"  {'n':>6} {'H_n':>14} {'l*':>8} {'H_n / rate':>12}")
        for n in (16, 64, 256, 1024, 4096):
            rw = RearrangedWeight(psi, math.inf, 1)
            res = h_functional(rw, n, s, tol=1e-9, scan_budget=2_000_000)
            rate = float(psi(float(n))) * n ** (1.0 - 1.0 / s)
            lstar = res.l_star if res.l_star is not None else "-"
            print(f"  {n:>6} {res.value:>14.6e} {lstar:>8} {res.value / rate:>12.4f}")
        print()
    print("the last column stabilizing is the order estimate at work;")
    print("l* grows proportionally to n")


if __name__ == "__main__":
    main()
