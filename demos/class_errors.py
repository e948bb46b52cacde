#!/usr/bin/env python3
"""Exact best n-term class errors and the quasi-norm embedding.

Computes e_n for the weighted coefficient class in the p coefficient
norm for several (q, p), under both the l1 and the max quasi-norm on
the frequency index.  Since |k|_1 >= |k|_inf, the r=1 class is smaller
and its errors sit below the r=inf ones at every n.
"""

import math

from nterm.approx import FunctionClassSpec, class_best_nterm_sp
from nterm.weights import WeightFunction


def main():
    psi = WeightFunction("power", s=2.0)
    d = 2
    for q, p in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)):
        print(f"q = {q:g}, p = {p:g}, d = {d}")
        print(f"  {'n':>5} {'e_n (r=1)':>14} {'e_n (r=inf)':>14} {'ratio':>8}")
        for n in (16, 64, 256, 1024):
            vals = {}
            for r in (1.0, math.inf):
                spec = FunctionClassSpec(q=q, r=r, psi=psi, d=d)
                vals[r] = class_best_nterm_sp(spec, n, p).value
            print(f"  {n:>5} {vals[1.0]:>14.6e} {vals[math.inf]:>14.6e} "
                  f"{vals[1.0] / vals[math.inf]:>8.4f}")
        print()
    print("both columns decay like psi(n^(1/d)) / n^(1/q - 1/p);")
    print("the ratio column stays below 1 (embedding) and roughly constant")


if __name__ == "__main__":
    main()
