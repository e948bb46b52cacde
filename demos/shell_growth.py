#!/usr/bin/env python3
"""Shell structure of the integer lattice under several quasi-norms.

Counts the lattice points in shells m-1 < |k|_r <= m and compares the
cumulative count V_64 with M0 * 64^d, where M0 is the exact volume of
the unit l_r ball (lattice.ball_volume): V_m ~ M0 * m^d.
"""

import math

import numpy as np

from nterm import lattice


def main():
    print(f"{'r':>5} {'d':>2} {'M0':>10} {'V_64/(M0 64^d)':>15}  first shells (nu_0..nu_5)")
    for r in (1.0, 2.0, math.inf):
        for d in (1, 2, 3):
            if not lattice.has_closed_counts(r, d) and d > 2:
                continue
            V = lattice.shell_counts(r, d, 64)
            M0 = lattice.ball_volume(r, d)
            head = ", ".join(str(int(v)) for v in np.diff(V, prepend=0)[:6])
            rr = "inf" if math.isinf(r) else f"{r:g}"
            print(f"{rr:>5} {d:>2} {M0:>10.4f} {V[64] / (M0 * 64.0**d):>15.6f}  [{head}]")
    print()
    print("M0 = (2 Gamma(1 + 1/r))^d / Gamma(1 + d/r): 2^d for r=inf,")
    print("2^d/d! for r=1, pi for r=2 d=2; the ratio tends to 1 as m grows")


if __name__ == "__main__":
    main()
