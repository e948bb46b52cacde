#!/usr/bin/env python3
"""The equal-coefficient witness and its greedy approximation error.

Builds the boundary function with equal coefficients on an l1 ball,
checks that its weighted coefficient norm is exactly 1, then removes
the n largest coefficients and measures what is left, both in the
coefficient p-norm and in L_p on the torus.  The L_p error follows the
predicted rate psi(n) / n^(1/q + 1/p - 1) for p >= 2.
"""

from nterm.approx import class_membership_norm, extremal_function_f1, greedy_remainder_sp
from nterm.approx import FunctionClassSpec
from nterm.rates import predicted_rate, rate_table, ratio_window
from nterm.weights import WeightFunction


def main():
    psi = WeightFunction("power", s=2.0)
    q, p = 1.0, 4.0
    spec = FunctionClassSpec(q=q, r=1.0, psi=psi, d=1)
    print(f"{'n':>5} {'membership':>11} {'support':>8} {'S^p remainder':>14}")
    for n in (8, 32, 128):
        f = extremal_function_f1(n, q, psi, 1)
        print(f"{n:>5} {class_membership_norm(f, spec):>11.8f} "
              f"{len(f.keys):>8} {greedy_remainder_sp(f, n, p):>14.6e}")
    print()

    table = rate_table("greedy_lp_witness", [8, 16, 32, 64, 128, 256], psi, 1, q=q, p=p)
    k1, k2 = ratio_window(table)
    print("greedy L_p error of the witness vs predicted rate:")
    print(f"{'n':>5} {'computed':>14} {'predicted':>14} {'ratio':>8}")
    for n, c, pr, ra in zip(table.n, table.computed, table.predicted, table.ratio):
        print(f"{int(n):>5} {c:>14.6e} {pr:>14.6e} {ra:>8.4f}")
    print(f"ratio window: K1 = {k1:.4f}, K2 = {k2:.4f} (K2/K1 = {k2 / k1:.3f})")
    print(f"prediction at n = 256: {predicted_rate('thm31_p_ge_2', 256, psi, 1, q=q, p=p):.3e}")


if __name__ == "__main__":
    main()
