"""Evaluation of trigonometric polynomials and L_p norms on the torus.

Values of ``sum_k c_k e^{i(k, x)}`` on the uniform grid
``x_j = 2 pi j / N`` per coordinate come from one scatter and one
inverse FFT: each ``c_k`` is added to the DFT bin ``k mod N`` (aliased
frequencies agree on the grid, so their coefficients add up), and the
unnormalized inverse DFT of the bins is the polynomial at every grid
point, in O(N^d log N^d) time for any number of terms.  L_p norms use
the rectangle rule ``((1/N^d) sum |f(x_j)|^p)^(1/p)``, normalized so a
single exponential has norm 1 for every p.

For even integer p the rectangle rule integrates ``|f|^p`` exactly (up
to rounding) whenever ``N > p * max|k|_inf``, since the integrand is a
trigonometric polynomial of per-coordinate degree at most
``p * max|k|_inf`` and the grid annihilates every nonzero frequency not
divisible by N.  Other p report a plain Riemann sum;
:func:`is_exact_quadrature` distinguishes the two cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import CoefficientSequence, sp_norm
from .lattice import BudgetExceededError, point_budget


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid with N points per coordinate on [0, 2 pi)^d."""

    d: int
    N: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"need d >= 1, got d={self.d}")
        if self.N < 1:
            raise ValueError(f"need N >= 1, got N={self.N}")

    @property
    def total_points(self) -> int:
        return self.N**self.d


def max_abs_frequency(f: CoefficientSequence) -> int:
    """max_k |k|_inf over the support (0 for the empty sequence)."""
    return int(np.abs(f.keys).max()) if len(f.keys) else 0


def evaluate_on_grid(f: CoefficientSequence, g: GridSpec, budget: int | None = None) -> np.ndarray:
    """Sample the polynomial on the grid; shape (N,) * d, complex.

    Scatters each coefficient to bin ``k mod N`` of an (N,) * d array and
    returns its unnormalized inverse FFT, which equals the direct sum at
    every grid point up to rounding.  Memory is the N^d complex bin
    array plus the FFT's output and scratch; the budget check runs before
    any of it is allocated.

    Raises
    ------
    BudgetExceededError
        If N^d exceeds the point budget (see :func:`lattice.point_budget`).
    ValueError
        On dimension mismatch.
    """
    if f.d != g.d:
        raise ValueError(f"dimension mismatch: f.d={f.d}, grid d={g.d}")
    limit = point_budget(budget)
    if g.total_points > limit:
        raise BudgetExceededError(f"grid needs {g.total_points} points, budget is {limit}")
    C = np.zeros((g.N,) * g.d, dtype=np.complex128)
    # frequencies congruent mod N meet the same grid values, so their
    # coefficients add up in one DFT bin
    np.add.at(C, tuple(np.mod(f.keys, g.N).T), f.values)
    # unnormalized inverse DFT: sum_m C[m] e^{2 pi i (m, j) / N}
    return np.fft.ifftn(C, norm="forward")


def lp_norm(f: CoefficientSequence, p: float, g: GridSpec, budget: int | None = None) -> float:
    """Rectangle-rule L_p norm of the polynomial on the grid, p >= 1.

    Exact (up to rounding) for even integer p with N > p * max|k|_inf;
    a Riemann approximation otherwise (see is_exact_quadrature).
    """
    if not p >= 1:
        raise ValueError(f"need p >= 1, got p={p}")
    vals = np.abs(evaluate_on_grid(f, g, budget=budget))
    return float((np.mean(vals.ravel() ** p)) ** (1.0 / p))


def _even_integer(p: float) -> bool:
    return p == int(p) and int(p) % 2 == 0


def is_exact_quadrature(f: CoefficientSequence, p: float, g: GridSpec) -> bool:
    """True when the rectangle rule is exact for this (f, p, grid)."""
    return _even_integer(p) and g.N > p * max_abs_frequency(f)


def grid_points(p: float, kmax: int, other: int) -> int:
    """Points per coordinate for the L_p rectangle rule of a polynomial
    with max|k|_inf = kmax.

    For even integer p this is ``p * kmax + 1``, the smallest N at which
    the rule is exact; for other p, whose rectangle-rule value depends
    on N, it is the caller's ``other``.
    """
    if _even_integer(p):
        return int(p) * max(kmax, 1) + 1
    return other


def exponential_sum_norm(gamma, p: float, g: GridSpec, budget: int | None = None) -> float:
    """L_p norm of the unit-coefficient exponential sum over gamma.

    ``gamma`` is an (m, d) array or an iterable of distinct integer
    multi-indices; a repeated index is a ValueError.
    """
    gamma = gamma if isinstance(gamma, np.ndarray) else list(gamma)
    if not len(gamma):
        return 0.0
    f = CoefficientSequence.from_arrays(g.d, gamma, np.ones(len(gamma)))
    return lp_norm(f, p, g, budget=budget)


def hausdorff_young_gap(f: CoefficientSequence, p: float, g: GridSpec, budget: int | None = None) -> float:
    """sp_norm(f, p') - lp_norm(f, p) for p >= 2, p' = p/(p-1).

    Nonnegative up to quadrature error: the coefficient p'-norm
    dominates the L_p norm.
    """
    if not p >= 2:
        raise ValueError(f"need p >= 2, got p={p}")
    p_prime = p / (p - 1.0)
    return sp_norm(f, p_prime) - lp_norm(f, p, g, budget=budget)
