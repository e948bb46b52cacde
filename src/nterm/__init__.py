"""n-term approximation characteristics of weighted Fourier classes.

Submodules: lattice (shell decompositions of the integer lattice),
weights (admissible weight functions and their rearrangements),
functionals (extremal threshold functionals), approx (coefficient
sequences, greedy and exact class n-term errors), trig_lp (grid
evaluation and L_p norms of trigonometric polynomials), rates
(order-estimate tables), cli (command-line interface).

Import names from the submodules, e.g. ``from nterm.lattice import
shell_counts``; the package root carries only ``__version__``.
"""

__version__ = "0.1.0"
