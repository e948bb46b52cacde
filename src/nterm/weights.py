"""Decreasing weight functions and their lazy rearrangements over Z^d.

A weight ``psi`` maps t >= 1 to a positive value, with the convention
``psi(0) := psi(1)`` for the origin.  Supported families (closed set,
all with analytic derivatives):

=========  =======================  ==========================
tag        formula                  parameters
=========  =======================  ==========================
power      t^(-s)                   s > 0
powerlog   t^(-s) * ln^eps(t + e)   s > 0, eps real
log        ln^eps(t + e)            eps < 0
exp        R^(-t)                   R > 1
const      1                        (boundary case; derivative 0)
=========  =======================  ==========================

The decay characteristic ``alpha(psi, t) = psi(t) / (t * |psi'(t)|)``
drives the hypothesis checks: membership evidence for the class of
slowly-vanishing weights (ratio psi(t)/psi(ct) staying in (1, K]) and
the decay condition ``sup alpha < s' / d`` with ``s' = s/(s-1)``.

A :class:`RearrangedWeight` is the nonincreasing rearrangement of
``{psi(|k|_r) : k in Z^d}`` as a step sequence on j = 1, 2, ...: the
value on shell m (positions V_{m-1} < j <= V_m) is ``psi(m)^p_power``.
It is described by ``(psi, r, d)`` alone and read only as a stream of
shell blocks (``iter_blocks()``); each stream builds its own shell
table and grows it as far as the stream is consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import shell_counts

_FAMILIES = ("power", "powerlog", "log", "exp", "const")


class ZeroDerivativeError(ValueError):
    """alpha(psi, t) is undefined because psi'(t) vanishes."""


@dataclass(frozen=True)
class WeightFunction:
    """One member of the closed weight-family enumeration above."""

    family: str
    s: float = 0.0
    eps: float = 0.0
    R: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown weight family {self.family!r}, expected one of {_FAMILIES}")
        if not all(math.isfinite(v) for v in (self.s, self.eps, self.R)):
            raise ValueError(
                f"weight parameters must be finite, got s={self.s}, eps={self.eps}, R={self.R}"
            )
        if self.family in ("power", "powerlog") and not self.s > 0:
            raise ValueError(f"family {self.family!r} needs s > 0, got s={self.s}")
        if self.family == "log" and not self.eps < 0:
            raise ValueError(f"family 'log' needs eps < 0, got eps={self.eps}")
        if self.family == "exp" and not self.R > 1:
            raise ValueError(f"family 'exp' needs R > 1, got R={self.R}")

    # --- evaluation (scalar or ndarray, t >= 0 with psi(0) := psi(1)) ---

    def __call__(self, t):
        t = np.maximum(np.asarray(t, dtype=np.float64), 1.0)
        if self.family == "power":
            out = t ** (-self.s)
        elif self.family == "powerlog":
            out = t ** (-self.s) * np.log(t + math.e) ** self.eps
        elif self.family == "log":
            out = np.log(t + math.e) ** self.eps
        elif self.family == "exp":
            out = self.R ** (-t)
        else:
            out = np.ones_like(t)
        return out if out.ndim else float(out)

    def log_value(self, t):
        """log psi(t), stable for values far below the float range."""
        t = np.maximum(np.asarray(t, dtype=np.float64), 1.0)
        if self.family == "power":
            out = -self.s * np.log(t)
        elif self.family == "powerlog":
            out = -self.s * np.log(t) + self.eps * np.log(np.log(t + math.e))
        elif self.family == "log":
            out = self.eps * np.log(np.log(t + math.e))
        elif self.family == "exp":
            out = -t * math.log(self.R)
        else:
            out = np.zeros_like(t)
        return out if out.ndim else float(out)

    def derivative(self, t):
        """Analytic psi'(t) for t >= 1."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 1.0):
            raise ValueError("derivative defined for t >= 1")
        if self.family == "power":
            out = -self.s * t ** (-self.s - 1.0)
        elif self.family == "powerlog":
            ln = np.log(t + math.e)
            out = t ** (-self.s) * ln ** (self.eps - 1.0) * (
                self.eps / (t + math.e) - self.s * ln / t
            )
        elif self.family == "log":
            out = self.eps * np.log(t + math.e) ** (self.eps - 1.0) / (t + math.e)
        elif self.family == "exp":
            out = -math.log(self.R) * self.R ** (-t)
        else:
            out = np.zeros_like(t)
        return out if out.ndim else float(out)

    def raised_to(self, a: float) -> "WeightFunction":
        """The pointwise power psi^a, again inside the family enumeration."""
        if self.family == "power":
            return WeightFunction("power", s=self.s * a)
        if self.family == "powerlog":
            return WeightFunction("powerlog", s=self.s * a, eps=self.eps * a)
        if self.family == "log":
            return WeightFunction("log", eps=self.eps * a)
        if self.family == "exp":
            return WeightFunction("exp", R=self.R**a)
        return self

    def spec_string(self) -> str:
        """Config-string form accepted by parse_weight."""
        if self.family == "power":
            return f"power:s={self.s:g}"
        if self.family == "powerlog":
            return f"powerlog:s={self.s:g},eps={self.eps:g}"
        if self.family == "log":
            return f"log:eps={self.eps:g}"
        if self.family == "exp":
            return f"exp:R={self.R:g}"
        return "const"


def parse_weight(spec: str) -> WeightFunction:
    """Parse a weight config string such as ``power:s=1.5``.

    Grammar: ``family[:key=value[,key=value...]]`` with families
    power (s), powerlog (s, eps), log (eps), exp (R), const.

    Raises
    ------
    ValueError
        On unknown family, unknown/missing keys, or bad numbers.
    """
    text = spec.strip()
    family, _, rest = text.partition(":")
    family = family.strip().lower()
    kv: dict[str, float] = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise ValueError(f"bad weight parameter {item!r} in {spec!r} (expected key=value)")
            try:
                kv[key.strip()] = float(val)
            except ValueError:
                raise ValueError(f"bad numeric value {val!r} in weight spec {spec!r}") from None
    expected = {"power": {"s"}, "powerlog": {"s", "eps"}, "log": {"eps"}, "exp": {"R"}, "const": set()}
    if family not in expected:
        raise ValueError(f"unknown weight family {family!r} in {spec!r}")
    if set(kv) != expected[family]:
        raise ValueError(
            f"weight family {family!r} takes parameters {sorted(expected[family])}, got {sorted(kv)}"
        )
    return WeightFunction(family, s=kv.get("s", 0.0), eps=kv.get("eps", 0.0), R=kv.get("R", 0.0))


def alpha(psi: WeightFunction, t):
    """Decay characteristic psi(t) / (t * |psi'(t)|) for t >= 1.

    Raises
    ------
    ZeroDerivativeError
        If psi'(t) vanishes (e.g. the const family).
    """
    d = psi.derivative(t)
    if np.any(np.asarray(d) == 0.0):
        raise ZeroDerivativeError(f"psi'(t) = 0 for family {psi.family!r}; alpha undefined")
    out = psi(t) / (np.asarray(t, dtype=np.float64) * np.abs(d))
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class ClassBReport:
    """Evidence that psi is slowly vanishing: 1 < psi(t)/psi(ct) <= K, psi -> 0."""

    c: float
    min_ratio: float
    max_ratio: float
    ratios_above_one: bool
    ratio_growth: float  # ratio at largest t over ratio at smallest t
    unbounded_ratio: bool
    psi_at_tmax: float
    vanishing_evidence: bool
    in_class: bool


def check_class_b(
    psi: WeightFunction,
    c: float = 2.0,
    t_grid=None,
    vanish_threshold: float = 1e-6,
    growth_cap: float = 10.0,
) -> ClassBReport:
    """Grid evidence for membership in the slowly-vanishing weight class.

    Reports min/max of psi(t)/psi(c t) over the grid, whether all ratios
    exceed 1, whether their growth across the grid stays under
    ``growth_cap`` (an unbounded ratio disqualifies, e.g. exponential
    weights), and whether psi at the largest grid point has dropped
    below ``vanish_threshold``.
    """
    if c <= 1.0:
        raise ValueError(f"dilation factor c must exceed 1, got {c}")
    grid = np.asarray(t_grid if t_grid is not None else np.geomspace(1.0, 1e6, 61), dtype=np.float64)
    grid = np.sort(grid)
    # log domain: psi may underflow well inside the grid (exp family)
    log_ratios = psi.log_value(grid) - psi.log_value(c * grid)
    with np.errstate(over="ignore"):
        ratios = np.exp(log_ratios)
        growth = float(np.exp(log_ratios[-1] - log_ratios[0]))
    unbounded = growth > growth_cap
    tail = float(psi(grid[-1]))
    above = bool(np.all(log_ratios > 0.0))
    return ClassBReport(
        c=c,
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        ratios_above_one=above,
        ratio_growth=growth,
        unbounded_ratio=unbounded,
        psi_at_tmax=tail,
        vanishing_evidence=tail < vanish_threshold,
        in_class=above and not unbounded and tail < vanish_threshold,
    )


@dataclass(frozen=True)
class DecayReport:
    """Evidence for sup alpha(psi, t) < s'/d, reported in both conventions.

    ``alpha_sup`` bounds alpha from above (the K in alpha <= K < s'/d);
    ``inv_alpha_inf`` is its reciprocal, the K in the equivalent
    1/alpha(psi, t) >= K > d/s' phrasing.
    """

    s: float
    s_prime: float
    d: int
    alpha_sup: float
    inv_alpha_inf: float
    bound: float
    satisfied: bool
    note: str = ""


def check_decay_condition(
    psi: WeightFunction,
    s: float,
    d: int,
    t0: float = 1.0,
    t_hi: float = 1e6,
    points: int = 241,
) -> DecayReport:
    """Check sup_t alpha(psi, t) < s'/d on a log grid t in [t0, t_hi].

    For s <= 1 the condition is vacuous (s' is taken as +inf).  Weights
    with vanishing derivative report alpha_sup = inf and fail.
    """
    if s > 1.0:
        s_prime = s / (s - 1.0)
        bound = s_prime / d
    else:
        s_prime = math.inf
        bound = math.inf
    grid = np.geomspace(max(t0, 1.0), t_hi, points)
    try:
        a = np.asarray(alpha(psi, grid))
    except ZeroDerivativeError:
        return DecayReport(
            s=s, s_prime=s_prime, d=d, alpha_sup=math.inf, inv_alpha_inf=0.0,
            bound=bound, satisfied=False, note="psi' vanishes; alpha undefined",
        )
    sup = float(a.max())
    return DecayReport(
        s=s, s_prime=s_prime, d=d, alpha_sup=sup, inv_alpha_inf=1.0 / sup,
        bound=bound, satisfied=bool(sup < bound),
    )


def convexity_evidence(psi: WeightFunction, t_grid=None, h: float = 0.5) -> bool:
    """Discrete convexity check psi(t-h) + psi(t+h) >= 2 psi(t) on a grid."""
    grid = np.asarray(t_grid if t_grid is not None else np.geomspace(1.0 + h, 1e6, 61))
    return bool(np.all(psi(grid - h) + psi(grid + h) >= 2.0 * psi(grid) * (1.0 - 1e-12)))


def decreasing_evidence(psi: WeightFunction, t_grid=None) -> bool:
    """True when psi is nonincreasing along the (sorted) grid."""
    grid = np.sort(np.asarray(t_grid if t_grid is not None else np.geomspace(1.0, 1e6, 241)))
    vals = psi(grid)
    return bool(np.all(np.diff(vals) <= 1e-15 * vals[:-1]))


@dataclass(frozen=True)
class RearrangedWeight:
    """Nonincreasing rearrangement of {psi(|k|_r)^p_power : k in Z^d}.

    A step sequence on j = 1, 2, ...: value ``psi(m)^p_power`` on shell
    positions V_{m-1} < j <= V_m (with psi(0) := psi(1) at j = 1).  The
    instance only describes the sequence; each stream it yields builds
    and grows a shell table of its own (for r with closed-form counts
    the table never enumerates).
    """

    psi: WeightFunction
    r: float
    d: int
    p_power: float = 1.0
    budget: int | None = None

    def __post_init__(self):
        if not 0.0 < self.p_power < math.inf:
            raise ValueError(f"need finite p_power > 0, got p_power={self.p_power}")

    def iter_blocks(self):
        """Yield (boundaries, log values) for successive blocks of shells.

        Entry i of a block covers positions (V_{m-1}, V_m] of one shell
        m at constant value; boundaries are cumulative counts, strictly
        increasing across the whole stream.  The first block holds 16
        shells and each next one twice as many, up to 4096, so a scan
        that stops early reads only the shells it needs.  The stream's
        shell table is rebuilt (at least doubling) when a block reaches
        past it, under the point budget.  The stream is unbounded;
        callers stop consuming when done.
        """
        m0, size = 0, 16
        V = np.empty(0, dtype=np.int64)
        while True:
            needed = m0 + size - 1
            if len(V) <= needed:
                m_new = max(2 * (len(V) - 1), needed)
                # blocks are copies, so this frees the outgoing table
                # before the next one is built
                V = None
                V = shell_counts(self.r, self.d, m_new, budget=self.budget).V
            m_arr = np.arange(m0, m0 + size, dtype=np.int64)
            lv = self.p_power * self.psi.log_value(np.maximum(m_arr, 1).astype(np.float64))
            yield V[m0 : m0 + size].copy(), np.asarray(lv, dtype=np.float64)
            m0 += size
            size = min(2 * size, 4096)
