"""Decreasing weight functions and their lazy rearrangements over Z^d.

A weight ``psi`` maps t >= 1 to a positive value, with the convention
``psi(0) := psi(1)`` for the origin.  Every weight is the one formula
``psi(t) = t^(-s) * ln^eps(t + e) * R^(-t)``.  A family tag names the
parameters it sets; the others keep their neutral values s = eps = 0 and
R = 1, whose factor is exactly 1, so each family evaluates its preset:

=========  =======================  ==========================
tag        preset                   parameters
=========  =======================  ==========================
power      t^(-s)                   s > 0
powerlog   t^(-s) * ln^eps(t + e)   s > 0, eps real
log        ln^eps(t + e)            eps < 0
exp        R^(-t)                   R > 1
const      1                        (boundary case; psi' = 0)
=========  =======================  ==========================

The decay characteristic ``alpha(psi, t) = psi(t) / (t * |psi'(t)|)``
is evaluated as ``1 / (t * |psi'/psi|)`` from the log-derivative
``psi'/psi = -s/t + eps / ((t + e) ln(t + e)) - ln R``, which stays
finite where psi and psi' both underflow.  It drives the hypothesis
checks: membership evidence for the class of slowly-vanishing weights
(ratio psi(t)/psi(ct) staying in (1, K]) and the decay condition
``sup alpha < s' / d`` with ``s' = s/(s-1)``.

A :class:`RearrangedWeight` is the nonincreasing rearrangement of
``{psi(|k|_r) : k in Z^d}`` as a step sequence on j = 1, 2, ...: the
value on shell m (positions V_{m-1} < j <= V_m) is ``psi(m)^p_power``.
It is described by ``(psi, r, d)`` alone and read only as a stream of
shell blocks (``iter_blocks()``); each stream builds its own shell
table and grows it as far as the stream is consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .lattice import shell_counts

# family -> the parameters it sets, in spec-string order
_PARAMS = {"power": ("s",), "powerlog": ("s", "eps"), "log": ("eps",), "exp": ("R",), "const": ()}


class ZeroDerivativeError(ValueError):
    """alpha(psi, t) is undefined because psi'(t) vanishes."""


@dataclass(frozen=True)
class WeightFunction:
    """One member of the closed weight-family enumeration above."""

    family: str
    s: float = 0.0
    eps: float = 0.0
    R: float = 1.0

    def __post_init__(self):
        if self.family not in _PARAMS:
            raise ValueError(f"unknown weight family {self.family!r}, expected one of {tuple(_PARAMS)}")
        if not all(math.isfinite(v) for v in (self.s, self.eps, self.R)):
            raise ValueError(
                f"weight parameters must be finite, got s={self.s}, eps={self.eps}, R={self.R}"
            )
        # one formula reads every parameter, so one the family does not
        # name must keep its neutral default rather than be ignored
        for f in fields(self)[1:]:
            if f.name not in _PARAMS[self.family] and getattr(self, f.name) != f.default:
                raise ValueError(f"family {self.family!r} takes no parameter {f.name}, "
                                 f"got {f.name}={getattr(self, f.name)}")
        if self.family in ("power", "powerlog") and not self.s > 0:
            raise ValueError(f"family {self.family!r} needs s > 0, got s={self.s}")
        if self.family == "log" and not self.eps < 0:
            raise ValueError(f"family 'log' needs eps < 0, got eps={self.eps}")
        if self.family == "exp" and not self.R > 1:
            raise ValueError(f"family 'exp' needs R > 1, got R={self.R}")

    # --- evaluation (scalar or ndarray, t >= 0 with psi(0) := psi(1)) ---

    def __call__(self, t):
        """psi(t); raises OverflowError when a value exceeds the float range."""
        t = np.maximum(np.asarray(t, dtype=np.float64), 1.0)
        # underflow stays silent: exp-family values vanish below the float range
        try:
            with np.errstate(over="raise"):
                out = t ** (-self.s) * np.log(t + math.e) ** self.eps * self.R ** (-t)
        except FloatingPointError:
            raise OverflowError(f"weight {self.spec_string()} overflows the float range") from None
        return out if out.ndim else float(out)

    def log_value(self, t):
        """log psi(t), stable for values far below the float range.

        Raises OverflowError when a log value itself leaves the float range.
        """
        out = self._log_power(t, 1.0)
        return out if out.ndim else float(out)

    def _log_power(self, t, a: float) -> np.ndarray:
        """log psi(t)^a as an array: log_value's and the stream's one finiteness check."""
        t = np.maximum(np.asarray(t, dtype=np.float64), 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            out = a * (-self.s * np.log(t) + self.eps * np.log(np.log(t + math.e)) - t * math.log(self.R))
        if not np.isfinite(out).all():
            raise OverflowError(f"log of weight {_power_name(self, a)} overflows the float range")
        return out

    def log_derivative(self, t):
        """psi'(t) / psi(t) for t >= 1, finite where psi and psi' underflow."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 1.0):
            raise ValueError("log_derivative defined for t >= 1")
        out = -self.s / t + self.eps / ((t + math.e) * np.log(t + math.e)) - math.log(self.R)
        return out if out.ndim else float(out)

    def raised_to(self, a: float) -> "WeightFunction":
        """The pointwise power psi^a, again inside the family enumeration."""
        return WeightFunction(self.family, s=self.s * a, eps=self.eps * a, R=self.R**a)

    def spec_string(self) -> str:
        """Config-string form accepted by parse_weight."""
        params = ",".join(f"{name}={getattr(self, name):g}" for name in _PARAMS[self.family])
        return f"{self.family}:{params}" if params else self.family


def _power_name(psi: WeightFunction, a: float) -> str:
    """psi^a in messages: the spec string, parenthesized and raised unless a = 1."""
    return psi.spec_string() if a == 1.0 else f"({psi.spec_string()})^{a:g}"


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
    if family not in _PARAMS:
        raise ValueError(f"unknown weight family {family!r} in {spec!r}")
    if set(kv) != set(_PARAMS[family]):
        raise ValueError(
            f"weight family {family!r} takes parameters {sorted(_PARAMS[family])}, got {sorted(kv)}"
        )
    return WeightFunction(family, **kv)


def alpha(psi: WeightFunction, t):
    """Decay characteristic psi(t) / (t * |psi'(t)|) for t >= 1.

    Evaluated as ``1 / (t * |psi'(t)/psi(t)|)``, so it forms no 0/0
    where psi and psi' underflow (exp family at large t).

    Raises
    ------
    ZeroDerivativeError
        If psi'(t) vanishes (e.g. the const family).
    """
    ld = psi.log_derivative(t)
    if np.any(np.asarray(ld) == 0.0):
        raise ZeroDerivativeError(f"psi'(t) = 0 for family {psi.family!r}; alpha undefined")
    out = 1.0 / (np.asarray(t, dtype=np.float64) * np.abs(ld))
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


def check_class_b(psi: WeightFunction) -> ClassBReport:
    """Grid evidence for membership in the slowly-vanishing weight class.

    Reports min/max of psi(t)/psi(2t) over a log grid t in [1, 1e6],
    whether all ratios exceed 1, whether their growth across the grid
    stays under 10 (an unbounded ratio disqualifies, e.g. exponential
    weights), and whether psi at the largest grid point has dropped
    below 1e-6.
    """
    grid = np.geomspace(1.0, 1e6, 61)
    # log domain: psi may underflow well inside the grid (exp family)
    log_ratios = psi.log_value(grid) - psi.log_value(2.0 * grid)
    with np.errstate(over="ignore"):
        ratios = np.exp(log_ratios)
        growth = float(np.exp(log_ratios[-1] - log_ratios[0]))
    unbounded = growth > 10.0
    tail = float(psi(grid[-1]))
    above = bool(np.all(log_ratios > 0.0))
    return ClassBReport(
        c=2.0,
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        ratios_above_one=above,
        ratio_growth=growth,
        unbounded_ratio=unbounded,
        psi_at_tmax=tail,
        vanishing_evidence=tail < 1e-6,
        in_class=above and not unbounded and tail < 1e-6,
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


def check_decay_condition(psi: WeightFunction, s: float, d: int) -> DecayReport:
    """Check sup_t alpha(psi, t) < s'/d on a log grid t in [1, 1e6].

    For s <= 1 the condition is vacuous (s' is taken as +inf).  Weights
    with vanishing derivative report alpha_sup = inf and fail.

    Raises
    ------
    ValueError
        Unless d >= 1 and 0 < s < inf.
    """
    if d < 1 or not 0.0 < s < math.inf:
        raise ValueError(f"decay condition needs d >= 1 and finite s > 0, got s={s}, d={d}")
    if s > 1.0:
        s_prime = s / (s - 1.0)
        bound = s_prime / d
    else:
        s_prime = math.inf
        bound = math.inf
    grid = np.geomspace(1.0, 1e6, 241)
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


def convexity_evidence(psi: WeightFunction) -> bool:
    """Discrete convexity check psi(t-h) + psi(t+h) >= 2 psi(t), h = 1/2, on a log grid."""
    grid = np.geomspace(1.5, 1e6, 61)
    return bool(np.all(psi(grid - 0.5) + psi(grid + 0.5) >= 2.0 * psi(grid) * (1.0 - 1e-12)))


def decreasing_evidence(psi: WeightFunction) -> bool:
    """True when psi is nonincreasing along a log grid t in [1, 1e6]."""
    vals = psi(np.geomspace(1.0, 1e6, 241))
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

    def __str__(self) -> str:
        return _power_name(self.psi, self.p_power)

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
            m_arr = np.arange(m0, m0 + size, dtype=np.float64)
            yield V[m0 : m0 + size].copy(), self.psi._log_power(m_arr, self.p_power)
            m0 += size
            size = min(2 * size, 4096)
