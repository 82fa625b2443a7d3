"""Concave moduli of continuity with linearized tails.

The workhorse is the two-branch modulus

    m(x) = x * (ln(1/x))^r          for 0 < x <= cutoff,
    m(x) = m(c) + m'(c) * (x - c)   for x > cutoff c,

which is increasing, concave and vanishes at 0, and whose reciprocal has a
divergent improper integral at 0+ (the Osgood/Bihari admissibility property
that drives uniqueness estimates).  The linear tail keeps the function
increasing beyond the point where x*(ln(1/x))^r would turn over.

The module also ships the identity modulus, matched to Lipschitz-in-u
nonlinearities, plus numeric probes: a product-inequality check with an
explicit admissible constant, and an adaptive quadrature probe for the
divergence of the integral of 1/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError


def _as_array(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class LogPowerModulus:
    """m(x) = x (ln 1/x)^r on (0, cutoff], linear beyond the cutoff.

    Requires 0 < exponent <= 1 and 0 < cutoff < exp(-exponent); the strict
    upper bound keeps the tail slope positive (at cutoff = e^-r the slope
    degenerates to zero and the function stops increasing).
    """

    cutoff: float
    exponent: float = 1.0
    # precomputed branch data
    value_at_cutoff: float = field(init=False)
    slope_at_cutoff: float = field(init=False)

    def __post_init__(self):
        r, c = self.exponent, self.cutoff
        if not 0.0 < r <= 1.0:
            raise DomainError(f"exponent must be in (0, 1], got {r}")
        if not 0.0 < c < math.exp(-r):
            raise DomainError(
                f"cutoff must be in (0, e^-exponent) = (0, {math.exp(-r):.6f}), got {c}"
            )
        lc = math.log(1.0 / c)
        object.__setattr__(self, "value_at_cutoff", c * lc ** r)
        object.__setattr__(self, "slope_at_cutoff", lc ** r * (1.0 - r / lc))

    def __call__(self, x):
        x = _as_array(x)
        if np.any(x < 0.0):
            raise DomainError("modulus argument must be >= 0")
        out = np.zeros_like(x)
        core = (x > 0.0) & (x <= self.cutoff)
        tail = x > self.cutoff
        xc = x[core]
        out[core] = xc * np.log(1.0 / xc) ** self.exponent
        out[tail] = self.value_at_cutoff + self.slope_at_cutoff * (x[tail] - self.cutoff)
        return out if out.ndim else float(out)

    def derivative(self, x):
        """m'(x) = (ln 1/x)^r - r (ln 1/x)^(r-1) below the cutoff, constant beyond."""
        x = _as_array(x)
        if np.any(x <= 0.0):
            raise DomainError("derivative requires x > 0")
        out = np.full_like(x, self.slope_at_cutoff)
        core = x <= self.cutoff
        lx = np.log(1.0 / x[core])
        out[core] = lx ** self.exponent - self.exponent * lx ** (self.exponent - 1.0)
        return out if out.ndim else float(out)

    def product_bound(self) -> float:
        """Admissible constant for the product inequality on (0, 1]^2.

        max{1, (ln c / (2 ln(1-c)))^r}; decreasing in the cutoff, approaching
        ~1.0901 from above as cutoff -> e^-1 with exponent 1.
        """
        c, r = self.cutoff, self.exponent
        return max(1.0, (math.log(c) / (2.0 * math.log(1.0 - c))) ** r)


def identity_modulus(x):
    """m(x) = x, the modulus matched to Lipschitz-in-u nonlinearities."""
    x = _as_array(x)
    if np.any(x < 0.0):
        raise DomainError("modulus argument must be >= 0")
    return x if x.ndim else float(x)


@dataclass(frozen=True)
class ProductInequalityReport:
    """Result of scanning |x-y| |m(x)-m(y)| <= C m(|x-y|^2) over samples."""

    max_ratio: float
    bound: float | None
    argmax: tuple[float, float]
    violations: list[tuple[float, float, float]]

    @property
    def passed(self) -> bool:
        return not self.violations


def product_inequality_check(
    modulus: Callable,
    samples: Sequence[tuple[float, float]],
    bound: float | None = None,
    rtol: float = 1e-12,
) -> ProductInequalityReport:
    """Scan the self-domination inequality of a modulus over (0, 1]^2 samples.

    For each pair (x, y), x != y, computes
        ratio = |x - y| * |m(x) - m(y)| / m(|x - y|^2)
    and reports the empirical maximum (the observed admissible constant).
    When ``bound`` is given (or the modulus exposes ``product_bound``),
    samples whose ratio exceeds it are returned as violation witnesses.
    """
    pairs = np.asarray(list(samples), dtype=float)
    if pairs.size == 0:
        raise DomainError("no samples supplied")
    x, y = pairs[:, 0], pairs[:, 1]
    if np.any((x <= 0.0) | (x > 1.0) | (y <= 0.0) | (y > 1.0)):
        raise DomainError("samples must lie in (0, 1]^2")
    if np.any(x == y):
        raise DomainError("samples must have x != y")
    if bound is None and hasattr(modulus, "product_bound"):
        bound = modulus.product_bound()
    d = np.abs(x - y)
    ratio = d * np.abs(modulus(x) - modulus(y)) / modulus(d * d)
    imax = int(np.argmax(ratio))
    violations = []
    if bound is not None:
        bad = ratio > bound * (1.0 + rtol)
        violations = [(float(x[i]), float(y[i]), float(ratio[i])) for i in np.flatnonzero(bad)]
    return ProductInequalityReport(
        max_ratio=float(ratio[imax]),
        bound=bound,
        argmax=(float(x[imax]), float(y[imax])),
        violations=violations,
    )


def osgood_divergence_probe(modulus: Callable, lower: float, upper: float) -> float:
    """Numerically integrate 1/m(x) over [lower, upper].

    Divergence of the improper integral at 0+ cannot be proven numerically;
    callers verify growth as ``lower`` shrinks (for x (ln 1/x)-type moduli the
    value grows like ln ln(1/lower), so squaring ``lower`` doubles the leading
    term, while an inadmissible modulus like x^2 blows up like 1/lower).

    The quadrature integrates in u = ln(1/x), which flattens the integrand of
    admissible moduli near 0 and keeps adaptive subdivision cheap.
    """
    if not 0.0 < lower < upper:
        raise DomainError(f"need 0 < lower < upper, got ({lower}, {upper})")
    probe_x = np.exp(np.linspace(math.log(lower), math.log(upper), 257))
    vals = modulus(probe_x)
    if np.any(np.asarray(vals) <= 0.0):
        bad = float(probe_x[int(np.argmin(vals))])
        raise DomainError(f"modulus is not positive on [lower, upper] (e.g. at x={bad:.3e})")

    def integrand(u):
        xv = math.exp(-u)
        return xv / float(modulus(xv))

    from scipy import integrate   # here, so that `import fbsdelab` does not load it for one probe
    a, b = math.log(1.0 / upper), math.log(1.0 / lower)
    value, _err = integrate.quad(integrand, a, b, epsrel=1e-9, epsabs=0.0, limit=400)
    return value
