"""Problem definitions: forward dynamics, quadratic-in-z drivers, control data.

A driver here always has the four-ingredient structure

    F(t, x, y, z) = source(t, x) + z_slope(t, x) * z
                    - y_term(t, y) - 0.5 * z_quad(t) * z**2

with a terminal function and an a-priori lower bound for the backward value.
The module also houses the executable checker for the standing assumptions
under which the backward equation is expected to have a unique bounded-below
solution; the checker samples finite grids, so failures come with concrete
witnesses while passes are evidence, not proof.

Each coefficient has one evaluation path, ``_full_field``, applied when its
spec is built: a non-finite value raises ``EvaluationError`` naming the
coefficient and its first bad point, on every route alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError


def _full_field(c, name: str) -> Callable:
    """Make a scalar or callable coefficient return full-shape, finite float arrays.

    The wrapped coefficient returns an array of the broadcast shape of its
    arguments (a numpy scalar when they are all scalars), or raises
    ``EvaluationError(name, point)`` at the first (C-order) point where it is
    not finite, so no caller patches shapes or checks values.  The spec
    constructors apply it once, and it is idempotent.
    """
    if getattr(c, "full_shape", False):
        return c
    fn = c if callable(c) else (lambda *args, _v=float(c): _v)

    def full(*args):
        out = np.asarray(fn(*args), dtype=float)
        if not (np.isfinite(out).all() if out.ndim else math.isfinite(out)):
            at = np.broadcast_arrays(out, *[np.asarray(a, dtype=float) for a in args])
            bad = int(np.argmax(~np.isfinite(at[0]).ravel()))
            raise EvaluationError(name, tuple(float(a.flat[bad]) for a in at[1:]),
                                  index=bad, value=float(at[0].flat[bad]))
        shape = out.shape
        for a in args:
            s = () if isinstance(a, (int, float)) else np.shape(a)   # skips a slow np.shape
            if s and s != shape:
                shape = np.broadcast_shapes(shape, s) if shape else s
        if out.shape != shape:
            out = np.full(shape, out)
        return out if shape else out[()]

    full.full_shape = True
    return full


@dataclass(frozen=True)
class ForwardSpec:
    """Drift, diffusion, initial state and horizon of the forward diffusion."""

    mu: Callable | float
    sigma: Callable | float
    x0: float
    horizon: float

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        for name in ("mu", "sigma"):
            object.__setattr__(self, name, _full_field(getattr(self, name), name))
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "horizon", float(self.horizon))


@dataclass(frozen=True)
class DriverSpec:
    """The four driver ingredients plus terminal condition.

    ``z_slope`` and ``y_term`` may be None, meaning identically zero; the
    backward solvers use that to pick explicit versus implicit stepping.
    ``value_floor`` is the a-priori lower bound for the backward value, used
    by the exponential-transform route; 0 matches problems whose value is a
    nonnegative cost.
    """

    source: Callable | float
    z_quad: Callable | float
    terminal: Callable
    z_slope: Callable | float | None = None
    y_term: Callable | None = None
    value_floor: float = 0.0

    def __post_init__(self):
        for name in ("source", "z_quad", "terminal", "z_slope", "y_term"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _full_field(getattr(self, name), name))
        if not np.isfinite(self.value_floor):
            raise DomainError("value_floor must be finite")

    @property
    def depends_on_y(self) -> bool:
        return self.y_term is not None


@dataclass(frozen=True)
class ControlProblemSpec:
    """Scalar tracking problem with control-affine drift and cubic perturbation.

    State:   dX = (A(t) X - delta X^3 + B(t) u) dt + sigma(t) dW
    Cost:    E int (X - target)^2 + control_weight u^2 dt
               + terminal_weight (X_T - target(T))^2

    delta = 0 recovers the classical linear-quadratic tracking problem with
    its closed-form quadratic value function.
    """

    A: Callable | float
    B: Callable | float
    sigma: Callable | float
    delta: float
    target: Callable | float
    control_weight: Callable | float
    terminal_weight: float
    x0: float
    horizon: float

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise DomainError("horizon must be positive")
        if self.delta < 0.0:
            raise DomainError("delta must be >= 0")
        if self.terminal_weight < 0.0:
            raise DomainError("terminal_weight must be >= 0")
        for name in ("A", "B", "sigma", "target", "control_weight"):
            object.__setattr__(self, name, _full_field(getattr(self, name), name))
        if np.any(self.control_weight(np.linspace(0.0, self.horizon, 65)) <= 0.0):
            raise DomainError("control_weight must be positive on [0, horizon]")

    def uncontrolled_forward(self) -> ForwardSpec:
        # x * x * x: numpy sends x ** 3 through pow, tens of times slower; delta = 0 skips it
        return ForwardSpec(mu=lambda t, x: self.A(t) * x - self.delta * (x * x * x) if self.delta
                           else self.A(t) * x,
                           sigma=lambda t, x: self.sigma(t), x0=self.x0, horizon=self.horizon)

    def hamiltonian_quad_coefficient(self, t):
        """H(t) = B^2 / (2 k1 sigma^2), the reduced driver's z-curvature; not finite at sigma 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.B(t) ** 2 / (2.0 * self.control_weight(t) * self.sigma(t) ** 2)

    def driver_spec(self) -> DriverSpec:
        """Reduced driver of the value-function equation for this problem."""
        T = self.horizon
        return DriverSpec(
            source=lambda t, x: (x - self.target(t)) ** 2,
            z_quad=self.hamiltonian_quad_coefficient,
            terminal=lambda x: self.terminal_weight * (x - self.target(T)) ** 2,
            value_floor=0.0,
        )


def _driver(spec: DriverSpec, t, source, slope, half_quad) -> Callable:
    def driver(y, z):
        out = source if slope is None else source + slope * z
        if spec.y_term is not None:
            out = out - spec.y_term(t, y)
        out = out - half_quad * z ** 2
        return out if np.ndim(out) else float(out)

    driver.z_slope = 0.0 if slope is None else slope
    return driver


def driver_at(spec: DriverSpec, t, x) -> Callable:
    """F(t, x, ., .) as a function of (y, z), its (t, x)-only terms evaluated here, once;
    its ``z_slope`` holds z_slope(t, x) (0.0 for none) for a caller that linearizes in z."""
    source = spec.source(t, x)
    slope = None if spec.z_slope is None else spec.z_slope(t, x)
    return _driver(spec, t, source, slope, 0.5 * spec.z_quad(t))


def driver_block(spec: DriverSpec, ts: np.ndarray, x) -> list:
    """``[driver_at(spec, t, x) for t in ts]`` with each (t, x)-only term evaluated once for
    the block, as a (len(ts), len(x)) array whose rows follow ``ts``; one closure builds both."""
    source = spec.source(ts[:, None], x)
    slope = [None] * ts.size if spec.z_slope is None else spec.z_slope(ts[:, None], x)
    half_quad = 0.5 * spec.z_quad(ts[:, None])[:, 0]
    return [_driver(spec, float(t), *terms) for t, *terms in zip(ts, source, slope, half_quad)]


def eval_driver(spec: DriverSpec, t, x, y, z):
    """F(t, x, y, z) with the quadratic-in-z structure; exact in each term."""
    return driver_at(spec, t, x)(y, z)


def girsanov_shifted_driver(spec: DriverSpec, fwd: ForwardSpec) -> DriverSpec:
    """DriverSpec whose z_slope absorbs the mu/sigma drift shift.

    The returned driver is F plus (mu/sigma) z: it represents the same
    backward value on driftless forward paths.  The quadratic structure is
    preserved because the shift is linear in z.  Evaluating it where sigma
    vanishes raises ``DomainError`` naming the (t, x) point.
    """
    base = spec.z_slope

    def shifted(t, x):
        sig = fwd.sigma(t, x)
        if np.any(sig == 0.0):
            tb, xb = np.broadcast_arrays(t, x)
            bad = int(np.argmax(np.atleast_1d(sig) == 0.0))
            point = (float(tb.flat[bad]), float(xb.flat[bad]))
            raise DomainError(
                f"sigma(t, x) = 0 at {point}; drift elimination is inapplicable there")
        out = fwd.mu(t, x) / sig
        if base is not None:
            out = out + base(t, x)
        return out

    return DriverSpec(
        source=spec.source,
        z_quad=spec.z_quad,
        terminal=spec.terminal,
        z_slope=shifted,
        y_term=spec.y_term,
        value_floor=spec.value_floor,
    )


@dataclass(frozen=True)
class SampleGrid:
    """Finite sampling resolution for the assumption checker."""

    t: np.ndarray
    x: np.ndarray
    uv: np.ndarray   # points in (0, 1] used pairwise for the modulus clause

    @classmethod
    def regular(cls, horizon: float, x_lo: float, x_hi: float,
                n_t: int = 33, n_x: int = 41, n_uv: int = 12) -> "SampleGrid":
        if n_t < 1 or n_x < 1 or n_uv < 2:
            raise DomainError("sampling resolution must be positive")
        return cls(
            t=np.linspace(0.0, horizon, n_t),
            x=np.linspace(x_lo, x_hi, n_x),
            uv=np.linspace(1.0 / n_uv, 1.0, n_uv),
        )

    def __post_init__(self):
        for name in ("t", "x", "uv"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size == 0:
                raise DomainError(f"empty sampling grid for {name}")
            object.__setattr__(self, name, arr)
        if np.any((self.uv <= 0.0) | (self.uv > 1.0)):
            raise DomainError("uv samples must lie in (0, 1]")


@dataclass(frozen=True)
class ClauseVerdict:
    name: str
    passed: bool
    witness: tuple | None = None
    observed: float | None = None
    threshold: float | None = None
    detail: str = ""

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise DomainError(f"clause {self.name} marked violated without a witness")


@dataclass(frozen=True)
class AssumptionReport:
    """Per-clause verdicts for the driver assumptions, with sampling metadata.

    Clause keys:
        z_quad_positive          positive, bounded away from 0, C1-probe
        source_nonnegative       source >= 0 on the sampled grid
        y_term_modulus_bound     the modulus inequality for the y-nonlinearity
        terminal_above_floor     terminal >= value_floor - tol
        z_slope_bounded          |z_slope| finite on the sampled grid
        source_dominates_z_slope 2 z_quad source - z_slope^2 / GAMMA >= 0

    The uniqueness hypothesis takes the first four clauses plus either of the
    last two.  Until boundedness is testable the domination clause cannot decide
    it: it passes only where z_slope is finite, and there ``z_slope_bounded`` does.
    """

    clauses: dict
    resolution: dict

    @property
    def satisfied(self) -> bool:
        c = self.clauses
        core = all(c[k].passed for k in (
            "z_quad_positive", "source_nonnegative",
            "y_term_modulus_bound", "terminal_above_floor"))
        return core and (c["z_slope_bounded"].passed or c["source_dominates_z_slope"].passed)

    def summary(self) -> str:
        lines = []
        for key, v in self.clauses.items():
            status = "PASS" if v.passed else "FAIL"
            extra = f" witness={v.witness}" if v.witness is not None else ""
            lines.append(f"{key}: {status}{extra} {v.detail}".rstrip())
        lines.append(f"uniqueness hypothesis: {'holds' if self.satisfied else 'NOT established'}"
                     f" (resolution {self.resolution})")
        return "\n".join(lines)


FLOOR_TOL = 1e-12      # checker: z_quad and the source-domination margin must clear it
TERMINAL_TOL = 1e-9    # checker: how far the terminal may dip below value_floor
GAMMA = 0.5            # checker: the source-domination margin's weight 1/GAMMA on z_slope^2


def _violation(name: str, bad: np.ndarray, at: tuple, observed, threshold,
               detail: str = "") -> ClauseVerdict | None:
    """The failed verdict at the first True of ``bad`` in C order (None if none is); the witness
    coordinates ``at``, ``observed`` and ``threshold`` broadcast against ``bad``, read there."""
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    *witness, observed, threshold = (
        float(a.flat[i]) for a in np.broadcast_arrays(bad, *at, observed, threshold)[1:])
    return ClauseVerdict(name, False, witness=tuple(witness), observed=observed,
                         threshold=threshold, detail=detail)


def check_driver_assumptions(
    spec: DriverSpec,
    fwd: ForwardSpec,
    grid: SampleGrid,
    kappa_candidate: Callable,
    phi_candidate: Callable | float = 0.0,
) -> AssumptionReport:
    """Sample every clause of the driver assumptions and report verdicts.

    ``kappa_candidate`` and ``phi_candidate`` instantiate the modulus clause
    for the y-nonlinearity.  Each clause evaluates each coefficient once over
    its whole sample grid.  A violation carries the witness that reproduces it
    at re-evaluation: the first failing sample in the order t, then x or the
    (u, v) pair.  A coefficient that is not finite on the grid fails its clause
    at its first such point in that order.
    """
    kappa = _full_field(kappa_candidate, "kappa_candidate")
    phi = _full_field(phi_candidate, "phi")
    ts, xs, uv = grid.t, grid.x, grid.uv
    tcol = ts[:, None]   # (t, x) coefficients are sampled as (len(ts), len(xs)) arrays

    def z_quad_positive():
        # positive, bounded away from zero, with a derivative-continuity probe
        H = spec.z_quad(ts)
        if low := _violation("z_quad_positive", H <= FLOOR_TOL, (ts,), H, FLOOR_TOL,
                             "not positive / not bounded away from zero"):
            return low
        scale = max(1.0, float(np.max(np.abs(H))) / max(fwd.horizon, 1.0))
        eta = 1e-7 * np.maximum(1.0, np.abs(ts))
        inner = (ts - eta > 0.0) & (ts + eta < fwd.horizon)
        t, eta, mid = ts[inner], eta[inner], H[inner]
        lo, hi = spec.z_quad(np.stack([t - eta, t + eta], axis=1)).T   # t, then -eta, +eta
        fdiff, bdiff = (hi - mid) / eta, (mid - lo) / eta
        tol = 1e-6 * np.maximum(np.maximum(np.abs(fdiff), np.abs(bdiff)), scale)
        jump = np.abs(fdiff - bdiff)
        return _violation("z_quad_positive", jump > tol, (t,), jump, tol,
                          "one-sided derivatives disagree (C1 probe)") or ClauseVerdict(
            "z_quad_positive", True, observed=float(np.min(H)), threshold=FLOOR_TOL,
            detail=f"min sampled value {float(np.min(H)):.3e}")

    def source_nonnegative():
        fvals = spec.source(tcol, xs)
        return (_violation("source_nonnegative", fvals < 0.0, (tcol, xs), fvals, 0.0)
                or ClauseVerdict("source_nonnegative", True))

    def y_term_modulus_bound():
        if spec.y_term is None:
            return ClauseVerdict("y_term_modulus_bound", True,
                                 detail="y_term is identically zero; left side vanishes")
        iu, iv = np.nonzero(~np.eye(uv.size, dtype=bool))   # the pairs u != v, in C order
        gap = np.abs(uv[iu] - uv[iv])
        H = spec.z_quad(ts)
        t, H = tcol[H > 0.0], H[H > 0.0, None]   # clause (i) already witnesses the other times
        ul = uv * spec.y_term(t, spec.value_floor - np.log(uv) / H)   # u * y_term at each u
        lhs = 2.0 * gap * np.abs(ul[:, iu] - ul[:, iv])
        rhs = phi(t) * kappa(gap ** 2)
        bad = lhs > rhs + 1e-12 * (1.0 + np.abs(rhs))
        return _violation("y_term_modulus_bound", bad, (t, uv[iu], uv[iv]), lhs, rhs,
                          "modulus inequality fails at the witness (t, u, v)") or ClauseVerdict(
            "y_term_modulus_bound", True)

    def terminal_above_floor():
        gvals = spec.terminal(xs)
        low = spec.value_floor - TERMINAL_TOL
        return _violation("terminal_above_floor", gvals < low, (xs,), gvals, low) or (
            ClauseVerdict("terminal_above_floor", True, observed=float(np.min(gvals)),
                          threshold=spec.value_floor))

    def z_slope_bounded():
        # finite everywhere on the sampled grid; record the empirical bound
        hmax = 0.0 if spec.z_slope is None else float(np.max(np.abs(spec.z_slope(tcol, xs))))
        return ClauseVerdict("z_slope_bounded", True, observed=hmax,
                             detail=f"empirical bound {hmax:.6g} on the sampled grid")

    def source_dominates_z_slope():
        # 2 z_quad source - z_slope^2 / GAMMA >= 0
        hv = spec.z_slope(tcol, xs) if spec.z_slope is not None else 0.0
        expr = 2.0 * spec.z_quad(tcol) * spec.source(tcol, xs) - hv ** 2 / GAMMA
        return (_violation("source_dominates_z_slope", expr < -FLOOR_TOL, (tcol, xs), expr, 0.0)
                or ClauseVerdict("source_dominates_z_slope", True))

    clauses = {}
    # a non-finite value is this checker's verdict, not a numpy warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for clause in (z_quad_positive, source_nonnegative, y_term_modulus_bound,
                       terminal_above_floor, z_slope_bounded, source_dominates_z_slope):
            try:
                clauses[clause.__name__] = clause()
            except EvaluationError as exc:
                clauses[clause.__name__] = ClauseVerdict(
                    clause.__name__, False, witness=exc.point, detail="non-finite value")
    return AssumptionReport(clauses, {"n_t": int(ts.size), "n_x": int(xs.size),
                                      "n_uv": int(uv.size)})
