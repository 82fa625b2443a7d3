"""Problem definitions: forward dynamics, quadratic-in-z drivers, control data.

A driver here always has the four-ingredient structure

    F(t, x, y, z) = source(t, x) + z_slope(t, x) * z
                    - y_term(t, y) - 0.5 * z_quad(t) * z**2

with a terminal function and an a-priori lower bound for the backward value.
The module also houses the executable checker for the standing assumptions
under which the backward equation is expected to have a unique bounded-below
solution; the checker samples finite grids, so failures come with concrete
witnesses while passes are evidence, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError


def _full_field(c) -> Callable:
    """Make a scalar or callable coefficient return full-shape float arrays.

    The wrapped coefficient returns an array of the broadcast shape of its
    arguments (a numpy scalar when they are all scalars), so no caller patches
    shapes.  The spec constructors apply it once; it is idempotent, and it
    keeps an expression tree's exact ``dt`` reachable for ``time_derivative``.
    """
    if getattr(c, "full_shape", False):
        return c
    fn = c if callable(c) else (lambda *args, _v=float(c): _v)

    def full(*args):
        out = np.asarray(fn(*args), dtype=float)
        shape = out.shape
        for a in args:
            s = () if isinstance(a, (int, float)) else np.shape(a)   # skips a slow np.shape
            if s and s != shape:
                shape = np.broadcast_shapes(shape, s) if shape else s
        if out.shape != shape:
            out = np.full(shape, out)
        return out if shape else out[()]

    full.full_shape = True
    if hasattr(c, "dt"):
        full.dt = c.dt
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
        object.__setattr__(self, "mu", _full_field(self.mu))
        object.__setattr__(self, "sigma", _full_field(self.sigma))
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "horizon", float(self.horizon))

    def drift(self, t, x):
        return _checked_eval("mu", self.mu, t, x)

    def diffusion(self, t, x):
        return _checked_eval("sigma", self.sigma, t, x)


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
                object.__setattr__(self, name, _full_field(getattr(self, name)))
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
            object.__setattr__(self, name, _full_field(getattr(self, name)))
        ts = np.linspace(0.0, self.horizon, 65)
        k1 = self.control_weight(ts)
        if not np.all(np.isfinite(k1)) or np.any(k1 <= 0.0):
            raise DomainError("control_weight must be positive on [0, horizon]")

    def drift(self, t, x):
        # at delta = 0 this skips a float ** 3, milliseconds on 10^5 paths
        return self.A(t) * x - self.delta * x ** 3 if self.delta else self.A(t) * x

    def uncontrolled_forward(self) -> ForwardSpec:
        return ForwardSpec(
            mu=self.drift,
            sigma=lambda t, x: self.sigma(t),
            x0=self.x0,
            horizon=self.horizon,
        )

    def hamiltonian_quad_coefficient(self, t):
        """H(t) = B^2 / (2 k1 sigma^2), the z-curvature of the reduced driver."""
        sig = self.sigma(t)
        if np.any(sig == 0.0):
            raise DomainError("sigma vanishes; the reduced quadratic driver is undefined")
        return self.B(t) ** 2 / (2.0 * self.control_weight(t) * sig ** 2)

    def driver_spec(self) -> DriverSpec:
        """Reduced driver of the value-function equation for this problem."""
        T = self.horizon
        return DriverSpec(
            source=lambda t, x: (x - self.target(t)) ** 2,
            z_quad=self.hamiltonian_quad_coefficient,
            terminal=lambda x: self.terminal_weight * (x - self.target(T)) ** 2,
            value_floor=0.0,
        )


def _checked_eval(name: str, fn: Callable, *args):
    out = np.asarray(fn(*args), dtype=float)
    if not np.all(np.isfinite(out)):
        flat = np.broadcast_arrays(*[np.asarray(a, float) for a in args])
        bad = int(np.argmax(~np.isfinite(np.atleast_1d(out))))
        point = tuple(float(np.atleast_1d(a).flat[min(bad, np.atleast_1d(a).size - 1)])
                      for a in flat)
        raise EvaluationError(name, point)
    return out if out.ndim else float(out)


def eval_driver(spec: DriverSpec, t, x, y, z):
    """F(t, x, y, z) with the quadratic-in-z structure; exact in each term."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    out = _checked_eval("source", spec.source, t, x)
    if spec.z_slope is not None:
        out = out + _checked_eval("z_slope", spec.z_slope, t, x) * z
    if spec.y_term is not None:
        out = out - _checked_eval("y_term", spec.y_term, t, y)
    out = out - 0.5 * _checked_eval("z_quad", spec.z_quad, t) * z ** 2
    return out if np.ndim(out) else float(out)


def girsanov_shifted_driver(spec: DriverSpec, fwd: ForwardSpec) -> DriverSpec:
    """DriverSpec whose z_slope absorbs the mu/sigma drift shift.

    The returned driver is F plus (mu/sigma) z: it represents the same
    backward value on driftless forward paths.  The quadratic structure is
    preserved because the shift is linear in z.  Evaluating it where sigma
    vanishes raises ``DomainError`` naming the (t, x) point.
    """
    base = spec.z_slope

    def shifted(t, x):
        sig = fwd.diffusion(t, x)
        if np.any(sig == 0.0):
            tb, xb = np.broadcast_arrays(t, x)
            bad = int(np.argmax(np.atleast_1d(sig) == 0.0))
            point = (float(tb.flat[bad]), float(xb.flat[bad]))
            raise DomainError(
                f"sigma(t, x) = 0 at {point}; drift elimination is inapplicable there")
        out = fwd.drift(t, x) / sig
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
        source_dominates_z_slope 2 z_quad source - z_slope^2 / gamma >= 0

    The uniqueness hypothesis takes the first four clauses plus either of the
    last two.
    """

    clauses: dict
    resolution: dict
    gamma: float

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


def check_driver_assumptions(
    spec: DriverSpec,
    fwd: ForwardSpec,
    grid: SampleGrid,
    kappa_candidate: Callable,
    phi_candidate: Callable | float = 0.0,
    gamma: float = 0.5,
) -> AssumptionReport:
    """Sample every clause of the driver assumptions and report verdicts.

    ``kappa_candidate`` and ``phi_candidate`` instantiate the modulus clause
    for the y-nonlinearity; gamma in (0, 1) parametrizes the alternative
    source-domination clause.  Violations carry the witness point that
    reproduces them at re-evaluation; a coefficient that is not finite on
    the grid fails its clause at the first such point.
    """
    if not 0.0 < gamma < 1.0:
        raise DomainError("gamma must lie in (0, 1)")
    phi = phi_candidate if callable(phi_candidate) else (lambda t, _v=float(phi_candidate): _v)
    ts, xs, uv = grid.t, grid.x, grid.uv

    def z_quad_positive():
        # positive, bounded away from zero, with a derivative-continuity probe
        H = _checked_eval("z_quad", spec.z_quad, ts)
        if np.any(H <= FLOOR_TOL):
            i = int(np.argmax(H <= FLOOR_TOL))
            return ClauseVerdict("z_quad_positive", False, witness=(float(ts[i]),),
                                 observed=float(H[i]), threshold=FLOOR_TOL,
                                 detail="not positive / not bounded away from zero")
        scale = max(1.0, float(np.max(np.abs(H))) / max(fwd.horizon, 1.0))
        for t in ts:
            eta = 1e-7 * max(1.0, abs(t))
            if t - eta <= 0.0 or t + eta >= fwd.horizon:
                continue
            lo, mid, hi = (_checked_eval("z_quad", spec.z_quad, s) for s in (t - eta, t, t + eta))
            fdiff = (hi - mid) / eta
            bdiff = (mid - lo) / eta
            tol = 1e-6 * max(abs(fdiff), abs(bdiff), scale)
            if abs(fdiff - bdiff) > tol:
                return ClauseVerdict("z_quad_positive", False, witness=(float(t),),
                                     observed=abs(fdiff - bdiff), threshold=tol,
                                     detail="one-sided derivatives disagree (C1 probe)")
        return ClauseVerdict("z_quad_positive", True,
                             observed=float(np.min(H)), threshold=FLOOR_TOL,
                             detail=f"min sampled value {float(np.min(H)):.3e}")

    def source_nonnegative():
        for t in ts:
            fvals = _checked_eval("source", spec.source, t, xs)
            if np.any(fvals < 0.0):
                i = int(np.argmax(fvals < 0.0))
                return ClauseVerdict("source_nonnegative", False,
                                     witness=(float(t), float(xs[i])),
                                     observed=float(fvals[i]), threshold=0.0)
        return ClauseVerdict("source_nonnegative", True)

    def y_term_modulus_bound():
        if spec.y_term is None:
            return ClauseVerdict("y_term_modulus_bound", True,
                                 detail="y_term is identically zero; left side vanishes")
        M = spec.value_floor
        uu, vv = np.meshgrid(uv, uv, indexing="ij")
        mask = uu != vv
        uu, vv = uu[mask], vv[mask]
        gap = np.abs(uu - vv)
        kap = _checked_eval("kappa_candidate", kappa_candidate, gap ** 2)
        for t in ts:
            Ht = _checked_eval("z_quad", spec.z_quad, t)
            if Ht <= 0.0:
                continue   # clause (i) already witnesses this t
            lu = _checked_eval("y_term", spec.y_term, t, M - np.log(uu) / Ht)
            lv = _checked_eval("y_term", spec.y_term, t, M - np.log(vv) / Ht)
            lhs = 2.0 * gap * np.abs(uu * lu - vv * lv)
            rhs = float(_checked_eval("phi", phi, t)) * kap
            slack = 1e-12 * (1.0 + np.abs(rhs))
            bad = lhs > rhs + slack
            if np.any(bad):
                i = int(np.argmax(bad))
                return ClauseVerdict(
                    "y_term_modulus_bound", False,
                    witness=(float(t), float(uu[i]), float(vv[i])),
                    observed=float(lhs[i]), threshold=float(np.atleast_1d(rhs)[min(i, np.atleast_1d(rhs).size - 1)]),
                    detail="modulus inequality fails at the witness (t, u, v)")
        return ClauseVerdict("y_term_modulus_bound", True)

    def terminal_above_floor():
        gvals = _checked_eval("terminal", spec.terminal, xs)
        low = spec.value_floor - TERMINAL_TOL
        if np.any(gvals < low):
            i = int(np.argmax(gvals < low))
            return ClauseVerdict("terminal_above_floor", False, witness=(float(xs[i]),),
                                 observed=float(gvals[i]), threshold=low)
        return ClauseVerdict("terminal_above_floor", True,
                             observed=float(np.min(gvals)), threshold=spec.value_floor)

    def z_slope_bounded():
        # finite everywhere on the sampled grid; record the empirical bound
        hmax = 0.0
        if spec.z_slope is not None:
            for t in ts:
                hmax = max(hmax, float(np.max(np.abs(_checked_eval("z_slope", spec.z_slope, t, xs)))))
        return ClauseVerdict("z_slope_bounded", True, observed=hmax,
                             detail=f"empirical bound {hmax:.6g} on the sampled grid")

    def source_dominates_z_slope():
        # 2 z_quad source - z_slope^2 / gamma >= 0
        for t in ts:
            Ht = _checked_eval("z_quad", spec.z_quad, t)
            hv = _checked_eval("z_slope", spec.z_slope, t, xs) if spec.z_slope is not None else 0.0
            expr = 2.0 * Ht * _checked_eval("source", spec.source, t, xs) - hv ** 2 / gamma
            if np.any(expr < -FLOOR_TOL):
                i = int(np.argmax(expr < -FLOOR_TOL))
                return ClauseVerdict("source_dominates_z_slope", False,
                                     witness=(float(t), float(xs[i])),
                                     observed=float(expr[i]), threshold=0.0)
        return ClauseVerdict("source_dominates_z_slope", True)

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
    return AssumptionReport(
        clauses=clauses,
        resolution={"n_t": int(ts.size), "n_x": int(xs.size), "n_uv": int(uv.size)},
        gamma=gamma,
    )
