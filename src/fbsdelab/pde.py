"""Backward finite-difference solver for the quasilinear terminal-value PDE

    v_t + mu v_x + (1/2) sigma^2 v_xx + F(t, x, v, sigma v_x) = 0,
    v(T, x) = terminal(x),

marched from the terminal slice with implicit diffusion and implicit upwinded
advection (tridiagonal solves, no CFL restriction).  The nonlinearity is
evaluated at the previous time level (imex) or iterated to convergence with
damped Newton on the full residual (newton_implicit); 'auto' switches to
Newton on a per-step stiffness heuristic.

The boundary rule is linear extrapolation, w_edge = 2 w_1 - w_2: zero
curvature at the edges, which is exact for asymptotically quadratic value
functions.

The coefficients check their own values (``EvaluationError`` names one and
its node); the march checks only the field slices it computes.

The v-independent (t, x) terms are paid once per block of ``LEVEL_BLOCK`` levels, as
(levels, nodes) arrays with rows in descending time, so a non-finite coefficient raises
where a per-level march would: mu, sigma, the diagonals, z_quad and newton_implicit's
Newton residual terms (``problem.driver_block``; auto picks Newton per level from v, so
it calls ``driver_at``).  The imex step's driver stays one traced ``eval_driver`` call
per level.  Tridiagonal systems go straight to LAPACK's ``gtsv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgtsv

from .control import ControlPolicy, _feedback_law
from .errors import DomainError, SolverError
from .problem import (ControlProblemSpec, DriverSpec, ForwardSpec, driver_at, driver_block,
                      eval_driver)
from .sde import TimeGrid

PDE_SCHEMES = ("imex", "newton_implicit", "auto")
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 30
STIFFNESS_SWITCH = 0.1   # auto: use Newton when z_quad * dt * max|v_x| exceeds this
N_SIGMAS = 8.0           # spanning: half-width in diffusion-scale standard deviations
DRIFT_STEPS = 256        # spanning: Euler steps of the drift's noiseless path
LEVEL_BLOCK = 64         # time levels whose (t, x) coefficients are evaluated together


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform spatial truncation of the real line."""

    x_lo: float
    x_hi: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 4:
            raise DomainError("n_points must be >= 4: the PDE needs two interior nodes")
        if not self.x_lo < self.x_hi:
            raise DomainError("x_lo must be below x_hi")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n_points)

    def refined(self, factor: int = 2) -> "SpaceGrid":
        return SpaceGrid(self.x_lo, self.x_hi, (self.n_points - 1) * factor + 1)

    @classmethod
    def spanning(cls, fwd: ForwardSpec, n_points: int = 401) -> "SpaceGrid":
        """Truncation x0 +/- 8 (diffusion scale) sqrt(T), widened to hold the drift's
        noiseless path with half that half-width around it; a path that stays
        within that band of x0 (a zero or mild restoring drift) keeps the window.

        Eight standard deviations keep the boundary's influence at the center
        negligible for diffusive problems.  Each Euler step of the path is capped
        at the half-width, so it stays finite under an exploding drift; a tamed
        step would fall short of a strong drift's path by 1 / (1 + dt |mu|).
        """
        T = fwd.horizon
        probe = [abs(float(fwd.sigma(t, fwd.x0))) for t in (0.0, 0.5 * T, T)]
        scale = max(max(probe), 1e-2)
        half = N_SIGMAS * scale * np.sqrt(T)
        dt = T / DRIFT_STEPS
        x = lo = hi = fwd.x0
        for t in dt * np.arange(DRIFT_STEPS):
            x += min(max(float(fwd.mu(t, x)) * dt, -half), half)
            lo, hi = min(lo, x), max(hi, x)
        return cls(min(fwd.x0 - half, lo - half / 2), max(fwd.x0 + half, hi + half / 2), n_points)


@dataclass(frozen=True)
class GridSolution:
    """Finite-difference field v(t_i, x_j) plus its central-difference gradient, built
    on the first ``gradient`` call (most solves are read only through ``value``)."""

    tgrid: TimeGrid
    sgrid: SpaceGrid
    v: np.ndarray          # (n_steps + 1, n_points)
    newton_steps: int = 0  # time steps that used the Newton path

    def __post_init__(self):
        arr = np.asarray(self.v, dtype=float)
        expected = (self.tgrid.n_steps + 1, self.sgrid.n_points)
        if arr.shape != expected:
            raise DomainError(f"value field has shape {arr.shape}, expected {expected}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("value field contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "v", arr)

    @cached_property
    def _vx(self) -> np.ndarray:
        vx = np.gradient(self.v, self.sgrid.dx, axis=1)
        vx.setflags(write=False)
        return vx

    def _locate(self, t, x):
        times = self.tgrid.times()
        xs = self.sgrid.nodes()
        t = np.clip(t, times[0], times[-1])
        x = np.clip(x, xs[0], xs[-1])   # constant extrapolation beyond the grid
        it = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)
        # the uniform grid's cell, corrected once for rounding: searchsorted's index in O(1)
        with np.errstate(invalid="ignore"):   # a NaN state casts silently; its weight is NaN
            ix = np.clip(((x - xs[0]) / self.sgrid.dx).astype(int), 0, xs.size - 2)
        ix = np.clip(ix - (xs[ix] > x) + (xs[ix + 1] <= x), 0, xs.size - 2)
        wt = (t - times[it]) / (times[it + 1] - times[it])
        wx = (x - xs[ix]) / (xs[ix + 1] - xs[ix])
        return it, ix, wt, wx

    def _bilinear(self, field, t, x):
        it, ix, wt, wx = self._locate(np.asarray(t, float), np.asarray(x, float))
        f00 = field[it, ix]
        f01 = field[it, ix + 1]
        f10 = field[it + 1, ix]
        f11 = field[it + 1, ix + 1]
        out = (1 - wt) * ((1 - wx) * f00 + wx * f01) + wt * ((1 - wx) * f10 + wx * f11)
        return out if np.ndim(out) else float(out)

    def value(self, t, x):
        return self._bilinear(self.v, t, x)

    def gradient(self, t, x):
        return self._bilinear(self._vx, t, x)


def _advection_diffusion_diagonals(mu, sig2, dx):
    """Interior-row coefficients of mu d_x (upwinded) + 0.5 sigma^2 d_xx."""
    mu_pos = np.maximum(mu, 0.0)
    mu_neg = np.minimum(mu, 0.0)
    diff = 0.5 * sig2 / dx ** 2
    lower = diff - mu_neg / dx
    upper = diff + mu_pos / dx
    diag = -2.0 * diff - (mu_pos - mu_neg) / dx
    return lower, diag, upper


def _solve_interior(lower, diag, upper, rhs, k: int, t: float):
    """Tridiagonal solve over interior nodes with eliminated boundary nodes, at level k (time t).

    ``lower/diag/upper`` are the interior-row coefficients on (w_{j-1}, w_j,
    w_{j+1}); the first and last rows are corrected for the edge rule
    w_edge = 2 w_1 - w_2.  The diagonals go straight to LAPACK's ``gtsv``, which
    ``scipy.linalg.solve_banded`` calls after building a band array and validating
    it; a zero pivot raises ``SolverError`` naming the level, with no partial result.
    """
    d = diag.copy()
    d[0] += 2.0 * lower[0]     # first interior row: its w_{j-1} is the low edge node
    d[-1] += 2.0 * upper[-1]   # last interior row: its w_{j+1} is the high edge node
    du, dl = upper[:-1].copy(), lower[1:].copy()
    du[0] -= lower[0]
    dl[-1] -= upper[-1]
    *_, x, info = dgtsv(dl, d, du, rhs, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info:
        raise SolverError(f"singular tridiagonal system at time index {k} (t={t:.6g})", step=k)
    return x


def _complete(w_int: np.ndarray) -> np.ndarray:
    """Interior values plus the edge nodes from w_edge = 2 w_1 - w_2."""
    full = np.empty(w_int.size + 2)
    full[1:-1] = w_int
    full[0] = 2.0 * w_int[0] - w_int[1]
    full[-1] = 2.0 * w_int[-1] - w_int[-2]
    return full


def solve_pde(
    fwd: ForwardSpec,
    spec: DriverSpec,
    sgrid: SpaceGrid,
    tgrid: TimeGrid,
    scheme: str = "auto",
    boundary: str = "linear_extrapolation",
) -> GridSolution:
    """March the terminal-value problem backward on the product grid.

    'imex' treats the driver at the previous time level; 'newton_implicit'
    solves each step's full nonlinear residual with damped Newton (analytic
    z-linearization z_slope - z_quad * z, finite-difference y-linearization);
    'auto' picks per step via the stiffness heuristic
    z_quad * dt * max|v_x| > 0.1.
    """
    if scheme not in PDE_SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}; expected one of {PDE_SCHEMES}")
    if boundary != "linear_extrapolation":
        raise DomainError(f"unknown boundary {boundary!r}; only linear_extrapolation")

    xs = sgrid.nodes()
    xin = xs[1:-1]
    dx = sgrid.dx
    dt = tgrid.dt
    times = tgrid.times()
    n_t = tgrid.n_steps

    v = np.empty((n_t + 1, sgrid.n_points))
    v[n_t] = spec.terminal(xs)
    newton_steps = 0
    sig_next = fwd.sigma(float(times[n_t]), xin)   # each level hands its sigma to the next

    for k in range(n_t - 1, -1, -1):
        i = (n_t - 1 - k) % LEVEL_BLOCK   # the level's row in its block
        if i == 0:   # a new block: its levels' (t, x) terms, one row per level, t descending
            tb = times[max(k + 1 - LEVEL_BLOCK, 0):k + 1][::-1, None]
            mu_b, sig_b = fwd.mu(tb, xin), fwd.sigma(tb, xin)
            diagonals = _advection_diffusion_diagonals(mu_b, sig_b ** 2, dx)
            H_b = spec.z_quad(tb)[:, 0] if scheme != "imex" else None   # stiffness, Jacobian
            drivers = driver_block(spec, tb[:, 0], xin) if scheme == "newton_implicit" else None
        t = float(times[k])
        v_next = v[k + 1]
        sig_k = sig_b[i]
        lower, diag_op, upper = (d[i] for d in diagonals)

        use_newton = scheme == "newton_implicit"
        if not use_newton:   # np.gradient's differences: central inside, one-sided at the edges
            vx_next = np.empty_like(v_next)
            vx_next[1:-1] = (v_next[2:] - v_next[:-2]) / (2.0 * dx)
            vx_next[0], vx_next[-1] = (v_next[1] - v_next[0]) / dx, (v_next[-1] - v_next[-2]) / dx
        if scheme == "auto":
            use_newton = abs(H_b[i]) * dt * float(np.abs(vx_next).max()) > STIFFNESS_SWITCH

        if not use_newton:
            f_expl = eval_driver(spec, float(times[k + 1]), xin, v_next[1:-1],
                                 sig_next * vx_next[1:-1])
            rhs = v_next[1:-1] + dt * f_expl
            w = _complete(_solve_interior(-dt * lower, 1.0 - dt * diag_op,
                                          -dt * upper, rhs, k, t))
        else:
            newton_steps += 1
            drv = drivers[i] if drivers else driver_at(spec, t, xin)

            def residual(full):
                vx = (full[2:] - full[:-2]) / (2.0 * dx)
                advdiff = lower * full[:-2] + diag_op * full[1:-1] + upper * full[2:]
                return v_next[1:-1] - full[1:-1] + dt * (advdiff + drv(full[1:-1], sig_k * vx))

            w = _complete(v_next[1:-1])
            res = residual(w)   # each later iterate reuses the residual of the trial it was set to
            for it in range(NEWTON_MAX_ITER + 1):
                base = float(np.abs(res).max())
                if base <= NEWTON_TOL * max(1.0, float(np.abs(w).max())):
                    break
                if it == NEWTON_MAX_ITER or not np.isfinite(base):   # gtsv takes NaN silently
                    raise SolverError(
                        f"Newton did not converge at time index {k} (t={t:.6g}); "
                        f"residual {base:.3e}", step=k)
                dF_dz = drv.z_slope - H_b[i] * (sig_k * ((w[2:] - w[:-2]) / (2.0 * dx)))
                dF_dv = 0.0
                if spec.y_term is not None:
                    h_y = 1e-6 * np.maximum(1.0, np.abs(w[1:-1]))
                    dF_dv = -(spec.y_term(t, w[1:-1] + h_y)
                              - spec.y_term(t, w[1:-1] - h_y)) / (2 * h_y)
                jac_lower = dt * (lower - dF_dz * sig_k / (2.0 * dx))
                jac_diag = -1.0 + dt * (diag_op + dF_dv)
                jac_upper = dt * (upper + dF_dz * sig_k / (2.0 * dx))
                delta = _solve_interior(jac_lower, jac_diag, jac_upper, -res, k, t)
                # damped update: backtrack until the residual norm decreases
                step_size = 1.0
                while step_size >= 1e-3:
                    trial = _complete(w[1:-1] + step_size * delta)
                    res = residual(trial)
                    if float(np.abs(res).max()) < base:
                        break
                    step_size *= 0.5
                w = trial

        if not np.isfinite(w).all():
            j = int(np.argmax(~np.isfinite(w)))
            raise SolverError(
                f"non-finite value at time index {k} (t={t:.6g}), node x={xs[j]:.6g}", step=k)
        v[k], sig_next = w, sig_k

    return GridSolution(tgrid=tgrid, sgrid=sgrid, v=v, newton_steps=newton_steps)


def extract_feedback(sol: GridSolution, cps: ControlProblemSpec) -> ControlPolicy:
    """Feedback law -B(t) v_x(t, x) / (2 control_weight(t)) from the solved field.

    The gradient is bilinearly interpolated between nodes and held constant
    beyond the space grid.
    """
    return ControlPolicy("pde_feedback", _feedback_law(cps, sol.gradient))
