"""Control layer: closed-form quadratic baseline, policies, Monte Carlo costs.

For the unperturbed tracking problem (delta = 0) the value function is the
quadratic P(t) x^2 + q(t) x + r(t) whose coefficients solve the backward
system

    P' = (B^2/k1) P^2 - 2 A P - 1
    q' = (B^2/k1) P q - A q + 2 target
    r' = (B^2/(4 k1)) q^2 - sigma^2 P - target^2

with P(T) = k2, q(T) = -2 k2 target(T), r(T) = k2 target(T)^2; this module
integrates it with classical RK4 and exposes it as the exact baseline every
stochastic route is checked against.  Costs are estimated by left-endpoint
quadrature along simulated controlled paths, matching the filtration
alignment of the explicit state stepping: the controlled drift evaluates the
policy once per state and accumulates the running cost in the same call.  A
policy ranking draws its common noise once and marches every policy on it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .problem import ControlProblemSpec, _full_field
from .sde import TimeGrid, brownian_increments, simulate


def _write_rows(path, columns, rows) -> None:
    """CSV with a header row; numbers are written by repr, so they round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        for row in rows:
            writer.writerow([x if isinstance(x, str) else repr(x) for x in row])


@dataclass(frozen=True)
class RiccatiSolution:
    """Quadratic value-function coefficients on a time grid."""

    grid: TimeGrid
    P: np.ndarray
    q: np.ndarray
    r: np.ndarray
    problem: ControlProblemSpec

    def __post_init__(self):
        for name in ("P", "q", "r"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _interp(self, arr: np.ndarray, t):
        return np.interp(t, self.grid.times(), arr)

    def coefficients(self, t):
        return self._interp(self.P, t), self._interp(self.q, t), self._interp(self.r, t)

    def value(self, t, x):
        P, q, r = self.coefficients(t)
        return P * np.asarray(x, float) ** 2 + q * np.asarray(x, float) + r

    def gradient(self, t, x):
        P, q, _ = self.coefficients(t)
        return 2.0 * P * np.asarray(x, float) + q

    def feedback(self, t, x):
        """u(t, x) = -B (2 P x + q) / (2 k1), the optimal affine feedback."""
        return _feedback_law(self.problem, self.gradient)(t, x)


def _feedback_law(cps: ControlProblemSpec, gradient: Callable) -> Callable:
    """u(t, x) = -B(t) gradient(t, x) / (2 control_weight(t)), the feedback of a value gradient."""
    return lambda t, x: -cps.B(t) * gradient(t, x) / (2.0 * cps.control_weight(t))


def _check_closed_form(cps: ControlProblemSpec | None) -> None:
    """Raise ``DomainError`` unless ``cps`` is a control problem with the closed form."""
    if cps is None or cps.delta != 0.0:
        raise DomainError("the closed form needs a control problem with delta == 0")


def solve_riccati(cps: ControlProblemSpec, tgrid: TimeGrid) -> RiccatiSolution:
    """Integrate the quadratic-coefficient system backward with classical RK4."""
    _check_closed_form(cps)
    T = cps.horizon
    k2 = cps.terminal_weight
    xiT = float(cps.target(T))

    def rhs(t, y):
        P, q, r = y
        A = float(cps.A(t))
        B = float(cps.B(t))
        k1 = float(cps.control_weight(t))
        sig = float(cps.sigma(t))
        xi = float(cps.target(t))
        ratio = B * B / k1
        return np.array([
            ratio * P * P - 2.0 * A * P - 1.0,
            ratio * P * q - A * q + 2.0 * xi,
            0.25 * ratio * q * q - sig * sig * P - xi * xi,
        ])

    times = tgrid.times()
    n = tgrid.n_steps
    out = np.empty((3, n + 1))
    y = np.array([k2, -2.0 * k2 * xiT, k2 * xiT ** 2])
    out[:, n] = y
    h = -tgrid.dt
    for k in range(n, 0, -1):
        t = times[k]
        k1_ = rhs(t, y)
        k2_ = rhs(t + 0.5 * h, y + 0.5 * h * k1_)
        k3_ = rhs(t + 0.5 * h, y + 0.5 * h * k2_)
        k4_ = rhs(t + h, y + h * k3_)
        y = y + (h / 6.0) * (k1_ + 2.0 * k2_ + 2.0 * k3_ + k4_)
        if not np.all(np.isfinite(y)):
            raise DomainError(f"coefficient integration failed near t={times[k - 1]:.6g}")
        out[:, k - 1] = y
    return RiccatiSolution(grid=tgrid, P=out[0], q=out[1], r=out[2], problem=cps)


@dataclass(frozen=True)
class ControlPolicy:
    """A feedback law u(t, x), clamped to |u| <= u_max for admissibility."""

    name: str
    law: Callable
    u_max: float = 1e6

    def __post_init__(self):
        object.__setattr__(self, "law", _full_field(self.law, "law"))

    def __call__(self, t, x):
        out = np.clip(self.law(t, x), -self.u_max, self.u_max)
        return out if out.ndim else float(out)

    @classmethod
    def zero(cls) -> "ControlPolicy":
        return cls("zero", lambda t, x: 0.0)

    @classmethod
    def constant(cls, c: float) -> "ControlPolicy":
        c = float(c)
        return cls(f"constant({c:g})", lambda t, x: c)

    @classmethod
    def riccati_feedback(cls, ric: RiccatiSolution) -> "ControlPolicy":
        return cls("riccati_feedback", _feedback_law(ric.problem, ric.gradient))


@dataclass(frozen=True)
class CostEstimate:
    policy: str
    mean: float
    stderr: float
    n_paths: int
    per_path: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.per_path, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "per_path", arr)


def _estimate(cps, policy, grid, n_paths, seed, name, dW=None) -> CostEstimate:
    """One policy's cost on the increments ``dW`` (drawn from ``seed`` when None); target
    and control weight are taken per grid time, before the march."""
    times, dt = grid.times(), grid.dt
    target = [cps.target(t) for t in times]
    weight = [cps.control_weight(t) for t in times[:-1]]
    uncontrolled = cps.uncontrolled_forward()
    cost = np.zeros(n_paths)
    steps = iter(range(grid.n_steps))   # the march calls the drift once per step, in order

    def mu(t, x):   # the policy once per state, its running cost in the same call
        nonlocal cost
        k = next(steps)
        u = policy(t, x)
        cost += ((x - target[k]) ** 2 + weight[k] * np.asarray(u) ** 2) * dt
        return uncontrolled.mu(t, x) + cps.B(t) * u

    ens = simulate(replace(uncontrolled, mu=mu), grid, n_paths, seed, dW=dW)
    cost += cps.terminal_weight * (ens.states[:, -1] - target[-1]) ** 2
    stderr = float(cost.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return CostEstimate(policy=name, mean=float(cost.mean()), stderr=stderr,
                        n_paths=n_paths, per_path=cost)


def estimate_cost(
    cps: ControlProblemSpec,
    policy: ControlPolicy,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
) -> CostEstimate:
    """Sample mean and standard error of the discretized tracking cost.

    The controlled paths dX = (A x - delta x^3 + B u) dt + sigma dW take the
    same noise as ``simulate`` on the uncontrolled forward, with taming
    applied to the whole controlled drift: with the policy forced to zero
    they match the uncontrolled ensemble bit for bit on the same seed.  The
    cost is the left-endpoint sum of (x - target)^2 + k1 u^2 over the steps,
    accumulated during the march, plus the terminal term k2 (x_T - target(T))^2.
    """
    return _estimate(cps, policy, grid, n_paths, seed, policy.name)


@dataclass(frozen=True)
class PolicyRanking:
    """Costs of competing policies on common random numbers, best first."""

    rows: list  # (name, mean, stderr, paired_diff_vs_best, paired_stderr_vs_best)
    estimates: dict

    def best(self) -> str:
        return self.rows[0][0]

    def to_csv(self, path) -> None:
        _write_rows(path, ("policy", "mean_cost", "stderr",
                           "paired_diff_vs_best", "paired_stderr_vs_best"), self.rows)


def compare_policies(
    cps: ControlProblemSpec,
    policies: Sequence[ControlPolicy],
    grid: TimeGrid,
    n_paths: int,
    seed: int,
) -> PolicyRanking:
    """Estimate every policy's cost on identical noise and rank them.

    The increments are drawn once and every policy's paths march on them, so
    each estimate equals ``estimate_cost`` on the same seed bit for bit.
    Common random numbers make the paired differences low-variance: the
    reported paired stderr is that of per-path cost differences against the
    cheapest policy.
    """
    if len(policies) < 2:
        raise DomainError("need at least two policies to compare")
    dW = brownian_increments(seed, n_paths, grid.n_steps, grid.dt)
    estimates = {}
    for pol in policies:
        name = pol.name
        k = 2
        while name in estimates:   # duplicates allowed; disambiguate the label
            name = f"{pol.name}#{k}"
            k += 1
        estimates[name] = _estimate(cps, pol, grid, n_paths, seed, name, dW=dW)
    order = sorted(estimates, key=lambda name: estimates[name].mean)
    best = estimates[order[0]]
    rows = []
    for name in order:
        est = estimates[name]
        paired = est.per_path - best.per_path
        rows.append((
            name,
            est.mean,
            est.stderr,
            float(paired.mean()),
            float(paired.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0,
        ))
    return PolicyRanking(rows=rows, estimates=estimates)
