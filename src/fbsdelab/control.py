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
alignment of the explicit state stepping.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .problem import ControlProblemSpec, _full_field
from .sde import TimeGrid, simulate


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
        cps = self.problem
        return -cps.B(t) * self.gradient(t, x) / (2.0 * cps.control_weight(t))


def solve_riccati(cps: ControlProblemSpec, tgrid: TimeGrid) -> RiccatiSolution:
    """Integrate the quadratic-coefficient system backward with classical RK4."""
    if cps.delta != 0.0:
        raise DomainError("closed-form quadratic value requires delta = 0")
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
        return cls("riccati_feedback", ric.feedback)


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


def _per_path_costs(cps: ControlProblemSpec, policy, ens) -> np.ndarray:
    times = ens.grid.times()
    dt = ens.grid.dt
    cost = np.zeros(ens.n_paths)
    for k in range(ens.n_steps):
        t = times[k]
        xk = ens.states[:, k]
        u = policy(t, xk)
        cost += ((xk - cps.target(t)) ** 2 + cps.control_weight(t) * np.asarray(u) ** 2) * dt
    xT = ens.states[:, -1]
    cost += cps.terminal_weight * (xT - cps.target(times[-1])) ** 2
    return cost


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
    they match the uncontrolled ensemble bit for bit on the same seed.
    """
    uncontrolled = cps.uncontrolled_forward()
    fwd = replace(uncontrolled, mu=lambda t, x: uncontrolled.mu(t, x) + cps.B(t) * policy(t, x))
    ens = simulate(fwd, grid, n_paths, seed)
    cost = _per_path_costs(cps, policy, ens)
    return CostEstimate(
        policy=policy.name,
        mean=float(cost.mean()),
        stderr=float(cost.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0,
        n_paths=n_paths,
        per_path=cost,
    )


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

    Common random numbers make the paired differences low-variance: the
    reported paired stderr is that of per-path cost differences against the
    cheapest policy.
    """
    if len(policies) < 2:
        raise DomainError("need at least two policies to compare")
    estimates = {}
    for pol in policies:
        name = pol.name
        k = 2
        while name in estimates:   # duplicates allowed; disambiguate the label
            name = f"{pol.name}#{k}"
            k += 1
        est = estimate_cost(cps, pol, grid, n_paths, seed)
        estimates[name] = CostEstimate(policy=name, mean=est.mean, stderr=est.stderr,
                                       n_paths=est.n_paths, per_path=est.per_path)
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
