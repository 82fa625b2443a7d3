"""Forward path simulation on uniform grids with reproducible noise.

Noise comes from counter-based Philox streams keyed by (seed, path block),
with a fixed block size, so the increments of path i depend only on the seed,
i and the step count: never on how many paths are simulated alongside it or
on any execution schedule.  Ensembles are therefore reproducible bit for bit.

The tamed scheme divides the drift by (1 + dt |drift|) per step, the standard
guard for superlinear (e.g. cubic) drifts under which plain explicit stepping
can explode.  A blow-up (a non-finite state, or a coefficient overflowing on
an exploding path) is a ``SimulationError`` naming the path, the step and the
coefficient (and, under plain Euler, the tamed scheme as the remedy); a
coefficient NaN at a finite state raises ``EvaluationError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EvaluationError, SimulationError
from .problem import ForwardSpec

# Paths per RNG block; fixed so path content is independent of n_paths.
_BLOCK = 4096

SCHEMES = ("euler", "tamed_euler")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with n_steps intervals."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise DomainError("n_steps must be >= 1")
        if not self.t_end > self.t_start:
            raise DomainError("t_end must exceed t_start")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)

    def refined(self, factor: int = 2) -> "TimeGrid":
        return TimeGrid(self.t_start, self.t_end, self.n_steps * factor)


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated forward paths with their Brownian increments.

    states: (n_paths, n_steps + 1), states[:, 0] = x0
    dW:     (n_paths, n_steps)
    Both are column-major (Fortran order), so each step's column [:, k] is
    contiguous.  Arrays are frozen (writeable=False); share freely across threads.
    ``_memo`` holds what the backward solvers derive from the paths alone (the
    state range, each (basis, step) regression design); it is in neither repr
    nor == and is freed with the ensemble.
    """

    grid: TimeGrid
    states: np.ndarray
    dW: np.ndarray
    seed: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("states", "dW"):
            arr = np.asarray(getattr(self, name), dtype=float, order="F")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.states.shape != (self.dW.shape[0], self.dW.shape[1] + 1):
            raise DomainError("states and dW shapes are inconsistent")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.dW.shape[1]


def brownian_increments(seed: int, n_paths: int, n_steps: int, dt: float) -> np.ndarray:
    """Increments for paths 0..n_paths-1 from per-block Philox substreams."""
    if n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    out = np.empty((n_paths, n_steps), order="F")
    buf = np.empty((min(_BLOCK, n_paths), n_steps))   # C order: the generator's fill order
    for block in range(0, n_paths, _BLOCK):
        rows = min(_BLOCK, n_paths - block)
        # a uint64 array keeps every seed's bits; a Python list would be cast
        # through float64 and collapse all seeds >= 2**63 (every negative one)
        key = np.array([seed % 2 ** 64, block // _BLOCK], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        np.multiply(gen.standard_normal(out=buf[:rows]), np.sqrt(dt), out=out[block:block + rows])
    return out


def _march(fwd: ForwardSpec, grid: TimeGrid, dW: np.ndarray, scheme: str) -> np.ndarray:
    if scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    n_paths, n_steps = dW.shape
    dt = grid.dt
    times = grid.times()
    states = np.empty((n_paths, n_steps + 1), order="F")
    states[:, 0] = fwd.x0
    x = states[:, 0].copy()
    for k in range(n_steps):
        t = times[k]
        try:
            mu = fwd.mu(t, x)
            if scheme == "tamed_euler":
                mu = mu / (1.0 + dt * np.abs(mu))
            x = x + mu * dt + fwd.sigma(t, x) * dW[:, k]
        except EvaluationError as exc:
            if not np.isinf(exc.value):   # undefined at a finite state: not a blow-up
                raise
            i, cause = exc.index, f": coefficient {exc.coefficient!r} overflowed at {exc.point}"
        else:
            bad = ~np.isfinite(x)
            if not np.any(bad):
                states[:, k + 1] = x
                continue
            i, cause = int(np.argmax(bad)), ""
        if scheme == "euler":   # under tamed_euler the remedy is already applied
            cause += "; the drift may be superlinear; try scheme='tamed_euler'"
        raise SimulationError(i, k + 1, f"non-finite state at path {i}, step {k + 1} "
                              f"(t={times[k + 1]:.6g}){cause}")
    return states


def simulate(
    fwd: ForwardSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    scheme: str = "tamed_euler",
    *, dW: np.ndarray | None = None,
) -> PathEnsemble:
    """Simulate the forward diffusion; reproducible bit for bit per (seed, grid, n_paths, scheme).

    ``dW``, increments already drawn for these paths, lets several drifts share one
    draw (the ensemble keeps and freezes it); a shape other than (n_paths, n_steps)
    is a ``DomainError``."""
    if dW is None:
        dW = brownian_increments(seed, n_paths, grid.n_steps, grid.dt)
    elif np.shape(dW) != (n_paths, grid.n_steps):
        raise DomainError(f"dW has shape {np.shape(dW)}, expected {(n_paths, grid.n_steps)}")
    states = _march(fwd, grid, dW, scheme)
    return PathEnsemble(grid=grid, states=states, dW=dW, seed=seed)

