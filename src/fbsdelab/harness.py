"""Equivalence and uniqueness experiments across independent solution routes.

A route is one way to produce the initial value of the backward problem:
the closed-form quadratic baseline (when the control problem is unperturbed),
the finite-difference PDE march, and the three Monte Carlo regressions
(direct, transformed, drift-eliminated).  Routes agree within a combined
tolerance of 3 * (statistical stderr + discretization estimate); persistent
disagreement is the experiment's failure signal, echoing the theory's
uniqueness claim in a falsifiable form.

The Monte Carlo routes share paths: each distinct ensemble is simulated once
and serves every route's solves (girsanov's only where mu is exactly 0 on it),
and beside direct, girsanov takes direct's solves where its driver is direct's.

Every experiment records its seeds and resolutions and is reproducible bit
for bit from them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .bsde import BasisSpec, _check_driftless, solve_girsanov, solve_lsmc, solve_transformed
from .control import _write_rows, solve_riccati
from .errors import DomainError, SolverError
from .pde import SpaceGrid, solve_pde
from .problem import ControlProblemSpec, DriverSpec, ForwardSpec
from .sde import TimeGrid, simulate

LSMC_ROUTES = ("direct", "transformed", "girsanov")
ROUTES = ("riccati", "pde") + LSMC_ROUTES


@dataclass(frozen=True)
class ProblemSetup:
    """A forward/driver pair, optionally backed by its control problem."""

    label: str
    forward: ForwardSpec
    driver: DriverSpec
    control: ControlProblemSpec | None = None

    @classmethod
    def from_control(cls, cps: ControlProblemSpec, label: str) -> "ProblemSetup":
        return cls(label=label, forward=cps.uncontrolled_forward(),
                   driver=cps.driver_spec(), control=cps)


@dataclass(frozen=True)
class Numerics:
    """Resolution bundle shared by the routes; the PDE grid's extent is derived, not set."""

    n_paths: int = 100_000
    n_steps: int = 64
    n_space: int = 401
    pde_steps: int | None = None   # PDE time resolution; None = max(400, n_steps)
    basis: BasisSpec = field(default_factory=BasisSpec)
    pde_scheme: str = "auto"
    boundary: str = "linear_extrapolation"
    seed: int = 20240801

    def space_grid(self, fwd: ForwardSpec) -> SpaceGrid:
        return SpaceGrid.spanning(fwd, n_points=self.n_space)

    def time_grid(self, fwd: ForwardSpec) -> TimeGrid:
        return TimeGrid(0.0, fwd.horizon, self.n_steps)

    def pde_time_grid(self, fwd: ForwardSpec) -> TimeGrid:
        steps = self.pde_steps if self.pde_steps is not None else max(400, self.n_steps)
        return TimeGrid(0.0, fwd.horizon, steps)


@dataclass(frozen=True)
class RouteEstimate:
    route: str
    value: float
    stat_err: float
    disc_err: float

    def __post_init__(self):
        for name in ("value", "stat_err", "disc_err"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def total_err(self) -> float:
        return self.stat_err + self.disc_err


@dataclass(frozen=True)
class Verdict:
    criterion: str
    passed: bool
    observed: float
    tolerance: float
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "observed", float(self.observed))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{self.criterion}: {status} observed={self.observed!r} tolerance={self.tolerance!r}"
        if self.detail:
            out += f" ({self.detail})"
        return out


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    routes: dict
    verdicts: list
    meta: dict
    table: list = field(default_factory=list)
    table_columns: tuple = ()

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def summary(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        for key in sorted(self.meta):
            lines.append(f"# {key} = {self.meta[key]!r}")
        for name in self.routes:
            est = self.routes[name]
            lines.append(f"route {name}: value={est.value!r} "
                         f"stat_err={est.stat_err!r} disc_err={est.disc_err!r}")
        lines.extend(v.line() for v in self.verdicts)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def write(self, out_dir) -> list:
        """Write routes.csv, verdicts.txt and table.csv (if any); returns paths."""
        os.makedirs(out_dir, exist_ok=True)
        routes = os.path.join(out_dir, "routes.csv")
        _write_rows(routes, ("route", "value", "stat_err", "disc_err"),
                    [(name, est.value, est.stat_err, est.disc_err)
                     for name, est in self.routes.items()])
        verdicts = os.path.join(out_dir, "verdicts.txt")
        with open(verdicts, "w") as fh:
            fh.write(self.summary() + "\n")
        written = [routes, verdicts]
        if self.table:
            table = os.path.join(out_dir, "table.csv")
            _write_rows(table, self.table_columns, self.table)
            written.append(table)
        return written


def _applicable_routes(setup: ProblemSetup, tgrid: TimeGrid) -> list:
    routes = ["riccati"] if setup.control is not None and setup.control.delta == 0.0 else []
    routes += ["pde", "direct"]
    times = tgrid.times()
    if np.all(setup.driver.z_quad(times) > 0.0):
        routes.append("transformed")
    xs = np.linspace(setup.forward.x0 - 1.0, setup.forward.x0 + 1.0, 9)
    sig_ok = all(
        float(np.min(np.abs(setup.forward.sigma(t, xs)))) > 1e-8
        for t in times[:: max(1, len(times) // 8)]
    )
    if sig_ok:
        routes.append("girsanov")
    return routes


def _pde_estimate(setup: ProblemSetup, numerics: Numerics) -> RouteEstimate:
    fwd = setup.forward
    sgrid = numerics.space_grid(fwd)
    tgrid = numerics.pde_time_grid(fwd)

    def value(sg: SpaceGrid, tg: TimeGrid) -> float:
        sol = solve_pde(fwd, setup.driver, sg, tg,
                        scheme=numerics.pde_scheme, boundary=numerics.boundary)
        return float(sol.value(0.0, fwd.x0))

    coarse = value(sgrid, tgrid)
    fine = value(sgrid.refined(2), tgrid.refined(2))
    return RouteEstimate("pde", fine, 0.0, abs(fine - coarse))


def _richer_candidates(basis: BasisSpec) -> list:
    """Enriched bases for the sensitivity probe, most informative first.

    A richer basis can itself destabilize the quadratic recursion at modest
    path counts, so callers try these in order and settle for what solves.
    """
    if basis.family == "polynomial":
        return [replace(basis, degree=basis.degree + 2),
                replace(basis, degree=basis.degree + 1)]
    return [replace(basis, n_knots=2 * basis.n_knots - 1),
            replace(basis, n_knots=basis.n_knots + 2)]


# fixed offset for the noise-replicate solve; any value far from user seeds works
_REPLICATE_OFFSET = 990001


def _lsmc_estimates(setup: ProblemSetup, numerics: Numerics, jobs: list, meta: dict) -> list:
    """Monte Carlo estimates for (route, seed, basis) jobs, in job order.

    Statistical error is the one-step stderr of the final averaging.  The
    'discretization' error is the largest shift the estimate takes under
    three probes: a replicate run on fresh noise (recursion noise the
    one-step stderr cannot see), halving the step count, and enriching the
    regression basis.  Taking the max rather than the sum avoids counting
    the same recursion noise in every difference.  A probe whose solve fails
    (``SolverError``) is left out of the max and listed in
    ``meta["lost_probes"]``; a job that loses all three has no error budget
    and raises.

    Per seed, the base (seed, full grid), replicate (seed + _REPLICATE_OFFSET)
    and half-step (seed, half grid) ensembles are each simulated once, serve
    every job (the base: its base solve, then its richer-basis probe) and are
    freed before the next exists.  girsanov needs driftless paths: it shares
    an ensemble where mu is exactly 0 on it, else gets its own with mu = 0.
    Each ensemble solves each distinct (driver, basis) once, a failing one
    included; where sigma != 0 too, girsanov's driver is direct's and it takes
    direct's solves (``meta``), their failures as well.  Every solve is
    estimate-only: beside the ensemble it holds two value columns, not Y and Z.
    """
    fwd = setup.forward
    tgrid = numerics.time_grid(fwd)
    ensembles = [(tgrid, 0, None), (tgrid, _REPLICATE_OFFSET, "replicate")]
    if tgrid.n_steps >= 2:
        half = TimeGrid(tgrid.t_start, tgrid.t_end, tgrid.n_steps // 2)
        ensembles.append((half, 0, "half-step"))
    solvers = {"direct": solve_lsmc, "transformed": solve_transformed,
               "girsanov": lambda ens, drv, basis, **kw: solve_girsanov(ens, drv, fwd, basis, **kw)}
    for route, _, _ in jobs:   # before any ensemble is simulated
        if route not in solvers:
            raise DomainError(f"unknown Monte Carlo route {route!r}; expected one of {LSMC_ROUTES}")
    found = {}   # job -> [value, stat_err, probe shifts...]

    def y0(ens, route: str, basis: BasisSpec) -> tuple:   # (y0, stderr) of an estimate-only solve
        if route == "girsanov" and as_direct:
            _check_driftless(ens, fwd)   # girsanov's own checks and errors come first
            route, meta["girsanov"] = "direct", "direct's solves (mu == 0 on every path)"
        if (route, basis) not in solved:   # solved and as_direct: the current ensemble's
            try:
                sol = solvers[route](ens, setup.driver, basis, estimate_only=True)
                solved[route, basis] = sol.y0, sol.y0_stderr
            except SolverError as exc:   # girsanov may ask for direct's failed solve too
                solved[route, basis] = exc
        if isinstance(solved[route, basis], SolverError):
            raise solved[route, basis]
        return solved[route, basis]

    def run(ens, job, probe):
        route, seed, basis = job
        candidates = [basis]
        if probe is None:   # the base ensemble comes first: the base solve, then richer bases
            found[job] = list(y0(ens, route, basis))
            probe, candidates = "richer-basis", _richer_candidates(basis)
        for candidate in candidates:   # a probe settles for the first that solves
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    found[job].append(abs(found[job][0] - y0(ens, route, candidate)[0]))
                return
            except SolverError as exc:
                reason = str(exc).split(";")[0]
        meta.setdefault("lost_probes", []).append(
            f"{route}, seed {seed}, {basis.label()}, {numerics.n_paths} paths: "
            f"{probe} probe failed ({reason})")

    for seed in dict.fromkeys(job[1] for job in jobs):
        for grid, offset, probe in ensembles:
            pending = list(dict.fromkeys(job for job in jobs if job[1] == seed))
            while pending:   # twice when girsanov needs its own paths
                driftless = all(job[0] == "girsanov" for job in pending)
                solved, as_direct = {}, False   # first: a failure's traceback holds its ensemble
                ens = simulate(replace(fwd, mu=0.0) if driftless else fwd, grid,
                               numerics.n_paths, seed + offset)
                served = [job for job in pending if job[0] != "girsanov"]
                stepped = list(zip(grid.times()[:-1], ens.states.T))
                # mu == 0 at each state stepped from: x + 0 dt + sigma dW, the mu = 0 march;
                # where sigma != 0 too, girsanov's shift mu / sigma is 0 and its driver direct's
                if driftless or len(served) < len(pending) and not any(
                        np.any(fwd.mu(t, x)) for t, x in stepped):
                    as_direct = any(job[0] == "direct" for job in served) and all(
                        np.all(fwd.sigma(t, x)) for t, x in stepped)
                    served = pending
                for job in served:
                    run(ens, job, probe)
                pending = [job for job in pending if job not in served]
                del ens, stepped   # before the next ensemble exists (stepped holds its states)
    for route, seed, basis in jobs:
        if len(found[route, seed, basis]) == 2:
            raise SolverError(f"every error probe of {route} (seed {seed}, {basis.label()}) "
                              f"failed, so its error budget is unknown")
    return [RouteEstimate(job[0], *found[job][:2], max(found[job][2:])) for job in jobs]


def _lsmc_estimate(setup: ProblemSetup, numerics: Numerics, route: str,
                   seed: int | None = None, basis: BasisSpec | None = None) -> RouteEstimate:
    """One Monte Carlo route with its error budget: the one-job ``_lsmc_estimates``."""
    job = (route, numerics.seed if seed is None else seed, numerics.basis if basis is None else basis)
    return _lsmc_estimates(setup, numerics, [job], {})[0]


def _riccati_estimate(setup: ProblemSetup, numerics: Numerics) -> RouteEstimate:
    tgrid = numerics.time_grid(setup.forward)
    ric = solve_riccati(setup.control, tgrid)
    return RouteEstimate("riccati", float(ric.value(0.0, setup.control.x0)), 0.0, 1e-9)


def estimate_route(setup: ProblemSetup, numerics: Numerics, route: str) -> RouteEstimate:
    """The riccati or pde estimate; the Monte Carlo routes go through ``_lsmc_estimates``."""
    if route == "riccati":
        if setup.control is None or setup.control.delta != 0.0:
            raise DomainError("closed-form route needs an unperturbed control problem")
        return _riccati_estimate(setup, numerics)
    if route == "pde":
        return _pde_estimate(setup, numerics)
    raise DomainError(f"unknown route {route!r}")


def _pairs(items: list, value_err):
    """Each pair (a, b) with its gap and agreement tolerance 3 (err_a + err_b).

    ``value_err`` maps an item to its (value, error budget).
    """
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            (va, ea), (vb, eb) = value_err(a), value_err(b)
            yield a, b, abs(va - vb), 3.0 * (ea + eb)


def run_feynman_kac_check(
    setup: ProblemSetup,
    numerics: Numerics,
    routes: list | None = None,
) -> ExperimentResult:
    """Solve every applicable route and check pairwise agreement.

    Two routes agree when |a - b| <= 3 * (err_a + err_b) with each route's
    error being statistical stderr plus a halved-resolution discrepancy.
    """
    tgrid = numerics.time_grid(setup.forward)
    if routes is None:
        routes = _applicable_routes(setup, tgrid)
    for route in routes:   # every name and the route count are checked before any estimate
        if route not in ROUTES:
            raise DomainError(f"unknown route {route!r}")
    if len(set(routes)) < 2:
        raise DomainError(f"need at least 2 distinct routes to compare, "
                          f"got {list(dict.fromkeys(routes))}")
    # the other routes come before any LSMC ensemble
    estimates = {r: None if r in LSMC_ROUTES else estimate_route(setup, numerics, r) for r in routes}
    jobs = [(r, numerics.seed, numerics.basis) for r in estimates if r in LSMC_ROUTES]
    meta = {
        "label": setup.label, "seed": numerics.seed, "n_paths": numerics.n_paths,
        "n_steps": numerics.n_steps, "n_space": numerics.n_space,
        "basis": numerics.basis.label(),
    }
    estimates.update((est.route, est) for est in _lsmc_estimates(setup, numerics, jobs, meta))
    verdicts = [Verdict(f"agree:{a.route}~{b.route}", gap <= tol, gap, tol)
                for a, b, gap, tol in _pairs(list(estimates.values()),
                                             lambda e: (e.value, e.total_err))]
    return ExperimentResult("feynman_kac", estimates, verdicts, meta)


def run_uniqueness_check(
    setup: ProblemSetup,
    numerics: Numerics,
    seed_list: list,
    basis_list: list,
    routes: tuple = LSMC_ROUTES,
) -> ExperimentResult:
    """Estimate the initial value across seeds, bases and routes.

    All estimates must land in one band: every pair within 3 times the sum of
    their errors (stderr plus the per-route/per-basis halved-resolution
    estimate).  On a violation the whole grid of estimates is recomputed at
    doubled path count; only a persisting violation fails the experiment.
    """
    if len(seed_list) < 3:
        raise DomainError("need at least 3 seeds")
    if len(basis_list) < 2:
        raise DomainError("need at least 2 bases")
    if not routes:
        raise DomainError("need at least 1 route, got an empty route list")
    # a repeat would count as one more independent row
    for noun, items in (("seeds", seed_list), ("bases", basis_list), ("routes", routes)):
        if len(set(items)) < len(items):
            raise DomainError(f"{noun} must be distinct, got {list(items)}")

    def collect(num: Numerics):
        jobs = [(route, seed, basis)
                for route in routes for basis in basis_list for seed in seed_list]
        return [(route, basis.label(), int(seed), est.value, est.total_err)
                for (route, seed, basis), est in zip(jobs, _lsmc_estimates(setup, num, jobs, meta))]

    def band_violation(rows):
        """The pair furthest outside its tolerance, or None."""
        splits = [(gap - tol, a, b, gap, tol)
                  for a, b, gap, tol in _pairs(rows, lambda r: (r[3], r[4])) if gap > tol]
        return max(splits, key=lambda w: w[0], default=None)

    meta = {}   # girsanov's reuse of direct's solves, then the run's record
    rows = collect(numerics)
    violation = band_violation(rows)
    doubled = violation is not None
    if doubled:
        rows = collect(replace(numerics, n_paths=2 * numerics.n_paths))
        violation = band_violation(rows)

    values = [r[3] for r in rows]
    spread = max(values) - min(values)
    verdicts = [Verdict(
        criterion="single_band",
        passed=violation is None,
        observed=spread,
        tolerance=float(min(3.0 * 2.0 * r[4] for r in rows)) if rows else 0.0,
        detail=("all estimates mutually within 3 combined errors" if violation is None else
                f"persistent split {violation[1][:3]} vs {violation[2][:3]}: "
                f"gap {violation[3]:.3e} > tol {violation[4]:.3e}"
                + ("" if not doubled else " after path doubling")))]
    meta.update({
        "label": setup.label, "seeds": list(map(int, seed_list)),
        "bases": [b.label() for b in basis_list], "routes": list(routes),
        "n_paths": numerics.n_paths, "n_steps": numerics.n_steps,
        "doubled": doubled,
    })
    return ExperimentResult(
        "uniqueness", {}, verdicts, meta,
        table=[list(r) for r in rows],
        table_columns=("route", "basis", "seed", "y0", "err"))


def run_delta_sweep(
    cps: ControlProblemSpec,
    numerics: Numerics,
    deltas: list,
) -> ExperimentResult:
    """PDE route across perturbation strengths, anchored at the closed form.

    Duplicated deltas are removed; the delta = 0 entry (if present) must match
    the quadratic baseline within 5e-3, and a midpoint refinement of the
    largest gap checks continuity in delta empirically.
    """
    if any(d < 0.0 for d in deltas):
        raise DomainError("perturbation strengths must be >= 0")
    uniq = sorted(set(float(d) for d in deltas))
    if not uniq:
        raise DomainError("no deltas supplied")

    def pde_value(delta: float) -> RouteEstimate:
        sub = replace(cps, delta=delta)
        setup = ProblemSetup.from_control(sub, label=f"delta={delta:g}")
        return _pde_estimate(setup, numerics)

    values = {d: pde_value(d) for d in uniq}
    table = [[d, est.value, est.disc_err] for d, est in values.items()]

    verdicts = []
    meta = {"deltas": uniq, "n_space": numerics.n_space, "n_steps": numerics.n_steps}
    if 0.0 in values:
        anchor = _riccati_estimate(
            ProblemSetup.from_control(replace(cps, delta=0.0), label="delta=0"), numerics).value
        gap = abs(values[0.0].value - anchor)
        verdicts.append(Verdict("anchor_matches_closed_form", gap <= 5e-3, gap, 5e-3))
        meta["closed_form_value"] = anchor
    if len(uniq) >= 2:
        gaps = [(uniq[i + 1] - uniq[i], i) for i in range(len(uniq) - 1)]
        width, i = max(gaps)
        lo, hi = uniq[i], uniq[i + 1]
        mid_est = pde_value(0.5 * (lo + hi))
        chord = 0.5 * (values[lo].value + values[hi].value)
        dev = abs(mid_est.value - chord)
        tol = 0.5 * abs(values[hi].value - values[lo].value) + 1e-3
        verdicts.append(Verdict("continuity_in_delta", dev <= tol, dev, tol,
                                detail=f"midpoint of [{lo:g}, {hi:g}]"))
        vs = [values[d].value for d in uniq]
        if all(b >= a for a, b in zip(vs, vs[1:])):
            meta["trend"] = "nondecreasing"
        elif all(b <= a for a, b in zip(vs, vs[1:])):
            meta["trend"] = "nonincreasing"
        else:
            meta["trend"] = "mixed"
    return ExperimentResult(
        "delta_sweep", {}, verdicts, meta,
        table=table, table_columns=("delta", "value", "disc_err"))
