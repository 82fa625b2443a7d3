"""Equivalence and uniqueness experiments across independent solution routes.

A route is one way to produce the initial value of the backward problem: the
closed-form quadratic baseline, the finite-difference PDE march, and the three
Monte Carlo regressions (direct, transformed, drift-eliminated girsanov).  One
table, ``ROUTE_TABLE``, gives each route's paths, solver and applicability.
Routes agree within 3 * (statistical stderr + discretization estimate);
persistent disagreement is the failure signal, echoing the theory's uniqueness
claim in a falsifiable form.  The Monte Carlo routes share paths: each distinct
ensemble is simulated once and serves every route's solves.  A route that does
not apply, or would only repeat another's solves (girsanov beside direct where
mu == 0 on every path), is skipped with its reason, not counted as agreement.

Every experiment records its seeds and resolutions and is reproducible bit
for bit from them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .bsde import (BasisSpec, _check_driftless, _check_transformable, solve_girsanov,
                   solve_lsmc, solve_transformed)
from .control import _check_closed_form, _write_rows, solve_riccati
from .errors import DomainError, SolverError
from .pde import SpaceGrid, solve_pde
from .problem import ControlProblemSpec, DriverSpec, ForwardSpec
from .sde import TimeGrid, simulate


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
        for name, kind in (("passed", bool), ("observed", float), ("tolerance", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))

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
        lines += [f"# {key} = {self.meta[key]!r}" for key in sorted(self.meta)]
        lines += [f"route {name}: value={est.value!r} stat_err={est.stat_err!r} "
                  f"disc_err={est.disc_err!r}" for name, est in self.routes.items()]
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


def _pde_estimate(setup: ProblemSetup, numerics: Numerics) -> RouteEstimate:
    fwd = setup.forward
    sgrid, tgrid = numerics.space_grid(fwd), numerics.pde_time_grid(fwd)
    coarse, fine = (float(solve_pde(fwd, setup.driver, sg, tg, scheme=numerics.pde_scheme,
                                    boundary=numerics.boundary).value(0.0, fwd.x0))
                    for sg, tg in ((sgrid, tgrid), (sgrid.refined(2), tgrid.refined(2))))
    return RouteEstimate("pde", fine, 0.0, abs(fine - coarse))


def _riccati_estimate(setup: ProblemSetup, numerics: Numerics) -> RouteEstimate:
    ric = solve_riccati(setup.control, numerics.time_grid(setup.forward))
    return RouteEstimate("riccati", float(ric.value(0.0, setup.control.x0)), 0.0, 1e-9)


def _reason(check: Callable, *args) -> str | None:
    """Why a route does not apply: the message its solver's ``check`` raises, or None."""
    try:
        check(*args)
    except DomainError as exc:
        return str(exc)


class _Route(NamedTuple):
    """A row of ``ROUTE_TABLE``; its lambdas look solvers up by name when called."""

    paths: str | None   # a Monte Carlo route's ensembles: "problem" or "driftless" (mu = 0)
    solve: Callable     # (setup, numerics) -> estimate, or (setup, ens, basis) -> solution
    reason: Callable = lambda setup, numerics, ens=None: None   # why it does not apply


ROUTE_TABLE = {
    "riccati": _Route(None, lambda s, num: _riccati_estimate(s, num),
                      lambda s, num, ens=None: _reason(_check_closed_form, s.control)),
    "pde": _Route(None, lambda s, num: _pde_estimate(s, num)),
    "direct": _Route("problem", lambda s, ens, b: solve_lsmc(ens, s.driver, b, estimate_only=True)),
    "transformed": _Route("problem", lambda s, ens, b: solve_transformed(
        ens, s.driver, b, estimate_only=True), lambda s, num, ens=None: _reason(
        _check_transformable, s.driver.z_quad(num.time_grid(s.forward).times()))),
    "girsanov": _Route("driftless", lambda s, ens, b: solve_girsanov(
        ens, s.driver, s.forward, b, estimate_only=True), lambda s, num, ens=None: (
        None if ens is None else _reason(_check_driftless, ens, s.forward))),   # known on paths
}
ROUTES = tuple(ROUTE_TABLE)
LSMC_ROUTES = tuple(name for name, route in ROUTE_TABLE.items() if route.paths)


def input_errors(experiment: str | None = None, *, routes=None, seeds=(), bases=(),
                 deltas=()) -> dict:
    """Every rule on an experiment's inputs, as ``{input: its first broken rule's message}``:
    known routes (None: all), deltas >= 0 and distinct seeds and bases (a repeat is no
    independent row) whatever the experiment, and the lengths and routes its kind needs."""
    labels = ",".join(basis.label() for basis in bases)
    rules = [   # (input, broken, message), in reporting order
        *(("routes", True, f"unknown route {name!r}; expected some of {ROUTES}")
          for name in routes or () if name not in ROUTES),
        ("routes", experiment == "feynman_kac" and routes is not None and len(set(routes)) < 2,
         f"feynman_kac compares at least 2 distinct routes, got {routes}"),
        ("routes", experiment == "uniqueness" and routes is not None and (
            not routes or len(set(routes)) < len(routes) or not set(routes) <= set(LSMC_ROUTES)),
         f"uniqueness takes distinct Monte Carlo routes from {LSMC_ROUTES}, got {routes}"),
        ("seeds", len(set(seeds)) < len(seeds), f"seeds must be distinct, got {list(seeds)}"),
        ("seeds", experiment == "uniqueness" and len(seeds) < 3,
         f"uniqueness needs at least 3 seeds, got {list(seeds)}"),
        ("bases", len(set(bases)) < len(bases), f"bases must be distinct, got {labels!r}"),
        ("bases", experiment == "uniqueness" and len(bases) < 2,
         f"uniqueness needs at least 2 bases, got {labels!r}"),
        ("deltas", any(d < 0.0 for d in deltas),
         f"deltas must be >= 0, got {min(deltas, default=0.0)!r}"),
        ("deltas", experiment == "delta_sweep" and not deltas,
         "delta_sweep needs at least one delta"),
    ]
    errors = {}
    for name, broken, message in rules:
        if broken:
            errors.setdefault(name, message)
    return errors


def _require_inputs(experiment: str | None = None, **inputs) -> None:
    """Raise ``DomainError`` with the first message of ``input_errors``, if any."""
    for message in input_errors(experiment, **inputs).values():
        raise DomainError(message)


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


def _lsmc_estimates(setup: ProblemSetup, numerics: Numerics, jobs: list, meta: dict,
                    skip=None) -> list:
    """Monte Carlo estimates for (route, seed, basis) jobs, in job order.

    Statistical error is the one-step stderr; the 'discretization' error is the
    largest shift under three probes: a replicate on fresh noise (recursion noise
    the stderr cannot see), half the steps, a richer basis.  A failing probe
    (``SolverError``) is left out and listed in ``meta["lost_probes"]``; a job
    that loses all three raises.  Per seed, the base, replicate and half-step
    ensembles are each simulated once, serve every job and are freed before the
    next exists; a driftless route shares one where mu is exactly 0 on it.  Each
    ensemble solves each distinct (driver, basis) once, failures included, and
    where sigma != 0 too, girsanov's driver is direct's and takes its solves.

    With ``skip``, a route whose ``reason`` fires on an ensemble, and girsanov where
    direct's solves served it on every ensemble, are left out and passed to
    ``skip(route, reason)``; without, the first raises, the second is in ``meta``.
    """
    fwd = setup.forward
    tgrid = numerics.time_grid(fwd)
    ensembles = [(tgrid, 0, None), (tgrid, _REPLICATE_OFFSET, "replicate")]
    if tgrid.n_steps >= 2:
        half = TimeGrid(tgrid.t_start, tgrid.t_end, tgrid.n_steps // 2)
        ensembles.append((half, 0, "half-step"))
    found, lost = {}, []   # job -> [value, stat_err, probe shifts...]; (route, lost probe)
    dropped, as_direct_on = set(), []   # skipped routes; per ensemble serving girsanov

    def drop(route: str, reason: str):
        if skip is None:
            raise DomainError(reason)
        dropped.add(route)
        skip(route, reason)

    def y0(ens, route: str, basis: BasisSpec) -> tuple:   # (y0, stderr) of an estimate-only solve
        route = "direct" if route == "girsanov" and as_direct else route
        if (route, basis) not in solved:   # solved and as_direct: the current ensemble's
            try:
                sol = ROUTE_TABLE[route].solve(setup, ens, basis)
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
        lost.append((route, f"{route}, seed {seed}, {basis.label()}, {numerics.n_paths} paths: "
                            f"{probe} probe failed ({reason})"))

    for seed in dict.fromkeys(job[1] for job in jobs):
        for grid, offset, probe in ensembles:
            pending = list(dict.fromkeys(job for job in jobs if job[1] == seed))
            # twice when a driftless route needs its own paths
            while pending := [job for job in pending if job[0] not in dropped]:
                served = [job for job in pending if ROUTE_TABLE[job[0]].paths == "problem"]
                solved, as_direct = {}, False   # first: a failure's traceback holds its ensemble
                ens = simulate(fwd if served else replace(fwd, mu=0.0), grid,
                               numerics.n_paths, seed + offset)
                stepped = list(zip(grid.times()[:-1], ens.states.T))
                # mu == 0 at each state stepped from: x + 0 dt + sigma dW, the mu = 0 march;
                # where sigma != 0 too, girsanov's shift mu / sigma is 0 and its driver direct's
                if not served or len(served) < len(pending) and not any(
                        np.any(fwd.mu(t, x)) for t, x in stepped):
                    as_direct = any(job[0] == "direct" for job in served) and all(
                        np.all(fwd.sigma(t, x)) for t, x in stepped)
                    served = pending
                for route in dict.fromkeys(job[0] for job in served):
                    if reason := ROUTE_TABLE[route].reason(setup, numerics, ens):
                        drop(route, reason)
                    elif route == "girsanov":
                        as_direct_on.append(as_direct)
                for job in (job for job in served if job[0] not in dropped):
                    run(ens, job, probe)
                pending = [job for job in pending if job not in served]
                del ens, stepped   # before the next ensemble exists (stepped holds its states)
    if as_direct_on and all(as_direct_on) and "girsanov" not in dropped:
        if skip is None:
            meta["girsanov"] = "direct's solves (mu == 0 on every path)"
        else:
            drop("girsanov", "identical to direct (mu == 0 on every path)")
    if lines := [line for route, line in lost if route not in dropped]:
        meta.setdefault("lost_probes", []).extend(lines)
    jobs = [job for job in jobs if job[0] not in dropped]
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


def estimate_route(setup: ProblemSetup, numerics: Numerics, route: str) -> RouteEstimate:
    """One route's estimate with its error budget; ``DomainError`` says why it does not apply."""
    _require_inputs(routes=[route])
    if ROUTE_TABLE[route].paths:
        return _lsmc_estimate(setup, numerics, route)
    if reason := ROUTE_TABLE[route].reason(setup, numerics):
        raise DomainError(reason)
    return ROUTE_TABLE[route].solve(setup, numerics)


def _pairs(items: list, value_err):
    """Each pair (a, b) with its gap and tolerance 3 (err_a + err_b); ``value_err`` gives both."""
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            (va, ea), (vb, eb) = value_err(a), value_err(b)
            yield a, b, abs(va - vb), 3.0 * (ea + eb)


def run_feynman_kac_check(setup: ProblemSetup, numerics: Numerics,
                          routes: list | None = None) -> ExperimentResult:
    """Solve every applicable route and check pairwise agreement.

    Two routes agree when |a - b| <= 3 * (err_a + err_b) with each route's
    error being statistical stderr plus a halved-resolution discrepancy.  A
    route that does not apply, or would only repeat direct's solves, is
    skipped and its reason recorded in ``meta["skipped"]``; fewer than two
    routes left raises, before any ensemble where the reasons need no paths.
    """
    _require_inputs("feynman_kac", routes=routes)   # before any estimate
    names = list(dict.fromkeys(ROUTES if routes is None else routes))
    skipped = {r: why for r in names if (why := ROUTE_TABLE[r].reason(setup, numerics))}

    def left(route=None, reason=None) -> list:   # after skipping route: the routes left, >= 2
        skipped.update({route: reason} if route else {})
        kept = [r for r in names if r not in skipped]
        if message := input_errors("feynman_kac", routes=kept).get("routes"):
            raise DomainError(message + "".join(f"; {r} skipped: {w}" for r, w in skipped.items()))
        return kept

    meta = {"label": setup.label, "seed": numerics.seed, "n_paths": numerics.n_paths,
            "n_steps": numerics.n_steps, "n_space": numerics.n_space,
            "basis": numerics.basis.label()}
    found = {r: ROUTE_TABLE[r].solve(setup, numerics) for r in left() if not ROUTE_TABLE[r].paths}
    jobs = [(r, numerics.seed, numerics.basis) for r in left() if r not in found]
    found.update((est.route, est) for est in _lsmc_estimates(setup, numerics, jobs, meta, left))
    estimates = {r: found[r] for r in left()}   # in the requested order
    meta.update({"skipped": skipped} if skipped else {})
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
    _require_inputs("uniqueness", routes=list(routes), seeds=seed_list, bases=basis_list)

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
    meta.update({"label": setup.label, "seeds": list(map(int, seed_list)),
                 "bases": [b.label() for b in basis_list], "routes": list(routes),
                 "n_paths": numerics.n_paths, "n_steps": numerics.n_steps, "doubled": doubled})
    return ExperimentResult("uniqueness", {}, verdicts, meta, table=[list(r) for r in rows],
                            table_columns=("route", "basis", "seed", "y0", "err"))


def run_delta_sweep(cps: ControlProblemSpec, numerics: Numerics, deltas: list) -> ExperimentResult:
    """PDE route across perturbation strengths, anchored at the closed form.

    Duplicated deltas are removed; the delta = 0 entry (if present) must match
    the quadratic baseline within 5e-3, and a midpoint refinement of the
    largest gap checks continuity in delta empirically.
    """
    _require_inputs("delta_sweep", deltas=deltas)
    uniq = sorted(set(float(d) for d in deltas))

    def pde_value(delta: float) -> RouteEstimate:
        setup = ProblemSetup.from_control(replace(cps, delta=delta), label=f"delta={delta:g}")
        return _pde_estimate(setup, numerics)

    values = {d: pde_value(d) for d in uniq}
    table = [[d, est.value, est.disc_err] for d, est in values.items()]

    verdicts = []
    meta = {"deltas": uniq, "n_space": numerics.n_space,
            "pde_steps": numerics.pde_time_grid(cps.uncontrolled_forward()).n_steps}
    if 0.0 in values:
        anchor = _riccati_estimate(
            ProblemSetup.from_control(replace(cps, delta=0.0), label="delta=0"), numerics).value
        gap = abs(values[0.0].value - anchor)
        verdicts.append(Verdict("anchor_matches_closed_form", gap <= 5e-3, gap, 5e-3))
        meta["closed_form_value"] = anchor
    if len(uniq) >= 2:
        _, i = max((uniq[i + 1] - uniq[i], i) for i in range(len(uniq) - 1))   # the widest gap
        lo, hi = uniq[i], uniq[i + 1]
        mid_est = pde_value(0.5 * (lo + hi))
        chord = 0.5 * (values[lo].value + values[hi].value)
        dev = abs(mid_est.value - chord)
        tol = 0.5 * abs(values[hi].value - values[lo].value) + 1e-3
        verdicts.append(Verdict("continuity_in_delta", dev <= tol, dev, tol,
                                detail=f"midpoint of [{lo:g}, {hi:g}]"))
        steps = np.diff([values[d].value for d in uniq])
        meta["trend"] = ("nondecreasing" if np.all(steps >= 0.0) else
                         "nonincreasing" if np.all(steps <= 0.0) else "mixed")
    return ExperimentResult("delta_sweep", {}, verdicts, meta, table=table,
                            table_columns=("delta", "value", "disc_err"))
