import re
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fbsdelab as fl
import fbsdelab.harness as harness
from fbsdelab.cli import parse_config
from fbsdelab.errors import DomainError, SolverError
from fbsdelab.harness import _REPLICATE_OFFSET, _lsmc_estimate, _richer_candidates


def count_simulations(monkeypatch) -> list:
    """Record (forward, grid, seed) of every ensemble the harness simulates."""
    calls = []

    def counting(fwd, grid, n_paths, seed, **kw):
        calls.append((fwd, grid, seed))
        return fl.simulate(fwd, grid, n_paths, seed, **kw)

    monkeypatch.setattr(harness, "simulate", counting)
    return calls


def no_girsanov(*args, **kw):
    raise AssertionError("girsanov recursion ran")


DUPLICATE = "identical to direct (mu == 0 on every path)"
CLOSED_FORM = "the closed form needs a control problem with delta == 0"
TRANSFORM = "transform requires z_quad > 0 on the whole grid"
SIGMA = "sigma is not bounded away from zero on the sampled range"


def heat_setup(**forward):
    fwd = fl.ForwardSpec(**{"mu": 0.0, "sigma": 1.0, "x0": 0.0, "horizon": 1.0, **forward})
    drv = fl.DriverSpec(source=0.0, z_quad=0.0, terminal=lambda x: x ** 2)
    return fl.ProblemSetup(label="heat", forward=fwd, driver=drv)


def per_route_reference(setup, num, route, seed, basis):
    """The estimate computed route by route, every probe on freshly simulated paths."""
    fwd = setup.forward
    sim_fwd = replace(fwd, mu=0.0) if route == "girsanov" else fwd

    def y0(steps, sd, bs):
        ens = fl.simulate(sim_fwd, fl.TimeGrid(0.0, fwd.horizon, steps), num.n_paths, sd)
        if route == "girsanov":
            sol = fl.solve_girsanov(ens, setup.driver, fwd, bs)
        elif route == "transformed":
            sol = fl.solve_transformed(ens, setup.driver, bs)
        else:
            sol = fl.solve_lsmc(ens, setup.driver, bs)
        return sol.y0, sol.y0_stderr

    value, stat_err = y0(num.n_steps, seed, basis)
    shifts = [abs(value - y0(num.n_steps, seed + _REPLICATE_OFFSET, basis)[0]),
              abs(value - y0(num.n_steps // 2, seed, basis)[0])]
    for richer in _richer_candidates(basis):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                shifts.append(abs(value - y0(num.n_steps, seed, richer)[0]))
            break
        except SolverError:
            continue
    return harness.RouteEstimate(route, value, stat_err, max(shifts))


def light_numerics(**kw):
    base = dict(n_paths=20_000, n_steps=64, n_space=201, pde_steps=200,
                seed=101, basis=fl.BasisSpec("polynomial", 2))
    base.update(kw)
    return fl.Numerics(**base)


class TestFeynmanKac:
    def test_heat_triangle(self):
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        drv = fl.DriverSpec(source=0.0, z_quad=0.0, terminal=lambda x: x ** 2)
        setup = fl.ProblemSetup(label="heat", forward=fwd, driver=drv)
        res = fl.run_feynman_kac_check(setup, light_numerics())
        assert res.passed
        assert res.routes["pde"].value == pytest.approx(1.0, abs=1e-3)
        assert res.routes["direct"].value == pytest.approx(1.0, abs=0.02)
        # no closed-form quadratic route, no transformed route (z_quad = 0)
        assert "riccati" not in res.routes
        assert "transformed" not in res.routes

    def test_benchmark_triangle_routes(self, benchmark_setup, benchmark_value):
        # mu == 0 on every path: girsanov would only repeat direct's solves
        res = fl.run_feynman_kac_check(
            benchmark_setup, light_numerics(basis=fl.BasisSpec("polynomial", 4)))
        assert list(res.routes) == ["riccati", "pde", "direct", "transformed"]
        assert res.meta["skipped"] == {"girsanov": DUPLICATE}
        assert res.routes["riccati"].value == pytest.approx(benchmark_value, abs=1e-8)
        assert res.passed, res.summary()

    def test_duplicate_girsanov_leaves_no_row_or_agreement(self, benchmark_setup, tmp_path):
        res = fl.run_feynman_kac_check(benchmark_setup, light_numerics(n_paths=4000, n_steps=16,
                                                                       n_space=101, pde_steps=50))
        res.write(tmp_path)
        routes = (tmp_path / "routes.csv").read_text()
        verdicts = (tmp_path / "verdicts.txt").read_text()
        assert "girsanov," not in routes and "route girsanov" not in verdicts
        assert "~girsanov" not in verdicts and "girsanov~" not in verdicts
        assert f"\n# skipped = {{'girsanov': '{DUPLICATE}'}}\n" in verdicts
        assert "# girsanov = " not in verdicts
        assert len(res.verdicts) == 6

    def test_drifting_problem_keeps_girsanov(self, perturbed_setup, monkeypatch):
        # mu != 0: girsanov runs on its own mu = 0 ensembles and is reported;
        # only the closed form, which needs delta == 0, is skipped
        calls = count_simulations(monkeypatch)
        res = fl.run_feynman_kac_check(perturbed_setup,
                                       light_numerics(n_paths=4000, n_steps=16, n_space=101,
                                                      pde_steps=50))
        assert list(res.routes) == ["pde", "direct", "transformed", "girsanov"]
        assert res.meta["skipped"] == {"riccati": CLOSED_FORM}
        assert "girsanov" not in res.meta
        own = [grid.n_steps for fwd, grid, _ in calls if fwd is not perturbed_setup.forward]
        assert own == [16, 16, 8]

    def test_perturbed_has_no_closed_form_route(self, perturbed_setup):
        res = fl.run_feynman_kac_check(
            perturbed_setup,
            light_numerics(basis=fl.BasisSpec("polynomial", 4)),
            routes=["pde", "direct"])
        assert set(res.routes) == {"pde", "direct"}
        assert res.passed, res.summary()

    def test_explicit_route_list_respected(self, benchmark_setup):
        res = fl.run_feynman_kac_check(benchmark_setup,
                                       light_numerics(),
                                       routes=["riccati", "pde"])
        assert set(res.routes) == {"riccati", "pde"}
        assert len(res.verdicts) == 1

    def test_unknown_route_rejected(self, benchmark_setup, monkeypatch):
        # before any route is estimated: no ensemble is simulated first
        calls = count_simulations(monkeypatch)
        for routes in (["quantum"], ["direct", "quantum"]):
            with pytest.raises(DomainError, match="unknown route 'quantum'"):
                fl.run_feynman_kac_check(benchmark_setup, light_numerics(), routes=routes)
        assert calls == []

    def test_riccati_route_requires_unperturbed_control(self, perturbed_setup):
        with pytest.raises(DomainError):
            fl.run_feynman_kac_check(perturbed_setup, light_numerics(),
                                     routes=["riccati"])

    @pytest.mark.parametrize("setup_name, routes, reason", [
        ("perturbed_setup", ["riccati", "pde", "direct"], {"riccati": CLOSED_FORM}),
        ("heat", ["transformed", "pde", "direct"], {"transformed": TRANSFORM}),
    ])
    def test_route_that_does_not_apply_is_skipped(self, request, setup_name, routes, reason):
        setup = heat_setup() if setup_name == "heat" else request.getfixturevalue(setup_name)
        res = fl.run_feynman_kac_check(
            setup, light_numerics(n_paths=4000, n_steps=16, n_space=101, pde_steps=50),
            routes=routes)
        assert list(res.routes) == ["pde", "direct"]
        assert res.meta["skipped"] == reason
        assert [v.criterion for v in res.verdicts] == ["agree:pde~direct"]

    def test_too_few_routes_left_names_each_reason_before_any_ensemble(self, monkeypatch):
        calls = count_simulations(monkeypatch)
        solved = []
        monkeypatch.setattr(harness, "solve_pde", lambda *a, **kw: solved.append(a))
        with pytest.raises(DomainError) as err:
            fl.run_feynman_kac_check(heat_setup(), light_numerics(),
                                     routes=["riccati", "transformed", "direct"])
        assert str(err.value) == (
            f"feynman_kac compares at least 2 distinct routes, got ['direct']; "
            f"riccati skipped: {CLOSED_FORM}; transformed skipped: {TRANSFORM}")
        assert calls == [] and solved == []

    def test_girsanov_skip_ends_the_run_after_its_base_ensemble(self, monkeypatch):
        # sigma = x from x0 = 0 vanishes on every path: girsanov does not apply,
        # and that is known only on paths; direct alone has nothing to agree with
        calls = count_simulations(monkeypatch)
        with pytest.raises(DomainError) as err:
            fl.run_feynman_kac_check(heat_setup(sigma=lambda t, x: x),
                                     light_numerics(n_paths=2000, n_steps=8),
                                     routes=["direct", "girsanov"])
        assert str(err.value) == (f"feynman_kac compares at least 2 distinct routes, "
                                  f"got ['direct']; girsanov skipped: {SIGMA}")
        assert [(grid.n_steps, seed) for _, grid, seed in calls] == [(8, 101)]

    @pytest.mark.parametrize("routes", [["pde"], ["pde", "pde"]])
    def test_single_route_rejected(self, benchmark_setup, routes):
        # one route has nothing to agree with; a pass would compare nothing
        with pytest.raises(DomainError, match="at least 2 distinct routes"):
            fl.run_feynman_kac_check(benchmark_setup,
                                     light_numerics(n_space=41, pde_steps=20),
                                     routes=routes)

    def test_route_count_checked_before_any_estimate(self, benchmark_setup, monkeypatch):
        calls = []

        def counting(*args, **kw):
            calls.append(args)
            return fl.solve_pde(*args, **kw)

        monkeypatch.setattr(harness, "solve_pde", counting)
        with pytest.raises(DomainError, match=r"feynman_kac compares at least 2 distinct "
                                              r"routes, got \['pde', 'pde'\]"):
            fl.run_feynman_kac_check(benchmark_setup, light_numerics(n_space=41, pde_steps=20),
                                     routes=["pde", "pde"])
        assert calls == []


class TestPdeGrid:
    """The PDE grid covers where the forward paths go, derived from the problem alone."""

    def test_drifting_problem_is_solved_on_its_paths(self):
        # mu = 5, sigma = 0.1: X_T ~ N(5, 0.01), so v(0, 0) = E[X_T^2] = 25.01; a grid
        # centred on x0 alone reported 7.30 +/- 0.05 here
        fwd = fl.ForwardSpec(mu=5.0, sigma=0.1, x0=0.0, horizon=1.0)
        drv = fl.DriverSpec(source=0.0, z_quad=1e-6, terminal=lambda x: x ** 2)
        setup = fl.ProblemSetup(label="drift", forward=fwd, driver=drv)
        est = harness.estimate_route(setup, fl.Numerics(n_space=201, pde_steps=200), "pde")
        assert abs(est.value - 25.01) <= 3.0 * est.disc_err

    @pytest.mark.parametrize("name, extent", [
        ("heat", (-8.0, 8.0, 401)),
        ("lqr_condition", (-7.0, 9.0, 201)),
        ("lqr_delta0", (-7.0, 9.0, 401)),
        ("lqr_delta01", (-7.0, 9.0, 401)),
        ("lqr_sweep", (-7.0, 9.0, 401)),
        ("lqr_uniqueness", (-7.0, 9.0, 401)),
    ])
    def test_shipped_grids_keep_their_extent(self, name, extent):
        # zero and restoring drifts keep the diffusive window x0 +/- 8 sigma sqrt(T)
        root = Path(__file__).resolve().parent.parent
        cfg = parse_config((root / "configs" / f"{name}.cfg").read_text())
        g = cfg.numerics.space_grid(cfg.setup.forward)
        assert (g.x_lo, g.x_hi, g.n_points) == extent
        if cfg.control is not None:
            for delta in (0.0, 0.05, 0.1, 0.2, 0.3, 0.4):
                fwd = replace(cfg.control, delta=delta).uncontrolled_forward()
                g = cfg.numerics.space_grid(fwd)
                assert (g.x_lo, g.x_hi) == extent[:2], delta


class TestLsmcEstimate:
    def test_richer_probe_reuses_the_base_ensemble(self, benchmark_setup, monkeypatch):
        # the richer basis is solved on the base ensemble itself, and every
        # probe still equals a solve on freshly simulated paths
        num = light_numerics(n_paths=4000, n_steps=16)
        fwd, drv = benchmark_setup.forward, benchmark_setup.driver
        solved = []

        def recording_solve(ens, spec, basis, **kw):
            solved.append((ens, basis))
            return fl.solve_lsmc(ens, spec, basis, **kw)

        monkeypatch.setattr(harness, "solve_lsmc", recording_solve)
        est = _lsmc_estimate(benchmark_setup, num, "direct")
        richer = _richer_candidates(num.basis)[0]
        assert [basis for _, basis in solved] == [num.basis, richer, num.basis, num.basis]
        assert solved[1][0] is solved[0][0]

        def y0(steps, basis, seed):
            ens = fl.simulate(fwd, fl.TimeGrid(0.0, fwd.horizon, steps), num.n_paths, seed)
            return fl.solve_lsmc(ens, drv, basis).y0

        base = y0(16, num.basis, num.seed)
        shifts = [abs(base - y0(16, num.basis, num.seed + _REPLICATE_OFFSET)),
                  abs(base - y0(16, richer, num.seed)),
                  abs(base - y0(8, num.basis, num.seed))]
        assert est.value == base
        assert est.disc_err == max(shifts)


class TestLostProbes:
    """A probe whose solve fails is recorded and left out of the error budget."""

    num = light_numerics(n_paths=4000, n_steps=16)

    def failing_where(self, monkeypatch, fails):
        def solve(ens, spec, basis, **kw):
            if fails(ens, basis):
                raise SolverError("backward recursion produced non-finite values at step 3; "
                                  "use fewer knots", step=3)
            return fl.solve_lsmc(ens, spec, basis, **kw)

        monkeypatch.setattr(harness, "solve_lsmc", solve)

    def test_diverging_replicate_probe_is_recorded(self, benchmark_setup):
        # the job whose replicate solve aborted the seeds 21..25 uniqueness run
        num = light_numerics(n_paths=20_000, n_steps=64)
        job = ("direct", 24, fl.BasisSpec("piecewise_linear", n_knots=10))
        meta = {}
        (est,) = harness._lsmc_estimates(benchmark_setup, num, [job], meta)
        assert meta["lost_probes"] == [
            "direct, seed 24, piecewise_linear:10, 20000 paths: replicate probe failed "
            "(backward recursion produced non-finite values at step 12)"]
        assert 0.0 < est.disc_err < 0.05

    def test_failed_solve_is_not_rerun_for_girsanov(self, benchmark_setup, monkeypatch):
        # girsanov takes direct's solves here (mu == 0), its failing replicate one too
        failed = []

        def recording_solve(ens, spec, basis, **kw):
            try:
                return fl.solve_lsmc(ens, spec, basis, **kw)
            except SolverError:
                failed.append((ens.seed, basis))
                raise

        monkeypatch.setattr(harness, "solve_lsmc", recording_solve)
        num = light_numerics(n_paths=20_000, n_steps=64)
        basis = fl.BasisSpec("piecewise_linear", n_knots=10)
        meta = {}
        harness._lsmc_estimates(benchmark_setup, num,
                                [("direct", 24, basis), ("girsanov", 24, basis)], meta)
        assert failed == [(24 + _REPLICATE_OFFSET, basis)]
        assert [line.split(",")[0] for line in meta["lost_probes"]] == ["direct", "girsanov"]
        assert all("replicate probe failed" in line for line in meta["lost_probes"])

    def test_failed_probe_frees_its_ensemble(self, benchmark_setup, monkeypatch):
        # a memoised failure keeps its traceback, whose frames hold the ensemble it
        # failed on; that ensemble must be gone before the next one is simulated
        num = self.num
        self.failing_where(monkeypatch, lambda ens, basis: basis != num.basis)
        refs, alive = [], []

        def recording_simulate(*args):
            alive.append([ref() is not None for ref in refs])
            ens = fl.simulate(*args)
            refs.append(weakref.ref(ens))
            return ens

        monkeypatch.setattr(harness, "simulate", recording_simulate)
        meta = {}
        harness._lsmc_estimates(benchmark_setup, num, [("direct", num.seed, num.basis)], meta)
        assert "richer-basis probe failed" in meta["lost_probes"][0]
        assert alive == [[], [False], [False, False]]

    def test_richer_probe_lost_when_both_candidates_fail(self, benchmark_setup, monkeypatch):
        num = self.num
        self.failing_where(monkeypatch, lambda ens, basis: basis != num.basis)
        meta = {}
        (est,) = harness._lsmc_estimates(benchmark_setup, num, [("direct", num.seed, num.basis)],
                                         meta)
        assert meta["lost_probes"] == [
            "direct, seed 101, polynomial:2, 4000 paths: richer-basis probe failed "
            "(backward recursion produced non-finite values at step 3)"]
        fwd, drv = benchmark_setup.forward, benchmark_setup.driver

        def y0(steps, seed):
            ens = fl.simulate(fwd, fl.TimeGrid(0.0, fwd.horizon, steps), num.n_paths, seed)
            return fl.solve_lsmc(ens, drv, num.basis).y0

        base = y0(16, num.seed)
        assert est.disc_err == max(abs(base - y0(16, num.seed + _REPLICATE_OFFSET)),
                                   abs(base - y0(8, num.seed)))

    def test_a_job_that_loses_every_probe_raises(self, benchmark_setup, monkeypatch):
        num = self.num
        self.failing_where(monkeypatch, lambda ens, basis: (ens.seed, ens.n_steps, basis) != (
            num.seed, num.n_steps, num.basis))
        with pytest.raises(SolverError, match=r"every error probe of direct \(seed 101, "
                                              r"polynomial:2\) failed"):
            _lsmc_estimate(benchmark_setup, num, "direct")


class TestEstimateOnlySolves:
    @pytest.mark.parametrize("routes", [["direct"], ["transformed"], list(harness.LSMC_ROUTES)])
    def test_peak_memory_stays_near_the_ensembles(self, benchmark_setup, routes):
        # a full solve holds paths x steps Y and Z beside the ensemble (peak
        # about 2.2x its states + dW); the estimate-only solves hold two columns
        num = light_numerics()
        jobs = [(route, num.seed, num.basis) for route in routes]
        ensemble_bytes = 8 * num.n_paths * ((num.n_steps + 1) + num.n_steps)
        tracemalloc.start()
        try:
            harness._lsmc_estimates(benchmark_setup, num, jobs, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ensemble_bytes

    def test_every_solve_is_estimate_only(self, benchmark_setup, monkeypatch):
        kept = []

        def recording_solve(ens, spec, basis, **kw):
            sol = fl.solve_lsmc(ens, spec, basis, **kw)
            kept.append((sol.Y, sol.Z))
            return sol

        monkeypatch.setattr(harness, "solve_lsmc", recording_solve)
        num = light_numerics(n_paths=2000, n_steps=8)
        _lsmc_estimate(benchmark_setup, num, "direct")
        assert len(kept) == 4 and set(kept) == {(None, None)}


class TestSharedEnsembles:
    num = light_numerics(n_paths=4000, n_steps=16, n_space=101, pde_steps=50)

    def test_feynman_kac_simulates_each_ensemble_once(self, benchmark_setup, monkeypatch):
        # base, replicate and half step serve all three LSMC routes; the drift
        # vanishes on the paths, so girsanov shares them
        calls = count_simulations(monkeypatch)
        res = fl.run_feynman_kac_check(benchmark_setup, self.num)
        assert {"direct", "transformed"} <= set(res.routes)
        assert res.meta["skipped"] == {"girsanov": DUPLICATE}
        assert [(grid.n_steps, seed) for _, grid, seed in calls] == [
            (16, 101), (16, 101 + _REPLICATE_OFFSET), (8, 101)]
        assert all(fwd is benchmark_setup.forward for fwd, _, _ in calls)

    def test_drifting_forward_gives_girsanov_its_own_ensembles(self, perturbed_setup,
                                                               monkeypatch):
        calls = count_simulations(monkeypatch)
        fl.run_feynman_kac_check(perturbed_setup, self.num, routes=["direct", "girsanov"])
        assert len(calls) == 6
        shared = [c for c in calls if c[0] is perturbed_setup.forward]
        own = [c for c in calls if c[0] is not perturbed_setup.forward]
        assert [c[1:] for c in shared] == [c[1:] for c in own]
        assert all(fwd.mu(0.5, np.linspace(-2.0, 2.0, 5)).tolist() == [0.0] * 5
                   for fwd, _, _ in own)

    def test_shared_girsanov_ensemble_is_the_driftless_one(self, benchmark_setup,
                                                           monkeypatch):
        seen = []

        def recording_girsanov(ens, *args, **kw):
            seen.append(ens)
            return fl.solve_girsanov(ens, *args, **kw)

        monkeypatch.setattr(harness, "solve_girsanov", recording_girsanov)
        # without direct beside it, girsanov is solved on the shared paths
        res = fl.run_feynman_kac_check(benchmark_setup, self.num, routes=["pde", "girsanov"])
        driftless = replace(benchmark_setup.forward, mu=0.0)
        assert len(seen) == 4
        assert "girsanov" not in res.meta
        for ens in seen:
            fresh = fl.simulate(driftless, ens.grid, self.num.n_paths, ens.seed)
            assert np.array_equal(ens.states, fresh.states)
            assert np.array_equal(ens.dW, fresh.dW)

    @pytest.mark.parametrize("routes", [["direct", "girsanov"], ["girsanov", "direct"]])
    def test_girsanov_takes_directs_solves_where_mu_vanishes(self, benchmark_setup,
                                                             monkeypatch, routes):
        # mu == 0 and sigma != 0 on every path: one solve per (ensemble, basis)
        # serves both routes, whichever comes first; feynman_kac skips girsanov as a
        # duplicate, and beside pde the run goes on without it
        solved = []

        def recording_solve(ens, spec, basis, **kw):
            solved.append((ens.grid.n_steps, ens.seed, basis))
            return fl.solve_lsmc(ens, spec, basis, **kw)

        monkeypatch.setattr(harness, "solve_lsmc", recording_solve)
        monkeypatch.setattr(harness, "solve_girsanov", no_girsanov)
        meta = {}
        direct, girsanov = sorted(harness._lsmc_estimates(
            benchmark_setup, self.num, [(r, self.num.seed, self.num.basis) for r in routes],
            meta), key=lambda est: est.route)
        assert len(solved) == len(set(solved)) == 4
        assert girsanov == replace(direct, route="girsanov")
        assert meta == {"girsanov": "direct's solves (mu == 0 on every path)"}
        with pytest.raises(DomainError, match=re.escape(
                f"got ['direct']; girsanov skipped: {DUPLICATE}")):
            fl.run_feynman_kac_check(benchmark_setup, self.num, routes=routes)
        res = fl.run_feynman_kac_check(benchmark_setup, self.num, routes=[*routes, "pde"])
        assert list(res.routes) == ["direct", "pde"] and res.routes["direct"] == direct
        assert res.meta["skipped"] == {"girsanov": DUPLICATE} and "girsanov" not in res.meta

    def test_uniqueness_girsanov_rows_equal_directs(self, benchmark_setup, monkeypatch):
        monkeypatch.setattr(harness, "solve_girsanov", no_girsanov)
        bases = [fl.BasisSpec("polynomial", 2), fl.BasisSpec("piecewise_linear", n_knots=6)]
        res = fl.run_uniqueness_check(benchmark_setup, self.num, [7, 8, 9], bases,
                                      routes=("girsanov", "transformed", "direct"))
        rows = {route: [row[1:] for row in res.table if row[0] == route]
                for route in ("direct", "girsanov")}
        assert len(rows["direct"]) == 6 and rows["girsanov"] == rows["direct"]
        assert res.meta["girsanov"] == "direct's solves (mu == 0 on every path)"

    @pytest.mark.parametrize("sigma", [lambda t, x: x, 1e-13])
    @pytest.mark.parametrize("routes", [["direct", "girsanov"], ["girsanov", "direct"]])
    def test_reuse_keeps_girsanovs_own_errors(self, sigma, routes):
        # sigma = x from x0 = 0 vanishes on every path; sigma = 1e-13 vanishes
        # nowhere but fails girsanov's bound, checked before direct's solves serve it:
        # the Monte Carlo estimates raise it, feynman_kac skips girsanov with it
        fwd = fl.ForwardSpec(mu=0.0, sigma=sigma, x0=0.0, horizon=1.0)
        drv = fl.DriverSpec(source=lambda t, x: x ** 2, z_quad=0.0, terminal=lambda x: x ** 2)
        setup = fl.ProblemSetup(label="sigma", forward=fwd, driver=drv)
        jobs = [(r, self.num.seed, self.num.basis) for r in routes]
        with pytest.raises(DomainError) as err:
            harness._lsmc_estimates(setup, self.num, jobs, {})
        assert str(err.value) == SIGMA
        with pytest.raises(DomainError) as err:
            fl.run_feynman_kac_check(setup, self.num, routes=routes)
        assert str(err.value).endswith(f"got ['direct']; girsanov skipped: {SIGMA}")
        res = fl.run_feynman_kac_check(setup, self.num, routes=[*routes, "pde"])
        assert list(res.routes) == ["direct", "pde"] and res.meta["skipped"] == {"girsanov": SIGMA}

    @pytest.mark.parametrize("setup_name", ["benchmark_setup", "perturbed_setup"])
    def test_estimates_equal_route_by_route_solves(self, setup_name, request):
        # where mu == 0 feynman_kac skips girsanov, so it is estimated on its own
        setup = request.getfixturevalue(setup_name)
        res = fl.run_feynman_kac_check(setup, self.num, routes=["pde", *harness.LSMC_ROUTES])
        routes = dict(res.routes)
        if setup_name == "benchmark_setup":
            assert res.meta["skipped"] == {"girsanov": DUPLICATE}
            routes["girsanov"] = _lsmc_estimate(setup, self.num, "girsanov")
        for route in harness.LSMC_ROUTES:
            assert routes[route] == per_route_reference(
                setup, self.num, route, self.num.seed, self.num.basis)

    def test_uniqueness_rows_keep_order_and_values(self, benchmark_setup, monkeypatch):
        calls = count_simulations(monkeypatch)
        seeds = [7, 8, 9]
        bases = [fl.BasisSpec("polynomial", 2), fl.BasisSpec("piecewise_linear", n_knots=6)]
        res = fl.run_uniqueness_check(benchmark_setup, self.num, seeds, bases)
        # three ensembles per seed, again on the doubled-path rerun
        assert len(calls) == 9 * (2 if res.meta["doubled"] else 1)
        num = replace(self.num, n_paths=2 * self.num.n_paths) if res.meta["doubled"] else self.num
        expected = []
        for route in harness.LSMC_ROUTES:
            for basis in bases:
                for seed in seeds:
                    est = per_route_reference(benchmark_setup, num, route, seed, basis)
                    expected.append([route, basis.label(), seed, est.value, est.total_err])
        assert res.table == expected


class TestUniqueness:
    def test_deterministic_problem_exact_band(self):
        # sigma = 0, zero driver, constant terminal: every estimate is the
        # constant itself, bit for bit
        fwd = fl.ForwardSpec(mu=0.0, sigma=0.0, x0=1.0, horizon=1.0)
        drv = fl.DriverSpec(source=0.0, z_quad=0.0, terminal=2.0)
        setup = fl.ProblemSetup(label="const", forward=fwd, driver=drv)
        res = fl.run_uniqueness_check(
            setup, light_numerics(n_paths=64),
            seed_list=[1, 2, 3], basis_list=[fl.BasisSpec("polynomial", 1),
                                             fl.BasisSpec("polynomial", 2)],
            routes=("direct",))
        assert res.passed
        values = {row[3] for row in res.table}
        assert values == {2.0}

    def test_benchmark_band(self, benchmark_setup, benchmark_value):
        res = fl.run_uniqueness_check(
            benchmark_setup, light_numerics(),
            seed_list=[1, 2, 3, 4, 5],
            basis_list=[fl.BasisSpec("polynomial", 4),
                        fl.BasisSpec("piecewise_linear", n_knots=10)])
        assert res.passed, res.summary()
        values = [row[3] for row in res.table]
        assert len(values) == 5 * 2 * 3
        assert max(values) - min(values) <= 0.02 * benchmark_value

    def test_unknown_route_rejected_before_any_ensemble(self, benchmark_setup, monkeypatch):
        # a non-LSMC name must not run as direct and count as one more row
        calls = count_simulations(monkeypatch)
        bases = [fl.BasisSpec("polynomial", 2), fl.BasisSpec("polynomial", 3)]
        for routes, message in ((("quantum", "direct"), "unknown route 'quantum'"),
                                (("direct", "pde"), "uniqueness takes distinct Monte Carlo routes")):
            with pytest.raises(DomainError, match=message):
                fl.run_uniqueness_check(benchmark_setup, light_numerics(), [1, 2, 3],
                                        bases, routes=routes)
        assert calls == []

    @pytest.mark.parametrize("routes, message", [
        ((), r"uniqueness takes distinct Monte Carlo routes .*, got \[\]"),
        (("direct", "direct"), "uniqueness takes distinct Monte Carlo routes"),
    ])
    def test_empty_or_repeated_routes_rejected_before_any_ensemble(self, monkeypatch,
                                                                   routes, message):
        calls = count_simulations(monkeypatch)
        fwd = fl.ForwardSpec(mu=0.0, sigma=0.0, x0=1.0, horizon=1.0)
        drv = fl.DriverSpec(source=0.0, z_quad=0.0, terminal=2.0)
        setup = fl.ProblemSetup(label="const", forward=fwd, driver=drv)
        with pytest.raises(DomainError, match=message):
            fl.run_uniqueness_check(
                setup, light_numerics(n_paths=64), seed_list=[1, 2, 3],
                basis_list=[fl.BasisSpec("polynomial", 1), fl.BasisSpec("polynomial", 2)],
                routes=routes)
        assert calls == []

    @pytest.mark.parametrize("seeds, bases, message", [
        ([1, 1, 2], [fl.BasisSpec("polynomial", 1), fl.BasisSpec("polynomial", 2)],
         "seeds must be distinct"),
        ([1, 2, 3], [fl.BasisSpec("polynomial", 2)] * 2, "bases must be distinct"),
    ])
    def test_repeated_seeds_or_bases_rejected_before_any_ensemble(self, monkeypatch, seeds,
                                                                 bases, message):
        # a repeat would be one more row with the same estimate, not an independent one
        calls = count_simulations(monkeypatch)
        fwd = fl.ForwardSpec(mu=0.0, sigma=0.0, x0=1.0, horizon=1.0)
        drv = fl.DriverSpec(source=0.0, z_quad=0.0, terminal=2.0)
        setup = fl.ProblemSetup(label="const", forward=fwd, driver=drv)
        with pytest.raises(DomainError, match=message):
            fl.run_uniqueness_check(setup, light_numerics(n_paths=64), seed_list=seeds,
                                    basis_list=bases, routes=("direct",))
        assert calls == []

    def test_input_requirements(self, benchmark_setup):
        with pytest.raises(DomainError):
            fl.run_uniqueness_check(benchmark_setup, light_numerics(),
                                    seed_list=[1, 2],
                                    basis_list=[fl.BasisSpec("polynomial", 2),
                                                fl.BasisSpec("polynomial", 3)])
        with pytest.raises(DomainError):
            fl.run_uniqueness_check(benchmark_setup, light_numerics(),
                                    seed_list=[1, 2, 3],
                                    basis_list=[fl.BasisSpec("polynomial", 2)])


class TestDeltaSweep:
    def test_anchor_trend_and_dedup(self, benchmark_cps):
        num = light_numerics()
        res = fl.run_delta_sweep(benchmark_cps, num, [0.1, 0.0, 0.05, 0.1])
        assert res.passed, res.summary()
        deltas = [row[0] for row in res.table]
        assert deltas == [0.0, 0.05, 0.1]     # sorted, duplicates removed
        anchor = [v for v in res.verdicts if v.criterion == "anchor_matches_closed_form"]
        assert anchor and anchor[0].passed and anchor[0].tolerance == 5e-3
        assert res.meta["trend"] == "nonincreasing"

    def test_continuity_probe(self, benchmark_cps):
        res = fl.run_delta_sweep(benchmark_cps, light_numerics(), [0.0, 0.1])
        cont = [v for v in res.verdicts if v.criterion == "continuity_in_delta"]
        assert cont and cont[0].passed

    def test_negative_delta_rejected(self, benchmark_cps):
        with pytest.raises(DomainError):
            fl.run_delta_sweep(benchmark_cps, light_numerics(), [-0.1, 0.0])

    @pytest.mark.parametrize("pde_steps, levels", [(50, 50), (None, 400)])
    def test_meta_records_the_pde_time_resolution(self, benchmark_cps, pde_steps, levels):
        # the sweep marches pde_steps levels; the Monte Carlo n_steps plays no part
        num = light_numerics(n_space=41, pde_steps=pde_steps, n_steps=64)
        res = fl.run_delta_sweep(benchmark_cps, num, [0.0])
        assert res.meta["pde_steps"] == levels and "n_steps" not in res.meta
        assert f"\n# pde_steps = {levels}\n" in res.summary()


class TestArtifacts:
    def test_write_and_reproducibility(self, tmp_path, benchmark_setup):
        num = light_numerics(n_paths=2000, n_steps=16,
                             n_space=101, pde_steps=50)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        fl.run_feynman_kac_check(benchmark_setup, num).write(out_a)
        fl.run_feynman_kac_check(benchmark_setup, num).write(out_b)
        for name in ("routes.csv", "verdicts.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_table_written_for_sweeps(self, tmp_path, benchmark_cps):
        res = fl.run_delta_sweep(benchmark_cps,
                                 light_numerics(n_space=101, pde_steps=50),
                                 [0.0, 0.1])
        paths = res.write(tmp_path / "sweep")
        names = {p.split("/")[-1] for p in map(str, paths)}
        assert names == {"routes.csv", "verdicts.txt", "table.csv"}
        table = (tmp_path / "sweep" / "table.csv").read_text().splitlines()
        assert table[0] == "delta,value,disc_err"
        assert len(table) == 3

    def test_summary_contains_verdict_lines(self, benchmark_setup):
        res = fl.run_feynman_kac_check(benchmark_setup, light_numerics(),
                                       routes=["riccati", "pde"])
        text = res.summary()
        assert "agree:riccati~pde" in text
        assert text.strip().endswith("PASS")
