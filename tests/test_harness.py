from dataclasses import replace

import numpy as np
import pytest

import fbsdelab as fl
import fbsdelab.harness as harness
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
        res = fl.run_feynman_kac_check(
            benchmark_setup, light_numerics(basis=fl.BasisSpec("polynomial", 4)))
        assert set(res.routes) == {"riccati", "pde", "direct", "transformed", "girsanov"}
        assert res.routes["riccati"].value == pytest.approx(benchmark_value, abs=1e-8)
        assert res.passed, res.summary()

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

    @pytest.mark.parametrize("routes", [["pde"], ["pde", "pde"]])
    def test_single_route_rejected(self, benchmark_setup, routes):
        # one route has nothing to agree with; a pass would compare nothing
        with pytest.raises(DomainError, match="at least 2 distinct routes"):
            fl.run_feynman_kac_check(benchmark_setup,
                                     light_numerics(n_space=41, pde_steps=20),
                                     routes=routes)


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


class TestSharedEnsembles:
    num = light_numerics(n_paths=4000, n_steps=16, n_space=101, pde_steps=50)

    def test_feynman_kac_simulates_each_ensemble_once(self, benchmark_setup, monkeypatch):
        # base, replicate and half step serve all three LSMC routes; the drift
        # vanishes on the paths, so girsanov shares them
        calls = count_simulations(monkeypatch)
        res = fl.run_feynman_kac_check(benchmark_setup, self.num)
        assert set(harness.LSMC_ROUTES) <= set(res.routes)
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

        def recording_girsanov(ens, *args):
            seen.append(ens)
            return fl.solve_girsanov(ens, *args)

        monkeypatch.setattr(harness, "solve_girsanov", recording_girsanov)
        fl.run_feynman_kac_check(benchmark_setup, self.num,
                                 routes=["direct", "girsanov"])
        driftless = replace(benchmark_setup.forward, mu=0.0)
        assert len(seen) == 4
        for ens in seen:
            fresh = fl.simulate(driftless, ens.grid, self.num.n_paths, ens.seed)
            assert np.array_equal(ens.states, fresh.states)
            assert np.array_equal(ens.dW, fresh.dW)

    @pytest.mark.parametrize("setup_name", ["benchmark_setup", "perturbed_setup"])
    def test_estimates_equal_route_by_route_solves(self, setup_name, request):
        setup = request.getfixturevalue(setup_name)
        res = fl.run_feynman_kac_check(setup, self.num, routes=["pde", *harness.LSMC_ROUTES])
        for route in harness.LSMC_ROUTES:
            assert res.routes[route] == per_route_reference(
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
