import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbsdelab as fl
from fbsdelab import pde
from fbsdelab.errors import DomainError, EvaluationError, SolverError
from fbsdelab.pde import _solve_interior


def heat_parts():
    fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
    drv = fl.DriverSpec(source=0.0, z_quad=0.0, terminal=lambda x: x ** 2)
    return fwd, drv


def exact_heat(times, xs):
    return xs[None, :] ** 2 + (1.0 - times)[:, None]


def exact_benchmark(times, xs):
    # v(t, x) = tanh(T-t) x^2 + ln cosh(T-t) solves the reduced equation
    tau = 1.0 - times
    return np.tanh(tau)[:, None] * xs[None, :] ** 2 + np.log(np.cosh(tau))[:, None]


class TestGrids:
    def test_space_grid_validation(self):
        with pytest.raises(DomainError):
            fl.SpaceGrid(0.0, 1.0, 2)
        with pytest.raises(DomainError):
            fl.SpaceGrid(1.0, 0.0, 11)
        with pytest.raises(DomainError, match="two interior nodes"):
            fl.SpaceGrid(-1.0, 1.0, 3)   # one interior node: nothing for the march to solve
        g = fl.SpaceGrid(-1.0, 1.0, 5)
        assert g.dx == 0.5
        assert g.refined(2).n_points == 9

    def test_spanning_default(self):
        fwd = fl.ForwardSpec(mu=0.0, sigma=0.5, x0=2.0, horizon=4.0)
        g = fl.SpaceGrid.spanning(fwd, n_points=101)
        assert g.x_lo == pytest.approx(2.0 - 8.0 * 0.5 * 2.0)
        assert g.x_hi == pytest.approx(2.0 + 8.0)
        assert g.x_lo < fwd.x0 < g.x_hi


    @pytest.mark.parametrize("mu", [5.0, -5.0, 50.0])
    def test_spanning_covers_the_drift_path(self, mu):
        # X_T ~ N(mu, 0.1^2): the window x0 +/- 0.8 alone would miss it entirely, and a
        # tamed drift path would fall short of 50 (41.8)
        g = fl.SpaceGrid.spanning(fl.ForwardSpec(mu=mu, sigma=0.1, x0=0.0, horizon=1.0))
        far, near = (g.x_hi, g.x_lo) if mu > 0 else (-g.x_lo, -g.x_hi)
        assert abs(mu) + 0.2 <= far <= abs(mu) + 0.5
        assert near == -0.8   # the grid only widens: the other side keeps the window

    def test_spanning_keeps_the_window_for_a_restoring_drift(self):
        fwd = fl.ForwardSpec(mu=lambda t, x: -x ** 3, sigma=1.0, x0=1.0, horizon=1.0)
        g = fl.SpaceGrid.spanning(fwd, n_points=201)
        assert (g.x_lo, g.x_hi, g.n_points) == (-7.0, 9.0, 201)


class TestSolvePde:
    def test_heat_exact_profile(self):
        fwd, drv = heat_parts()
        sg = fl.SpaceGrid(-10.0, 10.0, 671)
        tg = fl.TimeGrid(0.0, 1.0, 200)
        sol = fl.solve_pde(fwd, drv, sg, tg, scheme="imex")
        mask = np.abs(sg.nodes()) <= 3.0
        err = np.max(np.abs(sol.v - exact_heat(tg.times(), sg.nodes()))[:, mask])
        assert err <= 1e-3

    def test_heat_linear_extrapolation_boundary(self):
        fwd, drv = heat_parts()
        sol = fl.solve_pde(fwd, drv, fl.SpaceGrid(-8.0, 8.0, 401),
                           fl.TimeGrid(0.0, 1.0, 200))
        assert abs(sol.value(0.0, 0.0) - 1.0) <= 1e-6

    def test_terminal_row_exact(self):
        fwd, drv = heat_parts()
        sg = fl.SpaceGrid(-3.0, 3.0, 51)
        sol = fl.solve_pde(fwd, drv, sg, fl.TimeGrid(0.0, 1.0, 10))
        np.testing.assert_array_equal(sol.v[-1], sg.nodes() ** 2)

    def test_benchmark_sup_norm(self, benchmark_setup):
        sg = fl.SpaceGrid(-5.0, 7.0, 601)
        tg = fl.TimeGrid(0.0, 1.0, 800)
        sol = fl.solve_pde(benchmark_setup.forward, benchmark_setup.driver, sg, tg)
        xs, times = sg.nodes(), tg.times()
        mask = np.abs(xs) <= 3.0
        err = np.max(np.abs(sol.v[:, mask] - exact_benchmark(times, xs)[:, mask]))
        assert err <= 5e-3

    def test_newton_matches_imex_on_benchmark(self, benchmark_setup):
        sg = fl.SpaceGrid(-5.0, 7.0, 201)
        gaps = []
        for nt in (100, 200):
            tg = fl.TimeGrid(0.0, 1.0, nt)
            a = fl.solve_pde(benchmark_setup.forward, benchmark_setup.driver, sg, tg,
                             scheme="imex")
            b = fl.solve_pde(benchmark_setup.forward, benchmark_setup.driver, sg, tg,
                             scheme="newton_implicit")
            assert b.newton_steps == tg.n_steps
            assert abs(a.value(0.0, 1.0) - b.value(0.0, 1.0)) <= 6e-3
            xs = sg.nodes()
            mask = np.abs(xs - 1.0) <= 3.0
            gaps.append(np.max(np.abs(a.v[:, mask] - b.v[:, mask])))
        # both schemes are first order; their gap shrinks with dt
        assert gaps[1] <= 0.6 * gaps[0]

    def test_auto_switches_to_newton_when_stiff(self, benchmark_setup):
        # huge steps make z_quad * dt * |v_x| large at the terminal slice
        sg = fl.SpaceGrid(-5.0, 7.0, 201)
        sol = fl.solve_pde(benchmark_setup.forward, benchmark_setup.driver, sg,
                           fl.TimeGrid(0.0, 1.0, 2), scheme="auto")
        assert sol.newton_steps >= 1

    def test_perturbed_self_convergence_ratio(self, perturbed_setup):
        sols = []
        for lvl, (nx, nt) in enumerate([(201, 200), (401, 400), (801, 800)]):
            sols.append(fl.solve_pde(perturbed_setup.forward, perturbed_setup.driver,
                                     fl.SpaceGrid(-7.0, 9.0, nx),
                                     fl.TimeGrid(0.0, 1.0, nt)))

        def supdiff(a, b):
            sx = (b.sgrid.n_points - 1) // (a.sgrid.n_points - 1)
            st = b.tgrid.n_steps // a.tgrid.n_steps
            xa = a.sgrid.nodes()
            mask = np.abs(xa - 1.0) <= 4.0
            return np.max(np.abs(a.v[:, mask] - b.v[::st, ::sx][:, mask]))

        e1, e2 = supdiff(sols[0], sols[1]), supdiff(sols[1], sols[2])
        assert e1 / e2 >= 1.8

    def test_nan_detection_names_node(self):
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        drv = fl.DriverSpec(source=0.0, z_quad=0.0,
                            terminal=lambda x: np.where(x > 2.9, np.inf, x))
        with pytest.raises(EvaluationError) as err:
            fl.solve_pde(fwd, drv, fl.SpaceGrid(-3.0, 3.0, 31), fl.TimeGrid(0, 1, 4))
        assert (err.value.coefficient, err.value.point) == ("terminal", (3.0,))

    def test_newton_divergence_reports_time_index(self, benchmark_setup, monkeypatch):
        monkeypatch.setattr("fbsdelab.pde.NEWTON_MAX_ITER", 1)
        monkeypatch.setattr("fbsdelab.pde.NEWTON_TOL", 1e-14)
        with pytest.raises(SolverError, match="Newton did not converge at time index 0"):
            fl.solve_pde(benchmark_setup.forward, benchmark_setup.driver,
                         fl.SpaceGrid(-5.0, 7.0, 101), fl.TimeGrid(0.0, 1.0, 1),
                         scheme="newton_implicit")

    @pytest.mark.parametrize("scheme, message", [
        ("imex", "non-finite value at time index 3"),
        ("newton_implicit", r"Newton did not converge at time index 3 .*residual inf")])
    def test_overflowing_driver_is_a_solver_error(self, scheme, message):
        # z^2 overflows on the first level; the solver error names it, whichever the scheme
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        drv = fl.DriverSpec(source=0.0, z_quad=1.0, terminal=lambda x: 1e160 * x * x)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match=message):
                fl.solve_pde(fwd, drv, fl.SpaceGrid(-3.0, 3.0, 31), fl.TimeGrid(0, 1, 4),
                             scheme=scheme)

    def test_invalid_arguments(self, benchmark_setup):
        sg = fl.SpaceGrid(-1.0, 1.0, 11)
        tg = fl.TimeGrid(0.0, 1.0, 4)
        with pytest.raises(DomainError):
            fl.solve_pde(benchmark_setup.forward, benchmark_setup.driver, sg, tg,
                         scheme="spectral")
        with pytest.raises(DomainError):
            fl.solve_pde(benchmark_setup.forward, benchmark_setup.driver, sg, tg,
                         boundary="absorbing")

    def test_positivity_of_value_like_solutions(self, perturbed_setup):
        sol = fl.solve_pde(perturbed_setup.forward, perturbed_setup.driver,
                           fl.SpaceGrid(-7.0, 9.0, 201), fl.TimeGrid(0.0, 1.0, 200))
        interior = sol.v[:, 1:-1]
        assert interior.min() >= -1e-8

    def test_even_symmetry_and_zero_gradient_at_origin(self):
        # target 0, even terminal, odd drift: the solved field is even in x
        cps = fl.ControlProblemSpec(A=0.0, B=1.0, sigma=1.0, delta=0.1, target=0.0,
                                    control_weight=1.0, terminal_weight=0.0,
                                    x0=0.0, horizon=1.0)
        setup = fl.ProblemSetup.from_control(cps, "even")
        sg = fl.SpaceGrid(-6.0, 6.0, 241)
        sol = fl.solve_pde(setup.forward, setup.driver, sg, fl.TimeGrid(0, 1, 200))
        flipped = sol.v[:, ::-1]
        assert np.max(np.abs(sol.v - flipped)) <= 1e-9
        u = fl.extract_feedback(sol, cps)
        assert abs(u(0.3, 0.0)) <= 1e-9


class TestMarchIdentity:
    """The march's bits are pinned: a change to how a level is computed must not move them.

    The problem uses every per-level term (σ(t, x), a time-dependent z_quad, z_slope
    and y_term).  Its coefficients use only +, -, * and /, no transcendental
    functions, so the digests do not depend on numpy's vectorized math routines.
    """

    FWD = fl.ForwardSpec(mu=lambda t, x: -0.5 * x,
                         sigma=lambda t, x: 1.0 + 0.2 * t + 0.1 * x * x / (1.0 + x * x),
                         x0=0.5, horizon=1.0)
    DRV = fl.DriverSpec(source=lambda t, x: x * x, z_quad=lambda t: 0.5 + 0.25 * t,
                        terminal=lambda x: 0.5 * x * x,
                        z_slope=lambda t, x: 0.1 * x / (1.0 + x * x),
                        y_term=lambda t, y: 0.3 * y / (1.0 + 0.1 * y * y))

    @pytest.mark.parametrize("scheme, n_steps, newton_steps, digest", [
        # auto at 30 steps: 14 Newton levels near t = 0, imex levels near T
        ("auto", 30, 14, "dfaf833e192fe22a61e4372f19b1b8bf46801591e33819a1f99a02bf84b4aee9"),
        ("newton_implicit", 20, 20,
         "96512e86b8e393454ac20f32f5bb96a10e22abbe82e3d9aa4e3e53290ca6df58"),
        # 141 steps: two full blocks of levels and a partial one
        ("auto", 141, 0, "2e53b8a3f3f519c07ab7926e108509ecf1b0a81d997cb3a4614d74c7fc0eec06"),
        ("newton_implicit", 141, 141,
         "0d8916f14ef7088e3ba486f37b06d73bed7f15dbee1803b10479237890f8fb83"),
    ])
    def test_field_bits_are_pinned(self, scheme, n_steps, newton_steps, digest):
        sol = fl.solve_pde(self.FWD, self.DRV, fl.SpaceGrid(-4.0, 5.0, 91),
                           fl.TimeGrid(0.0, 1.0, n_steps), scheme=scheme)
        assert sol.newton_steps == newton_steps
        assert hashlib.sha256(sol.v.tobytes()).hexdigest() == digest

    def test_each_newton_iterate_is_evaluated_once(self, monkeypatch):
        # every completed field (the start and each backtracking trial) gets one
        # residual, so the driver closures run as often as _complete does
        counts = {"driver": 0, "complete": 0}
        driver_block, complete = pde.driver_block, pde._complete

        def counted(drv):
            def driver(y, z):
                counts["driver"] += 1
                return drv(y, z)

            driver.z_slope = drv.z_slope
            return driver

        def counted_complete(w_int):
            counts["complete"] += 1
            return complete(w_int)

        monkeypatch.setattr(pde, "driver_block",
                            lambda spec, ts, x: [counted(d) for d in driver_block(spec, ts, x)])
        monkeypatch.setattr(pde, "_complete", counted_complete)
        sol = fl.solve_pde(self.FWD, self.DRV, fl.SpaceGrid(-4.0, 5.0, 31),
                           fl.TimeGrid(0.0, 1.0, 6), scheme="newton_implicit")
        assert sol.newton_steps == 6
        assert counts["driver"] == counts["complete"] > 2 * 6

    @pytest.mark.parametrize("n", [2, 6])
    def test_singular_system_raises(self, n):
        # a zero pivot raises a SolverError naming the level; no partial solution comes back
        with pytest.raises(SolverError, match=r"^singular tridiagonal system at time index 3 "
                                              r"\(t=0.25\)$") as err:
            _solve_interior(np.zeros(n), np.zeros(n), np.zeros(n), np.ones(n), 3, 0.25)
        assert err.value.step == 3


class TestLevelBlocks:
    """The march evaluates its (t, x) coefficients once per block of levels, at the
    levels and in the order a level-by-level march would."""

    @staticmethod
    def recording_mu(seen):
        def mu(t, x):
            seen.append(np.array(t, dtype=float).ravel())
            return -0.5 * x + 0.0 * t
        return mu

    @pytest.mark.parametrize("scheme", pde.PDE_SCHEMES)
    @pytest.mark.parametrize("n_steps", [1, 64, 65, 141])
    def test_mu_is_called_once_per_block(self, scheme, n_steps):
        seen = []
        fwd = fl.ForwardSpec(mu=self.recording_mu(seen), sigma=1.0, x0=0.0, horizon=1.0)
        tg = fl.TimeGrid(0.0, 1.0, n_steps)
        fl.solve_pde(fwd, TestMarchIdentity.DRV, fl.SpaceGrid(-4.0, 5.0, 31), tg, scheme=scheme)
        assert len(seen) == -(-n_steps // pde.LEVEL_BLOCK)

    @pytest.mark.parametrize("scheme", pde.PDE_SCHEMES)
    def test_mu_sees_each_level_below_the_horizon_once_descending(self, scheme):
        seen = []
        fwd = fl.ForwardSpec(mu=self.recording_mu(seen), sigma=1.0, x0=0.0, horizon=1.0)
        tg = fl.TimeGrid(0.0, 1.0, 141)
        fl.solve_pde(fwd, TestMarchIdentity.DRV, fl.SpaceGrid(-4.0, 5.0, 31), tg, scheme=scheme)
        np.testing.assert_array_equal(np.concatenate(seen), tg.times()[-2::-1])

    @pytest.mark.parametrize("scheme", pde.PDE_SCHEMES)
    def test_first_non_finite_drift_point_is_reported(self, scheme):
        # NaN below t = 0.5: the first bad level in the march is t = 0.495, mid-block
        fwd = fl.ForwardSpec(mu=lambda t, x: np.where(t < 0.5, np.nan, 0.0 * x), sigma=1.0,
                             x0=0.0, horizon=1.0)
        drv = fl.DriverSpec(source=lambda t, x: x * x, z_quad=1.0, terminal=lambda x: 0.0 * x)
        with pytest.raises(EvaluationError) as err:
            fl.solve_pde(fwd, drv, fl.SpaceGrid(-3.0, 3.0, 31), fl.TimeGrid(0, 1, 200),
                         scheme=scheme)
        assert (err.value.coefficient, err.value.point) == ("mu", (0.495, -2.8))

    @pytest.mark.parametrize("scheme, message", [
        ("auto", r"Newton did not converge at time index 139 \(t=0.985816\); residual 9.090e\+11"),
        ("newton_implicit",
         r"Newton did not converge at time index 140 \(t=0.992908\); residual 3.423e\+01"),
        ("imex", r"non-finite value at time index 135 \(t=0.957447\), node x=-3$"),
    ])
    def test_exploding_drift_fails_at_the_same_level(self, scheme, message):
        # mu = x / (1 - t) is finite at every level the march evaluates it at (t < T)
        fwd = fl.ForwardSpec(mu=lambda t, x: x / (1.0 - t), sigma=1.0, x0=0.0, horizon=1.0)
        drv = fl.DriverSpec(source=lambda t, x: x * x, z_quad=1.0, terminal=lambda x: 0.0 * x)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match=message):
                fl.solve_pde(fwd, drv, fl.SpaceGrid(-3.0, 3.0, 31), fl.TimeGrid(0, 1, 141),
                             scheme=scheme)


    @pytest.mark.parametrize("scheme", pde.PDE_SCHEMES)
    def test_zero_pivot_is_a_solver_error(self, scheme):
        # the 61-node grid of the exploding drift above hits a singular system, not a
        # non-finite value; the CLI reports a SolverError and nothing else
        fwd = fl.ForwardSpec(mu=lambda t, x: x / (1.0 - t), sigma=1.0, x0=0.0, horizon=1.0)
        drv = fl.DriverSpec(source=lambda t, x: x * x, z_quad=1.0, terminal=lambda x: 0.0 * x)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match=r"^singular tridiagonal system at time index "
                                                  r"140 \(t=0.992908\)$") as err:
                fl.solve_pde(fwd, drv, fl.SpaceGrid(-3.0, 3.0, 61), fl.TimeGrid(0, 1, 141),
                             scheme=scheme)
        assert err.value.step == 140


class TestLocate:
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([4, 5, 201, 401, 801]),
           lo=st.floats(-50.0, 50.0), width=st.floats(1e-3, 100.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_cell_index_matches_searchsorted(self, n, lo, width, seed):
        sg = fl.SpaceGrid(lo, lo + width, n)
        sol = pde.GridSolution(fl.TimeGrid(0.0, 1.0, 2), sg, np.zeros((3, n)))
        xs = sg.nodes()
        rng = np.random.default_rng(seed)
        x = np.concatenate([xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
                            rng.uniform(lo - width, lo + 2.0 * width, 500)])
        clipped = np.clip(x, xs[0], xs[-1])
        expected = np.clip(np.searchsorted(xs, clipped, side="right") - 1, 0, n - 2)
        assert np.array_equal(sol._locate(0.5, x)[1], expected)
        assert sol._locate(0.5, float(x[-1]))[1] == expected[-1]

    def test_nan_state_gives_nan_without_warning(self):
        sol = pde.GridSolution(fl.TimeGrid(0.0, 1.0, 2), fl.SpaceGrid(0.0, 1.0, 5),
                               np.zeros((3, 5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sol.gradient(0.3, np.array([0.5, np.nan]))
        assert out[0] == 0.0 and np.isnan(out[1])


class TestFeedbackExtraction:
    def test_gradient_field_is_built_on_first_use(self, benchmark_setup):
        sg, tg = fl.SpaceGrid(-5.0, 7.0, 101), fl.TimeGrid(0.0, 1.0, 50)
        sol = fl.solve_pde(benchmark_setup.forward, benchmark_setup.driver, sg, tg)
        sol.value(0.3, np.linspace(-6.0, 8.0, 57))
        assert "_vx" not in vars(sol)
        t, x = np.linspace(0.0, 1.0, 57), np.linspace(-6.0, 8.0, 57)
        expected = sol._bilinear(np.gradient(sol.v, sg.dx, axis=1), t, x)
        np.testing.assert_array_equal(sol.gradient(t, x), expected)
        assert not sol._vx.flags.writeable


    def test_matches_quadratic_feedback(self, benchmark_cps, benchmark_setup):
        sg = fl.SpaceGrid(-5.0, 7.0, 601)
        tg = fl.TimeGrid(0.0, 1.0, 400)
        sol = fl.solve_pde(benchmark_setup.forward, benchmark_setup.driver, sg, tg)
        policy = fl.extract_feedback(sol, benchmark_cps)
        ric = fl.solve_riccati(benchmark_cps, tg)
        for (t, x) in [(0.0, 1.0), (0.3, -0.7), (0.7, 2.0), (0.5, 0.0)]:
            assert policy(t, x) == pytest.approx(ric.feedback(t, x), abs=1e-2)

    def test_constant_extrapolation_beyond_grid(self, benchmark_cps, benchmark_setup):
        sg = fl.SpaceGrid(-5.0, 7.0, 201)
        sol = fl.solve_pde(benchmark_setup.forward, benchmark_setup.driver, sg,
                           fl.TimeGrid(0.0, 1.0, 100))
        policy = fl.extract_feedback(sol, benchmark_cps)
        edge = policy(0.2, 7.0)
        assert policy(0.2, 9.5) == pytest.approx(edge, rel=1e-12)
        low = policy(0.2, -5.0)
        assert policy(0.2, -20.0) == pytest.approx(low, rel=1e-12)
