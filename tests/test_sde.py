import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbsdelab as fl
from fbsdelab.errors import DomainError, EvaluationError, SimulationError
from fbsdelab.sde import brownian_increments


def brownian():
    return fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)


def cubic_drift():
    # drift x - 0.1 x^3 is only locally Lipschitz; the taming guard applies
    return fl.ForwardSpec(mu=lambda t, x: x - 0.1 * x ** 3, sigma=0.3,
                          x0=1.0, horizon=1.0)


class TestTimeGrid:
    def test_basics(self):
        tg = fl.TimeGrid(0.0, 1.0, 4)
        assert tg.dt == 0.25
        np.testing.assert_allclose(tg.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert tg.refined(2).n_steps == 8

    def test_validation(self):
        with pytest.raises(DomainError):
            fl.TimeGrid(0.0, 1.0, 0)
        with pytest.raises(DomainError):
            fl.TimeGrid(1.0, 1.0, 4)


class TestSimulate:
    def test_frozen_dynamics(self):
        fwd = fl.ForwardSpec(mu=0.0, sigma=0.0, x0=1.5, horizon=1.0)
        ens = fl.simulate(fwd, fl.TimeGrid(0, 1, 16), 50, seed=1)
        assert np.all(ens.states == 1.5)

    def test_initial_state_column(self):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 100, seed=3)
        assert np.all(ens.states[:, 0] == 0.0)

    def test_brownian_moments(self):
        n = 40_000
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 64), n, seed=9)
        xT = ens.states[:, -1]
        assert abs(xT.mean()) <= 4.0 / np.sqrt(n)
        var = xT.var(ddof=1)
        var_se = np.sqrt(2.0 / (n - 1))       # variance of the sample variance of N(0,1)
        assert abs(var - 1.0) <= 5.0 * var_se

    def test_noise_sanity_diagnostics(self):
        # per step, the increments' mean and variance sit within a few
        # standard errors of 0 and dt
        n, dt = 20_000, 1.0 / 32
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 32), n, seed=4)
        mean_se = np.sqrt(dt / n)
        var_se = dt * np.sqrt(2.0 / (n - 1))
        assert np.max(np.abs(ens.dW.mean(axis=0))) / mean_se < 5.0
        assert np.max(np.abs(ens.dW.var(axis=0, ddof=1) - dt)) / var_se < 6.0

    def test_determinism_bitwise(self):
        a = fl.simulate(cubic_drift(), fl.TimeGrid(0, 1, 32), 500, seed=77)
        b = fl.simulate(cubic_drift(), fl.TimeGrid(0, 1, 32), 500, seed=77)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.dW, b.dW)

    def test_paths_independent_of_ensemble_size(self):
        # per-block substreams: path i never depends on how many paths follow
        small = fl.simulate(brownian(), fl.TimeGrid(0, 1, 16), 10, seed=5)
        large = fl.simulate(brownian(), fl.TimeGrid(0, 1, 16), 6000, seed=5)
        assert np.array_equal(small.states, large.states[:10])
        assert np.array_equal(small.dW, large.dW[:10])

    def test_driftless_paths_reproduce_increments(self):
        # X_{k+1} - X_k = sigma(t_k, X_k) dW_k up to float cancellation in the
        # subtraction; with mu = 0 the tamed step is plain Euler bit for bit
        tg = fl.TimeGrid(0, 1, 16)
        for sigma in (1.0, lambda t, x: 0.5 + 0.2 * np.sin(x)):
            fwd = fl.ForwardSpec(mu=0.0, sigma=sigma, x0=0.0, horizon=1.0)
            ens = fl.simulate(fwd, tg, 200, seed=6, scheme="euler")
            tamed = fl.simulate(fwd, tg, 200, seed=6, scheme="tamed_euler")
            assert np.array_equal(ens.states, tamed.states)
            assert np.array_equal(ens.dW, tamed.dW)
            np.testing.assert_allclose(
                np.diff(ens.states, axis=1),
                fwd.sigma(tg.times()[:-1], ens.states[:, :-1]) * ens.dW, rtol=0.0, atol=1e-12)

    def test_increments_pin_the_per_block_formula(self):
        # two full blocks and a partial one: each block is its own Philox stream,
        # standard normals in C order scaled by sqrt(dt)
        n_paths, n_steps, dt = 2 * 4096 + 123, 5, 0.01
        expected = np.vstack([
            np.random.Generator(np.random.Philox(key=np.array([7, b], dtype=np.uint64)))
            .standard_normal((rows, n_steps)) * np.sqrt(dt)
            for b, rows in enumerate((4096, 4096, 123))])
        dW = brownian_increments(7, n_paths, n_steps, dt)
        assert dW.flags.f_contiguous
        assert np.array_equal(dW, expected)

    def test_given_increments_are_used(self):
        tg = fl.TimeGrid(0, 1, 16)
        dW = brownian_increments(5, 40, tg.n_steps, tg.dt)
        given = fl.simulate(cubic_drift(), tg, 40, seed=5, dW=dW)
        drawn = fl.simulate(cubic_drift(), tg, 40, seed=5)
        assert np.array_equal(given.states, drawn.states)
        assert given.dW is dW

    @pytest.mark.parametrize("shape", [(40, 15), (39, 16), (40,), (16, 40)])
    def test_misshapen_increments_rejected(self, shape):
        with pytest.raises(DomainError, match="dW has shape"):
            fl.simulate(brownian(), fl.TimeGrid(0, 1, 16), 40, seed=5, dW=np.zeros(shape))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-2 ** 64, 2 ** 64 - 1), st.integers(-2 ** 64, 2 ** 64 - 1))
    def test_distinct_seeds_give_distinct_noise(self, a, b):
        # seeds are taken modulo 2**64; within that range every seed is its own stream
        if a % 2 ** 64 != b % 2 ** 64:
            assert not np.array_equal(brownian_increments(a, 3, 2, 1.0),
                                      brownian_increments(b, 3, 2, 1.0))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(DomainError):
            fl.simulate(brownian(), fl.TimeGrid(0, 1, 4), 10, seed=0, scheme="milstein")

    def test_ensemble_arrays_frozen(self):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 4), 10, seed=0)
        with pytest.raises(ValueError):
            ens.states[0, 0] = 99.0
        # column-major, so each step's column is contiguous
        assert ens.states.shape == (10, 5) and ens.dW.shape == (10, 4)
        for arr in (ens.states, ens.dW):
            assert arr.flags.f_contiguous and not arr.flags.writeable

    def test_explosion_raises_with_location(self):
        fwd = fl.ForwardSpec(mu=lambda t, x: x ** 3, sigma=0.0, x0=10.0, horizon=4.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError) as err:
                fl.simulate(fwd, fl.TimeGrid(0, 4, 8), 4, seed=0, scheme="euler")
        assert err.value.path_index >= 0
        assert err.value.step >= 1
        assert "tamed" in str(err.value)

    @pytest.mark.parametrize("name, fwd, at", [
        ("mu", fl.ForwardSpec(mu=lambda t, x: x ** 3, sigma=0.0, x0=10.0, horizon=4.0), 6),
        ("sigma", fl.ForwardSpec(mu=0.0, sigma=lambda t, x: np.exp(x ** 2), x0=30.0,
                                 horizon=4.0), 1),
    ])
    def test_overflowing_coefficient_is_a_named_blow_up(self, name, fwd, at):
        with np.errstate(over="ignore"), pytest.raises(SimulationError) as err:
            fl.simulate(fwd, fl.TimeGrid(0, 4, 8), 4, seed=0, scheme="euler")
        assert (err.value.path_index, err.value.step) == (0, at)
        assert f"coefficient {name!r} overflowed at ({0.5 * (at - 1)}, " in str(err.value)
        assert "tamed" in str(err.value)

    def test_tamed_blow_up_gives_no_taming_advice(self):
        # the default march is already tamed, so "try tamed_euler" would be wrong
        fwd = fl.ForwardSpec(mu=0.0, sigma=lambda t, x: np.exp(x ** 2), x0=30.0, horizon=4.0)
        with np.errstate(over="ignore"), pytest.raises(SimulationError) as err:
            fl.simulate(fwd, fl.TimeGrid(0, 4, 8), 4, seed=0)
        assert "coefficient 'sigma' overflowed at (0.0, 30.0)" in str(err.value)
        assert "tamed" not in str(err.value) and "superlinear" not in str(err.value)

    def test_nan_coefficient_is_named_not_a_blow_up(self):
        # sigma is NaN below x = -3, where paths go; the drift is 0 and the march tamed
        fwd = fl.ForwardSpec(mu=0.0, sigma=fl.parse_expression("1 + ln(x + 3)"),
                             x0=0.0, horizon=1.0)
        grid = fl.TimeGrid(0, 1, 16)
        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError) as err:
            fl.simulate(fwd, grid, 2000, seed=1)
        t, x = err.value.point
        assert err.value.coefficient == "sigma" and t in grid.times() and x < -3.0
        assert f"'sigma' produced a non-finite value at {(t, x)}" in str(err.value)

    def test_taming_keeps_cubic_drift_finite(self):
        fwd = fl.ForwardSpec(mu=lambda t, x: x ** 3, sigma=0.0, x0=10.0, horizon=4.0)
        ens = fl.simulate(fwd, fl.TimeGrid(0, 4, 8), 4, seed=0, scheme="tamed_euler")
        assert np.all(np.isfinite(ens.states))

    def test_taming_gap_shrinks_quadratically_for_lipschitz_drift(self):
        # on linear drift, tamed and plain Euler differ by O(dt^2) per step
        fwd_lin = fl.ForwardSpec(mu=lambda t, x: 0.8 * x, sigma=0.2, x0=1.0, horizon=1.0)
        gaps = []
        for n in (32, 64, 128):
            tg = fl.TimeGrid(0, 1, n)
            plain = fl.simulate(fwd_lin, tg, 200, seed=11, scheme="euler")
            tamed = fl.simulate(fwd_lin, tg, 200, seed=11, scheme="tamed_euler")
            # matched noise: per-step gap after one step from the same state
            one_step_gap = np.max(np.abs(plain.states[:, 1] - tamed.states[:, 1]))
            gaps.append(one_step_gap)
        # dt halves -> per-step gap shrinks by ~4
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.2)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.2)

    def test_weak_self_convergence_of_tamed_scheme(self):
        # coarse run against an independent fine-step reference
        fwd = cubic_drift()
        coarse = fl.simulate(fwd, fl.TimeGrid(0, 1, 256), 40_000, seed=101)
        fine = fl.simulate(fwd, fl.TimeGrid(0, 1, 4096), 40_000, seed=202)
        mc, sc = coarse.states[:, -1].mean(), coarse.states[:, -1].std(ddof=1) / 200.0
        mf, sf = fine.states[:, -1].mean(), fine.states[:, -1].std(ddof=1) / 200.0
        assert abs(mc - mf) <= 3.0 * np.hypot(sc, sf)

    def test_moments_stable_under_dt_halving(self):
        fwd = cubic_drift()
        a = fl.simulate(fwd, fl.TimeGrid(0, 1, 256), 20_000, seed=7)
        b = fl.simulate(fwd, fl.TimeGrid(0, 1, 512), 20_000, seed=7)
        assert np.max(np.abs(a.states)) < 10.0
        for p in (2, 4, 6, 8):
            ma = np.mean(np.abs(a.states[:, -1]) ** p)
            mb = np.mean(np.abs(b.states[:, -1]) ** p)
            assert abs(ma - mb) / ma < 0.1, p


class TestControlledSimulate:
    def test_zero_policy_matches_uncontrolled(self, benchmark_cps):
        # a zero policy reproduces the uncontrolled paths, so its costs do too
        tg = fl.TimeGrid(0, 1, 32)
        est = fl.estimate_cost(benchmark_cps, fl.ControlPolicy.zero(), tg, 300, seed=21)
        plain = fl.simulate(benchmark_cps.uncontrolled_forward(), tg, 300, seed=21)
        cps, times = benchmark_cps, tg.times()
        expected = np.zeros(300)
        for k in range(tg.n_steps):   # left endpoints, then the terminal term
            xk = plain.states[:, k]
            expected += ((xk - cps.target(times[k])) ** 2
                         + cps.control_weight(times[k]) * np.zeros(300) ** 2) * tg.dt
        expected += cps.terminal_weight * (plain.states[:, -1] - cps.target(times[-1])) ** 2
        assert np.array_equal(est.per_path, expected)

    def test_pure_integration(self):
        # A = 0, sigma = 0, B = 1, u = 1 from x0 = 0: the tamed drift is
        # 1 / (1 + dt) per step, so X_t = t / (1 + dt) exactly, and the cost
        # is sum (X_k^2 + 1) dt + X_T^2
        cps = fl.ControlProblemSpec(A=0.0, B=1.0, sigma=0.0, delta=0.0, target=0.0,
                                    control_weight=1.0, terminal_weight=1.0,
                                    x0=0.0, horizon=1.0)
        tg = fl.TimeGrid(0, 1, 64)
        est = fl.estimate_cost(cps, fl.ControlPolicy.constant(1.0), tg, 3, seed=0)
        x = tg.times() / (1.0 + tg.dt)
        expected = np.sum((x[:-1] ** 2 + 1.0) * tg.dt) + x[-1] ** 2
        np.testing.assert_allclose(est.per_path, expected, rtol=1e-14)
        assert est.stderr == 0.0

    def test_feedback_cost_matches_quadratic_value(self, benchmark_cps, benchmark_value):
        tg = fl.TimeGrid(0, 1, 128)
        ric = fl.solve_riccati(benchmark_cps, tg)
        est = fl.estimate_cost(benchmark_cps, fl.ControlPolicy.riccati_feedback(ric),
                               tg, 20_000, seed=13)
        assert abs(est.mean - benchmark_value) <= 3.0 * est.stderr + 0.01
