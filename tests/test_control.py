import math
import sys

import numpy as np
import pytest

import fbsdelab as fl
from fbsdelab import sde
from fbsdelab.errors import DomainError, EvaluationError


class TestRiccati:
    def test_benchmark_closed_form(self, benchmark_cps):
        tg = fl.TimeGrid(0.0, 1.0, 256)
        ric = fl.solve_riccati(benchmark_cps, tg)
        tau = 1.0 - tg.times()
        np.testing.assert_allclose(ric.P, np.tanh(tau), atol=1e-9)
        np.testing.assert_allclose(ric.q, 0.0, atol=1e-12)
        np.testing.assert_allclose(ric.r, np.log(np.cosh(tau)), atol=1e-9)
        assert ric.value(0.0, 1.0) == pytest.approx(
            math.tanh(1.0) + math.log(math.cosh(1.0)), abs=1e-9)

    def test_terminal_matching(self):
        cps = fl.ControlProblemSpec(A=0.3, B=1.2, sigma=0.8, delta=0.0,
                                    target=lambda t: 0.5 + t,
                                    control_weight=lambda t: 1.0 + 0.2 * t,
                                    terminal_weight=0.7, x0=1.0, horizon=2.0)
        ric = fl.solve_riccati(cps, fl.TimeGrid(0.0, 2.0, 64))
        assert ric.P[-1] == 0.7
        assert ric.q[-1] == pytest.approx(-2.0 * 0.7 * 2.5)
        assert ric.r[-1] == pytest.approx(0.7 * 2.5 ** 2)
        xi_T = 2.5
        np.testing.assert_allclose(ric.value(2.0, 3.0), 0.7 * (3.0 - xi_T) ** 2)

    def test_quadratic_coefficient_stays_nonnegative(self, benchmark_cps):
        ric = fl.solve_riccati(benchmark_cps, fl.TimeGrid(0.0, 1.0, 128))
        assert np.all(ric.P >= 0.0)

    def test_uncontrollable_limit_is_linear_ode(self):
        # B = 0, A = 0, k2 = 0: P' = -1, so P(t) = T - t
        cps = fl.ControlProblemSpec(A=0.0, B=0.0, sigma=1.0, delta=0.0, target=0.0,
                                    control_weight=1.0, terminal_weight=0.0,
                                    x0=0.0, horizon=1.0)
        ric = fl.solve_riccati(cps, fl.TimeGrid(0.0, 1.0, 64))
        np.testing.assert_allclose(ric.P, 1.0 - ric.grid.times(), atol=1e-12)
        assert ric.P[0] == pytest.approx(1.0)

    def test_noise_free_zero_start_costs_nothing(self):
        cps = fl.ControlProblemSpec(A=0.4, B=1.0, sigma=0.0, delta=0.0, target=0.0,
                                    control_weight=2.0, terminal_weight=0.0,
                                    x0=0.0, horizon=1.0)
        ric = fl.solve_riccati(cps, fl.TimeGrid(0.0, 1.0, 64))
        assert ric.value(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_problem_rejected(self, perturbed_cps):
        with pytest.raises(DomainError):
            fl.solve_riccati(perturbed_cps, fl.TimeGrid(0.0, 1.0, 16))

    def test_integration_is_fourth_order(self, benchmark_cps):
        exact = math.tanh(1.0)
        errs = []
        for n in (4, 8, 16):
            ric = fl.solve_riccati(benchmark_cps, fl.TimeGrid(0.0, 1.0, n))
            errs.append(abs(ric.P[0] - exact))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.3)


class TestPolicies:
    def test_zero_and_constant(self):
        z = fl.ControlPolicy.zero()
        c = fl.ControlPolicy.constant(-0.5)
        x = np.array([1.0, -2.0])
        np.testing.assert_array_equal(z(0.1, x), [0.0, 0.0])
        np.testing.assert_array_equal(c(0.1, x), [-0.5, -0.5])
        assert c.name == "constant(-0.5)"

    def test_clamping(self):
        p = fl.ControlPolicy("wild", lambda t, x: 1e9 * x, u_max=2.0)
        assert p(0.0, 1.0) == 2.0
        assert p(0.0, -1.0) == -2.0

    def test_riccati_feedback_formula(self, benchmark_cps):
        ric = fl.solve_riccati(benchmark_cps, fl.TimeGrid(0.0, 1.0, 128))
        pol = fl.ControlPolicy.riccati_feedback(ric)
        t, x = 0.25, 1.7
        expected = -1.0 * (2.0 * np.interp(t, ric.grid.times(), ric.P) * x) / 2.0
        assert pol(t, x) == pytest.approx(expected, rel=1e-12)


class TestCostEstimation:
    def test_brownian_quadratic_cost(self):
        # A = 0, u = 0, x0 = 0, sigma = 1: E int_0^1 X_t^2 dt = 1/2
        cps = fl.ControlProblemSpec(A=0.0, B=1.0, sigma=1.0, delta=0.0, target=0.0,
                                    control_weight=1.0, terminal_weight=0.0,
                                    x0=0.0, horizon=1.0)
        est = fl.estimate_cost(cps, fl.ControlPolicy.zero(),
                               fl.TimeGrid(0.0, 1.0, 256), 20_000, seed=3)
        assert abs(est.mean - 0.5) <= 3.0 * est.stderr

    def test_on_target_noise_free_cost_is_zero(self):
        cps = fl.ControlProblemSpec(A=0.0, B=1.0, sigma=0.0, delta=0.0, target=0.7,
                                    control_weight=1.0, terminal_weight=0.5,
                                    x0=0.7, horizon=1.0)
        est = fl.estimate_cost(cps, fl.ControlPolicy.zero(),
                               fl.TimeGrid(0.0, 1.0, 32), 50, seed=1)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_feedback_cost_matches_value(self, benchmark_cps, benchmark_value):
        ric = fl.solve_riccati(benchmark_cps, fl.TimeGrid(0.0, 1.0, 128))
        est = fl.estimate_cost(benchmark_cps, fl.ControlPolicy.riccati_feedback(ric),
                               fl.TimeGrid(0.0, 1.0, 256), 40_000, seed=9)
        assert abs(est.mean - benchmark_value) <= 3.0 * est.stderr + 5e-3


class TestComparePolicies:
    def test_duplicate_policy_ties_exactly(self, benchmark_cps):
        ric = fl.solve_riccati(benchmark_cps, fl.TimeGrid(0.0, 1.0, 64))
        pol = fl.ControlPolicy.riccati_feedback(ric)
        rank = fl.compare_policies(benchmark_cps, [pol, pol],
                                   fl.TimeGrid(0.0, 1.0, 64), 2000, seed=5)
        assert len(rank.rows) == 2
        assert rank.rows[1][3] == 0.0           # paired difference exactly zero
        assert rank.rows[1][4] == 0.0

    def test_optimal_feedback_beats_alternatives(self, benchmark_cps, benchmark_value):
        ric = fl.solve_riccati(benchmark_cps, fl.TimeGrid(0.0, 1.0, 128))
        policies = [fl.ControlPolicy.riccati_feedback(ric), fl.ControlPolicy.zero(),
                    fl.ControlPolicy.constant(0.5), fl.ControlPolicy.constant(-0.5)]
        rank = fl.compare_policies(benchmark_cps, policies,
                                   fl.TimeGrid(0.0, 1.0, 128), 20_000, seed=7)
        assert rank.best() == "riccati_feedback"
        for name, mean, se, pdiff, pse in rank.rows[1:]:
            assert pdiff > 3.0 * pse
        # the uncontrolled cost has closed form x0^2 + 1/2 here
        zero_row = [r for r in rank.rows if r[0] == "zero"][0]
        assert zero_row[1] == pytest.approx(1.5, abs=3.0 * zero_row[2] + 0.01)
        # and the optimal cost matches the value function
        best_est = rank.estimates["riccati_feedback"]
        assert abs(best_est.mean - benchmark_value) <= 3.0 * best_est.stderr + 5e-3

    def test_common_random_numbers_reproducible(self, benchmark_cps):
        ric = fl.solve_riccati(benchmark_cps, fl.TimeGrid(0.0, 1.0, 64))
        policies = [fl.ControlPolicy.riccati_feedback(ric), fl.ControlPolicy.zero()]
        a = fl.compare_policies(benchmark_cps, policies, fl.TimeGrid(0.0, 1.0, 64),
                                3000, seed=11)
        b = fl.compare_policies(benchmark_cps, policies, fl.TimeGrid(0.0, 1.0, 64),
                                3000, seed=11)
        assert a.rows == b.rows

    def test_one_noise_draw_per_ranking(self, benchmark_cps, monkeypatch):
        calls = []
        original = sde.brownian_increments

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):   # every module that bound the name
            if name.startswith("fbsdelab") and getattr(module, "brownian_increments",
                                                       None) is original:
                monkeypatch.setattr(module, "brownian_increments", counted)
        policies = [fl.ControlPolicy.zero(), fl.ControlPolicy.constant(0.5),
                    fl.ControlPolicy.constant(-0.5), fl.ControlPolicy.constant(0.2)]
        fl.compare_policies(benchmark_cps, policies, fl.TimeGrid(0.0, 1.0, 16), 300, seed=4)
        assert calls == [(4, 300, 16, 1.0 / 16)]

    def test_each_law_runs_once_per_state(self, benchmark_cps):
        calls = []

        def law(t, x):
            calls.append(t)
            return -0.5 * x

        policies = [fl.ControlPolicy("counted", law), fl.ControlPolicy.zero()]
        tg = fl.TimeGrid(0.0, 1.0, 16)
        fl.compare_policies(benchmark_cps, policies, tg, 300, seed=4)
        assert calls == list(tg.times()[:-1])

    def test_ranking_estimates_equal_single_estimates(self, benchmark_cps, perturbed_cps):
        # the shared draw and the march's running cost give estimate_cost's bits
        tg = fl.TimeGrid(0.0, 1.0, 32)
        ric = fl.solve_riccati(benchmark_cps, tg)
        policies = [fl.ControlPolicy.riccati_feedback(ric), fl.ControlPolicy.zero(),
                    fl.ControlPolicy.constant(0.5), fl.ControlPolicy.zero()]
        rank = fl.compare_policies(perturbed_cps, policies, tg, 5000, seed=8)
        assert list(rank.estimates) == ["riccati_feedback", "zero", "constant(0.5)", "zero#2"]
        for pol, est in zip(policies, rank.estimates.values()):
            single = fl.estimate_cost(perturbed_cps, pol, tg, 5000, seed=8)
            assert np.array_equal(est.per_path, single.per_path)
            assert (est.mean, est.stderr) == (single.mean, single.stderr)

    def test_needs_two_policies(self, benchmark_cps):
        with pytest.raises(DomainError):
            fl.compare_policies(benchmark_cps, [fl.ControlPolicy.zero()],
                                fl.TimeGrid(0.0, 1.0, 8), 100, seed=0)

    def test_ranking_csv(self, benchmark_cps, tmp_path):
        rank = fl.compare_policies(
            benchmark_cps, [fl.ControlPolicy.zero(), fl.ControlPolicy.constant(0.3)],
            fl.TimeGrid(0.0, 1.0, 16), 500, seed=2)
        path = tmp_path / "rank.csv"
        rank.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "policy,mean_cost,stderr,paired_diff_vs_best,paired_stderr_vs_best"
        assert len(lines) == 3

    def test_non_finite_target_stops_the_ranking(self):
        # ln(t - 0.5) is NaN before t = 0.5: the ranking must not come out as NaN rows
        cps = fl.ControlProblemSpec(A=0.0, B=1.0, sigma=1.0, delta=0.0,
                                    target=fl.parse_expression("ln(t - 0.5)"),
                                    control_weight=1.0, terminal_weight=0.0,
                                    x0=1.0, horizon=1.0)
        policies = [fl.ControlPolicy.zero(), fl.ControlPolicy.constant(0.5)]
        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError) as err:
            fl.compare_policies(cps, policies, fl.TimeGrid(0.0, 1.0, 16), 500, seed=3)
        assert (err.value.coefficient, err.value.point) == ("target", (0.0,))
