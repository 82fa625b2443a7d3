import dataclasses
import hashlib
import math

import numpy as np
import pytest

import fbsdelab as fl
import fbsdelab.bsde as bsde
from fbsdelab.bsde import MIN_SUPPORT, _Basis, _design, _fit
from fbsdelab.errors import DomainError, EvaluationError, SolverError


def brownian(x0=0.0):
    return fl.ForwardSpec(mu=0.0, sigma=1.0, x0=x0, horizon=1.0)


def driver(source=0.0, z_slope=None, y_term=None, z_quad=0.0, terminal=0.0, floor=0.0):
    return fl.DriverSpec(source=source, z_quad=z_quad, terminal=terminal,
                         z_slope=z_slope, y_term=y_term, value_floor=floor)


class TestBasis:
    def test_validation(self):
        with pytest.raises(DomainError):
            fl.BasisSpec("fourier")
        with pytest.raises(DomainError):
            fl.BasisSpec("polynomial", degree=0)
        with pytest.raises(DomainError):
            fl.BasisSpec("piecewise_linear", n_knots=1)

    def test_labels(self):
        assert fl.BasisSpec("polynomial", 3).label() == "polynomial:3"
        assert fl.BasisSpec("piecewise_linear", n_knots=9).label() == "piecewise_linear:9"

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_polynomial_features_match_vander(self, degree):
        x = np.random.default_rng(degree).normal(0.3, 2.0, 1000)
        lo, hi = float(x.min()), float(x.max())
        feats = _Basis(fl.BasisSpec("polynomial", degree), lo, hi).features(x)
        s = (2.0 * x - (lo + hi)) / (hi - lo)
        assert feats.flags.f_contiguous
        np.testing.assert_allclose(feats, np.vander(s, degree + 1, increasing=True),
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_polynomial_gram_matches_the_product(self, degree):
        # the Hankel matrix of the moments is F^T F / n up to rounding
        x = np.random.default_rng(degree).normal(0.3, 2.0, 5000)
        basis = _Basis(fl.BasisSpec("polynomial", degree), float(x.min()), float(x.max()))
        feats = basis.features(x)
        ref = feats.T @ feats / x.size
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))   # bounds |ref| entrywise
        assert np.all(np.abs(basis.gram(feats) - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [5000, 300, MIN_SUPPORT - 3])
    def test_support_count_matches_the_full_count(self, n):
        # the prefix decides no column it leaves short: nonzeros only past it, exactly
        # MIN_SUPPORT or one fewer, split across its end, and n below the prefix or MIN_SUPPORT
        need = min(MIN_SUPPORT, n)
        rng = np.random.default_rng(n)
        feats = np.zeros((n, 7), order="F")
        feats[:, 0] = 1.0
        for j, rows in enumerate([
                n - 1 - np.arange(need), n - 1 - np.arange(need - 1),
                np.r_[0:need // 2, n - 1 - np.arange(need - need // 2)],
                np.r_[0:need - 1], np.arange(0, n, max(1, n // need))[:need], []], start=1):
            feats[np.asarray(rows, dtype=int), j] = rng.uniform(0.5, 1.5, len(rows))
        full = np.count_nonzero(feats, axis=0) >= need
        full &= np.diag(feats.T @ feats) > 0.0
        support = _design(feats, feats.T @ feats / n)[0]
        np.testing.assert_array_equal(support, full)
        assert full[[1, 3, 5]].all() and not full[[2, 4, 6]].any()

    def test_thin_hat_feature_gets_exactly_zero_coefficient(self):
        # knots 0, .25, .5, .75, 1: only the few samples above 0.75 touch the
        # last hat, too few for MIN_SUPPORT, so the step's fit drops it
        rng = np.random.default_rng(3)
        thin = MIN_SUPPORT - 1
        x = np.concatenate([rng.uniform(0.0, 0.6, 500), np.linspace(0.8, 1.0, thin)])
        basis = _Basis(fl.BasisSpec("piecewise_linear", n_knots=5), 0.0, 1.0)
        feats = basis.features(x)
        assert np.count_nonzero(feats[:, -1]) == thin
        targets = np.asfortranarray(np.column_stack([np.sin(3 * x), x ** 2]))
        fitted, coef = _fit(feats, targets, _design(feats, basis.gram(feats)), step=0)
        assert np.all(coef[-1] == 0.0)
        assert np.all(coef[:-1] != 0.0)
        assert np.all(np.isfinite(fitted))


class TestSolveLsmc:
    def test_martingale_case_tracks_state(self):
        # F = 0, terminal x: Y_k approximates E[X_T | X_k] = X_k
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 16), 50_000, seed=2)
        sol = fl.solve_lsmc(ens, driver(terminal=lambda x: x), fl.BasisSpec("polynomial", 2))
        k = 8
        err = np.max(np.abs(sol.Y[:, k] - ens.states[:, k]))
        assert err < 0.05
        assert sol.y0 == pytest.approx(0.0, abs=0.02)

    def test_terminal_exactness(self):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 5000, seed=3)
        g = lambda x: np.maximum(x, 0.0) + 1.0
        sol = fl.solve_lsmc(ens, driver(terminal=g), fl.BasisSpec("polynomial", 2))
        np.testing.assert_array_equal(sol.Y[:, -1], g(ens.states[:, -1]))

    def test_heat_closed_form(self):
        # terminal x^2 under Brownian forward: Y(t, x) = x^2 + (T - t)
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 64), 100_000, seed=4)
        sol = fl.solve_lsmc(ens, driver(terminal=lambda x: x ** 2),
                            fl.BasisSpec("polynomial", 2))
        assert abs(sol.y0 - 1.0) <= 0.02

    def test_benchmark_against_quadratic_value(self, benchmark_direct_solution,
                                               benchmark_value):
        sol = benchmark_direct_solution
        # combined allowance: recursion noise is a few times the one-step se
        assert abs(sol.y0 - benchmark_value) <= 0.012
        assert sol.y0 == pytest.approx(benchmark_value, rel=0.01)

    def test_lower_bound_preserved_statistically(self, benchmark_direct_solution):
        sol = benchmark_direct_solution
        assert sol.y0 >= -2.0 * sol.y0_stderr

    def test_deterministic_given_seed(self):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 3000, seed=5)
        a = fl.solve_lsmc(ens, driver(terminal=lambda x: x ** 2), fl.BasisSpec("polynomial", 2))
        b = fl.solve_lsmc(ens, driver(terminal=lambda x: x ** 2), fl.BasisSpec("polynomial", 2))
        assert np.array_equal(a.Y, b.Y) and np.array_equal(a.Z, b.Z)

    def test_arrays_column_major_and_frozen(self):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 3000, seed=5)
        sol = fl.solve_lsmc(ens, driver(terminal=lambda x: x ** 2), fl.BasisSpec("polynomial", 2))
        assert sol.Y.shape == (3000, 9) and sol.Z.shape == (3000, 8)
        for arr in (sol.Y, sol.Z):
            assert arr.flags.f_contiguous and not arr.flags.writeable

    def test_rank_deficiency_raises(self):
        # states visiting only three distinct levels cannot support a
        # degree-8 polynomial: the supported Gram block is exactly singular
        grid = fl.TimeGrid(0, 1, 2)
        levels = np.array([-1.0, 0.0, 1.0])
        states = np.zeros((60, 3))
        states[:, 1] = np.repeat(levels, 20)
        states[:, 2] = np.tile(levels, 20)
        ens = fl.PathEnsemble(grid=grid, states=states,
                              dW=np.zeros((60, 2)), seed=0)
        with pytest.raises(SolverError, match="basis functions or more paths"):
            fl.solve_lsmc(ens, driver(terminal=lambda x: x),
                          fl.BasisSpec("polynomial", 8))

    def test_implicit_scheme_handles_y_dependence(self):
        # y_term lambda(t, y) = y gives dY = (... + Y) dt structure: the
        # closed form for F = -y, g = c is Y_t = c exp(-(T - t))
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 64), 20_000, seed=7)
        spec = driver(y_term=lambda t, y: y, z_quad=0.0, terminal=2.0, floor=-10.0)
        sol = fl.solve_lsmc(ens, spec, fl.BasisSpec("polynomial", 2))
        assert sol.scheme == "one_step_implicit"
        # first-order stepping bias ~ dt/2 relative at 64 steps
        assert sol.y0 == pytest.approx(2.0 * math.exp(-1.0), rel=0.015)
        finer = fl.solve_lsmc(
            fl.simulate(brownian(), fl.TimeGrid(0, 1, 256), 20_000, seed=7),
            spec, fl.BasisSpec("polynomial", 2))
        assert abs(finer.y0 - 2.0 * math.exp(-1.0)) < abs(sol.y0 - 2.0 * math.exp(-1.0))

    def test_implicit_step_evaluates_y_free_terms_once_per_step(self):
        # Newton's calls redo only the y part: source runs once per step, not
        # once per Newton evaluation (80 calls here when each rebuilt the
        # driver); y0 and the sha256 of Y and Z were recorded then, and again
        # when the polynomial Gram came from the basis's moments
        calls = []

        def source(t, x):
            calls.append(t)
            return x ** 2

        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 16), 2000, seed=16)
        spec = driver(source=source, z_quad=0.5, terminal=lambda x: 1.0 - np.exp(-x ** 2),
                      y_term=lambda t, y: 0.2 * y)
        sol = fl.solve_lsmc(ens, spec, fl.BasisSpec("polynomial", 3))
        assert sol.scheme == "one_step_implicit"
        assert len(calls) == 16
        assert repr(sol.y0) == "0.6611924372464907"
        assert hashlib.sha256(sol.Y.tobytes()).hexdigest() == (
            "91bd3406515df72e6eb6376606d7eb53f424ac76bcd8bb20e76fa196608f96ac")
        assert hashlib.sha256(sol.Z.tobytes()).hexdigest() == (
            "78501f0dda42475f385c4ceebedfea7051d7278b9d5466081fd5447177f81984")

    def test_explicit_scheme_default_without_y_dependence(self):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 2000, seed=8)
        sol = fl.solve_lsmc(ens, driver(terminal=lambda x: x), fl.BasisSpec("polynomial", 1))
        assert sol.scheme == "explicit"

    def test_piecewise_linear_basis_agrees(self, benchmark_ensemble, benchmark_setup,
                                           benchmark_value):
        sol = fl.solve_lsmc(benchmark_ensemble, benchmark_setup.driver,
                            fl.BasisSpec("piecewise_linear", n_knots=14))
        assert sol.y0 == pytest.approx(benchmark_value, rel=0.025)

    def test_overresolved_tails_fail_loudly(self, benchmark_ensemble, benchmark_setup):
        # too-coarse hats at this path count let tail noise feed the
        # quadratic z-term until the recursion explodes; that must surface
        # as an error with advice, never as silent NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match="transformed route"):
                fl.solve_lsmc(benchmark_ensemble, benchmark_setup.driver,
                              fl.BasisSpec("piecewise_linear", n_knots=10))


@pytest.mark.parametrize("solve", [fl.solve_lsmc, fl.solve_transformed])
def test_non_finite_terminal_rejected(solve):
    ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 1000, seed=16)
    spec = driver(z_quad=1.0, terminal=lambda x: np.where(x > 1.0, np.nan, x ** 2))
    with pytest.raises(EvaluationError) as err:
        solve(ens, spec, fl.BasisSpec("polynomial", 2))
    first = int(np.argmax(ens.states[:, -1] > 1.0))   # the witness: the first bad path's X_T
    assert err.value.coefficient == "terminal"
    assert err.value.point == (ens.states[first, -1],) and err.value.index == first


class TestDesignMemo:
    """Solves on one ensemble share its per-step regression designs."""

    @staticmethod
    def fresh(ens):
        return fl.PathEnsemble(ens.grid, ens.states, ens.dW, ens.seed)

    @pytest.mark.parametrize("basis", [fl.BasisSpec("polynomial", 2),
                                       fl.BasisSpec("piecewise_linear", n_knots=12)])
    @pytest.mark.parametrize("route", ["direct", "transformed", "girsanov"])
    def test_memo_hits_equal_fresh_solves(self, route, basis, monkeypatch):
        fwd = brownian()
        spec = driver(z_quad=0.5, terminal=lambda x: 1.0 + np.tanh(x))
        solve = {"direct": fl.solve_lsmc, "transformed": fl.solve_transformed,
                 "girsanov": lambda e, s, b: fl.solve_girsanov(e, s, fwd, b)}[route]
        ens = fl.simulate(fwd, fl.TimeGrid(0, 1, 8), 4000, seed=11)
        fl.solve_lsmc(ens, spec, basis)   # another route fills the memo
        designs = []
        monkeypatch.setattr(bsde, "_design", lambda f, g: designs.append(1) or _design(f, g))
        hit = solve(ens, spec, basis)
        assert designs == []
        ref = solve(self.fresh(ens), spec, basis)
        assert len(designs) == ens.n_steps - 1   # step 0 has every path at x0
        for name in ("Y", "Z", "clamp_counts"):
            assert np.array_equal(getattr(hit, name), getattr(ref, name)), name
        for name in ("y_coefficients", "z_coefficients"):
            for a, b in zip(getattr(hit, name), getattr(ref, name), strict=True):
                assert np.array_equal(a, b), name
        assert (hit.y0, hit.y0_stderr) == (ref.y0, ref.y0_stderr)

    def test_rank_deficiency_raised_afresh_on_every_solve(self):
        # the rank-deficient design is memoised; its error is not
        grid = fl.TimeGrid(0, 1, 2)
        levels = np.array([-1.0, 0.0, 1.0])
        states = np.zeros((60, 3))
        states[:, 1] = np.repeat(levels, 20)
        states[:, 2] = np.tile(levels, 20)
        ens = fl.PathEnsemble(grid=grid, states=states, dW=np.zeros((60, 2)), seed=0)
        errors = []
        for target in (ens, ens, self.fresh(ens)):
            with pytest.raises(SolverError) as info:
                fl.solve_lsmc(target, driver(terminal=lambda x: x),
                              fl.BasisSpec("polynomial", 8))
            errors.append(info.value)
        assert len({str(e) for e in errors}) == 1 and {e.step for e in errors} == {1}
        assert errors[0] is not errors[1]

    def test_memo_in_neither_repr_nor_eq(self):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 500, seed=3)
        fl.solve_lsmc(ens, driver(terminal=lambda x: x), fl.BasisSpec("polynomial", 2))
        fresh = self.fresh(ens)
        assert ens._memo and not fresh._memo
        assert ens == fresh
        assert repr(ens) == repr(fresh) and "_memo" not in repr(ens)


class TestSolveTransformed:
    def test_constant_terminal_fixed_point(self):
        # F = 0, g = c: transformed values stay exp(-H (c - floor)) and the
        # recovered process is constant c
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 16), 5000, seed=10)
        spec = driver(z_quad=0.7, terminal=2.0, floor=0.0)
        sol = fl.solve_transformed(ens, spec, fl.BasisSpec("polynomial", 2))
        np.testing.assert_allclose(sol.Y, 2.0, atol=1e-7)
        assert sol.y0 == pytest.approx(2.0, abs=1e-7)

    def test_round_trip_recovery_identity(self):
        # transform then invert reproduces the values where nothing clamps
        H, M = 0.6, 0.0
        y = np.linspace(0.0, 4.0, 101)
        u = np.exp(-H * (y - M))
        back = M - np.log(u) / H
        np.testing.assert_allclose(back, y, atol=1e-10)

    def test_terminal_exactness_pointwise(self):
        # hat-function basis: fitted values are local averages of positive
        # data, so the transform stays reliable in the tails
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 4000, seed=11)
        g = lambda x: x ** 2
        spec = driver(z_quad=0.5, terminal=g)
        sol = fl.solve_transformed(ens, spec, fl.BasisSpec("piecewise_linear", n_knots=12))
        np.testing.assert_array_equal(sol.Y[:, -1], g(ens.states[:, -1]))

    def test_route_tag_and_floor_guarantee(self, benchmark_ensemble, benchmark_setup):
        sol = fl.solve_transformed(benchmark_ensemble, benchmark_setup.driver,
                                   fl.BasisSpec("polynomial", 4))
        assert sol.route == "transformed"
        # the clamp makes the recovered values respect the declared floor
        assert sol.Y.min() >= benchmark_setup.driver.value_floor - 1e-12

    def test_agrees_with_direct_route(self, benchmark_ensemble, benchmark_setup,
                                      benchmark_direct_solution, benchmark_value):
        sol = fl.solve_transformed(benchmark_ensemble, benchmark_setup.driver,
                                   fl.BasisSpec("polynomial", 4))
        assert abs(sol.y0 - benchmark_direct_solution.y0) <= 0.02
        assert sol.y0 == pytest.approx(benchmark_value, rel=0.02)

    def test_requires_positive_z_quad(self):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 1000, seed=12)
        with pytest.raises(DomainError, match="z_quad"):
            fl.solve_transformed(ens, driver(z_quad=0.0, terminal=1.0),
                                 fl.BasisSpec("polynomial", 2))

    def test_rejects_terminal_below_floor(self):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 1000, seed=13)
        spec = driver(z_quad=1.0, terminal=lambda x: x, floor=0.0)
        with pytest.raises(DomainError, match="floor"):
            fl.solve_transformed(ens, spec, fl.BasisSpec("polynomial", 2))

    def test_unreliable_transform_raises(self):
        # a huge terminal drives the transformed values to 0 where the
        # polynomial fit oscillates negative on far more than 1% of paths
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 4000, seed=14)
        spec = driver(z_quad=1.0, terminal=lambda x: 50.0 * x ** 2)
        with pytest.raises(SolverError, match="unreliable"):
            fl.solve_transformed(ens, spec, fl.BasisSpec("polynomial", 4))

    def test_clamp_counts_match_recorded_values(self):
        # a few paths per late step leave [U_FLOOR, 1], under 1% of them <= 0: the
        # solve clamps them and counts them as it did before the clamp was one clip
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 4000, seed=14)
        sol = fl.solve_transformed(ens, driver(z_quad=1.0, terminal=lambda x: 0.3 * x ** 2),
                                   fl.BasisSpec("polynomial", 2))
        assert sol.clamp_counts.tolist() == [0, 0, 0, 0, 2, 2, 11, 34, 0]

    def test_over_one_percent_non_positive_raises(self):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 4000, seed=14)
        spec = driver(z_quad=1.0, terminal=lambda x: x ** 2)
        with pytest.raises(SolverError, match=r"^transformed values <= 0 on 3\.5% of paths "
                                              r"at step 7;") as err:
            fl.solve_transformed(ens, spec, fl.BasisSpec("polynomial", 2))
        assert err.value.step == 7

    def test_time_dependent_z_quad_uses_its_derivative(self):
        # expression-tree coefficient: the moving-coefficient compensation
        # term uses the differenced time slope, and the constant solution is
        # recovered up to first-order stepping bias that shrinks with dt
        from fbsdelab.expressions import time_derivative
        H = fl.parse_expression("0.5 + 0.25*t")
        assert time_derivative(H, 0.3, span=1.0) == pytest.approx(0.25, rel=1e-8)
        errs = []
        for steps in (32, 128):
            ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, steps), 3000, seed=15)
            spec = driver(z_quad=H, terminal=1.5)
            sol = fl.solve_transformed(ens, spec, fl.BasisSpec("polynomial", 2))
            errs.append(abs(sol.y0 - 1.5))
        assert errs[0] < 0.01
        assert errs[1] < 0.5 * errs[0]

    def test_step_bits_match_recorded_values(self):
        # every per-step term of the transformed driver at once: z_slope,
        # y_term and a moving z_quad (hdot != 0); y0 and the sha256 of Y and Z
        # were recorded before the y-free terms were hoisted out of Newton, and
        # again when the polynomial Gram came from the basis's moments
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 16), 2000, seed=16)
        spec = driver(source=lambda t, x: x ** 2, z_quad=lambda t: 0.5 + 0.25 * t,
                      terminal=lambda x: 1.0 - np.exp(-x ** 2),
                      z_slope=lambda t, x: 0.3 * np.sin(x), y_term=lambda t, y: 0.2 * y)
        sol = fl.solve_transformed(ens, spec, fl.BasisSpec("polynomial", 2))
        assert repr(sol.y0) == "0.6746198447912531"
        assert hashlib.sha256(sol.Y.tobytes()).hexdigest() == (
            "05b9bded7d44ea4f9ebb66a6c5a59bf0d450796d5ca60d85e3cc30ca4647f652")
        assert hashlib.sha256(sol.Z.tobytes()).hexdigest() == (
            "78f67173363b439fc53b71b315cf73e6aea0a37c20adfc15422d2ee14d3fd9d4")

    def test_affine_driver_steps_exactly(self):
        # source and z_quad constant, no y_term: u' = H source u has the exact
        # discount exp(-H source dt) per step, so y0 = g + source T to roundoff
        # (implicit Euler's 1 / (1 + H source dt) was 0.012 low here)
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 2000, seed=5)
        sol = fl.solve_transformed(ens, driver(source=0.5, z_quad=0.8, terminal=1.0),
                                   fl.BasisSpec("polynomial", 2))
        assert sol.y0 == pytest.approx(1.5, abs=1e-8)
        assert sol.scheme == "exponential"

    @pytest.mark.parametrize("spec, scheme", [
        (driver(source=0.5, z_quad=0.8, z_slope=0.3, terminal=1.0), "exponential"),
        (driver(z_quad=0.8, y_term=lambda t, y: 0.2 * y, terminal=1.0), "one_step_implicit"),
        (driver(z_quad=lambda t: 0.5 + 0.25 * t, terminal=1.0), "one_step_implicit"),
    ], ids=["affine", "y_term", "moving_z_quad"])
    def test_step_follows_the_driver(self, spec, scheme):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 500, seed=5)
        assert fl.solve_transformed(ens, spec, fl.BasisSpec("polynomial", 2)).scheme == scheme

    @pytest.mark.parametrize("solve", [fl.solve_lsmc, fl.solve_transformed])
    def test_non_finite_source_named(self, solve):
        # both routes name the coefficient and the first bad (t, x) at step 15
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 16), 2000, seed=3)
        spec = driver(source=lambda t, x: np.where(x > 1.5, np.nan, x ** 2), z_quad=1.0,
                      terminal=lambda x: x ** 2)
        with pytest.raises(EvaluationError) as err:
            solve(ens, spec, fl.BasisSpec("polynomial", 2))
        assert err.value.coefficient == "source"
        assert err.value.point[0] == 0.9375 and err.value.point[1] > 1.5


class TestSolveGirsanov:
    def test_zero_drift_reproduces_direct(self):
        fwd = brownian(x0=0.5)
        ens = fl.simulate(fwd, fl.TimeGrid(0, 1, 16), 20_000, seed=16, scheme="euler")
        spec = driver(terminal=lambda x: x ** 2)
        a = fl.solve_lsmc(ens, spec, fl.BasisSpec("polynomial", 2))
        b = fl.solve_girsanov(ens, spec, fwd, fl.BasisSpec("polynomial", 2))
        assert b.route == "girsanov"
        np.testing.assert_allclose(a.Y, b.Y, atol=1e-12)

    def test_constant_drift_closed_form(self):
        # mu = a, sigma = 1, F = 0, g(x) = x: value at 0 is x0 + a T
        a = 0.7
        fwd = fl.ForwardSpec(mu=a, sigma=1.0, x0=0.2, horizon=1.0)
        driftless = brownian(x0=0.2)
        ens0 = fl.simulate(driftless, fl.TimeGrid(0, 1, 32), 50_000, seed=17, scheme="euler")
        sol = fl.solve_girsanov(ens0, driver(terminal=lambda x: x), fwd,
                                fl.BasisSpec("polynomial", 2))
        assert sol.y0 == pytest.approx(0.2 + a, abs=0.02)

    def test_rejects_drifted_ensemble(self):
        fwd = fl.ForwardSpec(mu=1.0, sigma=1.0, x0=0.0, horizon=1.0)
        drifted = fl.simulate(fwd, fl.TimeGrid(0, 1, 16), 500, seed=18, scheme="euler")
        with pytest.raises(DomainError, match="driftless"):
            fl.solve_girsanov(drifted, driver(terminal=lambda x: x), fwd,
                              fl.BasisSpec("polynomial", 2))

    def test_rejects_vanishing_sigma(self):
        # sigma(t) = 0.5 - t crosses zero at the midpoint of the grid
        fwd = fl.ForwardSpec(mu=1.0, sigma=lambda t, x: 0.5 - t + 0.0 * x,
                             x0=1.0, horizon=1.0)
        dless = fl.ForwardSpec(mu=0.0, sigma=fwd.sigma, x0=1.0, horizon=1.0)
        ens0 = fl.simulate(dless, fl.TimeGrid(0, 1, 16), 500, seed=19, scheme="euler")
        with pytest.raises(DomainError, match="sigma"):
            fl.solve_girsanov(ens0, driver(terminal=lambda x: x), fwd,
                              fl.BasisSpec("polynomial", 2))

    def test_perturbed_problem_agrees_with_direct(self, perturbed_setup):
        tg = fl.TimeGrid(0, 1, 64)
        basis = fl.BasisSpec("polynomial", 4)
        ens = fl.simulate(perturbed_setup.forward, tg, 50_000, seed=20)
        direct = fl.solve_lsmc(ens, perturbed_setup.driver, basis)
        driftless = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=1.0, horizon=1.0)
        ens0 = fl.simulate(driftless, tg, 50_000, seed=20, scheme="euler")
        girs = fl.solve_girsanov(ens0, perturbed_setup.driver, perturbed_setup.forward, basis)
        assert abs(direct.y0 - girs.y0) <= 3.0 * (0.004 + 0.004)


def _drifting_girsanov(estimate_only):
    fwd = fl.ForwardSpec(mu=lambda t, x: -x, sigma=1.0, x0=0.5, horizon=1.0)
    ens0 = fl.simulate(dataclasses.replace(fwd, mu=0.0), fl.TimeGrid(0, 1, 16), 3000, seed=24)
    return fl.solve_girsanov(ens0, driver(z_quad=0.5, terminal=lambda x: x ** 2), fwd,
                             fl.BasisSpec("polynomial", 3), estimate_only=estimate_only)


def _lsmc_case(steps, seed, **spec):
    def solve(estimate_only):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, steps), 3000, seed=seed)
        return fl.solve_lsmc(ens, driver(**spec), fl.BasisSpec("polynomial", 3),
                             estimate_only=estimate_only)
    return solve


def _transformed_case(estimate_only):
    ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 2000, seed=11)
    return fl.solve_transformed(ens, driver(z_quad=0.5, terminal=lambda x: 1.0 + np.tanh(x)),
                                fl.BasisSpec("polynomial", 3), estimate_only=estimate_only)


class TestEstimateOnly:
    """An estimate-only solve keeps no paths and gives the full solve's estimate bit for bit."""

    @pytest.mark.parametrize("solve, scheme", [
        (_lsmc_case(16, 21, source=lambda t, x: x ** 2, z_quad=0.5,
                    terminal=lambda x: 1.0 + np.tanh(x)), "explicit"),
        (_lsmc_case(16, 22, source=lambda t, x: x ** 2, z_quad=0.5, y_term=lambda t, y: 0.2 * y,
                    terminal=lambda x: 1.0 + np.tanh(x), floor=-10.0), "one_step_implicit"),
        (_transformed_case, "exponential"),
        (_drifting_girsanov, "explicit"),
        (_lsmc_case(1, 23, z_quad=0.5, terminal=lambda x: x ** 2), "explicit"),
    ], ids=["explicit", "implicit", "transformed", "girsanov", "one_step"])
    def test_same_estimate_as_the_full_solve(self, solve, scheme):
        full, est = solve(False), solve(True)
        assert est.Y is None and est.Z is None and full.Y is not None
        assert full.scheme == est.scheme == scheme
        assert (est.n_paths, est.n_steps) == (full.n_paths, full.n_steps) == full.Z.shape
        assert (est.y0, est.y0_stderr) == (full.y0, full.y0_stderr)
        assert np.array_equal(est.clamp_counts, full.clamp_counts)
        for name in ("y_coefficients", "z_coefficients"):
            # step 0 has every path at x0: no fit there, in either mode
            assert getattr(full, name)[0] is None and getattr(est, name)[0] is None
            for a, b in zip(getattr(full, name)[1:], getattr(est, name)[1:], strict=True):
                assert np.array_equal(a, b), name
        if solve is _transformed_case:
            assert full.clamp_counts.sum() > 0

    @pytest.mark.parametrize("steps, seed, solve", [
        (16, 3, lambda ens, estimate_only: fl.solve_lsmc(
            ens, driver(z_quad=5.0, terminal=lambda x: x ** 2),
            fl.BasisSpec("piecewise_linear", n_knots=10), estimate_only=estimate_only)),
        (8, 11, lambda ens, estimate_only: fl.solve_transformed(
            ens, driver(z_quad=1.0, terminal=lambda x: x ** 2),
            fl.BasisSpec("polynomial", 3), estimate_only=estimate_only)),
    ], ids=["non_finite", "unreliable_transform"])
    def test_same_error_as_the_full_solve(self, steps, seed, solve):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, steps), 2000, seed=seed)
        errors = []
        for estimate_only in (False, True):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(SolverError) as info:
                    solve(ens, estimate_only)
            errors.append((str(info.value), info.value.step))
        assert errors[0] == errors[1]


class TestMartingaleResidual:
    def test_exact_martingale_case(self):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 32), 50_000, seed=21)
        sol = fl.solve_lsmc(ens, driver(terminal=lambda x: x), fl.BasisSpec("polynomial", 2))
        rep = fl.martingale_residual(sol, None, ens)
        assert rep.pass_fraction >= 0.95
        assert rep.ok

    def test_production_solution_passes(self, benchmark_ensemble,
                                         benchmark_direct_solution):
        rep = fl.martingale_residual(benchmark_direct_solution, None, benchmark_ensemble)
        assert rep.pass_fraction >= 0.95

    def test_injected_fault_detected_at_corrupted_step(self, benchmark_ensemble,
                                                       benchmark_direct_solution):
        sol = benchmark_direct_solution
        j = sol.n_steps // 2
        Y = sol.Y.copy()
        Y[:, j] += 0.1
        corrupted = dataclasses.replace(
            sol, Y=Y, y_coefficients=sol.y_coefficients,
            z_coefficients=sol.z_coefficients, driver=sol.driver)
        rep = fl.martingale_residual(corrupted, None, benchmark_ensemble)
        # the corrupted column breaks the identities on both sides of j
        assert j in rep.flagged_steps
        assert set(rep.flagged_steps) <= {j - 1, j}
        assert rep.residual[j] == pytest.approx(-0.1, abs=5e-3)
        assert rep.residual[j - 1] == pytest.approx(0.1, abs=5e-3)

    def test_alignment_checks_the_seed(self):
        # a constant terminal gives the same terminal row on every ensemble
        grid = fl.TimeGrid(0, 1, 16)
        ens = fl.simulate(brownian(), grid, 2000, seed=1)
        sol = fl.solve_lsmc(ens, driver(terminal=1.0), fl.BasisSpec("polynomial", 2))
        assert fl.martingale_residual(sol, None, ens).ok
        with pytest.raises(DomainError, match="not aligned"):
            fl.martingale_residual(sol, None, fl.simulate(brownian(), grid, 2000, seed=2))
        assert sol.seed == 1

    def test_estimate_only_solution_rejected(self):
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 1000, seed=1)
        sol = fl.solve_lsmc(ens, driver(terminal=lambda x: x), fl.BasisSpec("polynomial", 2),
                            estimate_only=True)
        with pytest.raises(DomainError, match="kept no paths"):
            fl.martingale_residual(sol, None, ens)

    def test_alignment_check(self, benchmark_direct_solution):
        other = fl.simulate(brownian(), fl.TimeGrid(0, 1, 8), 100, seed=0)
        with pytest.raises(DomainError):
            fl.martingale_residual(benchmark_direct_solution, None, other)
        # same shape, other paths: another seed, or the same seed on [0, 2]
        ens = fl.simulate(brownian(), fl.TimeGrid(0, 1, 16), 2000, seed=1)
        sol = fl.solve_lsmc(ens, driver(terminal=lambda x: x ** 2), fl.BasisSpec("polynomial", 2))
        for other in (fl.simulate(brownian(), fl.TimeGrid(0, 1, 16), 2000, seed=2),
                      fl.simulate(brownian(), fl.TimeGrid(0, 2, 16), 2000, seed=1)):
            with pytest.raises(DomainError, match="not aligned"):
                fl.martingale_residual(sol, None, other)
