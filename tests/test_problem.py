import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbsdelab as fl
from fbsdelab.errors import DomainError, EvaluationError
from fbsdelab.problem import _full_field


def make_driver(source=0.0, z_slope=None, y_term=None, z_quad=0.0, terminal=0.0, floor=0.0):
    return fl.DriverSpec(source=source, z_quad=z_quad, terminal=terminal,
                         z_slope=z_slope, y_term=y_term, value_floor=floor)


def control_spec(A=0.0, B=1.0, sigma=1.0, target=0.0, control_weight=1.0):
    return fl.ControlProblemSpec(A=A, B=B, sigma=sigma, delta=0.0, target=target,
                                 control_weight=control_weight, terminal_weight=0.0,
                                 x0=1.0, horizon=1.0)


class TestEvalDriver:
    def test_direct_substitution(self):
        spec = make_driver(source=1.0, z_quad=2.0)
        assert fl.eval_driver(spec, 0.0, 0.0, 0.0, 3.0) == -8.0

    def test_zero_z_returns_source(self):
        spec = make_driver(source=lambda t, x: np.sin(x) ** 2 + 1.0, z_quad=5.0)
        t, x = 0.4, 1.7
        assert fl.eval_driver(spec, t, x, 9.9, 0.0) == pytest.approx(math.sin(x) ** 2 + 1.0)

    def test_tracking_driver_form(self):
        # source (x - target)^2 with quadratic z-coefficient 1: at x=2, z=1
        spec = make_driver(source=lambda t, x: x ** 2, z_quad=1.0)
        assert fl.eval_driver(spec, 0.0, 2.0, 0.0, 1.0) == pytest.approx(3.5)

    def test_vectorized(self):
        spec = make_driver(source=lambda t, x: x, z_slope=2.0, z_quad=1.0)
        x = np.array([0.0, 1.0, 2.0])
        z = np.array([1.0, 0.0, -1.0])
        np.testing.assert_allclose(
            fl.eval_driver(spec, 0.0, x, 0.0, z), x + 2.0 * z - 0.5 * z ** 2)

    def test_nonfinite_coefficient_is_reported(self):
        spec = make_driver(source=lambda t, x: np.log(x), z_quad=1.0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(EvaluationError) as err:
                fl.eval_driver(spec, 0.0, -1.0, 0.0, 0.0)
        assert err.value.coefficient == "source"

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 4.0),
           st.floats(-2, 2), st.floats(0.05, 1.0))
    def test_exactly_quadratic_in_z(self, x, z, H, y, dz):
        spec = make_driver(source=lambda t, x: x ** 2, z_slope=1.5, z_quad=H)
        f = lambda zz: fl.eval_driver(spec, 0.3, x, y, zz)
        second_diff = f(z + dz) - 2.0 * f(z) + f(z - dz)
        assert second_diff == pytest.approx(-H * dz ** 2, rel=1e-9, abs=1e-9)


def girsanov(spec, fwd, t, x, y, z):
    """The drift-eliminated driver F + (mu/sigma) z, evaluated pointwise."""
    return fl.eval_driver(fl.girsanov_shifted_driver(spec, fwd), t, x, y, z)


class TestGirsanovDriver:
    def test_zero_drift_is_identity(self):
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        spec = make_driver(source=1.0, z_quad=2.0)
        for z in (-1.0, 0.0, 2.5):
            assert girsanov(spec, fwd, 0.1, 0.5, 0.0, z) == \
                fl.eval_driver(spec, 0.1, 0.5, 0.0, z)

    def test_constant_shift(self):
        fwd = fl.ForwardSpec(mu=2.0, sigma=1.0, x0=0.0, horizon=1.0)
        spec = make_driver(source=1.0, z_quad=2.0)
        assert girsanov(spec, fwd, 0.0, 0.0, 0.0, 3.0) == pytest.approx(-2.0)

    def test_zero_z_unchanged(self):
        fwd = fl.ForwardSpec(mu=lambda t, x: 5.0 * x, sigma=0.7, x0=0.0, horizon=1.0)
        spec = make_driver(source=lambda t, x: x ** 2, z_quad=1.0)
        assert girsanov(spec, fwd, 0.2, 1.3, 0.0, 0.0) == \
            fl.eval_driver(spec, 0.2, 1.3, 0.0, 0.0)

    def test_shift_is_linear_in_z_with_slope_mu_over_sigma(self):
        fwd = fl.ForwardSpec(mu=lambda t, x: x - 0.1 * x ** 3, sigma=0.3, x0=1.0, horizon=1.0)
        spec = make_driver(source=lambda t, x: x ** 2, z_quad=0.5)
        t, x, y = 0.3, 1.4, 0.0
        z1, z2 = -1.0, 2.0
        gap = lambda z: girsanov(spec, fwd, t, x, y, z) - fl.eval_driver(spec, t, x, y, z)
        slope = (gap(z2) - gap(z1)) / (z2 - z1)
        assert slope == pytest.approx((x - 0.1 * x ** 3) / 0.3, rel=1e-12)

    def test_vanishing_sigma_is_an_error(self):
        fwd = fl.ForwardSpec(mu=1.0, sigma=lambda t, x: x, x0=1.0, horizon=1.0)
        spec = make_driver(source=0.0, z_quad=1.0)
        with pytest.raises(DomainError) as err:
            girsanov(spec, fwd, 0.5, 0.0, 0.0, 1.0)
        assert "0.5" in str(err.value) or "0.0" in str(err.value)

    def test_shifted_driver_spec_matches_pointwise(self):
        fwd = fl.ForwardSpec(mu=lambda t, x: np.cos(x), sigma=1.3, x0=0.0, horizon=1.0)
        spec = make_driver(source=lambda t, x: x ** 2, z_slope=0.4, z_quad=0.8)
        shifted = fl.girsanov_shifted_driver(spec, fwd)
        x = np.linspace(-2, 2, 7)
        z = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(
            fl.eval_driver(shifted, 0.25, x, 0.0, z),
            x ** 2 + (0.4 + np.cos(x) / 1.3) * z - 0.4 * z ** 2, rtol=1e-14)


# (clause, coefficient, its non-finite form, the clause's witness)
NON_FINITE_CASES = [
    ("z_quad_positive", "z_quad", lambda t: np.where(t > 0.5, np.nan, 1.0), (0.53125,)),
    ("source_nonnegative", "source", np.nan, (0.0, -4.0)),
    ("terminal_above_floor", "terminal", lambda x: np.where(x < 0.0, np.nan, x), (-4.0,)),
    ("z_slope_bounded", "z_slope", lambda t, x: np.where(x >= 1.0, np.nan, 0.0), (0.0, 1.0)),
    ("y_term_modulus_bound", "y_term", lambda t, y: np.where(y < 1.0, np.nan, 0.0),
     (0.0, 0.8754687373539001)),
    ("y_term_modulus_bound", "phi", lambda t: np.where(t < 0.5, np.nan, 1.0), (0.0,)),
    # numpy itself warns on this one: the checker's verdict must come alone
    ("z_slope_bounded", "z_slope", fl.parse_expression("0*(1-x)^0.5"),
     (0.0, 1.2000000000000002)),
]


def non_finite_report(name, coefficient):
    """(spec, phi, report) with ``name`` set to ``coefficient``, checked on the default grid."""
    # phi is the checker's argument, not the spec's; a zero y_term lets its clause run
    coefficients = {"source": 1.0, "z_quad": 1.0, "y_term": lambda t, y: 0.0 * y,
                    "phi": 1.0, name: coefficient}
    phi = coefficients.pop("phi")
    spec = make_driver(**coefficients)
    fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fl.check_driver_assumptions(spec, fwd, fl.SampleGrid.regular(1.0, -4.0, 4.0),
                                             kappa_candidate=fl.identity_modulus,
                                             phi_candidate=phi)
    return spec, phi, report


# One driver per branch of every clause (coefficients, phi), checked on the
# 33 x 41 x 10 grid; GUARD_REPORTS holds each report's verdict and, per clause,
# its summary line with (observed, threshold), as the checker that looped over
# sample times gave them.  The NON_FINITE_CASES reports (default grid) are
# recorded under "non_finite_<index>".
GUARD_CASES = {
    "all_pass": (dict(source=lambda t, x: x ** 2 + 1.0, z_slope=lambda t, x: np.sin(x),
                      z_quad=lambda t: 0.5 + 0.25 * t, y_term=lambda t, y: np.exp(-y),
                      terminal=lambda x: x ** 2), 50.0),
    "z_quad_not_positive": (dict(source=1.0, z_quad=lambda t: t - 0.25), 0.0),
    "z_quad_kinked": (dict(source=1.0, z_quad=lambda t: 0.5 + abs(t - 0.5)), 0.0),
    "negative_source": (dict(source=lambda t, x: x, z_quad=1.0), 0.0),
    "modulus_violation": (dict(source=1.0, z_quad=1.0, y_term=lambda t, y: np.exp(-y)), 1e-4),
    "domination_fails": (dict(source=0.0, z_slope=1.0, z_quad=1.0), 0.0),
    "terminal_below_floor": (dict(source=1.0, z_quad=1.0, terminal=lambda x: x), 0.0),
}
_ZERO_Y = "y_term_modulus_bound: PASS y_term is identically zero; left side vanishes"
_NO_SLOPE = "z_slope_bounded: PASS empirical bound 0 on the sampled grid"
GUARD_REPORTS = {
    "all_pass": ("holds", [
        ("z_quad_positive: PASS min sampled value 5.000e-01", 0.5, 1e-12),
        ("source_nonnegative: PASS", None, None),
        ("y_term_modulus_bound: PASS", None, None),
        ("terminal_above_floor: PASS", 0.0, 0.0),
        ("z_slope_bounded: PASS empirical bound 0.999574 on the sampled grid",
         0.9995736030415052, None),
        ("source_dominates_z_slope: PASS", None, None),
    ]),
    "z_quad_not_positive": ("NOT established", [
        ("z_quad_positive: FAIL witness=(0.0,) not positive / not bounded away from zero",
         -0.25, 1e-12),
        ("source_nonnegative: PASS", None, None),
        (_ZERO_Y, None, None),
        ("terminal_above_floor: PASS", 0.0, 0.0),
        (_NO_SLOPE, 0.0, None),
        ("source_dominates_z_slope: FAIL witness=(0.0, -4.0)", -0.5, 0.0),
    ]),
    "z_quad_kinked": ("NOT established", [
        ("z_quad_positive: FAIL witness=(0.5,) one-sided derivatives disagree (C1 probe)",
         2.0000000000575113, 1.0000000005838672e-06),
        ("source_nonnegative: PASS", None, None),
        (_ZERO_Y, None, None),
        ("terminal_above_floor: PASS", 0.0, 0.0),
        (_NO_SLOPE, 0.0, None),
        ("source_dominates_z_slope: PASS", None, None),
    ]),
    "negative_source": ("NOT established", [
        ("z_quad_positive: PASS min sampled value 1.000e+00", 1.0, 1e-12),
        ("source_nonnegative: FAIL witness=(0.0, -4.0)", -4.0, 0.0),
        (_ZERO_Y, None, None),
        ("terminal_above_floor: PASS", 0.0, 0.0),
        (_NO_SLOPE, 0.0, None),
        ("source_dominates_z_slope: FAIL witness=(0.0, -4.0)", -8.0, 0.0),
    ]),
    "modulus_violation": ("NOT established", [
        ("z_quad_positive: PASS min sampled value 1.000e+00", 1.0, 1e-12),
        ("source_nonnegative: PASS", None, None),
        ("y_term_modulus_bound: FAIL witness=(0.0, 0.1, 0.2)"
         " modulus inequality fails at the witness (t, u, v)",
         0.006000000000000002, 1.0000000000000002e-06),
        ("terminal_above_floor: PASS", 0.0, 0.0),
        (_NO_SLOPE, 0.0, None),
        ("source_dominates_z_slope: PASS", None, None),
    ]),
    "domination_fails": ("holds", [
        ("z_quad_positive: PASS min sampled value 1.000e+00", 1.0, 1e-12),
        ("source_nonnegative: PASS", None, None),
        (_ZERO_Y, None, None),
        ("terminal_above_floor: PASS", 0.0, 0.0),
        ("z_slope_bounded: PASS empirical bound 1 on the sampled grid", 1.0, None),
        ("source_dominates_z_slope: FAIL witness=(0.0, -4.0)", -2.0, 0.0),
    ]),
    "terminal_below_floor": ("NOT established", [
        ("z_quad_positive: PASS min sampled value 1.000e+00", 1.0, 1e-12),
        ("source_nonnegative: PASS", None, None),
        (_ZERO_Y, None, None),
        ("terminal_above_floor: FAIL witness=(-4.0,)", -4.0, -1e-09),
        (_NO_SLOPE, 0.0, None),
        ("source_dominates_z_slope: PASS", None, None),
    ]),
    "non_finite_0": ("NOT established", [
        ("z_quad_positive: FAIL witness=(0.53125,) non-finite value", None, None),
        ("source_nonnegative: PASS", None, None),
        ("y_term_modulus_bound: FAIL witness=(0.53125,) non-finite value", None, None),
        ("terminal_above_floor: PASS", 0.0, 0.0),
        (_NO_SLOPE, 0.0, None),
        ("source_dominates_z_slope: FAIL witness=(0.53125,) non-finite value", None, None),
    ]),
    "non_finite_1": ("NOT established", [
        ("z_quad_positive: PASS min sampled value 1.000e+00", 1.0, 1e-12),
        ("source_nonnegative: FAIL witness=(0.0, -4.0) non-finite value", None, None),
        ("y_term_modulus_bound: PASS", None, None),
        ("terminal_above_floor: PASS", 0.0, 0.0),
        (_NO_SLOPE, 0.0, None),
        ("source_dominates_z_slope: FAIL witness=(0.0, -4.0) non-finite value", None, None),
    ]),
    "non_finite_2": ("NOT established", [
        ("z_quad_positive: PASS min sampled value 1.000e+00", 1.0, 1e-12),
        ("source_nonnegative: PASS", None, None),
        ("y_term_modulus_bound: PASS", None, None),
        ("terminal_above_floor: FAIL witness=(-4.0,) non-finite value", None, None),
        (_NO_SLOPE, 0.0, None),
        ("source_dominates_z_slope: PASS", None, None),
    ]),
    "non_finite_3": ("NOT established", [
        ("z_quad_positive: PASS min sampled value 1.000e+00", 1.0, 1e-12),
        ("source_nonnegative: PASS", None, None),
        ("y_term_modulus_bound: PASS", None, None),
        ("terminal_above_floor: PASS", 0.0, 0.0),
        ("z_slope_bounded: FAIL witness=(0.0, 1.0) non-finite value", None, None),
        ("source_dominates_z_slope: FAIL witness=(0.0, 1.0) non-finite value", None, None),
    ]),
    "non_finite_4": ("NOT established", [
        ("z_quad_positive: PASS min sampled value 1.000e+00", 1.0, 1e-12),
        ("source_nonnegative: PASS", None, None),
        ("y_term_modulus_bound: FAIL witness=(0.0, 0.8754687373539001) non-finite value",
         None, None),
        ("terminal_above_floor: PASS", 0.0, 0.0),
        (_NO_SLOPE, 0.0, None),
        ("source_dominates_z_slope: PASS", None, None),
    ]),
    "non_finite_5": ("NOT established", [
        ("z_quad_positive: PASS min sampled value 1.000e+00", 1.0, 1e-12),
        ("source_nonnegative: PASS", None, None),
        ("y_term_modulus_bound: FAIL witness=(0.0,) non-finite value", None, None),
        ("terminal_above_floor: PASS", 0.0, 0.0),
        (_NO_SLOPE, 0.0, None),
        ("source_dominates_z_slope: PASS", None, None),
    ]),
    "non_finite_6": ("NOT established", [
        ("z_quad_positive: PASS min sampled value 1.000e+00", 1.0, 1e-12),
        ("source_nonnegative: PASS", None, None),
        ("y_term_modulus_bound: PASS", None, None),
        ("terminal_above_floor: PASS", 0.0, 0.0),
        ("z_slope_bounded: FAIL witness=(0.0, 1.2000000000000002) non-finite value", None, None),
        ("source_dominates_z_slope: FAIL witness=(0.0, 1.2000000000000002) non-finite value",
         None, None),
    ]),
}


class TestAssumptionChecker:
    def grid(self):
        return fl.SampleGrid.regular(1.0, -4.0, 4.0, n_t=33, n_x=41, n_uv=10)

    def test_tracking_benchmark_satisfies_everything(self, benchmark_cps):
        setup = fl.ProblemSetup.from_control(benchmark_cps, "x")
        report = fl.check_driver_assumptions(
            setup.driver, setup.forward, self.grid(),
            kappa_candidate=fl.identity_modulus, phi_candidate=0.0)
        for name, verdict in report.clauses.items():
            assert verdict.passed, (name, verdict)
        assert report.satisfied

    def test_zero_y_term_passes_modulus_clause(self):
        spec = make_driver(source=1.0, z_quad=1.0)
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        report = fl.check_driver_assumptions(spec, fwd, self.grid(),
                                             kappa_candidate=fl.identity_modulus,
                                             phi_candidate=0.0)
        assert report.clauses["y_term_modulus_bound"].passed

    def test_vanishing_z_quad_fails_with_witness_at_zero(self):
        spec = make_driver(source=1.0, z_quad=lambda t: t)
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        report = fl.check_driver_assumptions(spec, fwd, self.grid(),
                                             kappa_candidate=fl.identity_modulus)
        verdict = report.clauses["z_quad_positive"]
        assert not verdict.passed
        assert verdict.witness == (0.0,)
        assert not report.satisfied

    def test_kinked_z_quad_fails_smoothness_probe(self):
        spec = make_driver(source=1.0, z_quad=lambda t: 0.5 + abs(t - 0.5))
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        report = fl.check_driver_assumptions(spec, fwd, self.grid(),
                                             kappa_candidate=fl.identity_modulus)
        verdict = report.clauses["z_quad_positive"]
        assert not verdict.passed
        assert verdict.witness == (0.5,)

    def test_negative_source_witness_reproduces(self):
        spec = make_driver(source=lambda t, x: x, z_quad=1.0)
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        report = fl.check_driver_assumptions(spec, fwd, self.grid(),
                                             kappa_candidate=fl.identity_modulus)
        verdict = report.clauses["source_nonnegative"]
        assert not verdict.passed
        t, x = verdict.witness
        assert float(spec.source(t, x)) < 0.0

    def test_terminal_below_floor_witnessed(self):
        spec = make_driver(source=1.0, z_quad=1.0, terminal=lambda x: x, floor=0.0)
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        report = fl.check_driver_assumptions(spec, fwd, self.grid(),
                                             kappa_candidate=fl.identity_modulus)
        verdict = report.clauses["terminal_above_floor"]
        assert not verdict.passed
        (x,) = verdict.witness
        assert float(spec.terminal(x)) < 0.0

    @pytest.mark.parametrize("clause, name, coefficient, witness", NON_FINITE_CASES)
    def test_non_finite_coefficient_fails_its_clause(self, clause, name, coefficient, witness):
        spec, phi, report = non_finite_report(name, coefficient)
        verdict = report.clauses[clause]
        assert not verdict.passed
        assert not report.satisfied
        assert verdict.detail == "non-finite value"
        assert verdict.witness == witness
        # re-evaluated at the witness, the coefficient raises there, naming itself
        field = _full_field(phi, "phi") if name == "phi" else getattr(spec, name)
        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError) as err:
            field(*witness)
        assert (err.value.coefficient, err.value.point) == (name, witness)

    def test_modulus_clause_violation_witness_reproduces(self):
        # a steep y-nonlinearity against a tiny phi budget must fail
        spec = make_driver(source=1.0, z_quad=1.0,
                           y_term=lambda t, y: np.exp(-y))
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        report = fl.check_driver_assumptions(spec, fwd, self.grid(),
                                             kappa_candidate=fl.identity_modulus,
                                             phi_candidate=1e-4)
        verdict = report.clauses["y_term_modulus_bound"]
        assert not verdict.passed
        t, u, v = verdict.witness
        H = float(spec.z_quad(t))
        lhs = 2 * abs(u - v) * abs(
            u * float(spec.y_term(t, -math.log(u) / H))
            - v * float(spec.y_term(t, -math.log(v) / H)))
        rhs = 1e-4 * fl.identity_modulus(abs(u - v) ** 2)
        assert lhs > rhs

    def test_exponential_family_passes_with_matched_budget(self):
        # lambda(t, u) = exp(-u) with identity modulus needs phi ~ H e^{...};
        # a generous budget makes the sampled clause pass
        spec = make_driver(source=1.0, z_quad=1.0,
                           y_term=lambda t, y: np.exp(-y))
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        report = fl.check_driver_assumptions(spec, fwd, self.grid(),
                                             kappa_candidate=fl.identity_modulus,
                                             phi_candidate=50.0)
        assert report.clauses["y_term_modulus_bound"].passed

    def test_source_domination_clause(self):
        ok = make_driver(source=lambda t, x: x ** 2 + 1.0,
                         z_slope=lambda t, x: np.sin(x), z_quad=1.0)
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        report = fl.check_driver_assumptions(ok, fwd, self.grid(),
                                             kappa_candidate=fl.identity_modulus)
        assert report.clauses["source_dominates_z_slope"].passed
        bad = make_driver(source=0.0, z_slope=1.0, z_quad=1.0)
        report = fl.check_driver_assumptions(bad, fwd, self.grid(),
                                             kappa_candidate=fl.identity_modulus)
        verdict = report.clauses["source_dominates_z_slope"]
        assert not verdict.passed
        t, x = verdict.witness
        assert 2.0 * float(bad.z_quad(t)) * float(bad.source(t, x)) - 1.0 / 0.5 < 0.0
        # (v) still holds, so the overall hypothesis survives via boundedness
        assert report.clauses["z_slope_bounded"].passed
        assert report.satisfied

    @pytest.mark.parametrize("case", list(GUARD_REPORTS))
    def test_report_matches_recorded(self, case):
        if case.startswith("non_finite_"):
            _, name, coefficient, _ = NON_FINITE_CASES[int(case.rsplit("_", 1)[1])]
            report = non_finite_report(name, coefficient)[2]
        else:
            coefficients, phi = GUARD_CASES[case]
            fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
            report = fl.check_driver_assumptions(make_driver(**coefficients), fwd, self.grid(),
                                                 kappa_candidate=fl.identity_modulus,
                                                 phi_candidate=phi)
        verdict, lines = GUARD_REPORTS[case]
        resolution = {"n_t": 33, "n_x": 41, "n_uv": 12 if case.startswith("non_finite_") else 10}
        assert report.summary() == "\n".join(
            [line for line, _, _ in lines]
            + [f"uniqueness hypothesis: {verdict} (resolution {resolution})"])
        assert [(v.observed, v.threshold) for v in report.clauses.values()] == [
            (observed, threshold) for _, observed, threshold in lines]

    @pytest.mark.parametrize("n_t", [5, 33])
    def test_each_clause_calls_each_coefficient_once(self, n_t):
        # every clause that reads a coefficient evaluates it once over its whole
        # sample grid, however many times it samples; z_quad's C1 probe adds one
        calls = collections.Counter()

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        coefficients, phi = GUARD_CASES["all_pass"]
        spec = make_driver(**{name: counted(name, fn) for name, fn in coefficients.items()})
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        grid = fl.SampleGrid.regular(1.0, -7.0, 9.0, n_t=n_t)
        report = fl.check_driver_assumptions(spec, fwd, grid, kappa_candidate=fl.identity_modulus,
                                             phi_candidate=phi)
        assert report.satisfied and all(v.passed for v in report.clauses.values())
        assert calls == {"z_quad": 4, "source": 2, "z_slope": 2, "y_term": 1, "terminal": 1}

    def test_non_finite_value_after_a_violation_is_the_witness(self):
        # the clause sees every sampled time at once: a source that is negative
        # for t <= 0.5 and NaN after fails at its first NaN, not at (0.0, -7.0)
        spec = make_driver(source=lambda t, x: np.where(t > 0.5, np.nan, -1.0), z_quad=1.0)
        fwd = fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=1.0)
        report = fl.check_driver_assumptions(spec, fwd, fl.SampleGrid.regular(1.0, -7.0, 9.0),
                                             kappa_candidate=fl.identity_modulus)
        verdict = report.clauses["source_nonnegative"]
        assert not verdict.passed and not report.satisfied
        assert (verdict.witness, verdict.detail) == ((0.53125, -7.0), "non-finite value")

    def test_summary_mentions_every_clause(self, benchmark_cps):
        setup = fl.ProblemSetup.from_control(benchmark_cps, "x")
        report = fl.check_driver_assumptions(
            setup.driver, setup.forward, self.grid(),
            kappa_candidate=fl.identity_modulus)
        text = report.summary()
        for key in report.clauses:
            assert key in text


class TestSpecs:
    def test_forward_spec_validation(self):
        with pytest.raises(DomainError):
            fl.ForwardSpec(mu=0.0, sigma=1.0, x0=0.0, horizon=0.0)

    def test_coefficients_return_full_shape_floats(self):
        from fbsdelab.expressions import time_derivative
        x = np.linspace(-1.0, 1.0, 5)
        fwd = fl.ForwardSpec(mu=2.0, sigma=lambda t, x: 1, x0=0.0, horizon=1.0)
        drv = make_driver(z_quad=fl.parse_expression("2"))
        for out in (fwd.mu(0.5, x), fwd.sigma(0.5, x), drv.z_quad(x)):
            assert out.shape == (5,) and out.dtype == float
        assert fwd.mu(np.zeros((3, 1)), x).shape == (3, 5)
        assert np.ndim(fwd.sigma(0.5, 0.0)) == 0
        # the normalised coefficient is still a function of time to difference
        drv = make_driver(z_quad=fl.parse_expression("0.5 + 0.25*t"))
        assert time_derivative(drv.z_quad, 0.3) == pytest.approx(0.25, rel=1e-8)

    # every coefficient a spec names, with the arguments it takes
    NAMED = [
        ("mu", ("t", "x"), lambda c: fl.ForwardSpec(mu=c, sigma=1.0, x0=0.0, horizon=1.0).mu),
        ("sigma", ("t", "x"), lambda c: fl.ForwardSpec(mu=0.0, sigma=c, x0=0.0, horizon=1.0).sigma),
        ("source", ("t", "x"), lambda c: make_driver(source=c).source),
        ("z_quad", ("t",), lambda c: make_driver(z_quad=c).z_quad),
        ("terminal", ("x",), lambda c: make_driver(terminal=c).terminal),
        ("z_slope", ("t", "x"), lambda c: make_driver(z_slope=c).z_slope),
        ("y_term", ("t", "y"), lambda c: make_driver(y_term=c).y_term),
        ("A", ("t",), lambda c: control_spec(A=c).A),
        ("B", ("t",), lambda c: control_spec(B=c).B),
        ("sigma", ("t",), lambda c: control_spec(sigma=c).sigma),
        ("target", ("t",), lambda c: control_spec(target=c).target),
        ("control_weight", ("t",), lambda c: control_spec(control_weight=c).control_weight),
        ("law", ("t", "x"), lambda c: fl.ControlPolicy("p", c).law),
    ]

    @pytest.mark.parametrize("name, arguments, field", NAMED,
                             ids=[f"{n}({','.join(a)})" for n, a, _ in NAMED])
    def test_non_finite_value_names_coefficient_and_first_point(self, name, arguments, field):
        # NaN where the last argument exceeds 0.6: the first bad point is its 0.75
        nan_late = lambda *args: np.where(args[-1] > 0.6, np.nan, 1.0)
        args = (0.25,) * (len(arguments) - 1) + (np.linspace(0.0, 1.0, 5),)
        with pytest.raises(EvaluationError) as err:
            field(nan_late)(*args)
        # control_weight raises in its spec's constructor, at the first of 65 sample times > 0.6
        expected = ((39 / 64,) if name == "control_weight"
                    else (0.25,) * (len(arguments) - 1) + (0.75,))
        assert (err.value.coefficient, err.value.point) == (name, expected)
        assert "produced a non-finite value at" in str(err.value)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            fl.SampleGrid(t=np.array([]), x=np.array([0.0]), uv=np.array([0.5]))

    def test_control_spec_validation(self):
        with pytest.raises(DomainError):
            fl.ControlProblemSpec(A=0.0, B=1.0, sigma=1.0, delta=-0.1, target=0.0,
                                  control_weight=1.0, terminal_weight=0.0,
                                  x0=1.0, horizon=1.0)
        with pytest.raises(DomainError):
            fl.ControlProblemSpec(A=0.0, B=1.0, sigma=1.0, delta=0.0, target=0.0,
                                  control_weight=lambda t: t, terminal_weight=0.0,
                                  x0=1.0, horizon=1.0)

    def test_reduced_driver_of_control_problem(self, benchmark_cps):
        drv = benchmark_cps.driver_spec()
        # H = B^2 / (2 k1 sigma^2) = 0.5 and source = x^2
        assert float(drv.z_quad(0.3)) == pytest.approx(0.5)
        assert float(drv.source(0.0, 2.0)) == pytest.approx(4.0)
        assert float(drv.terminal(3.0)) == 0.0    # terminal_weight = 0
        assert drv.value_floor == 0.0

    def test_sigma_zero_makes_reduced_driver_unavailable(self):
        cps = fl.ControlProblemSpec(A=0.0, B=1.0, sigma=0.0, delta=0.0, target=0.0,
                                    control_weight=1.0, terminal_weight=0.0,
                                    x0=0.0, horizon=1.0)
        # the driver's z_quad reports the non-finite curvature, like any coefficient,
        # under the name of the problem's keys it is built from
        with pytest.raises(EvaluationError) as err:
            cps.driver_spec().z_quad(0.5)
        assert err.value.coefficient == "B^2/(2 control_weight sigma^2)"
        assert err.value.point == (0.5,)
