import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbsdelab.errors import DomainError
from fbsdelab.moduli import (LogPowerModulus, identity_modulus,
                             osgood_divergence_probe, product_inequality_check)

# footnote ceiling of the admissible constant as cutoff -> e^-1, exponent 1
FOOTNOTE_CEILING = 1.0901


class TestLogPowerModulus:
    def test_core_branch_value(self):
        m = LogPowerModulus(cutoff=0.3, exponent=1.0)
        assert m(0.1) == pytest.approx(0.1 * math.log(10.0), rel=1e-15)

    def test_zero_is_continuous_extension(self):
        for cut, r in [(0.3, 1.0), (0.2, 0.5), (0.05, 0.25)]:
            assert LogPowerModulus(cut, r)(0.0) == 0.0

    def test_tail_is_linear_with_positive_slope(self):
        m = LogPowerModulus(cutoff=0.3, exponent=1.0)
        expected_slope = math.log(10.0 / 3.0) - 1.0
        assert m.slope_at_cutoff == pytest.approx(expected_slope, rel=1e-14)
        assert m(0.5) == pytest.approx(m.value_at_cutoff + expected_slope * 0.2, rel=1e-14)
        # two-point slope on the tail is exactly the stored slope
        assert (m(0.9) - m(0.7)) / 0.2 == pytest.approx(expected_slope, rel=1e-12)

    def test_constructor_rejects_degenerate_cutoff(self):
        # at cutoff = e^-exponent the tail slope degenerates to zero
        with pytest.raises(DomainError):
            LogPowerModulus(cutoff=math.exp(-1.0), exponent=1.0)
        with pytest.raises(DomainError):
            LogPowerModulus(cutoff=0.7, exponent=1.0)
        with pytest.raises(DomainError):
            LogPowerModulus(cutoff=0.1, exponent=0.0)
        with pytest.raises(DomainError):
            LogPowerModulus(cutoff=0.1, exponent=1.5)

    def test_negative_argument_rejected(self):
        m = LogPowerModulus(cutoff=0.3)
        with pytest.raises(DomainError):
            m(-1e-9)
        with pytest.raises(DomainError):
            m.derivative(0.0)

    def test_derivative_values(self):
        m = LogPowerModulus(cutoff=0.3, exponent=1.0)
        assert m.derivative(math.exp(-2.0)) == pytest.approx(1.0, rel=1e-14)
        assert m.derivative(0.5) == pytest.approx(math.log(10.0 / 3.0) - 1.0, rel=1e-14)

    def test_derivative_diverges_monotonically_near_zero(self):
        m = LogPowerModulus(cutoff=0.3, exponent=1.0)
        xs = np.logspace(-16, -2, 29)
        d = m.derivative(xs)
        assert np.all(np.isfinite(d))
        assert np.all(np.diff(d) < 0)          # increases as x decreases
        assert d[0] > 30.0

    def test_branch_continuity_and_differentiability(self):
        for cut, r in [(0.3, 1.0), (0.25, 0.6), (0.52, 0.5)]:
            m = LogPowerModulus(cut, r)
            eps = 1e-12
            left, right = m(cut - eps), m(cut + eps)
            assert abs(left - right) < 1e-10
            dleft = (m(cut) - m(cut - 1e-7)) / 1e-7
            dright = (m(cut + 1e-7) - m(cut)) / 1e-7
            assert abs(dleft - dright) < 1e-6
            assert abs(dright - m.slope_at_cutoff) < 1e-6

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-12, 1.0), st.floats(1e-12, 1.0),
           st.floats(0.05, 0.99), st.floats(0.05, 1.0))
    def test_strictly_increasing(self, x, y, cut_frac, r):
        cut = cut_frac * math.exp(-r)
        m = LogPowerModulus(cut, r)
        lo, hi = min(x, y), max(x, y)
        if lo < hi:
            assert m(lo) < m(hi)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-9, 2.0), st.floats(1e-9, 2.0), st.floats(0.0, 1.0),
           st.floats(0.05, 0.99), st.floats(0.05, 1.0))
    def test_concavity(self, x, y, theta, cut_frac, r):
        m = LogPowerModulus(cut_frac * math.exp(-r), r)
        mid = theta * x + (1.0 - theta) * y
        assert m(mid) >= theta * m(x) + (1.0 - theta) * m(y) - 1e-12

class TestProductInequality:
    def test_hand_computed_tail_pair(self):
        # both points on the linear tail: ratio = slope / ln(d^-2)
        m = LogPowerModulus(cutoff=0.3, exponent=1.0)
        rep = product_inequality_check(m, [(0.9, 1.0)])
        expected = (math.log(10.0 / 3.0) - 1.0) / math.log(100.0)
        assert rep.max_ratio == pytest.approx(expected, rel=1e-12)
        assert rep.max_ratio == pytest.approx(0.0443, abs=5e-5)
        assert rep.passed

    def test_nearly_equal_points_stay_bounded(self):
        m = LogPowerModulus(cutoff=0.3, exponent=1.0)
        pairs = [(x, x + 1e-9) for x in np.linspace(1e-6, 1.0 - 1e-9, 200)]
        rep = product_inequality_check(m, pairs)
        assert rep.passed
        assert rep.max_ratio <= m.product_bound()

    def test_grid_scan_respects_admissible_constant(self):
        for cut, r in [(0.999 * math.exp(-1.0), 1.0), (0.3, 1.0), (0.3, 0.5)]:
            m = LogPowerModulus(cut, r)
            g = np.linspace(1e-6, 1.0, 201)
            xs, ys = np.meshgrid(g, g)
            mask = xs != ys
            rep = product_inequality_check(m, np.column_stack([xs[mask], ys[mask]]))
            assert rep.passed, (cut, r, rep.max_ratio, rep.bound)

    def test_footnote_ceiling_near_natural_cutoff(self):
        # the admissible constant decreases to ~1.0901 as the cutoff
        # approaches e^-1; the observed ratio never gets near it
        m = LogPowerModulus(cutoff=0.9999 * math.exp(-1.0), exponent=1.0)
        assert m.product_bound() == pytest.approx(FOOTNOTE_CEILING, abs=3e-4)
        g = np.linspace(1e-7, 1.0, 301)
        xs, ys = np.meshgrid(g, g)
        mask = xs != ys
        rep = product_inequality_check(m, np.column_stack([xs[mask], ys[mask]]))
        assert rep.max_ratio <= FOOTNOTE_CEILING
        assert rep.passed

    def test_violations_carry_reproducing_witnesses(self):
        # the identity modulus attains ratio 1 for every pair, so any
        # stricter bound yields witnesses
        rep = product_inequality_check(identity_modulus, [(0.2, 0.9)], bound=0.5)
        assert not rep.passed
        x, y, ratio = rep.violations[0]
        d = abs(x - y)
        again = d * abs(identity_modulus(x) - identity_modulus(y)) / identity_modulus(d * d)
        assert again == pytest.approx(ratio, rel=1e-15)
        assert again > 0.5

    def test_domain_checks(self):
        m = LogPowerModulus(cutoff=0.3)
        with pytest.raises(DomainError):
            product_inequality_check(m, [])
        with pytest.raises(DomainError):
            product_inequality_check(m, [(0.0, 0.5)])
        with pytest.raises(DomainError):
            product_inequality_check(m, [(0.5, 0.5)])


class TestOsgoodProbe:
    def test_identity_modulus_closed_form(self):
        for lo in (1e-3, 1e-6):
            got = osgood_divergence_probe(identity_modulus, lo, 1.0)
            assert got == pytest.approx(math.log(1.0 / lo), rel=1e-9)

    def test_log_modulus_closed_form(self):
        m = LogPowerModulus(cutoff=0.3, exponent=1.0)
        for a in (5.0, 10.0, 20.0):
            got = osgood_divergence_probe(m, math.exp(-a), 0.3)
            expected = math.log(a) - math.log(math.log(1.0 / 0.3))
            assert got == pytest.approx(expected, rel=1e-6)

    def test_probe_grows_without_bound_for_log_modulus(self):
        # squaring the lower end adds ln 2 to the value: unbounded growth
        m = LogPowerModulus(cutoff=0.3, exponent=1.0)
        lowers = [math.exp(-5.0)]
        vals = [osgood_divergence_probe(m, lowers[0], 0.3)]
        for _ in range(3):
            lowers.append(lowers[-1] ** 2)
            vals.append(osgood_divergence_probe(m, lowers[-1], 0.3))
        diffs = np.diff(vals)
        assert np.all(diffs > 0.5)
        np.testing.assert_allclose(diffs, math.log(2.0), rtol=1e-6)

    def test_square_modulus_negative_control(self):
        # x^2 is not an admissible modulus: the probe blows up like 1/lower
        square = lambda x: np.asarray(x) ** 2
        for lo in (1e-4, 1e-6):
            got = osgood_divergence_probe(square, lo, 1.0)
            assert got == pytest.approx(1.0 / lo - 1.0, rel=1e-6)
        ratio = osgood_divergence_probe(square, 5e-7, 1.0) / osgood_divergence_probe(square, 1e-6, 1.0)
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_domain_errors(self):
        m = LogPowerModulus(cutoff=0.3)
        with pytest.raises(DomainError):
            osgood_divergence_probe(m, 0.5, 0.1)
        with pytest.raises(DomainError):
            osgood_divergence_probe(lambda x: np.asarray(x) - 0.5, 0.1, 1.0)

