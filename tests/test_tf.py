import re

import numpy as np
import pytest

from wavestring import (
    AgentDynamics,
    Polynomial,
    RationalTF,
    check_assumption1,
    low_order_coeffs,
    poly_eval,
    positional_symmetry,
    tf_eval,
    tf_normalize,
)
from wavestring.errors import (
    NumeratorOriginZero,
    NumericalError,
    PoleAtSample,
    ZeroDenominator,
)
from conftest import front_coupling, rear_scaled, rear_velocity_asym


class TestEval:
    def test_front_coupling_at_j(self):
        # (1/3)(4s+4) / (s^2 (s/3+1)) at s=j, checked by hand
        assert tf_eval(front_coupling(), 1j) == pytest.approx(-1.6 - 0.8j)

    def test_double_integrator_at_j(self):
        tf = RationalTF(Polynomial([1]), Polynomial([1]), p=2)
        assert tf_eval(tf, 1j) == pytest.approx(-1.0)

    def test_origin_pole_raises(self):
        tf = RationalTF(Polynomial([1]), Polynomial([1]), p=2)
        with pytest.raises(PoleAtSample):
            tf_eval(tf, 0.0)


class TestNormalize:
    def test_factors_origin_roots(self):
        tf = tf_normalize(Polynomial([4, 4]), Polynomial([0, 0, 1, 1 / 3]))
        assert tf.p == 2
        assert tf.num.coeffs == (4.0, 4.0)
        assert tf.den.coeffs == (1.0, 1 / 3)

    def test_scales_constant_to_one(self):
        tf = tf_normalize(Polynomial([1]), Polynomial([2]))
        assert tf.num.coeffs == (0.5,)
        assert tf.den.coeffs == (1.0,)
        assert tf.p == 0

    def test_common_origin_root_cancels(self):
        tf = tf_normalize(Polynomial([0, 1]), Polynomial([0, 1]))
        assert (tf.num.coeffs, tf.den.coeffs, tf.p) == ((1.0,), (1.0,), 0)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            tf_normalize(Polynomial([1]), Polynomial([0.0, 0.0]))

    def test_numerator_origin_zero(self):
        with pytest.raises(NumeratorOriginZero):
            tf_normalize(Polynomial([0, 0, 1]), Polynomial([0, 1]))

    def test_zero_numerator(self):
        with pytest.raises(NumeratorOriginZero):
            tf_normalize(Polynomial([0.0]), Polynomial([1, 1]))

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.integers(0, 3)
            num = Polynomial(rng.uniform(0.2, 2, size=rng.integers(1, 3)))
            den_core = rng.uniform(0.2, 2, size=rng.integers(1, 4))
            den = Polynomial([0.0] * p + list(den_core))
            once = tf_normalize(num, den)
            twice = tf_normalize(
                Polynomial(once.num.coeffs),
                Polynomial([0.0] * once.p + list(once.den.coeffs)),
            )
            assert twice.p == once.p
            assert twice.num.coeffs == once.num.coeffs
            assert twice.den.coeffs == once.den.coeffs

    def test_matches_raw_ratio_at_random_points(self):
        rng = np.random.default_rng(12)
        num = Polynomial([4, 4])
        den = Polynomial([0, 0, 1, 1 / 3])
        tf = tf_normalize(num, den)
        for _ in range(100):
            s = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            want = poly_eval(num, s) / poly_eval(den, s)
            got = tf_eval(tf, s)
            assert abs(got - want) <= 1e-12 * abs(want)


class TestConstructorInvariants:
    def test_den_constant_must_be_one(self):
        with pytest.raises(ValueError):
            RationalTF(Polynomial([1]), Polynomial([2]), 0)

    def test_num_constant_must_be_nonzero(self):
        with pytest.raises(NumeratorOriginZero):
            RationalTF(Polynomial([0, 1]), Polynomial([1]), 0)

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            RationalTF(Polynomial([1]), Polynomial([1]), -1)


class TestAssumptionReport:
    def test_canonical_pair_passes(self):
        d = AgentDynamics(front_coupling(), rear_velocity_asym())
        report = check_assumption1(d)
        assert report.passed
        assert report.violations == ()

    def test_rhp_zero_flagged(self):
        bad = tf_normalize(Polynomial([-4, 4]), Polynomial([0, 0, 1, 1 / 3]))
        d = AgentDynamics(bad, front_coupling())
        report = check_assumption1(d)
        assert not report.no_crhp_roots
        assert not report.passed
        assert any("zero" in v for v in report.violations)

    def test_integrator_mismatch_flagged(self):
        mf = RationalTF(Polynomial([1]), Polynomial([1, 1]), p=2)
        mr = RationalTF(Polynomial([1]), Polynomial([1, 1]), p=1)
        report = check_assumption1(AgentDynamics(mf, mr))
        assert not report.equal_integrators
        assert not report.passed

    def test_improper_flagged(self):
        mf = RationalTF(Polynomial([1, 0, 0, 1]), Polynomial([1, 1]), p=1)
        report = check_assumption1(AgentDynamics(mf, mf))
        assert not report.both_proper
        assert not report.passed
        assert "Mf or Mr is improper (numerator degree too high)" in report.violations

    def test_negative_kappa_flagged(self):
        # constant numerators have no roots to flag; only their signs differ
        den = Polynomial([0, 0, 1, 1])
        mf = tf_normalize(Polynomial([-1]), den)
        mr = tf_normalize(Polynomial([1]), den)
        report = check_assumption1(AgentDynamics(mf, mr))
        assert report.equal_integrators and report.both_proper
        assert report.no_crhp_roots
        assert not report.passed
        assert report.violations == ("DC gain ratio kappa = -1 is not positive",)


    def test_roots_that_cannot_be_formed_flagged(self):
        mf = tf_normalize(Polynomial([4 / 3, 4 / 3]), Polynomial([1e308, 0, 1, 1 / 3]))
        report = check_assumption1(AgentDynamics(mf, front_coupling()))
        assert not report.no_crhp_roots
        assert not report.passed
        assert any(v.startswith("Mf poles: roots of") and "cannot be formed" in v
                   for v in report.violations)


class TestLowOrderCoeffs:
    def test_gain_asym_kappa(self):
        d = AgentDynamics(front_coupling(), rear_scaled(2.5 / 4))
        c = low_order_coeffs(d)
        assert c.kappa == pytest.approx(1.6, rel=1e-12)
        assert c.l_x1 == pytest.approx(1.2, rel=1e-12)
        assert c.k_y1 == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_pair(self):
        mf = front_coupling()
        c = low_order_coeffs(AgentDynamics(mf, mf))
        assert c.kappa == 1.0
        assert c.k_y1 == 0.0

    def test_velocity_asym_kappa_is_one(self):
        d = AgentDynamics(front_coupling(), rear_velocity_asym())
        c = low_order_coeffs(d)
        assert c.kappa == pytest.approx(1.0, rel=1e-12)
        assert c.k_y1 == pytest.approx(0.375, rel=1e-12)

    def test_kappa_matches_low_frequency_ratio(self):
        for mr in (rear_scaled(2.5 / 4), rear_velocity_asym()):
            d = AgentDynamics(front_coupling(), mr)
            sigma = 1e-8
            ratio = tf_eval(d.Mf, sigma) / tf_eval(d.Mr, sigma)
            assert abs(ratio - low_order_coeffs(d).kappa) <= 1e-6 * abs(ratio)


    @pytest.mark.parametrize("nr0", [1e300, -1e300, 1e-300])
    def test_unrepresentable_square_raises_numerical_error(self, nr0):
        mr = tf_normalize(Polynomial([nr0, 4 / 3]), Polynomial([0, 0, 1, 1 / 3]))
        with pytest.raises(NumericalError, match=re.escape(f"constant {nr0:.6g},")):
            low_order_coeffs(AgentDynamics(front_coupling(), mr))


class TestPositionalSymmetry:
    def test_identical_pair_symmetric(self):
        mf = front_coupling()
        assert positional_symmetry(AgentDynamics(mf, mf))

    def test_scaled_pair_asymmetric(self):
        assert not positional_symmetry(
            AgentDynamics(front_coupling(), rear_scaled(2.5 / 4))
        )

    def test_velocity_asym_is_positionally_symmetric(self):
        assert positional_symmetry(
            AgentDynamics(front_coupling(), rear_velocity_asym())
        )
