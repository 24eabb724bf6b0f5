import numpy as np
import pytest

from wavestring import (
    AgentDynamics,
    Polynomial,
    RationalTF,
    awtf_axis_sweep,
    awtf_dc,
    awtf_eval,
    low_order_coeffs,
    quadratic_residuals,
    reflection_from_sample,
    t_g_eval,
    tf_eval,
)
from wavestring.errors import NoIntegrator, ReflectionSingular, SingularSample
from wavestring.waves import wave_sweep
from conftest import front_coupling, rear_scaled, undamped


def all_three(sym, asym, velasym):
    return [("sym", sym), ("asym", asym), ("velasym", velasym)]


class TestAlphaBeta:
    def test_symmetric_equal(self, sym_dyn):
        s = 0.3 + 0.7j
        w = awtf_eval(sym_dyn, s)
        a, b = w.alpha, w.beta
        m = tf_eval(sym_dyn.Mf, s)
        want = (1 + 2 * m) / m
        assert a == pytest.approx(want)
        assert b == pytest.approx(want)

    def test_beta_limit_at_dc(self, gain_asym_dyn):
        # with integrators, beta -> 1 + kappa as s -> 0
        b = awtf_eval(gain_asym_dyn, 1e-7).beta
        kappa = low_order_coeffs(gain_asym_dyn).kappa
        assert b == pytest.approx(1 + kappa, abs=1e-5)

    def test_headway_zero_matches_plain_form(self, gain_asym_dyn):
        s = 0.2 + 1.1j
        w = awtf_eval(gain_asym_dyn, s)
        a, b = w.alpha, w.beta
        mf = tf_eval(gain_asym_dyn.Mf, s)
        mr = tf_eval(gain_asym_dyn.Mr, s)
        assert a == pytest.approx((1 + mf + mr) / mf, rel=1e-14)
        assert b == pytest.approx((1 + mf + mr) / mr, rel=1e-14)

    def test_origin_is_singular(self, sym_dyn):
        with pytest.raises(SingularSample):
            awtf_eval(sym_dyn, 0.0)

    def test_numerator_zero_is_singular(self, sym_dyn):
        with pytest.raises(SingularSample):
            awtf_eval(sym_dyn, -1.0)  # zero of 4+4s


class TestTg:
    def test_tends_to_one_at_infinity(self, gain_asym_dyn):
        assert t_g_eval(gain_asym_dyn, 1e6j) == pytest.approx(1.0, abs=1e-5)

    def test_symmetric_form(self, sym_dyn):
        s = 0.4 + 0.2j
        m = tf_eval(sym_dyn.Mf, s)
        assert t_g_eval(sym_dyn, s) == pytest.approx(4 * m + 1)

    def test_diverges_toward_origin(self, sym_dyn):
        mags = [abs(t_g_eval(sym_dyn, 1j * w)) for w in (1e-2, 1e-4, 1e-6)]
        assert mags[0] < mags[1] < mags[2]


class TestBranchSelection:
    def test_smaller_modulus_default(self, gain_asym_dyn):
        # the g_plus roots sum to beta: the other one is larger in modulus
        ws = awtf_eval(gain_asym_dyn, 0.5j)
        assert abs(ws.g_plus) < abs(ws.beta - ws.g_plus)

    def test_material_tie_takes_the_smaller_modulus(self, sym_dyn):
        ws = awtf_eval(sym_dyn, 1e-4j)
        assert abs(ws.g_plus) <= 1.0 + 1e-9

    def test_coincident_roots_need_no_hint(self, sym_dyn):
        # at 1e-8(1+j) the two roots agree to ~1e-8
        ws = awtf_eval(sym_dyn, 1e-8 * (1 + 1j))
        assert ws.g_plus == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("sigma", [1e-8, 1e-9])
    def test_undamped_pair_decays_just_off_the_axis(self, sigma):
        # M = 1/s**2: on the axis below omega = 2 both roots have modulus 1;
        # just right of it the proper (decaying) one has modulus below 1.
        # The samples follow 10j in one sweep: no sample may steer the next.
        d = undamped()
        s = np.concatenate([[10j], sigma + 1j * np.geomspace(1.99, 0.01, 400)])
        sweep = wave_sweep(d, s)
        assert (np.abs(sweep.g_plus[1:]) < 1.0).all()
        assert (np.abs(sweep.g_minus[1:]) < 1.0).all()

    def test_a_sample_does_not_depend_on_the_one_before(self):
        # on the undamped pair's band both roots have modulus 1 and differ
        # in value; whatever precedes 1j in a sweep, its entry is awtf_eval's
        d = undamped()
        alone = awtf_eval(d, 1j)
        for before in (10j, 1.5j, 0.5j, -1j, 1e-3 + 1j):
            assert wave_sweep(d, np.array([before, 1j]))[1] == alone, before


class TestAwtfLimits:
    def test_symmetric_dc(self, sym_dyn):
        ws = awtf_eval(sym_dyn, 1e-8 * (1 + 1j))
        assert ws.g_plus == pytest.approx(1.0, abs=1e-3)
        assert ws.g_minus == pytest.approx(1.0, abs=1e-3)

    def test_gain_asym_dc(self, gain_asym_dyn):
        ws = awtf_eval(gain_asym_dyn, 1e-8 * (1 + 1j))
        assert ws.g_plus == pytest.approx(1.0, abs=1e-3)
        assert ws.g_minus == pytest.approx(0.625, abs=1e-3)

    def test_vanish_at_infinity(self, gain_asym_dyn):
        ws = awtf_eval(gain_asym_dyn, 1e6j)
        assert abs(ws.g_plus) < 1e-5
        assert abs(ws.g_minus) < 1e-5

    def test_dc_consistency_all(self, sym_dyn, gain_asym_dyn, vel_asym_dyn):
        for name, d in all_three(sym_dyn, gain_asym_dyn, vel_asym_dyn):
            ws = awtf_eval(d, 1e-8 * (1 + 1j))
            gp, gm = awtf_dc(d)
            assert abs(ws.g_plus - gp) <= 1e-3, name
            assert abs(ws.g_minus - gm) <= 1e-3, name


class TestDcGains:
    def test_symmetric(self, sym_dyn):
        assert awtf_dc(sym_dyn) == (1.0, 1.0)

    def test_kappa_above_one(self, gain_asym_dyn):
        gp, gm = awtf_dc(gain_asym_dyn)
        assert gp == 1.0
        assert gm == pytest.approx(0.625, rel=1e-12)

    def test_kappa_below_one(self):
        d = AgentDynamics(rear_scaled(0.5), front_coupling())
        gp, gm = awtf_dc(d)
        assert gp == pytest.approx(0.5, rel=1e-12)
        assert gm == 1.0

    def test_no_integrator_raises(self):
        tf = RationalTF(Polynomial([1]), Polynomial([1, 1]), p=0)
        with pytest.raises(NoIntegrator):
            awtf_dc(AgentDynamics(tf, tf))


class TestQuadraticInvariants:
    def test_residuals_on_grid(self, sym_dyn, gain_asym_dyn, vel_asym_dyn):
        omegas = np.geomspace(1e-4, 1e3, 200)
        for name, d in all_three(sym_dyn, gain_asym_dyn, vel_asym_dyn):
            for ws in awtf_axis_sweep(d, omegas):
                r_plus, r_minus = quadratic_residuals(ws, d)
                budget = 1e-9 * max(1.0, abs(ws.beta) ** 2)
                assert r_plus <= budget, (name, ws.s)
                assert r_minus <= max(budget, 1e-9 * abs(ws.alpha) ** 2), name

    def test_root_product(self, gain_asym_dyn, vel_asym_dyn):
        omegas = np.geomspace(1e-3, 1e2, 60)
        for d in (gain_asym_dyn, vel_asym_dyn):
            for ws in awtf_axis_sweep(d, omegas):
                mf = tf_eval(d.Mf, ws.s)
                mr = tf_eval(d.Mr, ws.s)
                other = ws.beta - ws.g_plus
                assert ws.g_plus * other == pytest.approx(mf / mr, rel=1e-9)

    def test_conjugate_symmetry(self, gain_asym_dyn):
        rng = np.random.default_rng(3)
        for _ in range(40):
            s = complex(rng.uniform(0.05, 2), rng.uniform(0.05, 3))
            ws = awtf_eval(gain_asym_dyn, s)
            ws_conj = awtf_eval(gain_asym_dyn, s.conjugate())
            assert ws_conj.g_plus == pytest.approx(ws.g_plus.conjugate(), rel=1e-10)
            assert ws_conj.g_minus == pytest.approx(ws.g_minus.conjugate(), rel=1e-10)

    def test_headway_zero_identical_to_plain(self, gain_asym_dyn):
        d0 = AgentDynamics(gain_asym_dyn.Mf, gain_asym_dyn.Mr, h=0.0)
        for w in np.geomspace(1e-3, 1e2, 30):
            a = awtf_eval(gain_asym_dyn, 1j * w)
            b = awtf_eval(d0, 1j * w)
            assert abs(a.g_plus - b.g_plus) <= 1e-12
            assert abs(a.g_minus - b.g_minus) <= 1e-12

    def test_headway_residuals(self, gain_asym_dyn):
        d = AgentDynamics(gain_asym_dyn.Mf, gain_asym_dyn.Mr, h=0.7)
        omegas = np.geomspace(1e-3, 1e2, 100)
        for ws in awtf_axis_sweep(d, omegas):
            r_plus, r_minus = quadratic_residuals(ws, d)
            assert r_plus <= 1e-9 * max(1.0, abs(ws.beta) ** 2)


class TestReflections:
    def test_symmetric_shortcut(self, sym_dyn):
        s = 0.5j
        ws = awtf_eval(sym_dyn, s)
        refl = reflection_from_sample(awtf_eval(sym_dyn, s))
        assert refl.t1 == pytest.approx(-ws.g_plus**2, rel=1e-10)
        assert refl.tN == pytest.approx(ws.g_plus, rel=1e-10)

    def test_identities(self, gain_asym_dyn):
        s = 0.1j
        ws = awtf_eval(gain_asym_dyn, s)
        refl = reflection_from_sample(ws)
        assert abs(refl.t1 + ws.g_plus * ws.g_minus) <= 1e-9
        assert abs(refl.tN * (ws.g_minus - 1) - ws.g_minus * (ws.g_plus - 1)) <= 1e-9

    def test_singular_near_dc(self, sym_dyn):
        with pytest.raises(ReflectionSingular):
            reflection_from_sample(awtf_eval(sym_dyn, 1e-9j))
