import numpy as np
import pytest

from wavestring import (
    AgentDynamics,
    InverseLaplaceConfig,
    SimConfig,
    Topology,
    awtf_eval,
    build_network,
    default_dt,
    early_time_check,
    inverse_laplace,
    reflection_from_sample,
    simulate,
    wave_components,
)
from wavestring.errors import NonDecaying
from wavestring.waveresponse import _wave_spectra, bromwich_line


class TestConfig:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            InverseLaplaceConfig(T_final=10.0, samples=3000)
        with pytest.raises(ValueError):
            InverseLaplaceConfig(T_final=10.0, samples=512)

    def test_default_abscissa(self):
        cfg = InverseLaplaceConfig(T_final=40.0)
        assert cfg.abscissa == pytest.approx(0.05)
        assert InverseLaplaceConfig(T_final=10.0, sigma=0.4).abscissa == 0.4

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            InverseLaplaceConfig(T_final=1.0, window=1.0)

    @pytest.mark.parametrize("field", ["T_final", "sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"T_final": 10.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            InverseLaplaceConfig(**kwargs)


def on_line(F, cfg):
    """F sampled on bromwich_line(cfg), the spectrum inverse_laplace takes."""
    return F(bromwich_line(cfg))


class TestKnownPairs:
    def test_unit_step(self):
        cfg = InverseLaplaceConfig(T_final=10.0)
        t, f = inverse_laplace(on_line(lambda s: 1.0 / s, cfg), cfg)
        plateau = (t >= 1.0) & (t <= 9.0)
        assert np.max(np.abs(f[plateau] - 1.0)) <= 1e-3
        assert t[0] == 0.0 and t[-1] <= 10.0

    def test_decaying_exponential(self):
        cfg = InverseLaplaceConfig(T_final=10.0)
        t, f = inverse_laplace(on_line(lambda s: 1.0 / (s + 1.0), cfg), cfg)
        plateau = (t >= 1.0) & (t <= 9.0)
        assert np.max(np.abs(f[plateau] - np.exp(-t[plateau]))) <= 1e-3

    def test_non_decaying_guard(self):
        cfg = InverseLaplaceConfig(T_final=10.0)
        with pytest.raises(NonDecaying):
            inverse_laplace(on_line(lambda s: s / (s + 1.0), cfg), cfg)

    def test_grid_doubling_stability(self):
        base = InverseLaplaceConfig(T_final=10.0, samples=4096)
        fine = InverseLaplaceConfig(T_final=10.0, samples=8192)
        t1, f1 = inverse_laplace(on_line(lambda s: 1.0 / (s + 1.0) / s, base), base)
        t2, f2 = inverse_laplace(on_line(lambda s: 1.0 / (s + 1.0) / s, fine), fine)
        on_coarse = np.interp(t1, t2, f2)
        rms = np.sqrt(np.mean((f1 - on_coarse) ** 2))
        assert rms <= 1e-4

    def test_zero_spectrum_inverts_to_zeros(self):
        # same time grid as a nonzero spectrum, and no NonDecaying from a
        # tail that is as large as the (zero) peak
        cfg = InverseLaplaceConfig(T_final=10.0, samples=1024)
        t, f = inverse_laplace(np.zeros(len(bromwich_line(cfg)), dtype=complex), cfg)
        t_ref, _ = inverse_laplace(on_line(lambda s: 1.0 / (s + 1.0) ** 2, cfg), cfg)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(f, np.zeros(len(t_ref)))


class TestWaveComponents:
    def test_forward_wave_matches_first_agent(self, sym_dyn):
        # x_1 ~ g_plus * step before any reflection returns
        cfg = InverseLaplaceConfig(T_final=15.0)
        wc = wave_components(sym_dyn, N=20, n=1, cfg=cfg)
        net = build_network(Topology.path(20), sym_dyn)
        traj = simulate(net, SimConfig(dt=default_dt(sym_dyn), T_final=15.0))
        sim1 = np.interp(wc.times, traj.times, traj.agent(1))
        assert np.max(np.abs(sim1 - wc.a)) <= 1e-2

    def test_decomposition_agreement(self, vel_asym_dyn):
        cfg = InverseLaplaceConfig(T_final=40.0)
        wc = wave_components(vel_asym_dyn, N=20, n=10, cfg=cfg)
        net = build_network(Topology.path(20), vel_asym_dyn)
        traj = simulate(net, SimConfig(dt=default_dt(vel_asym_dyn), T_final=40.0))
        sim10 = np.interp(wc.times, traj.times, traj.agent(10))
        assert np.max(np.abs(sim10 - wc.x)) <= 2e-2
        assert np.array_equal(wc.x, wc.a + wc.b)

    def test_backward_wave_quiet_before_return(self, vel_asym_dyn):
        cfg = InverseLaplaceConfig(T_final=40.0)
        wc = wave_components(vel_asym_dyn, N=20, n=10, cfg=cfg)
        early = wc.times < 15.0
        assert np.max(np.abs(wc.b[early])) <= 1e-2
        # ... and the reflection does arrive later
        assert np.max(np.abs(wc.b)) > 0.05

    def test_superposition_against_closed_form(self, vel_asym_dyn):
        # a_n + b_n inverted separately must equal the inverse of the
        # closed-form position spectrum built from the same samples
        cfg = InverseLaplaceConfig(T_final=30.0)
        N = n = 12
        a_spectrum, b_spectrum = _wave_spectra(vel_asym_dyn, N, n, cfg, 1.0)
        _, x_closed = inverse_laplace(a_spectrum + b_spectrum, cfg)
        wc = wave_components(vel_asym_dyn, N=N, n=n, cfg=cfg)
        assert np.max(np.abs(wc.x - x_closed)) <= 1e-6

    def test_agent_index_validated(self, sym_dyn):
        with pytest.raises(ValueError):
            wave_components(sym_dyn, N=10, n=11,
                            cfg=InverseLaplaceConfig(T_final=5.0))

    def test_zero_step_is_silent(self, sym_dyn):
        cfg = InverseLaplaceConfig(T_final=10.0, samples=1024)
        wc = wave_components(sym_dyn, N=10, n=4, cfg=cfg, step_amplitude=0.0)
        t_ref, _ = inverse_laplace(on_line(lambda s: 1.0 / (s + 1.0) ** 2, cfg), cfg)
        assert np.array_equal(wc.times, t_ref)
        for trace in (wc.a, wc.b, wc.x):
            assert np.array_equal(trace, np.zeros(len(t_ref)))

    def test_rear_end_backward_wave_is_reflected_forward_wave(self, sym_dyn):
        # at the last agent the backward spectrum is exactly tN times the
        # forward spectrum, sample for sample
        cfg = InverseLaplaceConfig(T_final=20.0, samples=1024)
        N = 10
        s_line = bromwich_line(cfg)
        a_spectrum, b_spectrum = _wave_spectra(sym_dyn, N, N, cfg, 1.0)
        for i in range(0, len(s_line), 64):
            refl = reflection_from_sample(awtf_eval(sym_dyn, s_line[i]))
            assert b_spectrum[i] == pytest.approx(refl.tN * a_spectrum[i], rel=1e-9)

    def test_front_speed_causality_note(self, sym_dyn):
        # sanity bound, logged rather than asserted: the forward wave should
        # stay tiny until roughly n / front_speed
        cfg = InverseLaplaceConfig(T_final=30.0)
        wc8 = wave_components(sym_dyn, N=20, n=8, cfg=cfg)
        arrival = wc8.times[np.argmax(np.abs(wc8.a) > 0.1)]
        speed = 8 / arrival if arrival > 0 else np.inf
        quiet = wc8.times < 0.5 * 8 / speed
        worst = float(np.max(np.abs(wc8.a[quiet]))) if quiet.any() else 0.0
        if worst > 1e-3:
            print(f"note: causality proxy violated, |a|={worst:.2e} "
                  f"before t={0.5 * 8 / speed:.2f}")


class TestEarlyTime:
    def test_leader_is_exact(self, sym_dyn):
        assert early_time_check(sym_dyn, 0, 10.0) == 0.0

    def test_small_deviation_before_round_trip(self, sym_dyn):
        assert early_time_check(sym_dyn, 2, 10.0) <= 1e-2

    def test_deviation_grows_after_reflection(self, sym_dyn):
        # round trip back to agent 2 on a 15-agent path is ~28 s
        dev = early_time_check(sym_dyn, 2, 60.0, N=15)
        assert dev > 1e-2

    def test_index_validated(self, sym_dyn):
        with pytest.raises(ValueError):
            early_time_check(sym_dyn, 30, 5.0, N=10)
