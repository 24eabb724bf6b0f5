"""The array core against the scalar hint chain it replaces, bit for bit.

Every field of every sample (s, g_plus, g_minus, alpha, beta, t_g,
branch_flipped) is compared through its uint64 view, so signed zeros and
last-bit differences count. The reference is the scalar chain itself:
waves.wave_chain, walked from the highest frequency down.
"""

import numpy as np
import pytest

from wavestring import AgentDynamics, FrequencyGrid, Polynomial, RationalTF
from wavestring import waves
from wavestring.errors import BranchAmbiguous, ReflectionSingular, SingularSample
from wavestring.tf import tf_eval
from wavestring.waveresponse import InverseLaplaceConfig, _wave_spectra, bromwich_line
from wavestring.waves import (
    TOL_TIE,
    awtf_axis_sweep,
    reflection_from_sample,
    wave_chain,
    wave_sweep,
)
from conftest import front_coupling, random_pi_pair, rear_scaled, rear_velocity_asym

FIELDS = ("s", "g_plus", "g_minus", "alpha", "beta", "t_g")
DEFAULT_OMEGAS = FrequencyGrid().omegas()
# the waves call of the bench's spectral workload: vel-asym, 40 s, 16384 samples
BENCH_LINE = InverseLaplaceConfig(T_final=40.0, samples=16384)


def undamped() -> AgentDynamics:
    m = RationalTF(Polynomial([1.0]), Polynomial([1.0]), p=2)
    return AgentDynamics(m, m)


def canonical(name: str, h: float) -> AgentDynamics:
    rear = {"gain-asym": rear_scaled(2.5 / 4), "vel-asym": rear_velocity_asym(),
            "sym": front_coupling()}[name]
    return AgentDynamics(front_coupling(), rear, h=h)


CANONICAL = [(name, h) for name in ("gain-asym", "vel-asym", "sym") for h in (0.0, 0.5)]


def bench_pairs() -> list:
    """The 12 seed-1 random PI pairs of the bench's spectral workload."""
    rng = np.random.default_rng(1)
    return [random_pi_pair(rng) for _ in range(12)]


def scalar_axis(d, omegas):
    chain = wave_chain(d)
    by_index = {i: chain(1j * omegas[i]) for i in
                sorted(range(len(omegas)), key=lambda i: -abs(omegas[i]))}
    return [by_index[i] for i in range(len(omegas))]


def bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def assert_identical(sweep, reference):
    assert len(sweep) == len(reference)
    for f in FIELDS:
        np.testing.assert_array_equal(
            bits(getattr(sweep, f)), bits([getattr(ws, f) for ws in reference]), f)
    np.testing.assert_array_equal(
        sweep.branch_flipped, [ws.branch_flipped for ws in reference])


def outcome(fn):
    """What fn returns, or the class and message of what it raises."""
    try:
        return "returned", fn()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def g_plus_ties(d, sweep) -> int:
    """Samples whose two g_plus roots tie in modulus within TOL_TIE."""
    count = 0
    for ws in sweep:
        mf, mr = tf_eval(d.Mf, ws.s), tf_eval(d.Mr, ws.s)
        lo, hi = waves._root_candidates(ws.beta, 0.5 * np.sqrt(ws.t_g) / mr, mf / mr)
        count += abs(abs(lo) - abs(hi)) < TOL_TIE * max(abs(lo), abs(hi))
    return count


class TestAxisOracle:
    @pytest.mark.parametrize("name,h", CANONICAL)
    def test_canonical_dynamics(self, name, h):
        d = canonical(name, h)
        assert_identical(awtf_axis_sweep(d, DEFAULT_OMEGAS), scalar_axis(d, DEFAULT_OMEGAS))

    @pytest.mark.parametrize("name", ["vel-asym", "sym"])
    def test_tie_walk_is_exercised(self, name):
        d = canonical(name, 0.0)
        assert g_plus_ties(d, awtf_axis_sweep(d, DEFAULT_OMEGAS)) > 300

    @pytest.mark.parametrize("k", range(12))
    def test_bench_random_pairs(self, k):
        d = bench_pairs()[k]
        assert_identical(awtf_axis_sweep(d, DEFAULT_OMEGAS), scalar_axis(d, DEFAULT_OMEGAS))

    def test_undamped_pair(self):
        # t_g = 1 - 4/w**2 is real: the sign of its zero imaginary part picks
        # np.sqrt's branch below w = 2
        d = undamped()
        assert_identical(awtf_axis_sweep(d, DEFAULT_OMEGAS), scalar_axis(d, DEFAULT_OMEGAS))

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("name", ["vel-asym", "undamped"])
    def test_block_boundaries_inside_the_tie_window(self, monkeypatch, block, name):
        # Small blocks put block starts on tie samples, whose hint is the
        # previous block's last entry. vel-asym ties without flips; the
        # undamped pair's hint overrides the smaller modulus 218 times.
        monkeypatch.setattr(waves, "BLOCK", block)
        d = undamped() if name == "undamped" else canonical(name, 0.0)
        sweep = awtf_axis_sweep(d, DEFAULT_OMEGAS)
        assert sweep.branch_flipped.sum() == (218 if name == "undamped" else 0)
        assert_identical(sweep, scalar_axis(d, DEFAULT_OMEGAS))

    def test_unsorted_and_negative_frequencies(self):
        d = canonical("gain-asym", 0.5)
        omegas = np.random.default_rng(5).permutation(
            np.concatenate([DEFAULT_OMEGAS[::7], -DEFAULT_OMEGAS[::11]]))
        assert_identical(awtf_axis_sweep(d, omegas), scalar_axis(d, omegas))


class TestBromwichOracle:
    @pytest.mark.parametrize("name,h", CANONICAL)
    def test_bench_line(self, name, h):
        d = canonical(name, h)
        line = bromwich_line(BENCH_LINE)[::-1]
        chain = wave_chain(d)
        assert_identical(wave_sweep(d, line), [chain(s) for s in line])

    @pytest.mark.parametrize("N,n", [(20, 10), (12, 12), (12, 1)])
    def test_spectra_equal_the_per_sample_form(self, vel_asym_dyn, N, n):
        cfg = InverseLaplaceConfig(T_final=30.0, samples=4096)
        a, b = _wave_spectra(vel_asym_dyn, N, n, cfg, 1.5)
        want_a, want_b = scalar_spectra(vel_asym_dyn, N, n, cfg, 1.5)
        np.testing.assert_array_equal(bits(a), bits(want_a))
        np.testing.assert_array_equal(bits(b), bits(want_b))


def scalar_spectra(d, N, n, cfg, step_amplitude):
    """_wave_spectra as one scalar hint chain per sample, descending."""
    chain = wave_chain(d)
    line = bromwich_line(cfg)
    rows = []
    for s in line[::-1]:
        ws = chain(s)
        refl = reflection_from_sample(ws)
        gp, gm = ws.g_plus, ws.g_minus
        loop = refl.t1 * refl.tN * (gp * gm) ** (N - 1)
        x0 = step_amplitude / s
        rows.append((gp**n * x0 / (1.0 - loop),
                     gm ** (N - n) * refl.tN * gp**N * x0 / (1.0 - loop)))
    a, b = np.array(rows, dtype=complex)[::-1].T
    return a, b


class TestErrorParity:
    def test_branch_ambiguous(self):
        d, omegas = undamped(), np.geomspace(1e-6, 1.0, 600)
        got = outcome(lambda: awtf_axis_sweep(d, omegas))
        assert got[0] is BranchAmbiguous
        assert got == outcome(lambda: scalar_axis(d, omegas))

    def test_singular_sample_on_a_pole(self, sym_dyn):
        omegas = np.concatenate([np.geomspace(1e-2, 1e2, 50), [0.0]])
        got = outcome(lambda: awtf_axis_sweep(sym_dyn, omegas))
        assert got[0] is SingularSample
        assert got == outcome(lambda: scalar_axis(sym_dyn, omegas))

    def test_singular_sample_on_a_zero(self):
        # Mf = (1 + s^2)/(s^2 (1 + s + s^2)) vanishes at s = 1j, a grid point
        mf = RationalTF(Polynomial([1.0, 0.0, 1.0]), Polynomial([1.0, 1.0, 1.0]), p=2)
        d = AgentDynamics(mf, front_coupling())
        omegas = np.geomspace(1e-2, 1e2, 51)
        assert omegas[25] == 1.0
        got = outcome(lambda: awtf_axis_sweep(d, omegas))
        assert got == (SingularSample, "Mf or Mr vanishes at s=1j")
        assert got == outcome(lambda: scalar_axis(d, omegas))

    def test_reflection_singular_on_the_line(self, vel_asym_dyn):
        # sigma = 1e-8 puts the last line sample where g_minus is within
        # TOL_SING of 1 but not equal to it
        cfg = InverseLaplaceConfig(T_final=10.0, samples=1024, sigma=1e-8)
        gap = abs(waves.awtf_eval(vel_asym_dyn, 1e-8).g_minus - 1.0)
        assert 0.0 < gap < waves.TOL_SING
        got = outcome(lambda: _wave_spectra(vel_asym_dyn, 10, 5, cfg, 1.0))
        assert got[0] is ReflectionSingular
        assert got == outcome(lambda: scalar_spectra(vel_asym_dyn, 10, 5, cfg, 1.0))


class TestNoFloatingPointNoise:
    """The core evaluates discarded branches; none of that may raise or warn.
    pytest turns every warning into an error, so the default state is
    checked too."""

    CASES = [canonical(name, h) for name, h in CANONICAL] + bench_pairs() + [undamped()]

    @pytest.mark.parametrize("state", ["raise", "default"])
    def test_axis_and_line(self, state):
        line = bromwich_line(BENCH_LINE)
        errstate = {"all": "raise"} if state == "raise" else {}
        for d in self.CASES:
            for s in (1j * DEFAULT_OMEGAS[::-1], line[::-1], line[:1]):
                chain = wave_chain(d)
                with np.errstate(**errstate):
                    want = outcome(lambda: [chain(x) for x in s])
                    got = outcome(lambda: wave_sweep(d, s))
                assert got[0] == want[0]
                if got[0] == "returned":
                    assert_identical(got[1], want[1])

    def test_real_sample_at_the_start_of_the_line(self, vel_asym_dyn):
        s = bromwich_line(BENCH_LINE)[:1]
        assert s[0].imag == 0.0
        with np.errstate(all="raise"):
            assert_identical(wave_sweep(vel_asym_dyn, s), [waves.awtf_eval(vel_asym_dyn, s[0])])
