"""The array core against the scalar hint chain it replaces, bit for bit.

Every field of every sample (s, g_plus, g_minus, alpha, beta,
branch_flipped) is compared through its uint64 view, so signed zeros and
last-bit differences count. The reference is the scalar chain itself:
waves.wave_chain, walked from the highest frequency down.
"""

import numpy as np
import pytest

from wavestring import AgentDynamics, FrequencyGrid, Polynomial, RationalTF
from wavestring import stability, waveresponse, waves
from wavestring.errors import (BranchAmbiguous, NumericalError, ReflectionSingular,
                               SingularSample)
from wavestring.pycomplex import MAX_POWI
from wavestring.stability import NormEstimate, awtf_norm_estimates, hinf_estimate
from wavestring.tf import tf_eval
from wavestring.waveresponse import (InverseLaplaceConfig, _wave_spectra, bromwich_line,
                                     early_time_check)
from wavestring.waves import (
    TOL_TIE,
    awtf_axis_sweep,
    coupling_chain,
    reflection_from_sample,
    wave_chain,
    wave_sweep,
)
from conftest import (CANONICAL, bench_pairs, canonical, front_coupling, record_calls,
                      undamped)

FIELDS = ("s", "g_plus", "g_minus", "alpha", "beta")
DEFAULT_OMEGAS = FrequencyGrid().omegas()
# the waves call of the bench's spectral workload: vel-asym, 40 s, 16384 samples
BENCH_LINE = InverseLaplaceConfig(T_final=40.0, samples=16384)
# the same top frequency (161 rad/s) with a quarter of the samples
SPECTRA_LINE = InverseLaplaceConfig(T_final=10.0, samples=4096)
SPECTRA_CASES = {**{f"{name}-{h}": canonical(name, h) for name, h in CANONICAL},
                 **{f"pair-{k}": d for k, d in enumerate(bench_pairs())}}
ONE_INTEGRATOR = RationalTF(Polynomial([1.0, 0.5]), Polynomial([1.0, 1 / 3]), p=1)
NO_INTEGRATOR = RationalTF(Polynomial([2.0]), Polynomial([1.0, 0.8, 0.2]), p=0)
# front and rear rows of unequal shape: (Mf, Mr) of each case
ROW_CASES = {
    # Mf's numerator and Mr's denominator are the shorter of their pair, so
    # the core pads each with leading zeros
    "unequal-lengths": (RationalTF(Polynomial([2.0]), Polynomial([1.0, 0.8, 0.2]), p=2),
                        RationalTF(Polynomial([1.5, 1.2]), Polynomial([1.0]), p=2)),
    # integrator counts differ (assumption 1 fails), so each row has its own
    # power of s
    "front-p2-rear-p1": (front_coupling(), ONE_INTEGRATOR),
    "front-p1-rear-p2": (ONE_INTEGRATOR, front_coupling()),
    # no integrators: s**0 is a 0-d array on one row or on both
    "front-p0-rear-p1": (NO_INTEGRATOR, ONE_INTEGRATOR),
    "front-p0-rear-p0": (NO_INTEGRATOR,
                         RationalTF(Polynomial([1.5]), Polynomial([1.0, 1.0]), p=0)),
}


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
        lo, hi = waves._root_candidates(ws.beta, 0.5 * np.sqrt(waves.t_g_eval(d, ws.s)) / mr,
                                        mf / mr)
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


class TestOneBlockPerGrid:
    """A default FrequencyGrid is one core block: one _array_block call and
    no scalar awtf_eval on the canonical dynamics and the bench pairs."""

    @pytest.mark.parametrize("case", SPECTRA_CASES)
    def test_default_grid(self, monkeypatch, case):
        blocks = record_calls(monkeypatch, waves, "_array_block")
        scalar = record_calls(monkeypatch, waves, "awtf_eval")
        awtf_axis_sweep(SPECTRA_CASES[case], DEFAULT_OMEGAS)
        assert [len(args[1]) for args in blocks] == [len(DEFAULT_OMEGAS)]
        assert scalar == []


def row_case(case: str, h: float) -> AgentDynamics:
    return AgentDynamics(*ROW_CASES[case], h=h)


class TestRowsOfUnequalShape:
    """Front and rear rows whose polynomials differ in length or whose
    integrator counts differ, settled by the core alone, bit for bit."""

    @pytest.mark.parametrize("h", [0.0, 0.5])
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_axis(self, monkeypatch, case, h):
        d = row_case(case, h)
        scalar = record_calls(monkeypatch, waves, "awtf_eval")
        sweep = awtf_axis_sweep(d, DEFAULT_OMEGAS)
        assert scalar == []
        assert_identical(sweep, scalar_axis(d, DEFAULT_OMEGAS))

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_unsorted_and_negative_frequencies(self, case):
        d = row_case(case, 0.5)
        omegas = np.random.default_rng(7).permutation(
            np.concatenate([DEFAULT_OMEGAS[::5], -DEFAULT_OMEGAS[::9]]))
        assert_identical(awtf_axis_sweep(d, omegas), scalar_axis(d, omegas))

    @pytest.mark.parametrize("N,n", [(20, 10), (20, 20), (1, 1)])
    @pytest.mark.parametrize("h", [0.0, 0.5])
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_spectra(self, case, h, N, n):
        d = row_case(case, h)
        assert assert_same_spectra(d, N, n, SPECTRA_LINE, 1.0) == "returned"

    @pytest.mark.parametrize("value", [complex("inf"), complex(0.0, float("inf")),
                                       complex("nan"), complex(1.0, float("nan"))])
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_non_finite_s_is_handed_over(self, monkeypatch, case, value):
        # the core settles the entries before it; the scalar awtf_eval meets
        # the non-finite one and raises what the scalar chain raises (an
        # overflowing power of s or a non-finite Mf or Mr)
        d = row_case(case, 0.5)
        s = 1j * DEFAULT_OMEGAS[::-1]
        s[700] = value
        chain = wave_chain(d)
        want = outcome(lambda: [chain(x) for x in s])
        settled, scalar = [], record_calls(monkeypatch, waves, "awtf_eval")
        got = outcome(lambda: settled.extend(waves.wave_blocks(d, s)))
        assert got[0] in (NumericalError, SingularSample) and got == want
        np.testing.assert_array_equal(bits([args[1] for args in scalar]), bits(s[700:701]))
        chain = wave_chain(d)
        assert_identical(waves.WaveSweep(*(np.concatenate([getattr(b, f) for b in settled])
                                           for f in waves._FIELDS)),
                         [chain(x) for x in s[:700]])

    def test_integrators_beyond_max_powi_take_the_scalar_route(self, monkeypatch):
        m = RationalTF(Polynomial([1.0]), Polynomial([1.0]), p=MAX_POWI + 1)
        d = AgentDynamics(m, front_coupling())
        omegas = np.geomspace(2.0, 0.5, 64)
        scalar = record_calls(monkeypatch, waves, "awtf_eval")
        sweep = awtf_axis_sweep(d, omegas)
        assert len(scalar) == len(omegas)
        assert_identical(sweep, scalar_axis(d, omegas))


class TestHandOver:
    """Entries the core cannot settle go to the scalar awtf_eval, hinted by
    the entry before, for 64 entries or to the end of the run the core
    cannot settle; then the core resumes."""

    @staticmethod
    def tiny_rear() -> AgentDynamics:
        # Mr = 1e-305 (s + 1)/(s^2 (s/3 + 1)) is subnormal above |s| ~ 1e2, so
        # beta = shared/Mr overflows there: the hinted scalar chain returns
        # that entry, the core leaves it to the scalar code
        mr = RationalTF(Polynomial([1e-305, 1e-305]), Polynomial([1.0, 1 / 3]), p=2)
        return AgentDynamics(front_coupling(), mr)

    @staticmethod
    def scalar_calls(monkeypatch, d, s, block=None, overflow=slice(150, 300)):
        """wave_sweep(d, s), checked against the scalar chain, and the
        number of scalar awtf_eval calls it made; beta overflows at the
        entries overflow, and only there the core cannot settle."""
        with np.errstate(all="ignore"):
            chain = wave_chain(d)
            reference = [chain(x) for x in s]
            calls, evaluate = [], waves.awtf_eval
            if block is not None:
                monkeypatch.setattr(waves, "BLOCK", block)
            monkeypatch.setattr(waves, "awtf_eval",
                                lambda *a: calls.append(a) or evaluate(*a))
            sweep = wave_sweep(d, s)
        assert not np.isfinite(sweep.beta[overflow]).any()
        assert_identical(sweep, reference)
        return len(calls)

    # Entries 150-299 need the scalar chain. It fills 64 entries or on to
    # the end of the run the core cannot settle, never past the end of a
    # block: 150 calls in a block that holds the run, more where blocks
    # shorter than 64 entries cut it.
    @pytest.mark.parametrize("block, scalar", [(7, 151), (64, 170), (1024, 150)])
    def test_scalar_fill_then_the_core_resumes(self, monkeypatch, block, scalar):
        low, high = np.geomspace(1e-2, 1e-3, 150), np.geomspace(1e4, 1e2, 150)
        s = 1j * np.concatenate([low, high, low[::-1]])
        assert self.scalar_calls(monkeypatch, self.tiny_rear(), s, block) == scalar

    def test_scalar_runs_are_short_in_a_whole_block(self, monkeypatch):
        # 1,800 entries in one default block: the scalar chain takes the 150
        # that overflow, not the 1,650 from entry 150 to the block's end
        low, high = np.geomspace(1e-2, 1e-3, 150), np.geomspace(1e4, 1e2, 150)
        s = 1j * np.concatenate([low, high, np.geomspace(1e-3, 1e-2, 1500)])
        assert len(s) <= waves.BLOCK
        assert self.scalar_calls(monkeypatch, self.tiny_rear(), s) == 150


    def test_one_unsettled_entry_starts_a_run_of_64(self, monkeypatch):
        # a single overflowing entry: the scalar chain takes it and the 63
        # after it, then the core settles the rest
        low = np.geomspace(1e-2, 1e-3, 400)
        s = 1j * np.concatenate([low[:150], [1e4], low[150:]])
        assert self.scalar_calls(monkeypatch, self.tiny_rear(), s,
                                 overflow=slice(150, 151)) == 64

    def test_an_error_inside_a_run_comes_after_the_entries_before_it(self, monkeypatch):
        d = self.tiny_rear()
        low, high = np.geomspace(1e-2, 1e-3, 150), np.geomspace(1e4, 1e2, 150)
        s = 1j * np.concatenate([low, high])
        s[200] = complex("nan")
        with np.errstate(all="ignore"):
            chain = wave_chain(d)
            want = outcome(lambda: [chain(x) for x in s])
            settled, scalar = [], record_calls(monkeypatch, waves, "awtf_eval")
            got = outcome(lambda: settled.extend(waves.wave_blocks(d, s)))
            assert got[0] != "returned" and got == want
            assert len(scalar) == 51
            chain = wave_chain(d)
            reference = [chain(x) for x in s[:200]]
        assert_identical(waves.WaveSweep(*(np.concatenate([getattr(b, f) for b in settled])
                                           for f in waves._FIELDS)), reference)


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

    # the bench's waves call (N 20, agent 10) on a line of the same band; the
    # last agent and a single agent raise to the power 0, where cpowi
    # returns 0-d arrays that must broadcast against the block
    @pytest.mark.parametrize("N,n", [(20, 10), (20, 20), (1, 1)])
    @pytest.mark.parametrize("case", SPECTRA_CASES)
    def test_spectra_on_the_canonical_dynamics_and_bench_pairs(self, case, N, n):
        assert assert_same_spectra(SPECTRA_CASES[case], N, n, SPECTRA_LINE, 1.0) == "returned"

    @pytest.mark.parametrize("N", [MAX_POWI + 1, MAX_POWI + 2])
    def test_exponents_beyond_max_powi_take_the_scalar_route(self, vel_asym_dyn, N):
        # Python's ** leaves binary powering above MAX_POWI; cpowi refuses
        # such an exponent, so the array form must not run at all
        assert_same_spectra(vel_asym_dyn, N, N // 2, SPECTRA_LINE, 1.0)

    @pytest.mark.parametrize("n", [1, 10, MAX_POWI + 1])
    def test_early_time_check_spectrum(self, monkeypatch, vel_asym_dyn, n):
        class Captured(Exception):
            pass

        def capture(spectrum, cfg):
            raise Captured(spectrum)

        monkeypatch.setattr(waveresponse, "inverse_laplace", capture)
        with pytest.raises(Captured) as caught:
            early_time_check(vel_asym_dyn, n, SPECTRA_LINE.T_final, N=max(n, 25),
                             cfg=SPECTRA_LINE)
        chain = wave_chain(vel_asym_dyn)
        want = [chain(s).g_plus**n / s for s in bromwich_line(SPECTRA_LINE)[::-1]]
        np.testing.assert_array_equal(bits(caught.value.args[0]), bits(want[::-1]))


def assert_same_spectra(d, N, n, cfg, step_amplitude, samples=None):
    """_wave_spectra returns the per-sample form's bits or raises its error."""
    got = outcome(lambda: _wave_spectra(d, N, n, cfg, step_amplitude))
    want = outcome(lambda: scalar_spectra(d, N, n, cfg, step_amplitude, samples))
    assert got[0] == want[0]
    if got[0] == "returned":
        for spectrum, reference in zip(got[1], want[1]):
            np.testing.assert_array_equal(bits(spectrum), bits(reference))
    else:
        assert got == want
    return got[0]


def scalar_spectra(d, N, n, cfg, step_amplitude, samples=None):
    """_wave_spectra as one scalar hint chain per sample, descending; samples,
    when given, stand in for the chain's (one per line point, descending)."""
    chain = wave_chain(d)
    line = bromwich_line(cfg)
    rows = []
    for k, s in enumerate(line[::-1]):
        ws = chain(s) if samples is None else samples[k]
        refl = reflection_from_sample(ws)
        gp, gm = ws.g_plus, ws.g_minus
        loop = refl.t1 * refl.tN * (gp * gm) ** (N - 1)
        x0 = step_amplitude / s
        rows.append((gp**n * x0 / (1.0 - loop),
                     gm ** (N - n) * refl.tN * gp**N * x0 / (1.0 - loop)))
    a, b = np.array(rows, dtype=complex)[::-1].T
    return a, b


class TestSpectraErrorParity:
    """_wave_spectra on made-up couplings: a line of random g_plus, g_minus
    of modulus below 1 with one entry replaced, through the array form and
    the per-sample form alike. Each replacement makes the per-sample form
    raise or warn, or leaves a non-finite intermediate."""

    SPECIAL = {
        # (g_plus * g_minus)**(N - 1) overflows: Python's ** raises
        # OverflowError, the array form's power is inf
        "round-trip-power-overflows": ((40.0, 40.0), OverflowError),
        "g_minus-within-TOL_SING-of-1": ((0.5, 1.0 + 5e-9), ReflectionSingular),
        # numpy's scalar division by the zero round trip warns
        "round-trip-exactly-zero": ((-1.0, -1.0), RuntimeWarning),
        "g_plus-infinite": ((complex("inf"), 0.5), RuntimeWarning),
        "g_minus-nan": ((0.5, complex("nan")), RuntimeWarning),
    }

    @staticmethod
    def sweep(cfg, g_plus, g_minus):
        s = bromwich_line(cfg)[::-1]
        zeros = np.zeros(len(s), dtype=complex)
        return waves.WaveSweep(s, g_plus, g_minus, zeros, zeros,
                               np.zeros(len(s), dtype=bool))

    @pytest.mark.parametrize("kind", SPECIAL)
    def test_replaced_entry(self, monkeypatch, vel_asym_dyn, kind):
        cfg = InverseLaplaceConfig(T_final=10.0, samples=1024)
        rng = np.random.default_rng(3)
        g = 0.9 * rng.uniform(size=(2, 513)) * np.exp(2j * np.pi * rng.uniform(size=(2, 513)))
        values, raised = self.SPECIAL[kind]
        g[:, 100] = values
        sweep = self.sweep(cfg, *g)
        # blocks as wave_blocks yields them around a hand-over: an empty
        # core block, then single entries
        cuts = [0, 99, 99, 100, 101, 102, 300, 513]
        monkeypatch.setattr(waveresponse, "wave_blocks", lambda d, s: (
            sweep.take(slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:])))
        assert assert_same_spectra(vel_asym_dyn, 100, 50, cfg, 1.0, list(sweep)) is raised

    def test_step_amplitude_overflows(self, vel_asym_dyn):
        # amplitude / s overflows at the low end of the line only
        cfg = InverseLaplaceConfig(T_final=10.0, samples=1024)
        assert assert_same_spectra(vel_asym_dyn, 20, 10, cfg, 1e308) is RuntimeWarning


def two_chain_norms(d, sweep):
    """awtf_norm_estimates with one hint chain per coupling, each evaluating
    its own 16-point refinement grid."""
    omegas = sweep.s.imag
    results = []
    for attr in ("g_plus", "g_minus"):
        g = getattr(sweep, attr)
        k, peak, bracket = stability._grid_peak(omegas, np.hypot(g.real, g.imag))
        if bracket is None:
            results.append(peak)
            continue
        chain = wave_chain(d, seed=sweep[min(k + 1, len(omegas) - 1)])
        refined = hinf_estimate(lambda w: getattr(chain(1j * w), attr),
                                FrequencyGrid(*bracket, 16))
        best = refined if refined.value >= peak.value else peak
        results.append(NormEstimate(best.value, best.argmax_omega, refined=True))
    return tuple(results)


def norm_bits(est):
    return est.value.hex(), est.argmax_omega.hex(), est.refined


class TestSharedRefinementGrid:
    """awtf_norm_estimates against the two-chain form, bit for bit, and its
    awtf_eval calls: 16 per distinct peak, as a shared peak's refinement
    grid serves both couplings and every golden-section probe evaluates its
    own coupling only (waves.coupling_chain)."""

    @staticmethod
    def counted(monkeypatch, fn, *args):
        calls, evaluate = [], waves.awtf_eval
        with monkeypatch.context() as m:
            m.setattr(waves, "awtf_eval", lambda *a: calls.append(a) or evaluate(*a))
            result = fn(*args)
        return result, len(calls)

    # grid peaks (g_plus, g_minus) on the default grid: 992/992, 0/0,
    # 1137/1137, 1281/1086 and the neighbours 1019/1018
    @pytest.mark.parametrize("case, shared", [
        ("gain-asym-0.0", True), ("vel-asym-0.0", True), ("pair-0", True),
        ("pair-1", False), ("pair-4", False)])
    def test_against_two_chains(self, monkeypatch, case, shared):
        d = SPECTRA_CASES[case]
        sweep = awtf_axis_sweep(d, DEFAULT_OMEGAS)
        peaks = {int(np.argmax(np.hypot(g.real, g.imag)))
                 for g in (sweep.g_plus, sweep.g_minus)}
        assert (len(peaks) == 1) == shared
        got, calls = self.counted(monkeypatch, awtf_norm_estimates, d, sweep)
        want, want_calls = self.counted(monkeypatch, two_chain_norms, d, sweep)
        assert all(est.refined for est in got)
        assert list(map(norm_bits, got)) == list(map(norm_bits, want))
        # only the refinement grids call awtf_eval, once per distinct peak
        assert calls == 16 * len(peaks)

    def test_bracket_narrower_than_tol_omega(self, monkeypatch, vel_asym_dyn):
        # neighbours 3.2e-7 apart: no bracket, no refinement, no probe
        omegas = FrequencyGrid(1.0, 1.0 + 1e-5, 32).omegas()
        sweep = awtf_axis_sweep(vel_asym_dyn, omegas)
        got, calls = self.counted(monkeypatch, awtf_norm_estimates, vel_asym_dyn, sweep)
        assert calls == 0 and not any(est.refined for est in got)
        assert list(map(norm_bits, got)) == list(map(norm_bits, two_chain_norms(
            vel_asym_dyn, sweep)))


def coupling_walks(d, s, seed, attr):
    """Each s in order through coupling_chain and through the attr of the
    full wave_chain, both seeded with seed: what each returns (as the bits
    of its parts) or raises, and the full chain's branch_flipped flags."""
    probe = coupling_chain(d, attr, None if seed is None else getattr(seed, attr))
    chain, flips = wave_chain(d, seed), []

    def full(x):
        ws = chain(x)
        flips.append(ws.branch_flipped)
        return getattr(ws, attr)

    def walk(fn):
        out = [outcome(lambda: fn(x)) for x in s]
        return [(kind, (value.real.hex(), value.imag.hex())) if kind == "returned"
                else (kind, value) for kind, value in out]
    return walk(probe), walk(full), flips


# Mf = (1 + s^2)/(s^2 (1 + s + s^2)) vanishes at s = 1j
ZERO_AT_1J = AgentDynamics(RationalTF(Polynomial([1.0, 0.0, 1.0]),
                                      Polynomial([1.0, 1.0, 1.0]), p=2), front_coupling())


class TestCouplingChain:
    """coupling_chain against the attribute of the full wave_chain, bit for
    bit, values and exceptions: the golden-section probes of
    awtf_norm_estimates evaluate one coupling only."""

    DESCENDING = 1j * DEFAULT_OMEGAS[::-1][::7]

    @staticmethod
    def assert_same(d, s, seed=None):
        flips = []
        for attr in ("g_plus", "g_minus"):
            got, want, flipped = coupling_walks(d, s, seed, attr)
            assert got == want, attr
            flips.append(sum(flipped))
        return got, flips[0]

    @pytest.mark.parametrize("case", SPECTRA_CASES)
    def test_canonical_and_bench_pairs(self, case):
        d = SPECTRA_CASES[case]
        got, _ = self.assert_same(d, self.DESCENDING)
        assert all(kind == "returned" for kind, _ in got)
        # seeded at a sample, as a refinement grid's probes are
        seed = waves.awtf_eval(d, self.DESCENDING[100])
        self.assert_same(d, self.DESCENDING[101:], seed)

    @pytest.mark.parametrize("name", ["vel-asym", "sym", "undamped"])
    def test_tie_window(self, name):
        # every default-grid sample: vel-asym and sym tie in modulus over
        # 300 times (TestAxisOracle.test_tie_walk_is_exercised), where the
        # hint decides; the undamped pair's hint overrides the smaller
        # modulus 218 times
        d = undamped() if name == "undamped" else canonical(name, 0.0)
        got, flips = self.assert_same(d, 1j * DEFAULT_OMEGAS[::-1])
        assert all(kind == "returned" for kind, _ in got)
        assert flips == (218 if name == "undamped" else 0)

    @pytest.mark.parametrize("d, where, message", [
        (canonical("sym", 0.0), 0j, "transfer function has a pole at s=0j"),
        (ZERO_AT_1J, 1j, "Mf or Mr vanishes at s=1j"),
    ], ids=["pole", "zero"])
    def test_singular_sample(self, d, where, message):
        # the walk goes on past the singular sample with the hint before it
        s = np.insert(1j * np.geomspace(1e2, 1e-2, 50), 30, where)
        got, _ = self.assert_same(d, s)
        assert got[30][0] is SingularSample and message in got[30][1]
        assert sum(kind == "returned" for kind, _ in got) == 50


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

    @pytest.mark.parametrize("state", ["raise", "raise-but-underflow", "default"])
    def test_wave_spectra(self, state):
        # all="raise" reports underflow, which the per-sample form meets in
        # numpy's scalar division, so every entry takes the scalar route;
        # the CLI's state reports the rest and keeps the array route
        errstate = {"raise": {"all": "raise"}, "default": {},
                    "raise-but-underflow": {"all": "raise", "under": "ignore"}}[state]
        for d in self.CASES:
            with np.errstate(**errstate):
                assert_same_spectra(d, 20, 10, SPECTRA_LINE, 1.0)

    def test_real_sample_at_the_start_of_the_line(self, vel_asym_dyn):
        s = bromwich_line(BENCH_LINE)[:1]
        assert s[0].imag == 0.0
        with np.errstate(all="raise"):
            assert_identical(wave_sweep(vel_asym_dyn, s), [waves.awtf_eval(vel_asym_dyn, s[0])])
