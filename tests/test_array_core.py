"""The array core against a per-sample reference written here, outside the
library.

The reference evaluates Mf and Mr with the scalar tf_eval, takes both roots
of each wave quadratic with cmath and picks the smaller modulus, one sample
at a time in the order given. Values are compared at 1e-12 relative; where
the two roots nearly coincide (the kappa = 1 rows near DC) a root's
rounding error is amplified by their separation, and the comparison allows
that amplification (see close). Where the two moduli are equal to rounding
(the undamped pair below omega = 2), rounding picks, and either root is
accepted.
"""

import cmath

import numpy as np
import pytest

from wavestring import AgentDynamics, FrequencyGrid, Polynomial, RationalTF
from wavestring import stability, waveresponse, waves
from wavestring.errors import NumericalError, PoleAtSample, ReflectionSingular, SingularSample
from wavestring.stability import TOL_OMEGA, awtf_norm_estimates, hinf_estimate
from wavestring.tf import tf_eval
from wavestring.waveresponse import (InverseLaplaceConfig, _wave_spectra, bromwich_line,
                                     early_time_check)
from wavestring.waves import TOL_SING, awtf_axis_sweep, wave_sweep
from conftest import (CANONICAL, bench_pairs, canonical, front_coupling, record_calls,
                      undamped)
from test_properties import headway_cases, property_cases
from test_stability import g_plus_quadratic

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
    # Mf's numerator and Mr's denominator are the shorter of their pair
    "unequal-lengths": (RationalTF(Polynomial([2.0]), Polynomial([1.0, 0.8, 0.2]), p=2),
                        RationalTF(Polynomial([1.5, 1.2]), Polynomial([1.0]), p=2)),
    # integrator counts differ (assumption 1 fails), so each row has its own
    # power of s
    "front-p2-rear-p1": (front_coupling(), ONE_INTEGRATOR),
    "front-p1-rear-p2": (ONE_INTEGRATOR, front_coupling()),
    # no integrators: s**0 on one row or on both
    "front-p0-rear-p1": (NO_INTEGRATOR, ONE_INTEGRATOR),
    "front-p0-rear-p0": (NO_INTEGRATOR,
                         RationalTF(Polynomial([1.5]), Polynomial([1.0, 1.0]), p=0)),
}
# Mf = (1 + s^2)/(s^2 (1 + s + s^2)) vanishes at s = 1j
ZERO_AT_1J = AgentDynamics(RationalTF(Polynomial([1.0, 0.0, 1.0]),
                                      Polynomial([1.0, 1.0, 1.0]), p=2), front_coupling())
EPS = np.finfo(float).eps


# ------------------------------------------------------------ the reference


def reference_terms(d, s: complex):
    """(Mf, Mr, shared, t_g) at s in Python complex arithmetic, raising what
    a single sample raises: NumericalError where s**p overflows,
    SingularSample on a pole, a vanishing or non-finite Mf or Mr, or a
    non-finite quadratic. A non-finite s counts as a non-finite Mf or Mr."""
    if not cmath.isfinite(s):
        raise SingularSample(f"Mf or Mr is non-finite at s={s}")
    try:
        mf, mr = tf_eval(d.Mf, s), tf_eval(d.Mr, s)
    except PoleAtSample as exc:
        raise SingularSample(str(exc)) from exc
    if mf == 0 or mr == 0:
        raise SingularSample(f"Mf or Mr vanishes at s={s}")
    if not (cmath.isfinite(mf) and cmath.isfinite(mr)):
        raise SingularSample(f"Mf or Mr is non-finite at s={s}")
    shared = 1.0 + (1.0 + d.h * s) * (mf + mr)
    t_g = shared * shared - 4.0 * mf * mr
    if not (cmath.isfinite(shared) and cmath.isfinite(t_g)):
        raise SingularSample(f"wave quadratic is non-finite at s={s} (h={d.h:g})")
    return mf, mr, shared, t_g


def reference_roots(own, other, shared, t_g):
    """Both roots of own g**2 - shared g + other: with sum the larger of
    shared +/- sqrt(t_g) in modulus, sum/(2 own) from the quadratic formula
    and 2 other/sum from the product of the roots."""
    root = cmath.sqrt(t_g)
    big = max(shared + root, shared - root, key=abs)
    return 2 * other / big, big / (2 * own)


def reference_chain(d, s):
    """[(s, g_plus, g_minus, beta, alpha, other g_plus root, other g_minus
    root)] along s in order, each coupling the smaller-modulus root."""
    out = []
    for x in map(complex, s):
        mf, mr, shared, t_g = reference_terms(d, x)
        pair = reference_roots(mr, mf, shared, t_g), reference_roots(mf, mr, shared, t_g)
        picks = tuple(min(r, key=abs) for r in pair)
        others = tuple(r[0] if g is r[1] else r[1] for g, r in zip(picks, pair))
        out.append((x, *picks, shared / mr, shared / mf, *others))
    return np.array(out)


def reference_axis(d, omegas):
    """reference_chain on 1j*omegas from the highest |omega| down, in the
    order of omegas."""
    order = np.argsort(-np.abs(omegas), kind="stable")
    rows = reference_chain(d, 1j * np.asarray(omegas)[order])
    return rows[np.argsort(order)]


def outcome(fn):
    """What fn returns, or the class and message of what it raises."""
    try:
        return "returned", fn()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def moduli_tie(rows, col: int) -> np.ndarray:
    """Where the reference's two roots in column col (1 for g_plus, 2 for
    g_minus) have moduli equal to rounding: within 4 eps relative."""
    m, other = np.abs(rows[:, col]), np.abs(rows[:, col + 4])
    return np.abs(m - other) <= 4 * EPS * np.maximum(m, other)


def close(sweep, rows):
    """The sweep's s, couplings and coefficients against the reference rows,
    at 1e-12 relative. A rounding of the discriminant moves a root by about
    eps |coeff| / |g1 - g2| relative, g1 - g2 being the two roots' distance,
    which only near a double root exceeds 1e-12; that much more is allowed.
    Where the two moduli are equal to rounding (moduli_tie), either root
    is accepted. A coefficient that overflows (Mf or Mr underflowing beside
    the shared numerator) must be non-finite in both, and allows nothing
    more."""
    np.testing.assert_array_equal(sweep.s, rows[:, 0])
    for col, (g, coeff) in enumerate(((sweep.g_plus, sweep.beta),
                                      (sweep.g_minus, sweep.alpha)), start=1):
        want, other, want_coeff = rows[:, col], rows[:, col + 4], rows[:, col + 2]
        finite = np.isfinite(want_coeff)
        np.testing.assert_array_equal(np.isfinite(coeff), finite)
        np.testing.assert_allclose(coeff[finite], want_coeff[finite], rtol=1e-12, atol=0)
        with np.errstate(all="ignore"):
            extra = np.where(finite, 16 * EPS * np.abs(coeff) / np.abs(want - other), 0.0)
        ok = np.abs(g - want) <= (1e-12 + extra) * np.abs(want)
        ok |= moduli_tie(rows, col) & (np.abs(g - other) <= (1e-12 + extra) * np.abs(other))
        assert ok.all(), ("g_plus", "g_minus")[col - 1]


# ----------------------------------------------------------- axis sweeps


class TestAxisReference:
    @pytest.mark.parametrize("name,h", CANONICAL)
    def test_canonical_dynamics(self, name, h):
        d = canonical(name, h)
        close(awtf_axis_sweep(d, DEFAULT_OMEGAS), reference_axis(d, DEFAULT_OMEGAS))

    @pytest.mark.parametrize("name", ["vel-asym", "sym"])
    def test_near_ties_take_the_smaller_root(self, name):
        # hundreds of samples near DC whose two g_plus roots agree in modulus
        # within 1e-6 relative but differ in value: at each the sweep's
        # g_plus is the reference's smaller root, not the other one
        d = canonical(name, 0.0)
        sweep, rows = awtf_axis_sweep(d, DEFAULT_OMEGAS), reference_axis(d, DEFAULT_OMEGAS)
        g, other = np.abs(rows[:, 1]), np.abs(rows[:, 5])
        near = np.abs(g - other) < 1e-6 * np.maximum(g, other)
        assert near.sum() > 300 and (g[near] <= other[near]).all()
        got = sweep.g_plus[near]
        assert (np.abs(got - rows[near, 1]) < np.abs(got - rows[near, 5])).all()

    @pytest.mark.parametrize("k", range(12))
    def test_bench_random_pairs(self, k):
        d = bench_pairs()[k]
        close(awtf_axis_sweep(d, DEFAULT_OMEGAS), reference_axis(d, DEFAULT_OMEGAS))

    def test_undamped_pair(self):
        # M = 1/s**2: on the axis beta = 2 - w**2 and the roots' product is 1,
        # so below w = 2 they are a conjugate pair on the unit circle, and
        # which one is the smaller is rounding's choice
        d = undamped()
        sweep, rows = awtf_axis_sweep(d, DEFAULT_OMEGAS), reference_axis(d, DEFAULT_OMEGAS)
        close(sweep, rows)
        band = DEFAULT_OMEGAS < 2.0
        for g in (sweep.g_plus, sweep.g_minus):
            np.testing.assert_allclose(np.abs(g[band]), 1.0, rtol=4 * EPS, atol=0)

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("name", ["vel-asym", "undamped"])
    def test_block_boundaries_inside_the_tie_window(self, monkeypatch, block, name):
        # Small blocks put block starts where the two roots nearly tie in
        # modulus (vel-asym near DC) or tie to rounding (the undamped band):
        # each pick rests on its own sample, so the blocks change no bit.
        d = undamped() if name == "undamped" else canonical(name, 0.0)
        whole = awtf_axis_sweep(d, DEFAULT_OMEGAS)
        monkeypatch.setattr(waves, "BLOCK", block)
        sweep = awtf_axis_sweep(d, DEFAULT_OMEGAS)
        for f in waves._FIELDS:
            np.testing.assert_array_equal(getattr(sweep, f), getattr(whole, f), f)

    def test_unsorted_and_negative_frequencies(self):
        d = canonical("gain-asym", 0.5)
        omegas = np.random.default_rng(5).permutation(
            np.concatenate([DEFAULT_OMEGAS[::7], -DEFAULT_OMEGAS[::11]]))
        close(awtf_axis_sweep(d, omegas), reference_axis(d, omegas))

    def test_empty_sweep(self, sym_dyn):
        sweep = awtf_axis_sweep(sym_dyn, [])
        assert len(sweep) == 0
        assert all(getattr(sweep, f).dtype == complex for f in waves._FIELDS)

    @pytest.mark.parametrize("case", SPECTRA_CASES)
    def test_single_points_are_one_entry_blocks(self, case):
        # awtf_eval at each entry's s equals the sweep's entry
        d = SPECTRA_CASES[case]
        sweep = wave_sweep(d, 1j * DEFAULT_OMEGAS[::-1][::50])
        for k in range(len(sweep)):
            assert waves.awtf_eval(d, sweep.s[k]) == sweep[k]


class TestOneBlockPerGrid:
    """A default FrequencyGrid is one core block."""

    @pytest.mark.parametrize("case", SPECTRA_CASES)
    def test_default_grid(self, monkeypatch, case):
        blocks = record_calls(monkeypatch, waves, "_wave_block")
        awtf_axis_sweep(SPECTRA_CASES[case], DEFAULT_OMEGAS)
        assert [len(args[1]) for args in blocks] == [len(DEFAULT_OMEGAS)]


class TestModuli:
    """wave_moduli against the axis sweep of the same frequencies: the
    moduli of its picks."""

    @pytest.mark.parametrize("case", [*SPECTRA_CASES, "undamped"])
    def test_default_grid_bit_for_bit(self, case):
        d = undamped() if case == "undamped" else SPECTRA_CASES[case]
        sweep = awtf_axis_sweep(d, DEFAULT_OMEGAS)
        np.testing.assert_array_equal(waves.wave_moduli(d, 1j * DEFAULT_OMEGAS),
                                      np.abs([sweep.g_plus, sweep.g_minus]))


def row_case(case: str, h: float) -> AgentDynamics:
    return AgentDynamics(*ROW_CASES[case], h=h)


class TestRowsOfUnequalShape:
    """Front and rear rows whose polynomials differ in length or whose
    integrator counts differ."""

    @pytest.mark.parametrize("h", [0.0, 0.5])
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_axis(self, case, h):
        d = row_case(case, h)
        close(awtf_axis_sweep(d, DEFAULT_OMEGAS), reference_axis(d, DEFAULT_OMEGAS))

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_unsorted_and_negative_frequencies(self, case):
        d = row_case(case, 0.5)
        omegas = np.random.default_rng(7).permutation(
            np.concatenate([DEFAULT_OMEGAS[::5], -DEFAULT_OMEGAS[::9]]))
        close(awtf_axis_sweep(d, omegas), reference_axis(d, omegas))

    @pytest.mark.parametrize("N,n", [(20, 10), (20, 20), (1, 1)])
    @pytest.mark.parametrize("h", [0.0, 0.5])
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_spectra(self, case, h, N, n):
        assert_close_spectra(row_case(case, h), N, n, SPECTRA_LINE, 1.0)

    @pytest.mark.parametrize("value", [complex("inf"), complex(0.0, float("inf")),
                                       complex("nan"), complex(1.0, float("nan"))])
    @pytest.mark.parametrize("case", ROW_CASES)
    def test_non_finite_s(self, case, value):
        # the entries before it are yielded; the non-finite one raises what a
        # single sample raises there (an overflowing power of s or a
        # non-finite Mf or Mr)
        d = row_case(case, 0.5)
        s = 1j * DEFAULT_OMEGAS[::-1]
        s[700] = value
        want = outcome(lambda: reference_chain(d, s))
        settled = []
        got = outcome(lambda: settled.extend(waves.wave_blocks(d, s)))
        assert got[0] in (NumericalError, SingularSample) and got == want
        assert got == outcome(lambda: waves.awtf_eval(d, value))
        assert sum(map(len, settled)) == 700
        np.testing.assert_array_equal(settled[0].g_plus, wave_sweep(d, s[:700]).g_plus)


class TestVanishingRearCoupling:
    """Mr = 1e-305 (s + 1)/(s^2 (s/3 + 1)) is subnormal above |s| ~ 1e2, so
    beta = shared/Mr overflows there while both couplings stay finite: the
    sweep returns those entries and the chain goes on past them."""

    LOW, HIGH = np.geomspace(1e-2, 1e-3, 150), np.geomspace(1e4, 1e2, 150)

    @staticmethod
    def tiny_rear() -> AgentDynamics:
        mr = RationalTF(Polynomial([1e-305, 1e-305]), Polynomial([1.0, 1 / 3]), p=2)
        return AgentDynamics(front_coupling(), mr)

    @pytest.mark.parametrize("block", [7, 64, 2048])
    def test_beta_overflows_inside_the_chain(self, monkeypatch, block):
        d, s = self.tiny_rear(), 1j * np.concatenate([self.LOW, self.HIGH, self.LOW[::-1]])
        monkeypatch.setattr(waves, "BLOCK", block)
        sweep = wave_sweep(d, s)
        np.testing.assert_array_equal(np.flatnonzero(~np.isfinite(sweep.beta)),
                                      np.arange(150, 300))
        assert np.isfinite(sweep.g_plus).all() and np.isfinite(sweep.g_minus).all()
        close(sweep, reference_chain(d, s))

    def test_an_error_among_the_overflows_comes_after_the_entries_before_it(self):
        d, s = self.tiny_rear(), 1j * np.concatenate([self.LOW, self.HIGH])
        s[200] = complex("nan")
        settled = []
        got = outcome(lambda: settled.extend(waves.wave_blocks(d, s)))
        assert got[0] is SingularSample and got == outcome(lambda: reference_chain(d, s))
        assert len(settled) == 1
        close(settled[0], reference_chain(d, s[:200]))


# ------------------------------------------------------------- the line


def reference_spectra(d, N, n, cfg, step_amplitude):
    """_wave_spectra per sample from the reference chain, descending."""
    line = bromwich_line(cfg)[::-1]
    rows = []
    for s, gp, gm in reference_chain(d, line)[:, :3]:
        t1, tN = -gp * gm, gm * (gp - 1.0) / (gm - 1.0)
        trip = 1.0 - t1 * tN * (gp * gm) ** (N - 1)
        x0 = step_amplitude / s
        rows.append((gp**n * x0 / trip, gm ** (N - n) * tN * gp**N * x0 / trip))
    return np.array(rows)[::-1].T


def assert_close_spectra(d, N, n, cfg, step_amplitude):
    for got, want in zip(_wave_spectra(d, N, n, cfg, step_amplitude),
                         reference_spectra(d, N, n, cfg, step_amplitude)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestBromwichReference:
    @pytest.mark.parametrize("name,h", CANONICAL)
    def test_bench_line(self, name, h):
        d = canonical(name, h)
        line = bromwich_line(BENCH_LINE)[::-1]
        close(wave_sweep(d, line), reference_chain(d, line))

    @pytest.mark.parametrize("N,n", [(20, 10), (12, 12), (12, 1)])
    def test_spectra_of_the_vel_asym_pair(self, vel_asym_dyn, N, n):
        cfg = InverseLaplaceConfig(T_final=30.0, samples=4096)
        assert_close_spectra(vel_asym_dyn, N, n, cfg, 1.5)

    # the bench's waves call (N 20, agent 10) on a line of the same band; the
    # last agent and a single agent raise to the power 0
    @pytest.mark.parametrize("N,n", [(20, 10), (20, 20), (1, 1)])
    @pytest.mark.parametrize("case", SPECTRA_CASES)
    def test_spectra_on_the_canonical_dynamics_and_bench_pairs(self, case, N, n):
        assert_close_spectra(SPECTRA_CASES[case], N, n, SPECTRA_LINE, 1.0)

    @pytest.mark.parametrize("N", [101, 150])
    def test_long_paths(self, vel_asym_dyn, N):
        assert_close_spectra(vel_asym_dyn, N, N // 2, SPECTRA_LINE, 1.0)

    @pytest.mark.parametrize("n", [1, 10, 101])
    def test_early_time_check_spectrum(self, monkeypatch, vel_asym_dyn, n):
        class Captured(Exception):
            pass

        def capture(spectrum, cfg):
            raise Captured(spectrum)

        monkeypatch.setattr(waveresponse, "inverse_laplace", capture)
        with pytest.raises(Captured) as caught:
            early_time_check(vel_asym_dyn, n, SPECTRA_LINE.T_final, N=max(n, 25),
                             cfg=SPECTRA_LINE)
        rows = reference_chain(vel_asym_dyn, bromwich_line(SPECTRA_LINE)[::-1])
        np.testing.assert_allclose(caught.value.args[0], (rows[:, 1] ** n / rows[:, 0])[::-1],
                                   rtol=1e-12, atol=0)


class TestSpectraErrors:
    """_wave_spectra on made-up couplings: a line of random g_plus, g_minus
    of modulus below 1 with one entry replaced. The spectra raise at the
    first bad entry in chain order: ReflectionSingular where g_minus is
    within TOL_SING of 1, NumericalError where a spectrum is not finite."""

    SPECIAL = {
        # (g_plus * g_minus)**(N - 1) overflows
        "round-trip-power-overflows": ((40.0, 40.0), NumericalError),
        "g_minus-within-TOL_SING-of-1": ((0.5, 1.0 + 5e-9), ReflectionSingular),
        "round-trip-exactly-zero": ((-1.0, -1.0), NumericalError),
        "g_plus-infinite": ((complex("inf"), 0.5), NumericalError),
        "g_minus-nan": ((0.5, complex("nan")), NumericalError),
    }
    CFG = InverseLaplaceConfig(T_final=10.0, samples=1024)

    @staticmethod
    def sweep(g_plus, g_minus):
        s = bromwich_line(TestSpectraErrors.CFG)[::-1]
        zeros = np.zeros(len(s), dtype=complex)
        return waves.WaveSweep(s, g_plus, g_minus, zeros, zeros)

    @staticmethod
    def spectra(monkeypatch, d, sweep, cuts):
        monkeypatch.setattr(waveresponse, "wave_blocks", lambda d, s: (
            sweep.take(slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:])))
        return outcome(lambda: _wave_spectra(d, 100, 50, TestSpectraErrors.CFG, 1.0))

    @pytest.mark.parametrize("cuts", [[0, 513], [0, 99, 100, 101, 300, 513]])
    @pytest.mark.parametrize("kind", SPECIAL)
    def test_replaced_entry(self, monkeypatch, vel_asym_dyn, kind, cuts):
        rng = np.random.default_rng(3)
        g = 0.9 * rng.uniform(size=(2, 513)) * np.exp(2j * np.pi * rng.uniform(size=(2, 513)))
        values, raised = self.SPECIAL[kind]
        g[:, 100] = values
        sweep = self.sweep(*g)
        got = self.spectra(monkeypatch, vel_asym_dyn, sweep, cuts)
        assert got[0] is raised and got[1].endswith(f"at s={complex(sweep.s[100])}")

    # the two bad entries in separate blocks or in one
    @pytest.mark.parametrize("cuts", [[0, 200, 513], [0, 513]])
    @pytest.mark.parametrize("first", ["reflection", "overflow"])
    def test_first_bad_entry_in_chain_order(self, monkeypatch, vel_asym_dyn, first, cuts):
        rng = np.random.default_rng(4)
        g = 0.9 * rng.uniform(size=(2, 513)) * np.exp(2j * np.pi * rng.uniform(size=(2, 513)))
        early, late = (100, 300) if first == "reflection" else (300, 100)
        g[:, early] = 0.5, 1.0 + 5e-9
        g[:, late] = 40.0, 40.0
        sweep = self.sweep(*g)
        got = self.spectra(monkeypatch, vel_asym_dyn, sweep, cuts)
        assert got[0] is (ReflectionSingular if first == "reflection" else NumericalError)
        assert got[1].endswith(f"at s={complex(sweep.s[100])}")

    def test_step_amplitude_overflows(self, vel_asym_dyn):
        # amplitude / s overflows at the low end of the line only
        got = outcome(lambda: _wave_spectra(vel_asym_dyn, 20, 10, self.CFG, 1e308))
        assert got[0] is NumericalError and "non-finite" in got[1]


# ------------------------------------------------------------ refinement


def min_moduli(d, omegas):
    """min(|r1|, |r2|) of g_plus's quadratic a g**2 - b g + c at
    s = 1j*omegas, and 1/max(|r1|, |r2|) (g_minus's roots are the
    reciprocals), as two rows. a, b and c are test_stability's
    g_plus_quadratic, evaluated by numpy's polyval, and the roots are
    q/(2a) and 2c/q with q the larger of b +/- sqrt(b**2 - 4ac) in modulus."""
    a, b, c = (np.polynomial.polynomial.polyval(1j * omegas, q)
               for q in g_plus_quadratic(d)[:3])
    root = np.sqrt(b * b - 4.0 * a * c)
    q = np.where(np.abs(b + root) >= np.abs(b - root), b + root, b - root)
    m = np.abs(np.stack([q / (2.0 * a), 2.0 * c / q]))
    return np.stack([m.min(axis=0), 1.0 / m.max(axis=0)])


def dense_peak(d, est, row, points=100_000):
    """The largest min_moduli row across the bracket of est's argmax (the
    default grid's two neighbours of the grid point nearest it): on points
    geometric frequencies, then on points more across the neighbours of
    their argmax. A corner of min(|r1|, |r2|) on a slope is first order in
    the spacing, and one pass of 400,001 points still falls 3.5e-8 short of
    headway-22's; the second pass's spacing is about 3e-12 relative."""
    k = int(np.argmin(np.abs(np.log(DEFAULT_OMEGAS / est.argmax_omega))))
    omegas = DEFAULT_OMEGAS[max(k - 1, 0):k + 2]
    for _ in range(2):
        omegas = np.geomspace(omegas[0], omegas[-1], points)
        mags = min_moduli(d, omegas)[row]
        k = int(np.argmax(mags))
        omegas = omegas[max(k - 1, 0):k + 2]
    return float(mags[k])


def corner_cases() -> dict:
    """Property and headway draws whose peak is a corner of min(|r1|, |r2|),
    where a search that assumes a smooth peak stops short of it by more
    than 1e-6: on each, both norms are tie corners."""
    props, heads = [case[0] for case in property_cases()], list(headway_cases())
    return {**{f"property-{k}": props[k] for k in (19, 26, 47, 67, 70, 93, 96)},
            **{f"headway-{k}": heads[k] for k in (10, 22, 38, 47)}}


CORNER_CASES = corner_cases()


class TestRefinement:
    @pytest.mark.parametrize("attr", ["g_plus", "g_minus"])
    @pytest.mark.parametrize("case", [*SPECTRA_CASES, "undamped", *CORNER_CASES])
    def test_against_a_dense_bracket(self, case, attr):
        d = undamped() if case == "undamped" else {**SPECTRA_CASES, **CORNER_CASES}[case]
        row = int(attr == "g_minus")
        est = awtf_norm_estimates(d, DEFAULT_OMEGAS)[row]
        assert est.refined
        # the reference's rounding differs from the library's
        assert est.value >= min_moduli(d, DEFAULT_OMEGAS)[row].max() * (1.0 - 1e-12)
        assert est.value == pytest.approx(dense_peak(d, est, row), rel=1e-9)

    def test_levels_are_shared(self, monkeypatch, gain_asym_dyn):
        # gain-asym's couplings peak at one grid index and zoom alike: the
        # grid and each level are evaluated once for both
        calls = record_calls(monkeypatch, waves, "wave_moduli")
        gp, gm = awtf_norm_estimates(gain_asym_dyn, DEFAULT_OMEGAS)
        assert gp.argmax_omega == gm.argmax_omega
        np.testing.assert_array_equal(calls[0][1], 1j * DEFAULT_OMEGAS)
        assert 2 <= len(calls[1:]) <= 4
        assert all(len(args[1]) == stability.ZOOM_POINTS for args in calls[1:])

    def test_levels_narrow_to_tol_omega(self):
        levels = []

        def evaluator(omegas):
            levels.append(omegas)
            return 1.0 / (1.0 + (omegas - 0.3) ** 2 * 1e4)

        def bracket_after(level):
            """The relative width of a geometric level's argmax neighbours."""
            return (level[-1] / level[0]) ** (2 / (len(level) - 1))

        est = hinf_estimate(evaluator, FrequencyGrid(1e-2, 1e2, 400).omegas())
        assert est.refined and est.argmax_omega == pytest.approx(0.3, rel=1e-6)
        assert all(len(level) == stability.ZOOM_POINTS for level in levels[1:])
        assert bracket_after(levels[-1]) <= 1.0 + TOL_OMEGA < bracket_after(levels[-2])
        for outer, inner in zip(levels, levels[1:]):
            assert outer[0] <= inner[0] and inner[-1] <= outer[-1]

    def test_bracket_narrower_than_tol_omega(self, monkeypatch, vel_asym_dyn):
        # neighbours 3.2e-7 apart: no bracket, no refinement, no evaluation
        # beyond the grid
        omegas = FrequencyGrid(1.0, 1.0 + 1e-5, 32).omegas()
        sweep = awtf_axis_sweep(vel_asym_dyn, omegas)
        calls = record_calls(monkeypatch, waves, "wave_moduli")
        got = awtf_norm_estimates(vel_asym_dyn, omegas)
        assert len(calls) == 1 and not any(est.refined for est in got)
        for est, g in zip(got, (sweep.g_plus, sweep.g_minus)):
            assert est.value == np.abs(g).max()


# ---------------------------------------------------------------- errors


class TestErrors:
    """The core raises the reference's exception, type and message, at the
    first bad entry in chain order, after the entries before it."""

    def test_singular_sample_on_a_pole(self, sym_dyn):
        omegas = np.concatenate([np.geomspace(1e-2, 1e2, 50), [0.0]])
        got = outcome(lambda: awtf_axis_sweep(sym_dyn, omegas))
        assert got == (SingularSample, "transfer function has a pole at s=0j")
        assert got == outcome(lambda: reference_axis(sym_dyn, omegas))

    def test_singular_sample_on_a_zero(self):
        omegas = np.geomspace(1e-2, 1e2, 51)
        assert omegas[25] == 1.0
        got = outcome(lambda: awtf_axis_sweep(ZERO_AT_1J, omegas))
        assert got == (SingularSample, "Mf or Mr vanishes at s=1j")
        assert got == outcome(lambda: reference_axis(ZERO_AT_1J, omegas))

    @pytest.mark.parametrize("d, where", [(canonical("sym", 0.0), 0j), (ZERO_AT_1J, 1j)],
                             ids=["pole", "zero"])
    def test_single_points(self, d, where):
        assert outcome(lambda: waves.awtf_eval(d, where)) == \
            outcome(lambda: reference_chain(d, [where]))
        assert outcome(lambda: waves.t_g_eval(d, where)) == \
            outcome(lambda: reference_chain(d, [where]))

    def test_first_bad_entry_wins(self, sym_dyn):
        # a zero of Mf later in chain order, a pole earlier: the pole raises
        d = AgentDynamics(ZERO_AT_1J.Mf, sym_dyn.Mr)
        s = np.insert(1j * np.geomspace(1e2, 1e-2, 50), [20, 40], [0j, 1j])
        got = outcome(lambda: wave_sweep(d, s))
        assert got == (SingularSample, "transfer function has a pole at s=0j")
        assert got == outcome(lambda: reference_chain(d, s))
        settled = []
        outcome(lambda: settled.extend(waves.wave_blocks(d, s)))
        close(settled[0], reference_chain(d, s[:20]))

    def test_power_overflow(self, sym_dyn):
        got = outcome(lambda: waves.awtf_eval(sym_dyn, 1e200j))
        assert got == (NumericalError, "s**2 overflows at s=1e+200j")
        assert got == outcome(lambda: reference_chain(sym_dyn, [1e200j]))

    def test_non_finite_quadratic(self):
        # Mf = 1e300 (1 + s)/s**2: finite, but shared**2 overflows
        big = RationalTF(Polynomial([1e300, 1e300]), Polynomial([1.0]), p=2)
        d = AgentDynamics(big, big, h=0.5)
        got = outcome(lambda: waves.awtf_eval(d, 1j))
        assert got == (SingularSample, "wave quadratic is non-finite at s=1j (h=0.5)")
        assert got == outcome(lambda: reference_chain(d, [1j]))

    def test_reflection_singular_on_the_line(self, vel_asym_dyn):
        # sigma = 1e-8 puts the last line sample where g_minus is within
        # TOL_SING of 1 but not equal to it
        cfg = InverseLaplaceConfig(T_final=10.0, samples=1024, sigma=1e-8)
        gap = abs(waves.awtf_eval(vel_asym_dyn, 1e-8).g_minus - 1.0)
        assert 0.0 < gap < TOL_SING
        got = outcome(lambda: _wave_spectra(vel_asym_dyn, 10, 5, cfg, 1.0))
        assert got == (ReflectionSingular, f"g_minus is within {TOL_SING:g} of 1 at s=(1e-08+0j)")


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
                want = outcome(lambda: wave_sweep(d, s))
                with np.errstate(**errstate):
                    got = outcome(lambda: wave_sweep(d, s))
                assert got[0] == want[0] == "returned"
                for f in waves._FIELDS:
                    np.testing.assert_array_equal(getattr(got[1], f), getattr(want[1], f))

    @pytest.mark.parametrize("state", ["raise", "default"])
    def test_wave_spectra_and_norms(self, state):
        errstate = {"all": "raise"} if state == "raise" else {}
        for d in self.CASES:
            with np.errstate(**errstate):
                _wave_spectra(d, 20, 10, SPECTRA_LINE, 1.0)
                awtf_norm_estimates(d, DEFAULT_OMEGAS)

    def test_real_sample_at_the_start_of_the_line(self, vel_asym_dyn):
        s = bromwich_line(BENCH_LINE)[:1]
        assert s[0].imag == 0.0
        with np.errstate(all="raise"):
            close(wave_sweep(vel_asym_dyn, s), reference_chain(vel_asym_dyn, s))


def test_close_allows_more_than_1e_12_only_near_a_double_root():
    # vel-asym's kappa = 1 roots nearly coincide near DC: the allowance
    # passes 1e-12 below omega = 4e-3 only
    rows = reference_axis(canonical("vel-asym", 0.0), DEFAULT_OMEGAS)
    extra = 16 * EPS * np.abs(rows[:, 3]) / np.abs(rows[:, 1] - rows[:, 5])
    assert extra.max() > 1e-12
    assert (extra[DEFAULT_OMEGAS > 4e-3] < 1e-12).all()


def test_close_accepts_either_root_only_on_the_undamped_band():
    # the reference's moduli tie to rounding nowhere on the canonical
    # dynamics and the bench pairs, on the axis or on the bench's line, and
    # on the undamped pair exactly below omega = 2
    line = bromwich_line(BENCH_LINE)[::-1]
    for d in SPECTRA_CASES.values():
        for rows in (reference_axis(d, DEFAULT_OMEGAS), reference_chain(d, line)):
            assert not (moduli_tie(rows, 1) | moduli_tie(rows, 2)).any()
    rows = reference_axis(undamped(), DEFAULT_OMEGAS)
    for col in (1, 2):
        np.testing.assert_array_equal(moduli_tie(rows, col), DEFAULT_OMEGAS < 2.0)
