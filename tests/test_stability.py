import json
import math
import re

import numpy as np
import pytest

from wavestring import (
    AgentDynamics,
    FrequencyGrid,
    Polynomial,
    RationalTF,
    Topology,
    awtf_axis_sweep,
    awtf_eval,
    awtf_norm_estimates,
    build_network,
    disturbance_gain,
    frequency_response,
    headway_dominant_term,
    hinf_estimate,
    local_string_verdict,
    low_order_coeffs,
    nyquist_axis_test,
    tf_normalize,
)
from wavestring import stability, waves
from wavestring.cli import main
from wavestring.errors import AssumptionViolated, SingularSample, WavestringError
from wavestring.stability import TOL_NORM
from wavestring.waves import t_g_eval
from conftest import (CANONICAL, bench_pairs, canonical, front_coupling,
                      random_pi_pair, undamped)
from test_properties import headway_cases, property_cases

SHORT_GRID = FrequencyGrid(1e-4, 1e3, 600)
PROPERTY_DYNAMICS = [d for d, *_ in property_cases()]
HEADWAY_DYNAMICS = list(headway_cases())
# Headway case 44 (h = 1.1215, kappa = 1.0156): |g_plus| exceeds 1 only on
# [2.29702, 2.30112] (1.00771 at its midpoint), a band narrower than one
# step of the default grid (0.8%), so the grid peaks at 0.99567 at its DC
# end. g_plus's roots tie in modulus at 2.29909, inside the band, and that
# corner (1.00779) is the norm: the verdict is unstable. Under a tol_norm
# that reads 1.00779 as marginal, the level set at 1 + tol_norm finds no
# band above it, so the verdict is marginal.
GRID_MISSES_NORM_BAND = 44
# The 12 designs whose norm P exceeds 1 while the axis test passes.
PEAK_ABOVE_ONE = {**{f"property-{k:02d}": PROPERTY_DYNAMICS[k] for k in (2, 17, 31, 87)},
                  **{f"headway-{k:02d}": HEADWAY_DYNAMICS[k]
                     for k in (10, 11, 22, 23, 37, 44, 47, 48)}}


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyGrid(0.0, 1.0, 100)
        with pytest.raises(ValueError):
            FrequencyGrid(1.0, 0.5, 100)
        with pytest.raises(ValueError):
            FrequencyGrid(1e-3, 1e2, 8)

    def test_log_spacing(self):
        om = FrequencyGrid(1e-2, 1e2, 17).omegas()
        ratios = om[1:] / om[:-1]
        assert np.allclose(ratios, ratios[0])


class TestNyquist:
    def test_symmetric_passes(self, sym_dyn):
        ok, crossings = nyquist_axis_test(sym_dyn, SHORT_GRID.omegas())
        assert ok and crossings == []

    def test_velocity_asym_passes(self, vel_asym_dyn):
        ok, _ = nyquist_axis_test(vel_asym_dyn, SHORT_GRID.omegas())
        assert ok

    def test_undamped_double_integrator_fails(self):
        # M = 1/s^2 gives a real curve 1 - 4/w^2, negative for w < 2
        m = RationalTF(Polynomial([1.0]), Polynomial([1.0]), p=2)
        d = AgentDynamics(m, m)
        ok, crossings = nyquist_axis_test(d, SHORT_GRID.omegas())
        assert not ok
        assert any(abs(w - 2.0) < 1e-3 for w in crossings)

    def test_gain_asym_crossing_found(self, gain_asym_dyn):
        # this pair genuinely intersects the non-positive axis near w=0.344
        ok, crossings = nyquist_axis_test(gain_asym_dyn, SHORT_GRID.omegas())
        assert not ok
        assert any(abs(w - 0.3441) < 1e-3 for w in crossings)

    @pytest.mark.parametrize("d,want", [
        (PROPERTY_DYNAMICS[90], 1.1801107), (HEADWAY_DYNAMICS[14], 1.6437906)],
        ids=["property-90", "headway-14"])
    def test_crossing_between_samples_of_a_coarse_grid(self, d, want):
        # 16 points over seven decades: the curve winds between samples, and
        # the crossing the default grid finds is still reported
        ok, crossings = nyquist_axis_test(d, FrequencyGrid(1e-4, 1e3, 16).omegas())
        assert not ok
        assert crossings == pytest.approx([want], rel=1e-7)

    def test_negligible_leading_denominator_terms(self):
        # s**3 terms of 1e-30 beside s**2 ones: roots near 1e30 must not
        # cost the crossing inside the range
        den = Polynomial([0, 0, 1, 1e-30])
        d = AgentDynamics(tf_normalize(Polynomial([4 / 3, 4 / 3]), den),
                          tf_normalize(Polynomial([2.5 / 3, 2.5 / 3]), den), h=0.7)
        verdict = local_string_verdict(d)
        assert verdict.locally_string_stable == "unstable"
        assert verdict.crossings == pytest.approx([0.61763], rel=1e-5)

    def test_range_far_beyond_the_dynamics(self, gain_asym_dyn):
        # (omega_max / omega_min)**(degree / 2) overflows a float
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            verdict = local_string_verdict(gain_asym_dyn, FrequencyGrid(omega_max=1e50))
        assert verdict.locally_string_stable == "unstable"
        assert verdict.crossings == pytest.approx([0.344065], rel=1e-6)

    def test_huge_numerator_constant_through_the_cli(self, tmp_path):
        den = [0, 0, 1, 1 / 3]
        cfg = {"dynamics": {"mf": {"num": [1e75, 4 / 3], "den": den},
                            "mr": {"num": [2.5 / 3, 2.5 / 3], "den": den}},
               "topology": {"kind": "path", "n": 6}, "analysis": {"points": 400}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


P = np.polynomial.polynomial


def g_plus_quadratic(d):
    """a, b, c of g_plus's quadratic a g**2 - b g + c = 0 over common
    denominators, and s**p Df Dr: ascending coefficients in s, with
        a = Nr Df,  b = s**p Df Dr + (1 + h s)(Nf Dr + Nr Df),  c = Nf Dr.
    g_minus's quadratic has the reversed coefficients, so its roots are the
    reciprocals."""
    nf, df, nr, dr = (np.array(q.coeffs) for q in (d.Mf.num, d.Mf.den, d.Mr.num, d.Mr.den))
    base = P.polymul(np.eye(d.p + 1)[d.p], P.polymul(df, dr))
    b = P.polyadd(base, P.polymul([1.0, d.h],
                                  P.polyadd(P.polymul(nf, dr), P.polymul(nr, df))))
    return P.polymul(nr, df), b, P.polymul(nf, dr), base


def on_axis(c, scale):
    """Complex coefficients of c(j scale x) in x."""
    k = np.arange(len(c))
    return c * scale ** k * np.array([1, 1j, -1, -1j])[k % 4]


def axis_roots(coeffs, scale, grid):
    """The positive real roots x of a real polynomial, as omega = scale x,
    inside the grid's range."""
    x = P.polyroots(coeffs)
    w = scale * x.real[(x.real > 0) & (np.abs(x.imag) <= 1e-8 * np.abs(x))]
    return sorted(float(v) for v in w[(w >= grid.omega_min) & (w <= grid.omega_max)])


def exact_axis_crossings(d, grid=FrequencyGrid()):
    """The crossings of t_g(j omega) with the non-positive real axis, exactly.

    Clearing denominators gives t_g = Tn/Td with Tn = b**2 - 4 a c and
    Td = (s**p Df Dr)**2 (see g_plus_quadratic), so t_g(j omega) is real at
    the real roots of Im[Tn(j omega) conj(Td(j omega))], a real polynomial
    in omega. Its positive roots inside the grid's range, found in
    omega / sqrt(omega_min omega_max), count where Re t_g <= TOL_AXIS.
    None when that polynomial vanishes identically (t_g real on the whole axis).
    """
    roots = axis_polynomial_roots(d, grid)
    if roots is None:
        return None
    return [w for w in roots if t_g_eval(d, 1j * w).real <= stability.TOL_AXIS]


def axis_polynomial_roots(d, grid=FrequencyGrid()):
    """The real roots of Im[Tn(j omega) conj(Td(j omega))] in the grid's
    range (see exact_axis_crossings); None when it vanishes identically."""
    a, b, c, base = g_plus_quadratic(d)
    tn = P.polysub(P.polymul(b, b), 4.0 * P.polymul(a, c))
    scale = math.sqrt(grid.omega_min * grid.omega_max)
    tn, td = on_axis(tn, scale), on_axis(P.polymul(base, base), scale)
    im = P.polysub(P.polymul(tn.imag, td.real), P.polymul(tn.real, td.imag))
    if not np.any(im):
        return None
    return axis_roots(im, scale, grid)


def exact_norms_exceed_one(d, grid=FrequencyGrid()):
    """Whether |g_plus| and |g_minus| exceed 1 in the grid's range, exactly.

    A root of a g**2 - b g + c lies on the unit circle exactly where
        Res = (|a|**2 - |c|**2)**2 - |b conj(c) - a conj(b)|**2
    vanishes, every term at s = j omega: a real polynomial in omega, as
    conj(a(j omega)) = a(-j omega). Between its positive roots (found in
    omega / sqrt(omega_min omega_max)) |g_plus| - 1 and |g_minus| - 1 keep
    their signs, so one awtf_eval at each interval's geometric midpoint
    decides. None when Res vanishes identically.
    """
    scale = math.sqrt(grid.omega_min * grid.omega_max)
    a, b, c = (on_axis(q, scale) for q in g_plus_quadratic(d)[:3])

    def times_conj(p, q):
        """p(x) conj(q(x)) for real x."""
        return P.polymul(p, np.conj(q))

    gap = P.polysub(times_conj(a, a), times_conj(c, c))
    cross = P.polysub(times_conj(b, c), times_conj(a, b))
    res = P.polysub(P.polymul(gap, gap), times_conj(cross, cross)).real
    if not np.any(res):
        return None
    edges = [grid.omega_min, *axis_roots(res, scale, grid), grid.omega_max]
    samples = [awtf_eval(d, 1j * math.sqrt(lo * hi)) for lo, hi in zip(edges, edges[1:])]
    return (any(abs(ws.g_plus) > 1 for ws in samples),
            any(abs(ws.g_minus) > 1 for ws in samples))


class TestExactAxisCrossings:
    """The grid's axis test against the crossings of a polynomial oracle."""

    @staticmethod
    def assert_grid_finds_exact(d):
        exact = exact_axis_crossings(d)
        assert exact is not None
        _, found = nyquist_axis_test(d, FrequencyGrid().omegas())
        assert found == pytest.approx(exact, rel=1e-8)
        for w in found:
            t_g = t_g_eval(d, 1j * w)
            assert abs(t_g.imag) <= 1e-8 * abs(t_g)
        return exact

    @pytest.mark.parametrize("name,h", CANONICAL)
    def test_canonical_dynamics(self, name, h):
        exact = self.assert_grid_finds_exact(canonical(name, h))
        assert len(exact) == (0 if h == 0.0 and name != "gain-asym" else 1)

    @pytest.mark.parametrize("d", bench_pairs(), ids=[f"pair-{k:02d}" for k in range(12)])
    def test_bench_pi_pairs(self, d):
        self.assert_grid_finds_exact(d)

    @pytest.mark.parametrize("case", range(len(PROPERTY_DYNAMICS)))
    def test_randomized_property_dynamics(self, case):
        self.assert_grid_finds_exact(PROPERTY_DYNAMICS[case])

    @pytest.mark.parametrize("case", range(len(HEADWAY_DYNAMICS)))
    def test_headway_property_dynamics(self, case):
        self.assert_grid_finds_exact(HEADWAY_DYNAMICS[case])

    def test_real_curve_has_no_oracle(self):
        # M = 1/s^2: t_g = 1 - 4/w^2 is real on the whole axis
        assert exact_axis_crossings(undamped()) is None


class TestExactNorms:
    """The grid's norm estimates against the unit-modulus polynomial oracle,
    on whether each of |g_plus| and |g_minus| exceeds 1."""

    @staticmethod
    def assert_grid_agrees(d):
        exact = exact_norms_exceed_one(d)
        assert exact is not None
        verdict = local_string_verdict(d)
        assert exact == (verdict.norm_gp.value > 1, verdict.norm_gm.value > 1)

    @pytest.mark.parametrize("name,h", CANONICAL)
    def test_canonical_dynamics(self, name, h):
        self.assert_grid_agrees(canonical(name, h))

    @pytest.mark.parametrize("d", bench_pairs(), ids=[f"pair-{k:02d}" for k in range(12)])
    def test_bench_pi_pairs(self, d):
        self.assert_grid_agrees(d)

    @pytest.mark.parametrize("case", range(len(PROPERTY_DYNAMICS)))
    def test_randomized_property_dynamics(self, case):
        self.assert_grid_agrees(PROPERTY_DYNAMICS[case])

    @pytest.mark.parametrize("case", range(len(HEADWAY_DYNAMICS)))
    def test_headway_property_dynamics(self, case):
        self.assert_grid_agrees(HEADWAY_DYNAMICS[case])

    @pytest.mark.parametrize("case,points,row,peak,band", [
        (GRID_MISSES_NORM_BAND, 2000, "norm_gp", 1.0077864, (2.29702, 2.30112)),
        (47, 400, "norm_gm", 1.015433, (1.87765, 1.88737))], ids=["headway-44", "headway-47"])
    def test_band_the_grid_steps_over_is_marginal(self, tmp_path, case, points, row, peak, band):
        # tol_norm = 0.02 reads the band's peak, a tie corner, as marginal;
        # no grid sample lies in the band, and the level set at 1.02 finds
        # no band either (the band guard used to refuse both, exit 3)
        d, grid = HEADWAY_DYNAMICS[case], FrequencyGrid(points=points)
        assert exact_norms_exceed_one(d) == (row == "norm_gp", row == "norm_gm")
        omegas = grid.omegas()
        assert not ((omegas > band[0]) & (omegas < band[1])).any()
        verdict = local_string_verdict(d, grid, tol_norm=0.02)
        assert verdict.locally_string_stable == "marginal" and verdict.awtf_stable
        norm = getattr(verdict, row)
        assert norm.value == pytest.approx(peak, rel=1e-6)
        assert band[0] < norm.argmax_omega < band[1]
        mf, mr = ({"num": list(m.num.coeffs), "den": [0.0] * m.p + list(m.den.coeffs)}
                  for m in (d.Mf, d.Mr))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dynamics": {"mf": mf, "mr": mr, "h": d.h},
                                    "analysis": {"points": points,
                                                 "tolerances": {"tol_norm": 0.02}}}))
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
        assert payload["verdict"] == "marginal"
        assert payload["hinf"]["g_plus" if row == "norm_gp" else "g_minus"]["value"] == norm.value

    def test_tie_corner_reads_the_band_the_grid_steps_over(self):
        d = HEADWAY_DYNAMICS[GRID_MISSES_NORM_BAND]
        omegas = FrequencyGrid().omegas()
        assert max(abs(ws.g_plus) for ws in awtf_axis_sweep(d, omegas)) < 0.996
        verdict = local_string_verdict(d)
        assert verdict.locally_string_stable == "unstable" and verdict.awtf_stable
        assert verdict.notes == () and verdict.norm_gp.refined
        assert verdict.norm_gp.value == pytest.approx(1.0077864, rel=1e-7)
        assert 2.29702 < verdict.norm_gp.argmax_omega < 2.30112
        assert verdict.norm_gm.argmax_omega == verdict.norm_gp.argmax_omega

    def test_real_coupling_has_no_oracle(self):
        # M = 1/s^2: a = c = 1 and b = 2 - w^2 is real on the axis, so both
        # |a|**2 - |c|**2 and b conj(c) - a conj(b) vanish
        assert exact_norms_exceed_one(undamped()) is None


class TestLevelSet:
    """The verdict at rho = 1 + tol_norm: unstable where the norm exceeds
    rho, else where the level set finds a band above rho."""

    @pytest.mark.parametrize("name", PEAK_ABOVE_ONE)
    def test_peak_straddle(self, name):
        # rho just below the norm P is unstable, rho just above it is not.
        # The level set alone misses some of the first: at near-tangency
        # Res's root pair comes out complex and is dropped.
        d = PEAK_ABOVE_ONE[name]
        verdict = local_string_verdict(d)
        peak = max(verdict.norm_gp.value, verdict.norm_gm.value)
        assert verdict.awtf_stable and peak > 1.0
        for eps in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            below = local_string_verdict(d, tol_norm=peak * (1.0 - eps) - 1.0)
            assert below.locally_string_stable == "unstable", eps
            above = local_string_verdict(d, tol_norm=peak * (1.0 + eps) - 1.0)
            assert above.locally_string_stable != "unstable", eps

    def test_band_the_norm_misses_is_unstable(self, monkeypatch):
        # norms forced to 0.99: only the level set can see |g_minus| > 1.001
        from test_array_core import min_moduli

        d = PEAK_ABOVE_ONE["property-02"]
        missed = stability.NormEstimate(0.99, 1.0, refined=True)
        monkeypatch.setattr(stability, "_norm_estimates", lambda *args: (missed, missed))
        verdict = local_string_verdict(d)
        assert verdict.locally_string_stable == "unstable" and verdict.awtf_stable
        (note,) = verdict.notes
        match = re.fullmatch(r"\|g_minus\| exceeds 1\.001 on \[(\S+), (\S+)\]", note)
        lo, hi = float(match[1]), float(match[2])
        inside = np.geomspace(lo, hi, 101)[1:-1]
        assert (min_moduli(d, inside)[1] > 1.001).all()
        outside = np.array([lo * (1 - 1e-4), hi * (1 + 1e-4)])
        assert (min_moduli(d, outside)[1] < 1.001).all()

    @pytest.mark.parametrize("d,tol_norm", [
        (canonical("gain-asym", 0.0), TOL_NORM), (canonical("vel-asym", 0.0), TOL_NORM),
        (canonical("sym", 0.0), TOL_NORM), (canonical("vel-asym", 0.5), TOL_NORM),
        (HEADWAY_DYNAMICS[GRID_MISSES_NORM_BAND], 0.02), (undamped(), TOL_NORM)],
        ids=["gain-asym", "vel-asym", "sym", "vel-asym-h0.5", "headway-44", "undamped"])
    def test_quadratic_rows_formed_once(self, monkeypatch, d, tol_norm):
        # fast path, level set, axis test failed, marginal, real curve
        calls = []
        build = stability._axis_quadratic
        monkeypatch.setattr(stability, "_axis_quadratic", lambda d: calls.append(d) or build(d))
        local_string_verdict(d, tol_norm=tol_norm)
        assert len(calls) == 1


class TestSharedAxisSweep:
    def test_verdict_samples_the_axis_once(self, gain_asym_dyn, monkeypatch):
        calls = {"t_g_eval": 0}
        entries = []
        t_g_eval, eval_terms = stability.t_g_eval, waves._eval_terms

        def counted(*args):
            calls["t_g_eval"] += 1
            return t_g_eval(*args)

        monkeypatch.setattr(stability, "t_g_eval", counted)
        monkeypatch.setattr(waves, "_eval_terms",
                            lambda d, s: entries.append(len(s)) or eval_terms(d, s))
        grid = FrequencyGrid()
        local_string_verdict(gain_asym_dyn, grid)
        # one probe per in-range real root of the axis polynomial at most
        assert 0 < calls["t_g_eval"] <= len(axis_polynomial_roots(gain_asym_dyn, grid))
        # Mf and Mr once per grid point, plus the refinement levels and the
        # axis test's probes
        assert entries[0] == grid.points
        assert sum(entries) <= grid.points + 8 * stability.ZOOM_POINTS + calls["t_g_eval"]


class TestHinf:
    def test_constant_evaluator(self):
        est = hinf_estimate(lambda w: np.full(len(w), 0.5 + 0j),
                            FrequencyGrid(1e-2, 1e2, 32).omegas())
        assert est.value == pytest.approx(0.5)

    def test_gain_asym_norm_exceeds_one(self, gain_asym_dyn):
        gp, gm = awtf_norm_estimates(gain_asym_dyn, SHORT_GRID.omegas())
        assert gp.value > 1.0
        assert gp.argmax_omega < 1.0  # low-frequency peak
        assert gm.value < 1.0

    def test_velocity_asym_norm_at_one(self, vel_asym_dyn):
        gp, gm = awtf_norm_estimates(vel_asym_dyn, SHORT_GRID.omegas())
        assert gp.value <= 1.0 + 1e-3
        assert gm.value <= 1.0 + 1e-3

    def test_monotone_under_grid_refinement(self, gain_asym_dyn):
        values = []
        for points in (250, 500, 1000, 2000):
            gp, _ = awtf_norm_estimates(
                gain_asym_dyn, FrequencyGrid(1e-4, 1e3, points).omegas()
            )
            values.append(gp.value)
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12

    def test_value_at_least_every_grid_sample(self, gain_asym_dyn):
        grid = FrequencyGrid(1e-3, 1e2, 64)
        gp, _ = awtf_norm_estimates(gain_asym_dyn, grid.omegas())
        mags = [abs(s.g_plus) for s in awtf_axis_sweep(gain_asym_dyn, grid.omegas())]
        assert gp.value >= max(mags) - 1e-12


def interior_peak():
    """One-integrator agents, axis test passed, whose g_minus peaks at
    1.012188 near omega = 0.5778, far from the DC end of the grid."""
    den = Polynomial([0, 1, 0.5])
    return AgentDynamics(tf_normalize(Polynomial([0.5, 0.25]), den),
                         tf_normalize(Polynomial([2.0]), den))


class TestVerdict:
    def test_symmetric_stable(self, sym_dyn):
        v = local_string_verdict(sym_dyn, SHORT_GRID)
        assert v.locally_string_stable == "stable"
        assert v.awtf_stable
        assert not v.theorem2_triggered
        assert v.norm_gp.value <= 1 + 1e-3 and v.norm_gm.value <= 1 + 1e-3

    def test_gain_asym_unstable_with_fast_path(self, gain_asym_dyn):
        v = local_string_verdict(gain_asym_dyn, SHORT_GRID)
        assert v.locally_string_stable == "unstable"
        assert v.theorem2_triggered
        # the norms must independently confirm the predicted excess
        assert max(v.norm_gp.value, v.norm_gm.value) > 1.0

    def test_velocity_asym_stable_or_marginal(self, vel_asym_dyn):
        v = local_string_verdict(vel_asym_dyn, SHORT_GRID)
        assert v.locally_string_stable in ("stable", "marginal")
        assert not v.theorem2_triggered

    def test_interior_peak_within_tol_norm_is_marginal(self):
        v = local_string_verdict(interior_peak(), SHORT_GRID, tol_norm=0.02)
        assert v.awtf_stable and not v.theorem2_triggered
        assert v.norm_gm.value == pytest.approx(1.012188, abs=1e-6)
        assert v.locally_string_stable == "marginal"
        assert v.notes == (
            "peak 1.012188 at interior omega=0.5778 sits on the |G|=1 boundary",)

    def test_interior_peak_beyond_tol_norm_is_unstable(self):
        v = local_string_verdict(interior_peak(), SHORT_GRID, tol_norm=1e-3)
        assert v.awtf_stable and not v.theorem2_triggered
        assert v.locally_string_stable == "unstable"
        assert v.notes == ()

    def test_tolerances_reach_the_checks(self, sym_dyn, gain_asym_dyn):
        # Mf's zero at s = -1 counts as closed-RHP under a 1.5 margin
        with pytest.raises(AssumptionViolated):
            local_string_verdict(sym_dyn, SHORT_GRID, tol_crhp=1.5)
        # kappa = 1.6 is within 1.0 of symmetric, so no fast path
        v = local_string_verdict(gain_asym_dyn, SHORT_GRID, tol_dc=1.0)
        assert not v.theorem2_triggered

    def test_overflowing_grid_raises_a_library_error(self, gain_asym_dyn):
        # s**2 overflows in tf_eval at |s| = 1e200: a NumericalError, never
        # Python's bare OverflowError
        with pytest.raises(WavestringError, match=r"s=1e\+200j"):
            local_string_verdict(gain_asym_dyn, FrequencyGrid(omega_max=1e200))

    def test_first_bad_grid_entry_is_the_highest(self):
        # Mf vanishes at +-1j and +-2j, the two ends of the grid: the verdict
        # raises at s = 2j, where an axis sweep of the grid starts. The
        # imaginary-axis zeros pass the assumption check under tol_crhp = -1.
        mf = tf_normalize(Polynomial([4.0, 0.0, 5.0, 0.0, 1.0]),
                          Polynomial([0.0, 0.0, 1.0, 4.0, 6.0, 4.0, 1.0]))
        grid = FrequencyGrid(1.0, 2.0, 16)
        assert grid.omegas()[[0, -1]].tolist() == [1.0, 2.0]
        with pytest.raises(SingularSample, match=r"^Mf or Mr vanishes at s=2j$"):
            local_string_verdict(AgentDynamics(mf, front_coupling()), grid, tol_crhp=-1.0)

    @pytest.mark.parametrize("name", ["sym", "vel-asym"])
    @pytest.mark.parametrize("h", [0.0, 0.5])
    def test_kappa_one_peaks_at_the_dc_end(self, name, h):
        # kappa = 1: both DC gains are 1, and at h = 0 the peak is 1 to
        # within tol_norm at the grid's low end, which the marginal rule
        # exempts; a tie corner must not move the argmax past 10 omega_min
        grid = FrequencyGrid()
        v = local_string_verdict(canonical(name, h), grid)
        assert v.locally_string_stable == ("stable" if h == 0.0 else "unstable")
        assert v.awtf_stable == (h == 0.0) and not v.theorem2_triggered
        for est in (v.norm_gp, v.norm_gm):
            assert est.argmax_omega == grid.omega_min
            assert abs(est.value - 1.0) <= (TOL_NORM if h == 0.0 else 0.01)

    def test_assumption_violation_raises(self):
        mf = RationalTF(Polynomial([1]), Polynomial([1, 1]), p=2)
        mr = RationalTF(Polynomial([1]), Polynomial([1, 1]), p=1)
        with pytest.raises(AssumptionViolated):
            local_string_verdict(AgentDynamics(mf, mr), SHORT_GRID)


class TestAsymmetryExcessScan:
    """Two integrators plus kappa != 1 force a wave-coupling peak above 1."""

    def test_randomized_pairs_exceed_one(self):
        rng = np.random.default_rng(2024)
        scan = np.geomspace(1e-5, 1e-1, 300)
        for _ in range(20):
            d = random_pi_pair(rng)
            peak = self._scan_peak(d, scan)
            if peak <= 1.0 + 1e-9:
                # extreme asymmetries can push the excess outside the nominal
                # low-frequency range; widen once before failing
                peak = self._scan_peak(d, np.geomspace(1e-6, 1.0, 600))
            assert peak > 1.0 + 1e-9, low_order_coeffs(d)

    @staticmethod
    def _scan_peak(d, omegas):
        samples = awtf_axis_sweep(d, omegas)
        return max(
            max(abs(s.g_plus) for s in samples),
            max(abs(s.g_minus) for s in samples),
        )


class TestHeadwayDominantTerm:
    def test_h_zero_reduces_to_constant_spacing_term(self, gain_asym_dyn):
        c = low_order_coeffs(gain_asym_dyn)
        assert headway_dominant_term(gain_asym_dyn) == pytest.approx(
            c.l_x1 * (c.kappa - 1) ** 2
        )

    def test_symmetric_kappa_gives_minus_h_squared(self, vel_asym_dyn):
        d = AgentDynamics(vel_asym_dyn.Mf, vel_asym_dyn.Mr, h=0.8)
        assert headway_dominant_term(d) == pytest.approx(-0.64)

    def test_sign_change_threshold(self, gain_asym_dyn):
        # l*(k-1)^2 - h^2 k^2 = 0 at h* = sqrt(1.2*0.36/2.56)
        mf, mr = gain_asym_dyn.Mf, gain_asym_dyn.Mr
        assert headway_dominant_term(AgentDynamics(mf, mr, h=0.0)) > 0
        lo, hi = 0.0, 2.0
        assert headway_dominant_term(AgentDynamics(mf, mr, h=hi)) < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if headway_dominant_term(AgentDynamics(mf, mr, h=mid)) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(np.sqrt(1.2 * 0.36 / 2.56), abs=1e-6)


class TestDisturbanceGain:
    def test_needs_three_agents(self, sym_dyn):
        with pytest.raises(ValueError):
            disturbance_gain(sym_dyn, 2, 0.05)

    def test_singular_near_dc(self, sym_dyn):
        from wavestring.errors import ReflectionSingular

        with pytest.raises(ReflectionSingular):
            disturbance_gain(sym_dyn, 5, 1e-9)

    def test_symmetric_bounded_in_chain_length(self, sym_dyn):
        mags = [abs(disturbance_gain(sym_dyn, N, 0.05)[0])
                for N in (5, 10, 20, 40)]
        assert max(mags) <= 10 * mags[0]

    def test_gain_asym_grows_with_chain_length(self, gain_asym_dyn):
        mags = [abs(disturbance_gain(gain_asym_dyn, N, 0.01)[0])
                for N in (10, 20, 40)]
        assert mags[0] < mags[1] < mags[2]

    def test_growth_at_norm_argmax(self, gain_asym_dyn):
        gp, _ = awtf_norm_estimates(gain_asym_dyn, SHORT_GRID.omegas())
        assert gp.value > 1
        mags = [abs(disturbance_gain(gain_asym_dyn, N, gp.argmax_omega)[0])
                for N in (5, 10, 20, 40)]
        for a, b in zip(mags, mags[1:]):
            assert b > a

    def test_matches_state_space_at_small_chain(self, gain_asym_dyn):
        net = build_network(Topology.path(3), gain_asym_dyn)
        for w in (0.05, 0.3, 1.7):
            wave, _ = disturbance_gain(gain_asym_dyn, 3, w)
            ss = frequency_response(net, ("delta", 1), 3, 1j * w)
            assert abs(wave - ss) <= 1e-6 * abs(ss)

    def test_disturbance_equals_leader_channel(self, gain_asym_dyn):
        # the front-of-chain disturbance enters exactly like the leader signal
        net = build_network(Topology.path(4), gain_asym_dyn)
        for w in (0.1, 0.9):
            a = frequency_response(net, ("delta", 1), 4, 1j * w)
            b = frequency_response(net, "leader", 4, 1j * w)
            assert a == pytest.approx(b, rel=1e-12)
