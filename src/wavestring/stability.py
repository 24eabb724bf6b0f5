"""String-stability verdicts, H-infinity estimation and disturbance gains.

The wave couplings are irrational, so norms are estimated by a log-spaced
frequency sweep refined by zooming around the grid argmax (hinf_estimate);
there is no state-space bisection path. Where the smaller-modulus pick
switches root (see waves), that argmax sits on a corner of min(|r1|, |r2|),
so the refinement's error there is first order in TOL_OMEGA. The axis test
that guards analyticity is exact: its crossings are the in-range real roots
of one polynomial in omega.

A verdict samples the axis once: one hint-chained awtf_axis_sweep, a
WaveSweep of arrays, feeds both norm estimates (|g_plus| and |g_minus|),
and the axis test reads its range. Grid peaks are found on the arrays; each
refinement level is one more array sweep of ZOOM_POINTS frequencies,
hint-chained down from the top of its bracket. A FrequencyGrid computes its
omegas and its axis (s in chain order) once, so the rows of a sweep that
share one grid, as the CLI's do, share them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import AssumptionViolated, NumericalError
from .poly import Polynomial, poly_roots
from .tf import (TOL_CRHP, TOL_DC, AgentDynamics, check_assumption1,
                 low_order_coeffs, positional_symmetry)
from .waves import (
    Axis,
    WaveSweep,
    awtf_axis_sweep,
    awtf_eval,
    reflection_from_sample,
    round_trip,
    t_g_eval,
    wave_sweep,
)

TOL_NORM = 1e-3    # stable/marginal band half-width around |G| = 1
TOL_OMEGA = 1e-6   # relative frequency bracket that ends the norm refinement
ZOOM_POINTS = 64   # geometric points per refinement level
TOL_AXIS = 1e-9    # Re(t_g) at a crossing below this counts as non-positive
_ZOOM_STEPS = np.linspace(0.0, 1.0, ZOOM_POINTS)
_SAFE_EXPONENT = 64  # _axis_quadratic rows within 2**(+-64) are used as they are
_DOMINATED = 53 * math.log(2.0)  # log of 2**53: a term this far below another is dropped


@dataclass(frozen=True)
class FrequencyGrid:
    """Logarithmic frequency grid on [omega_min, omega_max] rad/s.

    A grid object computes its omegas and its Axis (waves.Axis) once, on
    first use; nothing is shared between grid objects.
    """

    omega_min: float = 1e-4
    omega_max: float = 1e3
    points: int = 2000

    def __post_init__(self):
        if self.omega_min <= 0:
            raise ValueError("omega_min must be positive")
        if self.omega_min >= self.omega_max:
            raise ValueError("omega_min must be below omega_max")
        if self.points < 16:
            raise ValueError("grid needs at least 16 points")

    def omegas(self) -> np.ndarray:
        """The grid's frequencies, ascending; read-only."""
        return self._omegas

    @cached_property
    def _omegas(self) -> np.ndarray:
        omegas = np.geomspace(self.omega_min, self.omega_max, self.points)
        omegas.flags.writeable = False
        return omegas

    @cached_property
    def axis(self) -> Axis:
        """The grid as awtf_axis_sweep walks it."""
        return Axis(self.omegas())


@dataclass(frozen=True)
class NormEstimate:
    """Grid-plus-refinement supremum estimate of |evaluator(j omega)|."""

    value: float
    argmax_omega: float
    refined: bool


@dataclass(frozen=True)
class StabilityVerdict:
    awtf_stable: bool
    locally_string_stable: str  # "stable" | "unstable" | "marginal"
    norm_gp: NormEstimate
    norm_gm: NormEstimate
    theorem2_triggered: bool
    crossings: tuple[float, ...] = field(default=())  # from nyquist_axis_test
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.locally_string_stable not in ("stable", "unstable", "marginal"):
            raise ValueError(f"bad verdict {self.locally_string_stable!r}")
        if self.theorem2_triggered and self.locally_string_stable != "unstable":
            raise ValueError("structural fast path forces the unstable verdict")


def _axis_quadratic(d: AgentDynamics) -> tuple[np.ndarray, ...]:
    """a, b, c of g_plus's quadratic a g**2 - b g + c = 0 and s**p Df Dr, with
    a = Nr Df, b = s**p Df Dr + (1 + h s)(Nf Dr + Nr Df) and c = Nf Dr, at
    s = j omega: complex coefficients in omega, ascending, of one length,
    all scaled by one power of two where their largest lies outside
    2**(+-_SAFE_EXPONENT)."""
    nf, df, nr, dr = (q.coeffs for q in (d.Mf.num, d.Mf.den, d.Mr.num, d.Mr.den))
    polys = (np.convolve(nr, df), np.convolve(nf, dr), np.convolve(df, dr))
    q = np.zeros((4, 1 + max(len(polys[0]), len(polys[1]), d.p + len(polys[2]))))
    for row, poly, shift in zip(q, polys, (0, 0, d.p)):
        row[shift:shift + len(poly)] = poly  # rows a, c, s**p Df Dr, then b
    x = q[0] + q[1]
    q[3] = q[2] + x
    q[3, 1:] += d.h * x[:-1]
    # The axis and unit-modulus polynomials are quartic in these rows; one
    # common power of two, exact, keeps them finite and leaves their roots.
    exponent = np.frexp(np.abs(q).max())[1]
    if abs(exponent) > _SAFE_EXPONENT:
        q = np.ldexp(q, -exponent)
    return tuple(q[[0, 3, 1, 2]] * np.array([1, 1j, -1, -1j])[np.arange(q.shape[1]) % 4])


def _real_roots(coeffs: np.ndarray, lo: float, hi: float) -> Optional[list[float]]:
    """The real roots in [lo, hi] of sum coeffs[k] w**k, ascending (None if
    every coefficient is zero). A term that another exceeds by 2**53 at lo
    and at hi does so on all of [lo, hi], so it is dropped; the rest are
    solved in x = w / sqrt(lo hi), formed from their logarithms and scaled
    to the largest. A root is real where |Im x| <= 1e-8 |x| (|Im y| for y)."""
    if not np.isfinite(coeffs).all():
        raise NumericalError("an axis polynomial's coefficients overflow")
    k = np.flatnonzero(coeffs)
    if not k.size:
        return None
    logs, log_range = np.log(np.abs(coeffs[k])), np.log([lo, hi])
    ends = logs[:, None] + np.outer(k, log_range)  # [term, end]
    keep = ~((ends - ends[:, None]) >= _DOMINATED).all(axis=2).any(axis=1)
    mid = 0.5 * (math.log(lo) + math.log(hi))
    k, logs = k[keep], logs[keep] + k[keep] * mid
    # over w**k[0], an even or odd polynomial is one in y = x**2
    step = 1 + bool(((k - k[0]) % 2 == 0).all())
    y = np.zeros((k[-1] - k[0]) // step + 1)
    y[(k - k[0]) // step] = np.sign(coeffs[k]) * np.exp(logs - logs.max())
    roots = poly_roots(Polynomial(y)) if len(y) > 1 else np.zeros(0)
    real = roots.real[np.abs(roots.imag) <= 1e-8 * np.abs(roots)]
    y_lo, y_hi = np.exp(step * (log_range - mid))
    return sorted(float(r) ** (1 / step) * math.exp(mid) for r in real if y_lo <= r <= y_hi)


def nyquist_axis_test(d: AgentDynamics, sweep: WaveSweep) -> tuple[bool, list[float]]:
    """Does the axis image of t_g avoid the non-positive real axis?

    Reads only the first and last frequency of an ascending sweep. With
    t_g = Tn/Td, Tn = b**2 - 4 a c and Td = (s**p Df Dr)**2 (_axis_quadratic),
    t_g(j omega) is real at the real roots of Im[Tn conj(Td)]; those in the
    range with Re t_g_eval <= TOL_AXIS are the crossings, ascending. Where it
    vanishes identically (t_g real on the axis, as for M = 1/s**2), they are
    the real part's roots, after the low end if Re t_g <= TOL_AXIS there.
    """
    lo, hi = float(sweep.s[0].imag), float(sweep.s[-1].imag)
    a, b, c, base = _axis_quadratic(d)
    tn_td = np.convolve(np.convolve(b, b) - 4.0 * np.convolve(a, c),
                        np.convolve(base, base).conj())
    crossings = _real_roots(tn_td.imag, lo, hi)
    if crossings is not None:
        crossings = [w for w in crossings if t_g_eval(d, 1j * w).real <= TOL_AXIS]
    else:
        low = [lo] if t_g_eval(d, 1j * lo).real <= TOL_AXIS else []
        crossings = low + (_real_roots(tn_td.real, lo, hi) or [])
    return not crossings, crossings


def _norm_band_guard(d: AgentDynamics, sweep: WaveSweep) -> Optional[str]:
    """Refuse where an ascending sweep's grid steps over |g| > 1.

    A root of a g**2 - b g + c has modulus 1 exactly where the real
    polynomial Res = (|a|**2 - |c|**2)**2 - |b conj(c) - a conj(b)|**2 in
    omega vanishes; g_minus's roots are the reciprocals, so Res serves both.
    Between its roots |g_plus| - 1 and |g_minus| - 1 keep their signs, so an
    interval with no grid sample is read at its geometric midpoint, hinted
    by the sample above; NumericalError names it if |g| > 1 there. Returns a
    note when Res vanishes identically.
    """
    omegas = sweep.s.imag
    a, b, c, _ = _axis_quadratic(d)
    gap = (np.convolve(a, a.conj()) - np.convolve(c, c.conj())).real
    cross = np.convolve(b, c.conj()) - np.convolve(a, b.conj())
    res = np.convolve(gap, gap) - np.convolve(cross, cross.conj()).real
    roots = _real_roots(res, float(omegas[0]), float(omegas[-1]))
    if roots is None:
        return "the unit-modulus polynomial vanishes identically: the norms are the grid's"
    for lo, hi in zip(roots, roots[1:]):
        k = min(int(np.searchsorted(omegas, lo, side="right")), len(omegas) - 1)
        if omegas[k] < hi:
            continue
        ws = awtf_eval(d, 1j * math.sqrt(lo * hi), sweep[k])
        if max(abs(ws.g_plus), abs(ws.g_minus)) > 1.0:
            raise NumericalError(f"the grid steps over |g| > 1 on [{lo:.6g}, {hi:.6g}]")
    return None


def _grid_peak(omegas: np.ndarray, mags: np.ndarray
               ) -> tuple[NormEstimate, Optional[tuple[float, float]]]:
    """Unrefined estimate at the argmax k of mags and the bracket of k's two
    neighbours (None when narrower than TOL_OMEGA relative)."""
    k = int(np.argmax(mags))
    peak = NormEstimate(float(mags[k]), float(omegas[k]), refined=False)
    lo = float(omegas[max(k - 1, 0)])
    hi = float(omegas[min(k + 1, len(omegas) - 1)])
    return peak, None if hi <= lo * (1.0 + TOL_OMEGA) else (lo, hi)


def hinf_estimate(
    evaluator: Callable[[np.ndarray], np.ndarray],
    omegas: np.ndarray = FrequencyGrid().omegas(),
    grid_values: Optional[np.ndarray] = None,
) -> NormEstimate:
    """Peak of |evaluator(omega)| over omegas, refined by zooming: each
    level evaluates ZOOM_POINTS geometric points from the previous level's
    argmax's lower neighbour to its upper one, until that bracket is
    narrower than TOL_OMEGA relative, and the largest value seen is
    reported. Where the peak is a corner (a wave coupling whose
    smaller-modulus pick switches root), the error is first order in
    TOL_OMEGA, not second.

    omegas is an ascending array of frequencies in rad/s. The evaluator
    receives such an array and returns the complex response on the
    imaginary axis at each; grid_values, when given, are its values at
    omegas already. The returned value never drops below any grid sample.
    Assumes the evaluator is analytic in the open right half plane so the
    boundary supremum equals the H-infinity norm; callers check that
    upstream (nyquist_axis_test for the wave couplings).
    """
    values = evaluator(omegas) if grid_values is None else grid_values
    best, bracket = _grid_peak(omegas, np.abs(values))
    if bracket is None:
        return best
    while bracket is not None:
        lo, hi = bracket
        omegas = lo * np.exp(_ZOOM_STEPS * math.log(hi / lo))
        omegas[-1] = hi  # the next level is seeded here
        peak, bracket = _grid_peak(omegas, np.abs(evaluator(omegas)))
        best = peak if peak.value > best.value else best
    return NormEstimate(best.value, best.argmax_omega, refined=True)


def _coupling_probe(d: AgentDynamics, sweep: WaveSweep, attr: str, levels: dict):
    """omegas (ascending) -> the coupling attr at 1j*omegas, each call one
    hint chain down from its highest frequency, seeded by the previous
    call's sample (at first, the ascending sweep's) at the lowest frequency
    at or above that one: a zoom level's top is a point of the level before.
    levels maps (lowest, highest) omega to the sweeps already evaluated, as
    a level that g_plus and g_minus share is."""
    last = sweep

    def probe(omegas: np.ndarray) -> np.ndarray:
        nonlocal last
        key = (omegas[0], omegas[-1])
        if key not in levels:
            k = min(int(np.searchsorted(last.s.imag, omegas[-1])), len(last) - 1)
            levels[key] = wave_sweep(d, 1j * omegas[::-1], last[k]).take(slice(None, None, -1))
        last = levels[key]
        return getattr(last, attr)

    return probe


def awtf_norm_estimates(d: AgentDynamics, sweep: WaveSweep
                        ) -> tuple[NormEstimate, NormEstimate]:
    """H-infinity estimates of (g_plus, g_minus) from an ascending
    awtf_axis_sweep: hinf_estimate on the sweep's frequencies and values,
    each zoom level a hint chain seeded at the sample at the top of its
    bracket. Where the two couplings zoom on the same bracket, as they
    mostly do, they share its evaluation."""
    omegas, levels = sweep.s.imag, {}
    gp, gm = (hinf_estimate(_coupling_probe(d, sweep, attr, levels), omegas,
                            getattr(sweep, attr)) for attr in ("g_plus", "g_minus"))
    return gp, gm


def local_string_verdict(
    d: AgentDynamics,
    grid: Optional[FrequencyGrid] = None,
    tol_norm: float = TOL_NORM,
    tol_dc: float = TOL_DC,
    tol_crhp: float = TOL_CRHP,
) -> StabilityVerdict:
    """Local string stability: wave couplings analytic with norms <= 1.

    One axis sweep feeds both checks: the axis test on t_g (analyticity of
    the couplings in the right half plane) and the norm estimates of g_plus
    and g_minus; an awtf_eval failure in the sweep (BranchAmbiguous at the
    highest frequency, say) is a NumericalError. A verdict that is not
    unstable is refused (NumericalError) where the grid steps over a band
    with |g_plus| or |g_minus| above 1 (_norm_band_guard).

    Fast path: two integrators, asymmetric positional coupling and zero
    headway force the unstable verdict outright; the norm estimates are still
    computed so callers can confirm the excess numerically.

    Peaks within tol_norm of 1 are the generic signature of a string-stable
    design (the DC gains touch 1 exactly), so they only downgrade the verdict
    to "marginal" when they occur at an interior frequency rather than at the
    DC end of the grid.

    grid defaults to a fresh FrequencyGrid(); verdicts that pass one grid
    object share its omegas and its Axis.
    """
    report = check_assumption1(d, tol_crhp=tol_crhp)
    if not report.passed:
        raise AssumptionViolated("; ".join(report.violations))

    grid = FrequencyGrid() if grid is None else grid
    sweep = awtf_axis_sweep(d, grid.axis)
    notes: list[str] = []
    stable, crossings = nyquist_axis_test(d, sweep)
    if not stable:
        notes.append(
            f"axis test failed at omega={', '.join(f'{w:.4g}' for w in crossings)}"
        )

    norm_gp, norm_gm = awtf_norm_estimates(d, sweep)
    max_norm = max(norm_gp.value, norm_gm.value)
    argmax_w = norm_gp.argmax_omega if norm_gp.value >= norm_gm.value \
        else norm_gm.argmax_omega

    fast_path = d.p == 2 and d.h == 0.0 and not positional_symmetry(d, tol_dc)
    if fast_path:
        verdict = "unstable"
        notes.append(
            "two integrators with asymmetric positional coupling: "
            "unstable regardless of the measured peak"
        )
        if max_norm <= 1.0 + tol_norm:
            notes.append(
                f"warning: norm estimate {max_norm:.6f} does not confirm the "
                "predicted excess; grid may be too narrow"
            )
    elif not stable:
        verdict = "unstable"
    elif max_norm > 1.0 + tol_norm:
        verdict = "unstable"
    elif abs(max_norm - 1.0) <= tol_norm and argmax_w > 10.0 * grid.omega_min:
        verdict = "marginal"
        notes.append(
            f"peak {max_norm:.6f} at interior omega={argmax_w:.4g} sits on the "
            "|G|=1 boundary"
        )
    else:
        verdict = "stable"
    if verdict != "unstable" and (note := _norm_band_guard(d, sweep)):
        notes.append(note)

    return StabilityVerdict(
        awtf_stable=stable,
        locally_string_stable=verdict,
        norm_gp=norm_gp,
        norm_gm=norm_gm,
        theorem2_triggered=fast_path,
        crossings=tuple(crossings),
        notes=tuple(notes),
    )


def headway_dominant_term(d: AgentDynamics) -> float:
    """Sign-determining term of the low-frequency excess under a headway policy.

    l_x1*(kappa - 1)**2 + h*k_y1*(1 - kappa) - h**2*kappa**2. At h = 0 it
    reduces to the constant-spacing term l_x1*(kappa - 1)**2; a negative
    value means the headway has removed the forced low-frequency excess.
    """
    c = low_order_coeffs(d)
    h = d.h
    return (
        c.l_x1 * (c.kappa - 1.0) ** 2
        + h * c.k_y1 * (1.0 - c.kappa)
        - h * h * c.kappa * c.kappa
    )


def disturbance_gain(
    d: AgentDynamics,
    N: int,
    omega: float,
) -> tuple[complex, complex]:
    """Chain-end disturbance transfers at s = 1j*omega for an N-agent path.

    Returns (front-to-rear, rear-to-front-prefactor):

      X_N/D_1 = g_plus**N * (1 + tN) / (1 - tN*t1*(g_plus*g_minus)**(N-1))
      prefactor = g_minus**(N-1) * (1 + t1) / (same denominator)

    The rear-to-front transfer carries an additional boundary factor that
    cancels in growth comparisons, so only the prefactor structure is
    returned. Raises ReflectionSingular near omega = 0.
    """
    if N < 3:
        raise ValueError("path interconnection needs N >= 3 agents")
    s = 1j * omega
    ws = awtf_eval(d, s)
    refl = reflection_from_sample(ws)
    denom = round_trip(ws, refl, N)
    forward = ws.g_plus**N * (1.0 + refl.tN) / denom
    backward = ws.g_minus ** (N - 1) * (1.0 + refl.t1) / denom
    return forward, backward
