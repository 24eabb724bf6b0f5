"""String-stability verdicts and H-infinity estimation.

A verdict reads the moduli of the wave couplings (waves.wave_moduli) and
polynomials in omega from one set of rows, g_plus's quadratic on the axis
(_axis_quadratic), never a branch pick. Each norm is the larger of a
log-spaced grid refined by zooming around its argmax (hinf_estimate), each
level ZOOM_POINTS frequencies that both couplings share where they reach
the same bracket, and the tie corners in range, the real roots of one
polynomial. The axis test's crossings are the in-range real roots of
another. A verdict the norms do not read as unstable is checked at
rho = 1 + tol_norm by a level set: between the real roots of two more
polynomials |g| - rho keeps its sign, so one moduli call decides. A
FrequencyGrid computes its omegas once, for every verdict that shares it."""

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
from .waves import t_g_eval, wave_moduli

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

    A grid object computes its omegas once, on first use; nothing is shared
    between grid objects.
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
    crossings: tuple[float, ...] = field(default=())  # from _axis_crossings
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
    # The axis, tie and level-set polynomials are quartic in these rows; one
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


def nyquist_axis_test(d: AgentDynamics, omegas: np.ndarray) -> tuple[bool, list[float]]:
    """Does the axis image of t_g avoid the non-positive real axis?

    Reads only the first and last of ascending omegas. With t_g = Tn/Td,
    Tn = b**2 - 4 a c and Td = (s**p Df Dr)**2 (_axis_quadratic),
    t_g(j omega) is real at the real roots of Im[Tn conj(Td)]; those in the
    range with Re t_g_eval <= TOL_AXIS are the crossings, ascending. Where it
    vanishes identically (t_g real on the axis, as for M = 1/s**2), they are
    the real part's roots, after the low end if Re t_g <= TOL_AXIS there.
    """
    crossings = _axis_crossings(d, _axis_quadratic(d), float(omegas[0]), float(omegas[-1]))
    return not crossings, crossings


def _axis_crossings(d: AgentDynamics, rows: tuple[np.ndarray, ...],
                    lo: float, hi: float) -> list[float]:
    """nyquist_axis_test's crossings in [lo, hi] from _axis_quadratic's rows."""
    a, b, c, base = rows
    tn_td = np.convolve(np.convolve(b, b) - 4.0 * np.convolve(a, c),
                        np.convolve(base, base).conj())
    crossings = _real_roots(tn_td.imag, lo, hi)
    if crossings is not None:
        return [w for w in crossings if t_g_eval(d, 1j * w).real <= TOL_AXIS]
    low = [lo] if t_g_eval(d, 1j * lo).real <= TOL_AXIS else []
    return low + (_real_roots(tn_td.real, lo, hi) or [])


def _band_over(d: AgentDynamics, rows: tuple[np.ndarray, ...], lo: float, hi: float,
               rho: float) -> Optional[str]:
    """A note naming the first band in [lo, hi], ascending, where |g_plus| or
    |g_minus| exceeds rho, else None. A root of g_plus's quadratic (rows
    a, b, c) has modulus rho where a root of A x**2 - B x + C, with
    A, B, C = rho a, b, c / rho, has modulus 1: at the real roots of
    Res = (|A|**2 - |C|**2)**2 - |B conj(C) - A conj(B)|**2. For g_minus,
    whose roots are the reciprocals, swap a and c. The rows are scaled by
    powers of two (no power of rho is formed), so Res is finite for every
    finite rho. Between its roots |g| - rho keeps its sign: each interval is
    read at its geometric midpoint, all in one wave_moduli call. A Res that
    vanishes identically (|g| = rho on the whole axis) has no band."""
    a, b, c, _ = rows
    m, e = math.frexp(rho)
    bands = []  # (low edge, high edge, wave_moduli row)
    for row, (first, last) in enumerate(((a, c), (c, a))):
        q, k = np.stack([m * first, b, last / m]), np.array([e, 0, -e])  # A, B, C = q 2**k
        k -= (np.frexp(np.abs(q).max(axis=1))[1] + k).max()
        qa, qb, qc = np.ldexp(q.view(float), k[:, None]).view(complex)
        gap = (np.convolve(qa, qa.conj()) - np.convolve(qc, qc.conj())).real
        cross = np.convolve(qb, qc.conj()) - np.convolve(qa, qb.conj())
        roots = _real_roots(np.convolve(gap, gap) - np.convolve(cross, cross.conj()).real,
                            lo, hi)
        if roots is not None:
            edges = [lo, *roots, hi]
            bands += [(w, v, row) for w, v in zip(edges, edges[1:]) if v > w]
    moduli = wave_moduli(d, 1j * np.sqrt([w * v for w, v, _ in bands]))
    over = [band for k, band in enumerate(bands) if moduli[band[2], k] > rho]
    if not over:
        return None
    w, v, row = min(over)
    return f"|{('g_plus', 'g_minus')[row]}| exceeds {rho:.6g} on [{w:.6g}, {v:.6g}]"


def _tie_corners(rows: tuple[np.ndarray, ...], lo: float, hi: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The frequencies in [lo, hi] where g_plus's roots r1, r2 tie in
    modulus, ascending, and |g_plus|, |g_minus| there as two rows. They tie
    exactly where b**2/(a c) = r1/r2 + 2 + r2/r1 is real and in [0, 4]: at
    the real roots of Im[b**2 conj(a c)] (_axis_quadratic's rows) with
    0 <= Re(b**2/(a c)) <= 4. There |g_plus| = sqrt(|c|/|a|) and, g_minus's
    roots being the reciprocals, |g_minus| = sqrt(|a|/|c|)."""
    a, b, c, _ = rows
    bb, ac = np.convolve(b, b), np.convolve(a, c)
    omegas = np.array(_real_roots(np.convolve(bb, ac.conj()).imag, lo, hi) or [])
    at_a, at_bb, at_c = (np.polynomial.polynomial.polyval(omegas, q) for q in (a, bb, c))
    with np.errstate(all="ignore"):
        ratio = (at_bb / (at_a * at_c)).real
        tie = (ratio >= 0.0) & (ratio <= 4.0)
        g_plus = np.sqrt(np.abs(at_c[tie]) / np.abs(at_a[tie]))
    return omegas[tie], np.stack([g_plus, 1.0 / g_plus])


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
) -> NormEstimate:
    """Peak of |evaluator(omega)| over omegas, refined by zooming: each
    level evaluates ZOOM_POINTS geometric points from the previous level's
    argmax's lower neighbour to its upper one, until that bracket is
    narrower than TOL_OMEGA relative, and the largest value seen is
    reported. At a smooth peak the error is second order in TOL_OMEGA; at
    a corner of |evaluator| it is first order.

    omegas is an ascending array of frequencies in rad/s. The evaluator
    receives such an array and returns the response on the imaginary axis
    at each, or its modulus. The returned value never drops below any grid
    sample. Assumes the evaluator is analytic in the open right half plane
    so the boundary supremum equals the H-infinity norm; callers check that
    upstream (nyquist_axis_test for the wave couplings).
    """
    best, bracket = _grid_peak(omegas, np.abs(evaluator(omegas)))
    if bracket is None:
        return best
    while bracket is not None:
        lo, hi = bracket
        omegas = lo * np.exp(_ZOOM_STEPS * math.log(hi / lo))
        omegas[-1] = hi  # exactly the bracket's top: the levels nest
        peak, bracket = _grid_peak(omegas, np.abs(evaluator(omegas)))
        best = peak if peak.value > best.value else best
    return NormEstimate(best.value, best.argmax_omega, refined=True)


def awtf_norm_estimates(d: AgentDynamics, omegas: np.ndarray
                        ) -> tuple[NormEstimate, NormEstimate]:
    """H-infinity estimates of (g_plus, g_minus) over ascending omegas: each
    the larger of hinf_estimate on its wave_moduli row and the tie corners
    in range (_tie_corners), whose frequency is then the argmax (refined
    still says whether the zoom ran). The grid, and a zoom level that both
    couplings reach, as they mostly do, is evaluated once for both."""
    return _norm_estimates(d, _axis_quadratic(d), omegas)


def _norm_estimates(d: AgentDynamics, rows: tuple[np.ndarray, ...], omegas: np.ndarray
                    ) -> tuple[NormEstimate, NormEstimate]:
    """awtf_norm_estimates with the tie corners from _axis_quadratic's rows."""
    levels: dict = {}

    def moduli(w: np.ndarray) -> np.ndarray:
        key = (w[0], w[-1], len(w))
        if key not in levels:
            levels[key] = wave_moduli(d, 1j * w)
        return levels[key]

    norms = [hinf_estimate(lambda w: moduli(w)[0], omegas),
             hinf_estimate(lambda w: moduli(w)[1], omegas)]
    corners, peaks = _tie_corners(rows, float(omegas[0]), float(omegas[-1]))
    for row, m in enumerate(peaks):
        if m.size and m.max() > norms[row].value:
            k = int(np.argmax(m))
            norms[row] = NormEstimate(float(m[k]), float(corners[k]), norms[row].refined)
    return norms[0], norms[1]


def local_string_verdict(
    d: AgentDynamics,
    grid: Optional[FrequencyGrid] = None,
    tol_norm: float = TOL_NORM,
    tol_dc: float = TOL_DC,
    tol_crhp: float = TOL_CRHP,
) -> StabilityVerdict:
    """Local string stability: wave couplings analytic with norms <= 1.

    Every check reads the grid's range and _axis_quadratic's rows, formed
    once: the norm estimates of g_plus and g_minus (awtf_norm_estimates,
    the grid's moduli first, so a bad grid entry raises there, the highest
    first) and the axis test on t_g (analyticity of the couplings in the
    right half plane). A norm above rho = 1 + tol_norm is unstable; failing
    that, so is a band with |g_plus| or |g_minus| above rho that the level
    set finds (_band_over), and a note names it.

    Fast path: two integrators, asymmetric positional coupling and zero
    headway force the unstable verdict outright; the norm estimates are still
    computed so callers can confirm the excess numerically.

    Peaks within tol_norm of 1 are the generic signature of a string-stable
    design (the DC gains touch 1 exactly), so they only downgrade the verdict
    to "marginal" when they occur at an interior frequency rather than at the
    DC end of the grid.

    grid defaults to a fresh FrequencyGrid(); verdicts that pass one grid
    object share its omegas.
    """
    report = check_assumption1(d, tol_crhp=tol_crhp)
    if not report.passed:
        raise AssumptionViolated("; ".join(report.violations))

    grid = FrequencyGrid() if grid is None else grid
    omegas = grid.omegas()
    rows = _axis_quadratic(d)
    norm_gp, norm_gm = _norm_estimates(d, rows, omegas)
    notes: list[str] = []
    lo, hi = float(omegas[0]), float(omegas[-1])
    crossings = _axis_crossings(d, rows, lo, hi)
    stable = not crossings
    if not stable:
        notes.append(f"axis test failed at omega={', '.join(f'{w:.4g}' for w in crossings)}")

    peak = max(norm_gp, norm_gm, key=lambda n: n.value)
    max_norm, argmax_w = peak.value, peak.argmax_omega

    fast_path = d.p == 2 and d.h == 0.0 and not positional_symmetry(d, tol_dc)
    if fast_path:
        verdict = "unstable"
        notes.append("two integrators with asymmetric positional coupling: "
                     "unstable regardless of the measured peak")
        if max_norm <= 1.0 + tol_norm:
            notes.append(f"warning: norm estimate {max_norm:.6f} does not confirm the "
                         "predicted excess; grid may be too narrow")
    elif not stable or max_norm > 1.0 + tol_norm:
        verdict = "unstable"
    elif band := _band_over(d, rows, lo, hi, 1.0 + tol_norm):
        verdict = "unstable"
        notes.append(band)
    elif abs(max_norm - 1.0) <= tol_norm and argmax_w > 10.0 * grid.omega_min:
        verdict = "marginal"
        notes.append(f"peak {max_norm:.6f} at interior omega={argmax_w:.4g} sits on the "
                     "|G|=1 boundary")
    else:
        verdict = "stable"

    return StabilityVerdict(awtf_stable=stable, locally_string_stable=verdict,
                            norm_gp=norm_gp, norm_gm=norm_gm, theorem2_triggered=fast_path,
                            crossings=tuple(crossings), notes=tuple(notes))


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
