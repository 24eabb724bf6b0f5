"""String-stability verdicts, H-infinity estimation and disturbance gains.

The wave couplings are irrational, so norms are estimated by a log-spaced
frequency sweep plus golden-section refinement around the grid argmax; there
is no state-space bisection path. The Nyquist-style axis test that guards
analyticity is a hard hypothesis for everything else, so an undersampled
curve raises GridTooCoarse instead of silently passing.

A verdict samples the axis once: one hint-chained awtf_axis_sweep, a
WaveSweep of arrays, feeds the axis test (its t_g array) and both norm
estimates (|g_plus| and |g_minus| as np.hypot of the arrays). Sign changes
and grid peaks are found on the arrays; only the bisection and golden-section
probes between grid points evaluate anew, through the scalar awtf_eval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import AssumptionViolated, GridTooCoarse
from .tf import (TOL_CRHP, TOL_DC, AgentDynamics, check_assumption1,
                 low_order_coeffs, positional_symmetry)
from .waves import (
    WaveSweep,
    awtf_axis_sweep,
    awtf_eval,
    reflection_from_sample,
    t_g_eval,
    wave_chain,
)

TOL_NORM = 1e-3    # stable/marginal band half-width around |G| = 1
TOL_OMEGA = 1e-6   # relative frequency bracket for bisection/golden refinement
TOL_AXIS = 1e-9    # Re(t_g) at a crossing below this counts as non-positive
PHASE_JUMP_LIMIT = math.pi / 2  # adjacent-sample phase jump that flags undersampling


@dataclass(frozen=True)
class FrequencyGrid:
    """Logarithmic frequency grid on [omega_min, omega_max] rad/s."""

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
        return np.geomspace(self.omega_min, self.omega_max, self.points)


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


def _bisect_sign_change(f: Callable[[float], float], lo: float, hi: float,
                        f_lo: float, tol_omega: float) -> float:
    """Geometric bisection of a sign change of f on [lo, hi], f(lo) = f_lo,
    down to a tol_omega relative bracket; returns its geometric midpoint."""
    while (hi - lo) > tol_omega * hi:
        mid = math.sqrt(lo * hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def nyquist_axis_test(
    d: AgentDynamics,
    sweep: WaveSweep,
    tol_axis: float = TOL_AXIS,
    tol_omega: float = TOL_OMEGA,
) -> tuple[bool, list[float]]:
    """Does the axis image of t_g avoid the non-positive real axis?

    Reads t_g(j omega) from an ascending awtf_axis_sweep (negative omega
    follows by conjugate symmetry), refines every sign change of the
    imaginary part by bisection on t_g_eval, and reports the crossing
    frequencies whose real part is <= tol_axis. Raises GridTooCoarse when
    the sampled phase jumps by more than pi/2 between neighbours, which
    means crossings could hide between samples.
    """
    omegas = sweep.s.imag
    values = sweep.t_g

    crossings: list[float] = []

    # Phase jumps above pi/2 mean either undersampling (raise) or a passage
    # through the origin between samples, which is itself an intersection
    # with the non-positive real axis and gets refined below.
    phases = np.angle(values)
    dphi = np.angle(np.exp(1j * np.diff(phases)))  # wrapped to (-pi, pi]
    origin_passages: list[int] = []
    for k in np.nonzero(np.abs(dphi) > PHASE_JUMP_LIMIT)[0]:
        seg = abs(values[k] - values[k + 1])
        if min(abs(values[k]), abs(values[k + 1])) <= seg:
            origin_passages.append(int(k))
        else:
            raise GridTooCoarse(
                f"phase jump {abs(dphi[k]):.3f} rad between "
                f"omega={omegas[k]:.3g} and {omegas[k + 1]:.3g} away from the "
                "origin; refine the grid"
            )
    for k in origin_passages:
        im_k, im_k1 = values[k].imag, values[k + 1].imag
        if im_k != 0.0 and im_k1 != 0.0 and im_k * im_k1 <= 0:
            continue  # the imaginary-part sign-change pass below handles it
        re_k, re_k1 = values[k].real, values[k + 1].real
        if re_k * re_k1 > 0:
            continue  # grazing without a sign change; tol_axis decides at samples
        w_star = _bisect_sign_change(
            lambda w: t_g_eval(d, 1j * w).real,
            float(omegas[k]), float(omegas[k + 1]), re_k, tol_omega,
        )
        t_star = t_g_eval(d, 1j * w_star)
        # Re vanishes inside the bracket by construction; only a curve that
        # is also near the real axis there actually touches the target set.
        im_window = 1e-6 * max(abs(values[k]), abs(values[k + 1])) + tol_axis
        if abs(t_star.imag) <= im_window:
            crossings.append(w_star)

    # Samples sitting exactly on the real axis need no refinement; a run of
    # them is one crossing, reported at its first sample.
    on_axis = (values.imag == 0.0) & (values.real <= tol_axis)
    run_starts = on_axis & ~np.concatenate(([False], on_axis[:-1]))
    crossings.extend(float(w) for w in omegas[run_starts])

    im = values.imag
    for k in np.nonzero((im[:-1] != 0.0) & (im[1:] != 0.0)
                        & ~(im[:-1] * im[1:] > 0))[0]:
        w_star = _bisect_sign_change(
            lambda w: t_g_eval(d, 1j * w).imag,
            float(omegas[k]), float(omegas[k + 1]), im[k], tol_omega,
        )
        if t_g_eval(d, 1j * w_star).real <= tol_axis:
            crossings.append(w_star)

    return len(crossings) == 0, crossings


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _grid_peak(omegas: np.ndarray, mags: np.ndarray, tol_omega: float
               ) -> tuple[int, NormEstimate, Optional[tuple[float, float]]]:
    """Grid argmax k of mags, its unrefined estimate and the bracket of its
    two neighbours (None when narrower than tol_omega relative)."""
    k = int(np.argmax(mags))
    peak = NormEstimate(float(mags[k]), float(omegas[k]), refined=False)
    lo = float(omegas[max(k - 1, 0)])
    hi = float(omegas[min(k + 1, len(omegas) - 1)])
    return k, peak, None if hi <= lo * (1.0 + tol_omega) else (lo, hi)


def hinf_estimate(
    evaluator: Callable[[float], complex],
    grid: FrequencyGrid = FrequencyGrid(),
    tol_omega: float = TOL_OMEGA,
) -> NormEstimate:
    """Peak of |evaluator(omega)| over the grid, golden-section refined.

    The evaluator receives the frequency in rad/s and returns the complex
    response on the imaginary axis. The returned value never drops below any
    grid sample. Assumes the evaluator is analytic in the open right half
    plane so the boundary supremum equals the H-infinity norm; callers check
    that upstream (nyquist_axis_test for the wave couplings).
    """
    omegas = grid.omegas()
    mags = np.array([abs(evaluator(w)) for w in omegas])
    _, peak, bracket = _grid_peak(omegas, mags, tol_omega)
    if bracket is None:
        return peak
    best_val, best_w = peak.value, peak.argmax_omega

    # Golden-section in log-frequency.
    a, b = math.log(bracket[0]), math.log(bracket[1])
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1 = abs(evaluator(math.exp(x1)))
    f2 = abs(evaluator(math.exp(x2)))
    while (b - a) > math.log1p(tol_omega):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = abs(evaluator(math.exp(x2)))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = abs(evaluator(math.exp(x1)))
    w_ref = math.exp(0.5 * (a + b))
    f_ref = abs(evaluator(w_ref))
    if f_ref > best_val:
        best_val, best_w = f_ref, w_ref
    return NormEstimate(value=best_val, argmax_omega=best_w, refined=True)


def awtf_norm_estimates(
    d: AgentDynamics,
    sweep: WaveSweep,
    tol_omega: float = TOL_OMEGA,
) -> tuple[NormEstimate, NormEstimate]:
    """H-infinity estimates of (g_plus, g_minus) from an ascending
    awtf_axis_sweep, each peak refined on a hint chain seeded next to it."""
    omegas = sweep.s.imag

    results: list[NormEstimate] = []
    for attr in ("g_plus", "g_minus"):
        g = getattr(sweep, attr)
        k, peak, bracket = _grid_peak(omegas, np.hypot(g.real, g.imag), tol_omega)
        if bracket is None:
            results.append(peak)
            continue
        chain = wave_chain(d, seed=sweep[min(k + 1, len(omegas) - 1)])
        refined = hinf_estimate(
            lambda w: getattr(chain(1j * w), attr),
            FrequencyGrid(*bracket, 16),
            tol_omega=tol_omega,
        )
        best = refined if refined.value >= peak.value else peak
        results.append(NormEstimate(best.value, best.argmax_omega, refined=True))
    return results[0], results[1]


def local_string_verdict(
    d: AgentDynamics,
    grid: FrequencyGrid = FrequencyGrid(),
    tol_norm: float = TOL_NORM,
    tol_dc: float = TOL_DC,
    tol_crhp: float = TOL_CRHP,
) -> StabilityVerdict:
    """Local string stability: wave couplings analytic with norms <= 1.

    The axis sweep runs first, so an awtf_eval failure (BranchAmbiguous at
    the highest frequency, say) surfaces before GridTooCoarse; both are
    NumericalErrors.

    Fast path: two integrators, asymmetric positional coupling and zero
    headway force the unstable verdict outright; the norm estimates are still
    computed so callers can confirm the excess numerically.

    Peaks within tol_norm of 1 are the generic signature of a string-stable
    design (the DC gains touch 1 exactly), so they only downgrade the verdict
    to "marginal" when they occur at an interior frequency rather than at the
    DC end of the grid.
    """
    report = check_assumption1(d, tol_crhp=tol_crhp)
    if not report.passed:
        raise AssumptionViolated("; ".join(report.violations))

    sweep = awtf_axis_sweep(d, grid.omegas())
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
    loop = refl.tN * refl.t1 * (ws.g_plus * ws.g_minus) ** (N - 1)
    denom = 1.0 - loop
    forward = ws.g_plus**N * (1.0 + refl.tN) / denom
    backward = ws.g_minus ** (N - 1) * (1.0 + refl.t1) / denom
    return forward, backward
