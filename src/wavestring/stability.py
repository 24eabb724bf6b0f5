"""String-stability verdicts, H-infinity estimation and disturbance gains.

The wave couplings are irrational, so norms are estimated by a log-spaced
frequency sweep plus golden-section refinement around the grid argmax; there
is no state-space bisection path. Where the smaller-modulus pick switches
root (see waves), that argmax sits on a corner of min(|r1|, |r2|), so the
search's error there is first order in TOL_OMEGA: on the bench's random
pair 0 it reports 1.7028776, where |g_plus| reaches 1.7028796 at
omega = 0.9585391. The Nyquist-style axis test that guards analyticity
reads t_g at the grid frequencies only: a phase jump above pi/2 between
neighbours is refined as a passage through the origin, and a curve that
winds between samples can hide crossings, so it needs a finer grid.

A verdict samples the axis once: one hint-chained awtf_axis_sweep, a
WaveSweep of arrays, feeds the axis test (its t_g array) and both norm
estimates (|g_plus| and |g_minus| as np.hypot of the arrays). Sign changes
and grid peaks are found on the arrays; only the probes between grid points
evaluate anew. A bisection probe reads t_g_eval. A peak's 16-point
refinement grid is one FrequencyGrid and one awtf_eval chain, shared by
g_plus and g_minus when they peak at the same grid index, as they mostly
do; each golden-section probe then evaluates only the coupling it refines
(waves.coupling_chain). A FrequencyGrid computes its omegas and its axis
(s in chain order, with the Mf and Mr values last evaluated there) once,
so the rows of a sweep that share one grid, as the CLI's do, share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AssumptionViolated
from .tf import (TOL_CRHP, TOL_DC, AgentDynamics, check_assumption1,
                 low_order_coeffs, positional_symmetry)
from .waves import (
    Axis,
    WaveSample,
    WaveSweep,
    awtf_axis_sweep,
    awtf_eval,
    coupling_chain,
    reflection_from_sample,
    round_trip,
    t_g_eval,
    wave_chain,
)

TOL_NORM = 1e-3    # stable/marginal band half-width around |G| = 1
TOL_OMEGA = 1e-6   # relative frequency bracket for bisection/golden refinement
TOL_AXIS = 1e-9    # Re(t_g) at a crossing below this counts as non-positive
PHASE_JUMP_LIMIT = math.pi / 2  # adjacent-sample phase jump taken as an origin passage


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


def _bisect_sign_change(f: Callable[[float], float], lo: float, hi: float,
                        f_lo: float) -> float:
    """Geometric bisection of a sign change of f on [lo, hi], f(lo) = f_lo,
    down to a TOL_OMEGA relative bracket; returns its geometric midpoint."""
    while (hi - lo) > TOL_OMEGA * hi:
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


def nyquist_axis_test(d: AgentDynamics, sweep: WaveSweep) -> tuple[bool, list[float]]:
    """Does the axis image of t_g avoid the non-positive real axis?

    Reads t_g(j omega) from an ascending awtf_axis_sweep (negative omega
    follows by conjugate symmetry), refines every sign change of the
    imaginary part by bisection on t_g_eval, and reports the crossing
    frequencies whose real part is <= TOL_AXIS. A phase jump of more than
    pi/2 between neighbours a and b makes the chord longer than either
    (|a - b|**2 > |a|**2 + |b|**2), so it is refined as a passage through
    the origin. A crossing between samples that shows neither sign is
    missed; only a finer grid finds it.
    """
    omegas = sweep.s.imag
    values = sweep.t_g

    crossings: list[float] = []

    # A passage through the origin between samples is itself an
    # intersection with the non-positive real axis; refine it.
    phases = np.angle(values)
    dphi = np.angle(np.exp(1j * np.diff(phases)))  # wrapped to (-pi, pi]
    for k in np.nonzero(np.abs(dphi) > PHASE_JUMP_LIMIT)[0]:
        im_k, im_k1 = values[k].imag, values[k + 1].imag
        if im_k != 0.0 and im_k1 != 0.0 and im_k * im_k1 <= 0:
            continue  # the imaginary-part sign-change pass below handles it
        re_k, re_k1 = values[k].real, values[k + 1].real
        if re_k * re_k1 > 0:
            continue  # grazing without a sign change; TOL_AXIS decides at samples
        w_star = _bisect_sign_change(
            lambda w: t_g_eval(d, 1j * w).real,
            float(omegas[k]), float(omegas[k + 1]), re_k,
        )
        t_star = t_g_eval(d, 1j * w_star)
        # Re vanishes inside the bracket by construction; only a curve that
        # is also near the real axis there actually touches the target set.
        im_window = 1e-6 * max(abs(values[k]), abs(values[k + 1])) + TOL_AXIS
        if abs(t_star.imag) <= im_window:
            crossings.append(w_star)

    # Samples sitting exactly on the real axis need no refinement; a run of
    # them is one crossing, reported at its first sample.
    on_axis = (values.imag == 0.0) & (values.real <= TOL_AXIS)
    run_starts = on_axis & ~np.concatenate(([False], on_axis[:-1]))
    crossings.extend(float(w) for w in omegas[run_starts])

    im = values.imag
    for k in np.nonzero((im[:-1] != 0.0) & (im[1:] != 0.0)
                        & ~(im[:-1] * im[1:] > 0))[0]:
        w_star = _bisect_sign_change(
            lambda w: t_g_eval(d, 1j * w).imag,
            float(omegas[k]), float(omegas[k + 1]), im[k],
        )
        if t_g_eval(d, 1j * w_star).real <= TOL_AXIS:
            crossings.append(w_star)

    return len(crossings) == 0, crossings


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _grid_peak(omegas: np.ndarray, mags: np.ndarray
               ) -> tuple[int, NormEstimate, Optional[tuple[float, float]]]:
    """Grid argmax k of mags, its unrefined estimate and the bracket of its
    two neighbours (None when narrower than TOL_OMEGA relative)."""
    k = int(np.argmax(mags))
    peak = NormEstimate(float(mags[k]), float(omegas[k]), refined=False)
    lo = float(omegas[max(k - 1, 0)])
    hi = float(omegas[min(k + 1, len(omegas) - 1)])
    return k, peak, None if hi <= lo * (1.0 + TOL_OMEGA) else (lo, hi)


def hinf_estimate(
    evaluator: Callable[[float], complex],
    grid: FrequencyGrid = FrequencyGrid(),
    grid_values: Optional[Sequence[complex]] = None,
) -> NormEstimate:
    """Peak of |evaluator(omega)| over the grid, golden-section refined
    around the grid argmax. Where that argmax is a corner (a wave coupling
    whose smaller-modulus pick switches root), the refinement's error is
    first order in TOL_OMEGA, not second.

    The evaluator receives the frequency in rad/s and returns the complex
    response on the imaginary axis; grid_values, when given, are its values
    at grid.omegas() already. The returned value never drops below any
    grid sample. Assumes the evaluator is analytic in the open right half
    plane so the boundary supremum equals the H-infinity norm; callers check
    that upstream (nyquist_axis_test for the wave couplings).
    """
    omegas = grid.omegas()
    if grid_values is None:
        grid_values = [evaluator(w) for w in omegas]
    mags = np.array([abs(z) for z in grid_values])
    _, peak, bracket = _grid_peak(omegas, mags)
    if bracket is None:
        return peak
    best_val, best_w = peak.value, peak.argmax_omega

    # Golden-section in log-frequency.
    a, b = math.log(bracket[0]), math.log(bracket[1])
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1 = abs(evaluator(math.exp(x1)))
    f2 = abs(evaluator(math.exp(x2)))
    while (b - a) > math.log1p(TOL_OMEGA):
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


def awtf_norm_estimates(d: AgentDynamics, sweep: WaveSweep
                        ) -> tuple[NormEstimate, NormEstimate]:
    """H-infinity estimates of (g_plus, g_minus) from an ascending
    awtf_axis_sweep, each peak refined around its grid argmax k.

    The 16-point refinement grid is evaluated on a hint chain seeded at
    sweep[k + 1]; when g_plus and g_minus peak at the same k they share
    that one grid and its evaluation. Each golden-section search then
    continues the chain from the grid's last sample through a
    coupling_chain, which evaluates only the coupling it refines.
    """
    omegas = sweep.s.imag

    grids: dict[int, tuple[FrequencyGrid, list[WaveSample]]] = {}
    results: list[NormEstimate] = []
    for attr in ("g_plus", "g_minus"):
        g = getattr(sweep, attr)
        k, peak, bracket = _grid_peak(omegas, np.hypot(g.real, g.imag))
        if bracket is None:
            results.append(peak)
            continue
        if k not in grids:
            grid = FrequencyGrid(*bracket, 16)
            chain = wave_chain(d, seed=sweep[min(k + 1, len(omegas) - 1)])
            grids[k] = grid, [chain(1j * w) for w in grid.omegas()]
        grid, samples = grids[k]
        values = [getattr(ws, attr) for ws in samples]
        probe = coupling_chain(d, attr, seed=values[-1])
        refined = hinf_estimate(lambda w: probe(1j * w), grid, values)
        best = refined if refined.value >= peak.value else peak
        results.append(NormEstimate(best.value, best.argmax_omega, refined=True))
    return results[0], results[1]


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
    highest frequency, say) is a NumericalError.

    Fast path: two integrators, asymmetric positional coupling and zero
    headway force the unstable verdict outright; the norm estimates are still
    computed so callers can confirm the excess numerically.

    Peaks within tol_norm of 1 are the generic signature of a string-stable
    design (the DC gains touch 1 exactly), so they only downgrade the verdict
    to "marginal" when they occur at an interior frequency rather than at the
    DC end of the grid.

    grid defaults to a fresh FrequencyGrid(); verdicts that pass one grid
    object share its omegas, its Axis and the Mf and Mr values it holds.
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
