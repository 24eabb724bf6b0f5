"""Irrational wave transfer functions for asymmetric bidirectional chains.

The forward/backward wave couplings g_plus and g_minus at a complex frequency
s are the proper roots of

    g_plus**2  - beta(s)  * g_plus  + Mf(s)/Mr(s) = 0
    g_minus**2 - alpha(s) * g_minus + Mr(s)/Mf(s) = 0

with alpha = (1 + Mf + Mr)/Mf and beta = (1 + Mf + Mr)/Mr for the
constant-spacing policy. With a headway time h > 0 every coupling term picks
up a factor (1 + h*s) on the own-position feedback, so alpha and beta become
(1 + (1+h*s)(Mf+Mr))/Mf and .../Mr and everything else goes through
unchanged.

Branch selection: the proper root is the smaller-modulus candidate (it is the
one that tends to min(1, kappa) at DC and to 0 at infinity). When the two
moduli tie within TOL_TIE relative, a continuity hint from a neighbouring
sample decides; with no hint and materially different candidates the
evaluation refuses to guess and raises BranchAmbiguous. Frequency sweeps
therefore chain hints, seeded at the largest |s| where the split is always
unambiguous.

The square root is taken of the discriminant numerator

    t_g = (beta*Mr)**2 - 4*Mf*Mr

and then divided by Mr (not of beta**2 - 4*Mf/Mr directly): the overlapping
branch cuts of the 1/Mr**2 factor cancel, so a single principal square root
of t_g avoids spurious jumps when Mr(s) crosses the negative real axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import (
    BranchAmbiguous,
    NoIntegrator,
    PoleAtSample,
    ReflectionSingular,
    SingularSample,
)
from .tf import AgentDynamics, low_order_coeffs, tf_eval

TOL_TIE = 1e-6    # relative modulus tie window for branch selection
TOL_QUAD = 1e-9   # quadratic residual budget (scaled by max(1, |beta|**2))
TOL_SING = 1e-8   # |g_minus - 1| below this means the rear reflection blows up


@dataclass(frozen=True)
class WaveSample:
    """Both wave couplings and the quadratic data at one frequency."""

    s: complex
    g_plus: complex
    g_minus: complex
    alpha: complex
    beta: complex
    branch_flipped: bool = False


@dataclass(frozen=True)
class ReflectionSample:
    """Boundary reflections at one frequency: leader (t1) and rear end (tN)."""

    s: complex
    t1: complex
    tN: complex


def _eval_terms(d: AgentDynamics, s: complex) -> tuple[complex, complex, complex]:
    """(Mf, Mr, 1 + (1 + h*s)(Mf + Mr)) at s, the headway-aware shared term
    being the numerator of both alpha and beta."""
    try:
        mf = tf_eval(d.Mf, s)
        mr = tf_eval(d.Mr, s)
    except PoleAtSample as exc:
        raise SingularSample(str(exc)) from exc
    if mf == 0 or mr == 0:
        raise SingularSample(f"Mf or Mr vanishes at s={s}")
    if not (np.isfinite(mf.real) and np.isfinite(mf.imag)
            and np.isfinite(mr.real) and np.isfinite(mr.imag)):
        raise SingularSample(f"Mf or Mr is non-finite at s={s}")
    return mf, mr, 1.0 + (1.0 + d.h * s) * (mf + mr)


def alpha_beta(d: AgentDynamics, s: complex) -> tuple[complex, complex]:
    """(alpha, beta) at s, headway-aware. Raises SingularSample at poles/zeros."""
    mf, mr, shared = _eval_terms(d, complex(s))
    return shared / mf, shared / mr


def t_g_eval(d: AgentDynamics, s: complex) -> complex:
    """Discriminant numerator (beta*Mr)**2 - 4*Mf*Mr at s.

    For h == 0 this is exactly (Mf - Mr)**2 + 2*Mf + 2*Mr + 1, the curve whose
    Nyquist plot must avoid the non-positive real axis for the wave couplings
    to be analytic in the right half plane.
    """
    mf, mr, shared = _eval_terms(d, complex(s))
    return shared * shared - 4.0 * mf * mr


def _root_candidates(
    coeff: complex, half_sqrt: complex, product: complex
) -> tuple[complex, complex]:
    """Both roots of g**2 - coeff*g + product, cancellation-free.

    The root whose sum form coeff/2 -/+ half_sqrt cancels is recovered from
    the product of roots instead (at large |s| the direct difference loses
    all significant digits).
    """
    sum_minus = 0.5 * coeff - half_sqrt
    sum_plus = 0.5 * coeff + half_sqrt
    if abs(sum_plus) >= abs(sum_minus):
        if sum_plus != 0:
            sum_minus = product / sum_plus
    else:
        sum_plus = product / sum_minus
    return sum_minus, sum_plus


def _pick_root(
    lo: complex,
    hi: complex,
    hint: Optional[complex],
) -> tuple[complex, bool]:
    """Choose between the two roots: smaller modulus, hint on ties."""
    m_lo, m_hi = abs(lo), abs(hi)
    scale = max(m_lo, m_hi)
    if scale == 0.0:
        return lo, False
    default = lo if m_lo <= m_hi else hi
    if abs(m_lo - m_hi) >= TOL_TIE * scale:
        return default, False
    # Moduli tie. Coincident roots need no decision.
    if abs(lo - hi) <= TOL_TIE * max(1.0, scale):
        return default, False
    if hint is None:
        raise BranchAmbiguous(
            "root moduli tie and no continuity hint was provided"
        )
    chosen = lo if abs(lo - hint) <= abs(hi - hint) else hi
    return chosen, chosen is not default


def awtf_eval(
    d: AgentDynamics,
    s: complex,
    hint: Optional[WaveSample] = None,
) -> WaveSample:
    """Evaluate both wave couplings at s.

    hint, when given, is a WaveSample at a nearby frequency used to resolve
    modulus ties by continuity; branch_flipped records when that override
    picked the non-default root.
    """
    s = complex(s)
    mf, mr, shared = _eval_terms(d, s)
    alpha = shared / mf
    beta = shared / mr
    w = np.sqrt(complex(shared * shared - 4.0 * mf * mr))

    cands_p = _root_candidates(beta, 0.5 * w / mr, mf / mr)
    cands_m = _root_candidates(alpha, 0.5 * w / mf, mr / mf)
    g_plus, flip_p = _pick_root(*cands_p, hint.g_plus if hint else None)
    g_minus, flip_m = _pick_root(*cands_m, hint.g_minus if hint else None)
    return WaveSample(
        s=s,
        g_plus=complex(g_plus),
        g_minus=complex(g_minus),
        alpha=complex(alpha),
        beta=complex(beta),
        branch_flipped=flip_p or flip_m,
    )


def awtf_axis_sweep(d: AgentDynamics, omegas: Iterable[float]) -> list[WaveSample]:
    """Samples at s = 1j*omega for each omega, in the caller's order.

    Internally evaluated from the highest frequency downward so the hint
    chain starts where root selection is unambiguous (|g| -> 0 vs |beta| ->
    infinity) and continuity carries it through any modulus ties near DC.
    """
    omegas = list(omegas)
    order = sorted(range(len(omegas)), key=lambda i: -abs(omegas[i]))
    samples: list[Optional[WaveSample]] = [None] * len(omegas)
    hint: Optional[WaveSample] = None
    for i in order:
        hint = awtf_eval(d, 1j * omegas[i], hint)
        samples[i] = hint
    return samples  # type: ignore[return-value]


def awtf_dc(d: AgentDynamics) -> tuple[float, float]:
    """DC gains (limit s -> 0) of (g_plus, g_minus).

    (kappa, 1) when 0 < kappa < 1 and (1, 1/kappa) when kappa >= 1. Requires
    at least one integrator; raises NoIntegrator otherwise.
    """
    if d.Mf.p < 1 or d.Mr.p < 1:
        raise NoIntegrator("DC gain limits require at least one integrator")
    kappa = low_order_coeffs(d).kappa
    if kappa <= 0:
        raise ValueError("DC gain formulas assume kappa > 0")
    if kappa < 1.0:
        return kappa, 1.0
    return 1.0, 1.0 / kappa


def reflection_from_sample(
    ws: WaveSample, tol_sing: float = TOL_SING
) -> ReflectionSample:
    """Boundary reflections t1 = -g_plus*g_minus, tN = g_minus*(g_plus-1)/(g_minus-1).

    Raises ReflectionSingular when g_minus is within tol_sing of 1 (the rear
    reflection denominator vanishes there; this happens as s -> 0 whenever
    the backward DC gain is 1).
    """
    denom = ws.g_minus - 1.0
    if abs(denom) < tol_sing:
        raise ReflectionSingular(
            f"g_minus is within {tol_sing:g} of 1 at s={ws.s}"
        )
    t1 = -ws.g_plus * ws.g_minus
    tN = ws.g_minus * (ws.g_plus - 1.0) / denom
    return ReflectionSample(s=ws.s, t1=t1, tN=tN)


def reflection_eval(
    d: AgentDynamics,
    s: complex,
    hint: Optional[WaveSample] = None,
    tol_sing: float = TOL_SING,
) -> ReflectionSample:
    """Boundary reflections at s; see reflection_from_sample."""
    return reflection_from_sample(awtf_eval(d, s, hint), tol_sing)


def quadratic_residuals(ws: WaveSample, d: AgentDynamics) -> tuple[float, float]:
    """|g**2 - coeff*g + ratio| for both couplings, for verification."""
    mf, mr, _ = _eval_terms(d, ws.s)
    r_plus = abs(ws.g_plus**2 - ws.beta * ws.g_plus + mf / mr)
    r_minus = abs(ws.g_minus**2 - ws.alpha * ws.g_minus + mr / mf)
    return r_plus, r_minus
