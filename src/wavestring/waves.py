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

Branch selection: the wave couplings are the smaller-modulus roots (the
proper root tends to min(1, kappa) at DC and to 0 at infinity), picked at
every s on its own: no state passes from one sample to the next, so a
coupling does not depend on the frequencies evaluated before it. Where the
two roots tie in modulus, rounding picks, and either root has the modulus
that a verdict reads. Where g_plus's two roots tie in modulus m away from
t_g = 0, the pick may switch root, and g_plus jumps there. g_minus's
quadratic has g_plus's coefficients in reverse order, so its roots are the
reciprocals of g_plus's: at the tie |g_plus| = m and |g_minus| = 1/m, and
one of them is at least 1. So a switch cannot hide instability.

Every evaluation runs on one array core in plain numpy complex arithmetic:
_eval_terms forms Mf, Mr, t_g and the shared numerator at every s, and
_root_pairs both root pairs (front and rear as the two rows of one array).
wave_moduli stops there, at the smaller modulus of each pair: |g_plus| and
|g_minus|, all that a verdict reads. _wave_block picks the couplings. A
block raises at its first bad entry in the order given (a pole, a
vanishing or non-finite Mf or Mr, or a non-finite quadratic), after the
entries before it. wave_blocks cuts a sweep into blocks of BLOCK = 2048
samples, which holds a default grid whole and bounds the temporaries on the
Bromwich line. A sweep is a WaveSweep, the WaveSample fields as arrays; a
single point (awtf_eval, t_g_eval) is a one-entry block.

The square root is taken of the discriminant numerator

    t_g = (beta*Mr)**2 - 4*Mf*Mr

and then divided by Mr (not of beta**2 - 4*Mf/Mr directly): the overlapping
branch cuts of the 1/Mr**2 factor cancel, so a single principal square root
of t_g avoids spurious jumps when Mr(s) crosses the negative real axis.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .errors import NoIntegrator, NumericalError, ReflectionSingular, SingularSample
from .tf import AgentDynamics, low_order_coeffs

TOL_SING = 1e-8   # |g_minus - 1| below this means the rear reflection blows up
BLOCK = 2048      # samples per wave_blocks block: a default FrequencyGrid is one


@dataclass(frozen=True)
class WaveSample:
    """Both wave couplings and the quadratic data at one frequency."""

    s: complex
    g_plus: complex
    g_minus: complex
    alpha: complex
    beta: complex


@dataclass(frozen=True)
class ReflectionSample:
    """Boundary reflections at one frequency, or at each entry of a sweep:
    leader (t1) and rear end (tN)."""

    s: complex
    t1: complex
    tN: complex


@dataclass(frozen=True, eq=False)
class WaveSweep:
    """The WaveSample fields of a sweep as arrays, one entry per frequency.

    len(sweep) counts the entries, sweep[k] is entry k as a WaveSample, and
    iterating a sweep yields its entries as WaveSamples.
    """

    s: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __len__(self) -> int:
        return len(self.s)

    def __getitem__(self, k: int) -> WaveSample:
        return WaveSample(*(complex(getattr(self, f)[k]) for f in _FIELDS))

    def __iter__(self) -> Iterator[WaveSample]:
        for z in zip(*(getattr(self, f).tolist() for f in _FIELDS)):
            yield WaveSample(*z)

    def take(self, index) -> "WaveSweep":
        """The entries at index, in that order."""
        return WaveSweep(*(getattr(self, f)[index] for f in _FIELDS))


_FIELDS = ("s", "g_plus", "g_minus", "alpha", "beta")


def _eval_terms(d: AgentDynamics, s: np.ndarray):
    """(Mf, Mr, shared, t_g) at every s, the headway-aware shared term
    1 + (1 + h*s)(Mf + Mr) being the numerator of both alpha and beta; the
    first entry at which s is not finite, s**p overflows, Mf or Mr has a
    pole, vanishes or is not finite, or the quadratic is not finite (len(s)
    if none), and the exception a single sample raises there (None if none).
    A non-finite s counts as a non-finite Mf or Mr."""
    def horner(coeffs):
        acc = coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = acc * s + c
        return acc

    parts = []
    with np.errstate(all="ignore"):
        for tf in (d.Mf, d.Mr):
            power = s ** tf.p
            den = power * horner(tf.den.coeffs)
            parts.append((horner(tf.num.coeffs) / den, power, den))
        (mf, *_), (mr, *_) = parts
        shared = 1.0 + (1.0 + d.h * s) * (mf + mr)
        t_g = shared * shared - 4.0 * mf * mr
        # An overflowing power or a pole leaves Mf or Mr zero or not finite.
        ok = (np.isfinite(mf) & np.isfinite(mr) & (mf != 0) & (mr != 0)
              & np.isfinite(shared) & np.isfinite(t_g))
    terms = mf, mr, shared, t_g
    if ok.all():
        return terms, len(s), None
    k = int(np.argmin(ok))
    x = complex(s[k])
    if not cmath.isfinite(x):
        return terms, k, SingularSample(f"Mf or Mr is non-finite at s={x}")
    for tf, (_, power, den) in zip((d.Mf, d.Mr), parts):
        if np.isinf(power[k]):
            return terms, k, NumericalError(f"s**{tf.p} overflows at s={x}")
        if den[k] == 0:
            return terms, k, SingularSample(f"transfer function has a pole at s={x}")
    if mf[k] == 0 or mr[k] == 0:
        return terms, k, SingularSample(f"Mf or Mr vanishes at s={x}")
    if not (np.isfinite(mf[k]) and np.isfinite(mr[k])):
        return terms, k, SingularSample(f"Mf or Mr is non-finite at s={x}")
    return terms, k, SingularSample(f"wave quadratic is non-finite at s={x} (h={d.h:g})")


def _terms_at(d: AgentDynamics, s: complex) -> tuple[complex, ...]:
    """(Mf, Mr, shared, t_g) at one s; raises where awtf_eval would."""
    terms, _, error = _eval_terms(d, np.array([complex(s)]))
    if error is not None:
        raise error
    return tuple(complex(x[0]) for x in terms)


def t_g_eval(d: AgentDynamics, s: complex) -> complex:
    """Discriminant numerator (beta*Mr)**2 - 4*Mf*Mr at s.

    For h == 0 this is exactly (Mf - Mr)**2 + 2*Mf + 2*Mr + 1, the curve whose
    Nyquist plot must avoid the non-positive real axis for the wave couplings
    to be analytic in the right half plane.
    """
    return _terms_at(d, s)[3]


def _root_pairs(mf, mr, shared, t_g):
    """Both roots of each wave quadratic, rows (g_plus, g_minus) of lo and
    hi, and own = (Mr, Mf). Cancellation-free, never dividing by own alone:
    of the sums shared +/- sqrt(t_g), the larger in modulus gives one root
    as sum/(2 own) and the other, from the product of the roots, as
    2 other/sum (at large |s| the direct difference loses all significant
    digits, and where own underflows other/own overflows)."""
    own = np.stack([mr, mf])
    root = np.sqrt(t_g)
    plus_wins = np.abs(shared + root) >= np.abs(shared - root)
    big = np.where(plus_wins, shared + root, shared - root)
    far, near = 0.5 * big / own, 2.0 * own[::-1] / big
    return np.where(plus_wins, near, far), np.where(plus_wins, far, near), own


def _wave_block(d: AgentDynamics, s: np.ndarray) -> tuple[WaveSweep, Optional[Exception]]:
    """Both couplings at every s, each the root of smaller modulus (hi
    where |lo| <= |hi| fails, so also where a modulus is not a number), and
    the exception of the first bad entry (None if there is none); the block
    is cut before that entry. The root pairs (_root_pairs) and picks are
    the rows (g_plus, g_minus)."""
    terms, stop, error = _eval_terms(d, s)
    with np.errstate(all="ignore"):
        lo, hi, own = _root_pairs(*terms)
        coeff = terms[2] / own  # rows (beta, alpha)
        g_plus, g_minus = np.where(~(np.abs(lo) <= np.abs(hi)), hi, lo)
    block = WaveSweep(s=s, g_plus=g_plus, g_minus=g_minus, alpha=coeff[1], beta=coeff[0])
    return (block if error is None else block.take(slice(0, stop))), error


def wave_moduli(d: AgentDynamics, s: np.ndarray) -> np.ndarray:
    """|g_plus| and |g_minus| at every s, the two rows of one array: the
    smaller root modulus of each quadratic, the modulus of the couplings
    that _wave_block picks. Raises what a single sample raises at the bad
    entry nearest the end of s: for ascending s = 1j*omega the highest
    |omega|, where awtf_axis_sweep raises."""
    terms, _, error = _eval_terms(d, s)
    if error is not None:
        raise _eval_terms(d, s[::-1])[2]
    with np.errstate(all="ignore"):
        lo, hi, _ = _root_pairs(*terms)
        return np.minimum(np.abs(lo), np.abs(hi))


def awtf_eval(d: AgentDynamics, s: complex) -> WaveSample:
    """Evaluate both wave couplings at s."""
    block, error = _wave_block(d, np.array([complex(s)]))
    if error is not None:
        raise error
    return block[0]


def wave_blocks(d: AgentDynamics, s: np.ndarray) -> Iterator[WaveSweep]:
    """Both couplings at every s as WaveSweep blocks in order, at most BLOCK
    entries each. At the first bad entry the entries before it are yielded
    and its exception raised."""
    for lo in range(0, len(s), BLOCK):
        block, error = _wave_block(d, s[lo:lo + BLOCK])
        if len(block):
            yield block
        if error is not None:
            raise error


def wave_sweep(d: AgentDynamics, s: np.ndarray) -> WaveSweep:
    """The wave_blocks of s as one WaveSweep."""
    s = np.asarray(s, dtype=complex)
    blocks = list(wave_blocks(d, s))
    if not blocks:  # s is empty
        return WaveSweep(s, s, s, s, s)
    if len(blocks) == 1:
        return blocks[0]
    return WaveSweep(*(np.concatenate([getattr(b, f) for b in blocks]) for f in _FIELDS))


def awtf_axis_sweep(d: AgentDynamics, omegas) -> WaveSweep:
    """Samples at s = 1j*omega for each omega (array-like), in the caller's
    order. They are evaluated from the highest |omega| down, so a bad
    entry raises at the highest |omega| among them, as in wave_moduli."""
    omegas = np.asarray(omegas, dtype=float)
    order = np.argsort(-np.abs(omegas), kind="stable")
    return wave_sweep(d, 1j * omegas[order]).take(np.argsort(order))


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


def reflection_from_sample(ws: Union[WaveSample, WaveSweep]) -> ReflectionSample:
    """Boundary reflections t1 = -g_plus*g_minus, tN = g_minus*(g_plus-1)/(g_minus-1),
    at one sample or at every entry of a sweep.

    Raises ReflectionSingular at the first entry where g_minus is within
    TOL_SING of 1 (the rear reflection denominator vanishes there; this
    happens as s -> 0 whenever the backward DC gain is 1).
    """
    denom = ws.g_minus - 1.0
    near = np.flatnonzero(np.abs(denom) < TOL_SING)
    if near.size:
        raise ReflectionSingular(
            f"g_minus is within {TOL_SING:g} of 1 at s={complex(np.ravel(ws.s)[near[0]])}"
        )
    t1 = -ws.g_plus * ws.g_minus
    tN = ws.g_minus * (ws.g_plus - 1.0) / denom
    return ReflectionSample(s=ws.s, t1=t1, tN=tN)


def round_trip(ws: Union[WaveSample, WaveSweep], refl: ReflectionSample, N: int):
    """1 - t1*tN*(g_plus*g_minus)**(N-1): the denominator of every transfer
    of an N-agent path, one wave's trip to both ends and back."""
    return 1.0 - refl.t1 * refl.tN * (ws.g_plus * ws.g_minus) ** (N - 1)


def disturbance_gain(d: AgentDynamics, N: int, omega: float) -> tuple[complex, complex]:
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
    ws = awtf_eval(d, 1j * omega)
    refl = reflection_from_sample(ws)
    denom = round_trip(ws, refl, N)
    forward = ws.g_plus**N * (1.0 + refl.tN) / denom
    backward = ws.g_minus ** (N - 1) * (1.0 + refl.t1) / denom
    return forward, backward


def quadratic_residuals(ws: WaveSample, d: AgentDynamics) -> tuple[float, float]:
    """|g**2 - coeff*g + ratio| for both couplings, for verification."""
    mf, mr, _, _ = _terms_at(d, ws.s)
    r_plus = abs(ws.g_plus**2 - ws.beta * ws.g_plus + mf / mr)
    r_minus = abs(ws.g_minus**2 - ws.alpha * ws.g_minus + mr / mf)
    return r_plus, r_minus
