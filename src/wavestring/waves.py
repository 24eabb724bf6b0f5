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
therefore chain hints (wave_chain), seeded at the largest |s| where the
split is always unambiguous.

Sweeps (awtf_axis_sweep on the imaginary axis, wave_sweep on any array of
s) run on an array core, array_blocks: it evaluates Mf, Mr, t_g, alpha,
beta, both root pairs and the smaller-modulus pick for a block of samples
at once, in CPython's own complex arithmetic (pycomplex), and walks only the
tie-window samples in Python, in chain order, each hinted by the previous
pick. The result is the scalar chain's, bit for bit: from the first sample
that is non-finite, singular or an unhinted tie, the scalar awtf_eval takes
over, so every exception and message is the scalar one. A sweep is a
WaveSweep, the WaveSample fields as arrays. Single points (bisection and
golden-section probes, disturbance_gain) stay scalar.

The square root is taken of the discriminant numerator

    t_g = (beta*Mr)**2 - 4*Mf*Mr

and then divided by Mr (not of beta**2 - 4*Mf/Mr directly): the overlapping
branch cuts of the 1/Mr**2 factor cancel, so a single principal square root
of t_g avoids spurious jumps when Mr(s) crosses the negative real axis.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import (
    BranchAmbiguous,
    NoIntegrator,
    PoleAtSample,
    ReflectionSingular,
    SingularSample,
)
from .poly import Polynomial
from .pycomplex import MAX_POWI, cdiv, cmul, cpowi, finite, join
from .tf import AgentDynamics, RationalTF, low_order_coeffs, tf_eval

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
    t_g: complex  # discriminant numerator, equal to t_g_eval(d, s)
    branch_flipped: bool = False


@dataclass(frozen=True)
class ReflectionSample:
    """Boundary reflections at one frequency: leader (t1) and rear end (tN)."""

    s: complex
    t1: complex
    tN: complex


def _eval_terms(d: AgentDynamics, s: complex) -> tuple[complex, ...]:
    """(Mf, Mr, shared, t_g) at s, the headway-aware shared term
    1 + (1 + h*s)(Mf + Mr) being the numerator of both alpha and beta.
    Raises SingularSample when any is non-finite or Mf or Mr vanishes."""
    try:
        mf = tf_eval(d.Mf, s)
        mr = tf_eval(d.Mr, s)
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


def alpha_beta(d: AgentDynamics, s: complex) -> tuple[complex, complex]:
    """(alpha, beta) at s, headway-aware. Raises SingularSample at poles/zeros."""
    mf, mr, shared, _ = _eval_terms(d, complex(s))
    return shared / mf, shared / mr


def t_g_eval(d: AgentDynamics, s: complex) -> complex:
    """Discriminant numerator (beta*Mr)**2 - 4*Mf*Mr at s.

    For h == 0 this is exactly (Mf - Mr)**2 + 2*Mf + 2*Mr + 1, the curve whose
    Nyquist plot must avoid the non-positive real axis for the wave couplings
    to be analytic in the right half plane.
    """
    return _eval_terms(d, complex(s))[3]


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
    mf, mr, shared, t_g = _eval_terms(d, s)
    alpha = shared / mf
    beta = shared / mr
    w = np.sqrt(t_g)

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
        t_g=complex(t_g),
        branch_flipped=flip_p or flip_m,
    )


def wave_chain(d: AgentDynamics, seed: Optional[WaveSample] = None
               ) -> Callable[[complex], WaveSample]:
    """s -> awtf_eval(d, s, hint), the hint being the previous call's sample
    (seed at first); successive calls must be close in frequency."""
    hint = seed

    def sample(s: complex) -> WaveSample:
        nonlocal hint
        hint = awtf_eval(d, s, hint)
        return hint

    return sample


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
    t_g: np.ndarray
    branch_flipped: np.ndarray

    def __len__(self) -> int:
        return len(self.s)

    def __getitem__(self, k: int) -> WaveSample:
        return WaveSample(*(complex(getattr(self, f)[k]) for f in _COMPLEX_FIELDS),
                          branch_flipped=bool(self.branch_flipped[k]))

    def __iter__(self) -> Iterator[WaveSample]:
        for *z, flipped in zip(*(getattr(self, f).tolist() for f in _FIELDS)):
            yield WaveSample(*z, branch_flipped=flipped)

    def take(self, index: np.ndarray) -> "WaveSweep":
        """The entries at index, in that order."""
        return WaveSweep(*(getattr(self, f)[index] for f in _FIELDS))


_COMPLEX_FIELDS = ("s", "g_plus", "g_minus", "alpha", "beta", "t_g")
_FIELDS = _COMPLEX_FIELDS + ("branch_flipped",)
BLOCK = 1024  # samples per array_blocks block


def _abs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _tf_arrays(tf: RationalTF, sr: np.ndarray, si: np.ndarray):
    """tf_eval at every s: (re, im) and the mask of samples where the scalar
    evaluation raises or overflows (a pole, a non-finite power)."""
    def horner(p: Polynomial):
        acc = (0.0, 0.0)
        for c in reversed(p.coeffs):
            acc = cmul(*acc, sr, si)
            acc = (acc[0] + c, acc[1] + 0.0)
        return acc

    if tf.p > MAX_POWI:
        return (sr, si), np.ones(len(sr), dtype=bool)
    power = cpowi(sr, si, tf.p)
    dr, di = cmul(*power, *horner(tf.den))
    bad = ((dr == 0) & (di == 0)) | ~finite(*power)
    return cdiv(*horner(tf.num), dr, di), bad


def _root_arrays(coeff, half: np.ndarray, product):
    """_root_candidates at every sample: (lo, hi) as complex arrays."""
    c = join(*cmul(0.5, 0.0, *coeff))
    minus, plus = c - half, c + half
    plus_wins = _abs(plus) >= _abs(minus)
    # The division by the losing sum (or by zero) is computed and discarded.
    q = join(*product) / np.where(plus_wins, plus, minus)
    return np.where(plus_wins & (plus != 0), q, minus), np.where(plus_wins, plus, q)


def _pick_arrays(lo: np.ndarray, hi: np.ndarray):
    """_pick_root without a hint at every sample: (picks hi, is an unresolved
    tie, finite moduli). Ties need the previous pick; see _resolve_ties."""
    m_lo, m_hi = _abs(lo), _abs(hi)
    scale = np.maximum(m_lo, m_hi)
    tie = ~(np.abs(m_lo - m_hi) >= TOL_TIE * scale)
    tie &= ~(_abs(lo - hi) <= TOL_TIE * np.maximum(1.0, scale))
    return ~(m_lo <= m_hi), tie, finite(m_lo, m_hi)


def _resolve_ties(lo, hi, pick_hi, tie, hint):
    """Pick each tie sample's root nearest the previous sample's pick (for
    sample 0, nearest hint), walking the ties in chain order. Returns the
    picks and where they override the smaller modulus."""
    picks = pick_hi.copy()
    if tie[:1].any():
        picks[0] = not abs(lo[0] - hint) <= abs(hi[0] - hint)
    idx = np.nonzero(tie[1:])[0] + 1
    if idx.size:
        # A tie sample's hint is one of the previous sample's two roots, so
        # the choice after either is computed for all ties at once.
        after = [(~(_abs(lo[idx] - prev) <= _abs(hi[idx] - prev))).tolist()
                 for prev in (lo[idx - 1], hi[idx - 1])]
        chosen = picks.tolist()
        for i, if_lo, if_hi in zip(idx.tolist(), *after):
            chosen[i] = if_hi if chosen[i - 1] else if_lo
        picks[idx] = np.array(chosen)[idx]
    return picks, tie & (picks != pick_hi)


def _array_block(d: AgentDynamics, s: np.ndarray, seed: Optional[WaveSample]
                 ) -> tuple[WaveSweep, int]:
    """awtf_eval at every s, hint-chained from seed: the block and the count
    of its leading entries that are exact (see array_blocks)."""
    sr, si = s.real, s.imag
    with np.errstate(all="ignore"):
        mf, bad_f = _tf_arrays(d.Mf, sr, si)
        mr, bad_r = _tf_arrays(d.Mr, sr, si)
        hs = cmul(d.h, 0.0, sr, si)
        y = cmul(1.0 + hs[0], 0.0 + hs[1], mf[0] + mr[0], mf[1] + mr[1])
        shared = (1.0 + y[0], 0.0 + y[1])
        ss = cmul(*shared, *shared)
        fm = cmul(*cmul(4.0, 0.0, *mf), *mr)
        t_g = (ss[0] - fm[0], ss[1] - fm[1])
        alpha, beta = cdiv(*shared, *mf), cdiv(*shared, *mr)
        w = np.sqrt(join(*t_g))
        half = join(*cmul(0.5, 0.0, w.real, w.imag))
        lo_p, hi_p = _root_arrays(beta, half / join(*mr), cdiv(*mf, *mr))
        lo_m, hi_m = _root_arrays(alpha, half / join(*mf), cdiv(*mr, *mf))
        pick_p, tie_p, fin_p = _pick_arrays(lo_p, hi_p)
        pick_m, tie_m, fin_m = _pick_arrays(lo_m, hi_m)

    ok = ~(bad_f | bad_r) & fin_p & fin_m
    ok &= ~((mf[0] == 0) & (mf[1] == 0)) & ~((mr[0] == 0) & (mr[1] == 0))
    ok &= finite(sr, si, *mf, *mr, *shared, *t_g, *alpha, *beta)
    if seed is None:
        ok[:1] &= ~(tie_p[:1] | tie_m[:1])
    exact = len(s) if ok.all() else int(np.argmin(ok))
    tie_p[exact:] = tie_m[exact:] = False

    pick_p, flip_p = _resolve_ties(lo_p, hi_p, pick_p, tie_p, seed and seed.g_plus)
    pick_m, flip_m = _resolve_ties(lo_m, hi_m, pick_m, tie_m, seed and seed.g_minus)
    block = WaveSweep(
        s=s,
        g_plus=np.where(pick_p, hi_p, lo_p),
        g_minus=np.where(pick_m, hi_m, lo_m),
        alpha=join(*alpha),
        beta=join(*beta),
        t_g=join(*t_g),
        branch_flipped=flip_p | flip_m,
    )
    return block, exact


def array_blocks(d: AgentDynamics, s: np.ndarray
                 ) -> Iterator[tuple[int, Optional[WaveSample], WaveSweep, int]]:
    """The array core: awtf_eval at every s, hint-chained in the order given
    (s[0] unhinted), BLOCK samples at a time, which bounds the temporaries.

    Yields (lo, seed, block, exact) per block: block holds entries lo, lo+1,
    ... of the sweep, seed is the entry before lo (None for lo = 0), and the
    first `exact` entries equal the scalar chain's (wave_chain) bit for bit.
    When exact < len(block), entry lo + exact is a sample where awtf_eval
    raises or meets a non-finite value, or an unhinted tie at s[0]; it and
    every later entry are the scalar chain's to evaluate, hinted by the
    entry before it, and the caller stops iterating.
    """
    seed = None
    for lo in range(0, len(s), BLOCK):
        block, exact = _array_block(d, s[lo:lo + BLOCK], seed)
        yield lo, seed, block, exact
        seed = block[len(block) - 1]


def wave_sweep(d: AgentDynamics, s: np.ndarray) -> WaveSweep:
    """[wave_chain(d)(x) for x in s] as a WaveSweep, bit for bit, and raising
    what it raises: the array core, with the scalar chain from the first
    entry that the core cannot settle."""
    s = np.asarray(s, dtype=complex)
    out = WaveSweep(*(np.empty(len(s), dtype=complex) for _ in _COMPLEX_FIELDS),
                    branch_flipped=np.empty(len(s), dtype=bool))
    for lo, seed, block, exact in array_blocks(d, s):
        for f in _FIELDS:
            getattr(out, f)[lo:lo + len(block)] = getattr(block, f)
        if exact < len(block):
            chain = wave_chain(d, block[exact - 1] if exact else seed)
            for k in range(lo + exact, len(s)):
                ws = chain(s[k])
                for f in _FIELDS:
                    getattr(out, f)[k] = getattr(ws, f)
            break
    return out


def awtf_axis_sweep(d: AgentDynamics, omegas: np.ndarray) -> WaveSweep:
    """Samples at s = 1j*omega for each omega (array-like), in the caller's
    order.

    The hint chain runs from the highest frequency downward, so it starts
    where root selection is unambiguous (|g| -> 0 vs |beta| -> infinity) and
    continuity carries it through any modulus ties near DC.
    """
    omegas = np.asarray(omegas, dtype=float)
    order = np.argsort(-np.abs(omegas), kind="stable")
    w = omegas[order]
    sweep = wave_sweep(d, join(0.0 * w - 0.0, 0.0 + w))  # 1j * w, as Python does
    return sweep.take(np.argsort(order))


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
    mf, mr, _, _ = _eval_terms(d, ws.s)
    r_plus = abs(ws.g_plus**2 - ws.beta * ws.g_plus + mf / mr)
    r_minus = abs(ws.g_minus**2 - ws.alpha * ws.g_minus + mr / mf)
    return r_plus, r_minus
