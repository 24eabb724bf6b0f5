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
proper root tends to min(1, kappa) at DC and to 0 at infinity). When the two
moduli tie within TOL_TIE relative, a continuity hint from a neighbouring
sample decides; with no hint and materially different candidates the
evaluation refuses to guess and raises BranchAmbiguous. Frequency sweeps
therefore chain hints (wave_chain), seeded at the largest |s| where the
split is always unambiguous. Where g_plus's two roots tie in modulus m away
from t_g = 0, the pick may switch root, and g_plus jumps there. g_minus's
quadratic has g_plus's coefficients in reverse order, so its roots are the
reciprocals of g_plus's: at the tie |g_plus| = m and |g_minus| = 1/m, and
one of them is at least 1. So a switch cannot hide instability.

Sweeps (awtf_axis_sweep on the imaginary axis, wave_sweep on any array of
s) run on an array core: it evaluates Mf, Mr, t_g, alpha, beta, both root
pairs and the smaller-modulus pick for a block of samples at once, in
CPython's own complex arithmetic (pycomplex), and walks only the tie-window
samples in Python, in chain order, each hinted by the previous pick. Each
front/rear pair (Mf and Mr, beta and alpha, the two root pairs, g_plus and
g_minus) is held as the two rows of one array, so one numpy call serves
both, and a block of BLOCK = 2048 samples holds a default 2,000-point grid
whole. wave_blocks hands a block over to the scalar awtf_eval at its first
sample that is non-finite, singular or an unhinted tie, for 64 samples or
through the run the core cannot settle, then resumes the core, so the
result is the scalar chain's, bit for bit, and every exception and message
is the scalar one. A sweep is a WaveSweep, the WaveSample fields as arrays;
the Bromwich spectra of waveresponse are formed on the same blocks. An
axis sweep walks an Axis: s = 1j*omega in chain order and the Mf and Mr
values on it, which a FrequencyGrid builds once and keeps, one per side,
for the next dynamics that shares that side's transfer function object.

Single points stay scalar. awtf_eval builds each coupling through one
helper (_coupling_roots, then _pick_root), so coupling_chain, which the
golden-section probes of the norm estimates walk, evaluates only the
coupling it refines and equals that field of wave_chain bit for bit.

The square root is taken of the discriminant numerator

    t_g = (beta*Mr)**2 - 4*Mf*Mr

and then divided by Mr (not of beta**2 - 4*Mf/Mr directly): the overlapping
branch cuts of the 1/Mr**2 factor cancel, so a single principal square root
of t_g avoids spurious jumps when Mr(s) crosses the negative real axis.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

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


def _coupling_roots(own: complex, other: complex, shared: complex, half_w
                   ) -> tuple[complex, tuple[complex, complex]]:
    """The coefficient shared/own of one wave quadratic,
    g**2 - (shared/own)*g + other/own, and its two roots; half_w is
    sqrt(t_g)/2. own = Mr gives (beta, g_plus's roots), own = Mf
    (alpha, g_minus's)."""
    coeff = shared / own
    return coeff, _root_candidates(coeff, half_w / own, other / own)


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
    half_w = 0.5 * np.sqrt(t_g)
    beta, cands_p = _coupling_roots(mr, mf, shared, half_w)
    alpha, cands_m = _coupling_roots(mf, mr, shared, half_w)
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


def coupling_chain(d: AgentDynamics, attr: str, seed: Optional[complex] = None
                   ) -> Callable[[complex], complex]:
    """s -> getattr(wave_chain(d, seed_sample)(s), attr) for attr "g_plus" or
    "g_minus", where seed_sample's attr is seed, bit for bit: a pick needs
    only its own coupling's hint, so this chain evaluates _eval_terms and
    that one coupling's roots and pick, and builds no WaveSample. It skips
    the other coupling's arithmetic, so a floating-point error that an
    np.errstate would raise there alone is not raised here."""
    plus = attr == "g_plus"
    hint = seed

    def sample(s: complex) -> complex:
        nonlocal hint
        mf, mr, shared, t_g = _eval_terms(d, complex(s))
        _, cands = _coupling_roots(*((mr, mf) if plus else (mf, mr)), shared,
                                   0.5 * np.sqrt(t_g))
        hint = complex(_pick_root(*cands, hint)[0])
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


_COMPLEX_FIELDS = ("s", "g_plus", "g_minus", "alpha", "beta")
_FIELDS = _COMPLEX_FIELDS + ("branch_flipped",)
BLOCK = 2048  # samples per wave_blocks block: a default FrequencyGrid is one
_SCALAR_RUN = 64  # entries the scalar chain fills at least before the core resumes


def _abs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _tf_arrays(tfs: Sequence[RationalTF], sr: np.ndarray, si: np.ndarray):
    """tf_eval of each transfer function in tfs at every s as the rows of
    (re, im, bad), each (len(tfs), n), bad marking the samples where the
    scalar evaluation raises or overflows (a pole, a non-finite power)."""
    def horner(polys: Sequence[Polynomial]):
        # A shorter polynomial is padded with leading zeros, which keep its
        # accumulator at +0.0 + 0.0j: exact wherever s is finite, so a row
        # takes the same values alone as beside a longer one.
        rows = np.zeros((len(polys), max(len(p.coeffs) for p in polys)))
        for row, p in zip(rows, polys):
            row[:len(p.coeffs)] = p.coeffs
        acc = (0.0, 0.0)
        for c in rows.T[::-1, :, None]:  # (rows, 1) columns, highest power first
            acc = cmul(*acc, sr, si)
            acc = (acc[0] + c, acc[1] + 0.0)
        return acc

    if max(tf.p for tf in tfs) > MAX_POWI:
        zeros = np.zeros((len(tfs), len(sr)))
        return zeros, zeros, np.ones((len(tfs), len(sr)), dtype=bool)
    powers = {p: cpowi(sr, si, p) for p in {tf.p for tf in tfs}}
    # s**0 is a 0-d 1 + 0j, broadcast along s.
    power = tuple(np.array([np.broadcast_to(powers[tf.p][k], sr.shape) for tf in tfs])
                  for k in (0, 1))
    dr, di = cmul(*power, *horner([tf.den for tf in tfs]))
    bad = ((dr == 0) & (di == 0)) | ~finite(*power)
    return (*cdiv(*horner([tf.num for tf in tfs]), dr, di), bad)


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


def _shared_arrays(d: AgentDynamics, sr, si, mf, mr):
    """_eval_terms' shared = 1 + (1 + h*s)(Mf + Mr) and t_g = shared**2 -
    4*Mf*Mr at every s, each as (re, im)."""
    hs = cmul(d.h, 0.0, sr, si)
    y = cmul(1.0 + hs[0], 0.0 + hs[1], mf[0] + mr[0], mf[1] + mr[1])
    shared = (1.0 + y[0], 0.0 + y[1])
    ss = cmul(*shared, *shared)
    fm = cmul(*cmul(4.0, 0.0, *mf), *mr)
    return shared, (ss[0] - fm[0], ss[1] - fm[1])


def _quadratic_arrays(d: AgentDynamics, sr: np.ndarray, si: np.ndarray, rows=None):
    """_eval_terms and the quadratics at every s, each front/rear pair held
    as the two rows of one array: (ok, coeff, half_root, ratio), where
    ok marks the samples at which the scalar _eval_terms neither raises nor
    overflows, coeff = (beta, alpha), half_root = sqrt(t_g)/2 over (Mr, Mf)
    and ratio = (Mf/Mr, Mr/Mf), all but ok as (re, im) or complex. rows,
    when given, are _tf_arrays' (Mf, Mr) rows at s. Its intermediates die
    on return, before the root arrays are formed: a block's temporaries set
    a sweep's peak memory."""
    *m, bad = _tf_arrays((d.Mf, d.Mr), sr, si) if rows is None else rows
    swap = (m[0][::-1], m[1][::-1])  # rows (Mr, Mf)
    shared, t_g = _shared_arrays(d, sr, si, (m[0][0], m[1][0]), (m[0][1], m[1][1]))
    coeff = cdiv(*shared, *swap)
    ok = ~(bad | ((m[0] == 0) & (m[1] == 0))).any(axis=0)
    ok &= finite(sr, si, *m, *shared, *t_g, *coeff).all(axis=0)
    w = np.sqrt(join(*t_g))
    half = join(*cmul(0.5, 0.0, w.real, w.imag))
    return ok, coeff, half / join(*swap), cdiv(*m, *swap)


def _array_block(d: AgentDynamics, s: np.ndarray, seed: Optional[WaveSample],
                 rows=None) -> tuple[WaveSweep, int, np.ndarray]:
    """awtf_eval at every s, hint-chained from seed: the block, the count of
    its leading entries that equal the scalar chain's (see wave_blocks) and
    the mask of the entries the core can settle, which past the first does
    not depend on the hint. The root pairs and picks are the rows (g_plus,
    g_minus)."""
    with np.errstate(all="ignore"):
        ok, coeff, *operands = _quadratic_arrays(d, s.real, s.imag, rows)
        lo, hi = _root_arrays(coeff, *operands)
        pick, tie, fin = _pick_arrays(lo, hi)

    ok &= fin.all(axis=0)
    if seed is None:
        ok[:1] &= ~tie[:, :1].any(axis=0)
    exact = len(s) if ok.all() else int(np.argmin(ok))
    tie[:, exact:] = False

    hints = (None, None) if seed is None else (seed.g_plus, seed.g_minus)
    pick, flip = zip(*map(_resolve_ties, lo, hi, pick, tie, hints))
    g_plus, g_minus = np.where(pick, hi, lo)
    beta, alpha = join(*coeff)
    block = WaveSweep(s=s, g_plus=g_plus, g_minus=g_minus, alpha=alpha, beta=beta,
                      branch_flipped=flip[0] | flip[1])
    return block, exact, ok


def wave_blocks(d: AgentDynamics, s: np.ndarray, rows=None) -> Iterator[WaveSweep]:
    """[wave_chain(d)(x) for x in s], bit for bit, as WaveSweep blocks in
    order, at most BLOCK entries each, which bounds the temporaries (each a
    (2, BLOCK) array whose rows are front and rear). A default 2,000-point
    FrequencyGrid is one block; the Bromwich line is cut into slices.
    rows, when given, are the (Mf, Mr) rows of _tf_arrays at every s
    (Axis.tf_rows), which each block slices instead of evaluating its own.

    The core settles a block up to its first entry that is non-finite,
    singular or an unhinted tie at s[0]. The scalar awtf_eval fills the next
    _SCALAR_RUN entries, and on through those the core's mask marks as
    unsettled, never past the block's end; each entry is hinted by the one
    before, and the run is yielded as one block, cut short before an entry
    that raises, so what it raises comes after every earlier entry. The
    core then resumes on a new block, seeded by the last scalar sample, at
    an entry it settles, so a hand-over costs at most _SCALAR_RUN scalar
    calls beyond the entries only the scalar code can settle.
    """
    seed, lo = None, 0
    while lo < len(s):
        part = slice(lo, lo + BLOCK)
        block, exact, ok = _array_block(d, s[part], seed,
                                        None if rows is None else [x[:, part] for x in rows])
        yield block.take(slice(0, exact))
        seed = block[exact - 1] if exact else seed
        settled = np.flatnonzero(ok[exact + _SCALAR_RUN:])
        stop = exact + _SCALAR_RUN + settled[0] if settled.size else len(block)
        run, error = [], None
        for x in block.s[exact:stop]:
            try:
                seed = awtf_eval(d, x, seed)
            except Exception as exc:
                error = exc
                break
            run.append(seed)
        if run:
            yield WaveSweep(*(np.array([getattr(x, f) for x in run]) for f in _FIELDS))
        if error is not None:
            raise error
        lo += stop


def wave_sweep(d: AgentDynamics, s: np.ndarray, rows=None) -> WaveSweep:
    """[wave_chain(d)(x) for x in s] as one WaveSweep: the wave_blocks."""
    s = np.asarray(s, dtype=complex)
    out = WaveSweep(*(np.empty(len(s), dtype=complex) for _ in _COMPLEX_FIELDS),
                    branch_flipped=np.empty(len(s), dtype=bool))
    lo = 0
    for block in wave_blocks(d, s, rows):
        for f in _FIELDS:
            getattr(out, f)[lo:lo + len(block)] = getattr(block, f)
        lo += len(block)
    return out


class Axis:
    """The imaginary-axis samples of one array of frequencies, as
    awtf_axis_sweep walks them: s = 1j*omega in chain order (highest |omega|
    first), the permutation back to the caller's order, and the Mf and Mr
    last evaluated at s with their values, one per side. A sweep reuses a
    side whose transfer function is the very object held, as the rows of an
    h or mu sweep share theirs, so the values never outlive their Axis nor
    depend on anything but that object and s."""

    def __init__(self, omegas):
        omegas = np.asarray(omegas, dtype=float)
        order = np.argsort(-np.abs(omegas), kind="stable")
        w = omegas[order]
        self.s = join(0.0 * w - 0.0, 0.0 + w)  # 1j * w, as Python does
        self.back = np.argsort(order)
        # (Mf, Mr) and their _tf_arrays rows, swapped whole, never written
        self._held: tuple = ((None, None), None)

    def tf_rows(self, d: AgentDynamics) -> tuple[np.ndarray, ...]:
        """_tf_arrays of (Mf, Mr) at every s, in BLOCK slices, evaluating
        only a side whose transfer function is not the one held."""
        tfs = (d.Mf, d.Mr)
        held, rows = self._held
        new = [i for i in (0, 1) if tfs[i] is not held[i]]
        if not new:
            return rows
        with np.errstate(all="ignore"):
            parts = [_tf_arrays([tfs[i] for i in new], self.s.real[lo:lo + BLOCK],
                                self.s.imag[lo:lo + BLOCK])
                     for lo in range(0, max(len(self.s), 1), BLOCK)]
        fresh = [x[0] if len(x) == 1 else np.concatenate(x, axis=1) for x in zip(*parts)]
        if len(new) == 1:
            fresh, side = [x.copy() for x in rows], fresh
            for x, y in zip(fresh, side):
                x[new[0]] = y[0]
        for x in fresh:
            x.flags.writeable = False
        rows = tuple(fresh)
        self._held = tfs, rows
        return rows


def awtf_axis_sweep(d: AgentDynamics, omegas: Union[np.ndarray, Axis]) -> WaveSweep:
    """Samples at s = 1j*omega for each omega (array-like, or the Axis of a
    FrequencyGrid, whose Mf and Mr values it reuses), in the caller's order.

    The hint chain runs from the highest frequency downward, so it starts
    where root selection is unambiguous (|g| -> 0 vs |beta| -> infinity) and
    continuity carries it through any modulus ties near DC.
    """
    axis = omegas if isinstance(omegas, Axis) else Axis(omegas)
    return wave_sweep(d, axis.s, axis.tf_rows(d)).take(axis.back)


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


def reflection_from_sample(ws: WaveSample) -> ReflectionSample:
    """Boundary reflections t1 = -g_plus*g_minus, tN = g_minus*(g_plus-1)/(g_minus-1).

    Raises ReflectionSingular when g_minus is within TOL_SING of 1 (the rear
    reflection denominator vanishes there; this happens as s -> 0 whenever
    the backward DC gain is 1).
    """
    denom = ws.g_minus - 1.0
    if abs(denom) < TOL_SING:
        raise ReflectionSingular(
            f"g_minus is within {TOL_SING:g} of 1 at s={ws.s}"
        )
    t1 = -ws.g_plus * ws.g_minus
    tN = ws.g_minus * (ws.g_plus - 1.0) / denom
    return ReflectionSample(s=ws.s, t1=t1, tN=tN)


def round_trip(ws: WaveSample, refl: ReflectionSample, N: int) -> complex:
    """1 - t1*tN*(g_plus*g_minus)**(N-1): the denominator of every transfer
    of an N-agent path, one wave's trip to both ends and back."""
    return 1.0 - refl.t1 * refl.tN * (ws.g_plus * ws.g_minus) ** (N - 1)


def quadratic_residuals(ws: WaveSample, d: AgentDynamics) -> tuple[float, float]:
    """|g**2 - coeff*g + ratio| for both couplings, for verification."""
    mf, mr, _, _ = _eval_terms(d, ws.s)
    r_plus = abs(ws.g_plus**2 - ws.beta * ws.g_plus + mf / mr)
    r_minus = abs(ws.g_minus**2 - ws.alpha * ws.g_minus + mr / mf)
    return r_plus, r_minus
