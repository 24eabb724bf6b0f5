"""CPython's complex arithmetic on numpy arrays, bit for bit.

The scalar evaluators (waves.awtf_eval and the per-sample spectra) compute
in Python complex numbers; the array cores repeat that arithmetic here on
real and imaginary parts held as float arrays, so that every entry carries
the scalar result's bits, signed zeros included:

- a product is (ac - bd, ad + bc), as CPython's _Py_c_prod computes it
  (numpy's complex multiply may fuse these into FMAs and differ);
- a quotient is CPython's Smith branch (_Py_c_quot), not numpy's division;
- z ** n for a small int n is CPython's binary powering;
- a Python float x in complex arithmetic acts as x + 0j, so its zero
  imaginary part is multiplied and added like any other.

These are the rules of CPython 3.10 through 3.13. CPython 3.14 mixes float
and complex operands as C99 Annex G does (a float is no longer promoted to
x + 0j), which changes the signs of zeros in the scalar results; the
package requires Python < 3.14 until this module follows both rule sets.

Where the scalar code computes on numpy scalars (np.sqrt of t_g and what
follows it, a quotient by the numpy scalar s), the rules split. A product
with a numpy scalar is (ac - bd, ad + bc), so cmul again: numpy's array
product may fuse or vectorise and differs (in 4,432 of 10,000 random
products). A quotient, a sum and np.sqrt are the same numpy operation on
arrays as on scalars, so the array core uses numpy's own there; its
division is not CPython's Smith branch, so cdiv must not stand in for it.
abs() of either kind of complex is np.hypot of its parts. Build complex
arrays with join: re + 1j*im turns an imaginary part of -0.0 into +0.0,
which flips np.sqrt's branch on the negative real axis.

Inputs may hold anything; callers run these under np.errstate(all="ignore")
and discard the entries that are not finite (there the scalar code raises
or warns, and its own evaluation has to decide).
"""

from __future__ import annotations

import numpy as np

MAX_POWI = 100  # complex ** n uses binary powering for 0 <= n <= this


def cmul(ar, ai, br, bi):
    """(ar + ai j) * (br + bi j) as Python computes it, component-wise."""
    return ar * br - ai * bi, ar * bi + ai * br


def cdiv(ar, ai, br, bi):
    """(ar + ai j) / (br + bi j) as Python computes it (Smith's method).

    Both Smith branches are evaluated; each entry keeps the one CPython
    takes. A zero divisor, where Python raises, gives NaN here.
    """
    wide = np.abs(br) >= np.abs(bi)
    big, small = np.where(wide, br, bi), np.where(wide, bi, br)
    ratio = small / big
    denom = big + small * ratio
    p, q = np.where(wide, ar, ai), np.where(wide, ai, ar)
    return (p + q * ratio) / denom, np.where(wide, q - p * ratio, p * ratio - q) / denom


def cpowi(re, im, n: int):
    """(re + im j) ** n as Python computes it, for an int 0 <= n <= MAX_POWI."""
    if not 0 <= n <= MAX_POWI:
        raise ValueError(f"exponent {n} outside 0..{MAX_POWI}")
    if n == 0:
        return cdiv(1.0, 0.0, 1.0, 0.0)
    acc, mask = (1.0, 0.0), 1
    while True:
        if n & mask:
            acc = cmul(*acc, re, im)
        mask <<= 1
        if mask > n:
            return acc
        re, im = cmul(re, im, re, im)


def join(re, im) -> np.ndarray:
    """The complex array re + im j, signs of zero parts kept."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def finite(*parts) -> np.ndarray:
    """Entries where every part is finite."""
    ok = np.isfinite(parts[0])
    for x in parts[1:]:
        ok = ok & np.isfinite(x)
    return ok
