"""Real-coefficient polynomials in the Laplace variable, ascending powers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegreeZero, NumericalError


@dataclass(frozen=True)
class Polynomial:
    """Polynomial ``c[0] + c[1]*s + c[2]*s**2 + ...`` with real coefficients.

    Coefficients are stored ascending and are user-supplied numbers, so zero
    tests on them are exact (no tolerance).
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        c = tuple(float(x) for x in coeffs)
        if not c:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", c)

    def degree(self) -> int:
        """Index of the last nonzero coefficient (0 for the zero polynomial)."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0.0:
                return k
        return 0

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coeffs)

    def coeff(self, k: int) -> float:
        """Coefficient of s**k, 0.0 if k is beyond the stored list."""
        return self.coeffs[k] if k < len(self.coeffs) else 0.0

    def trimmed(self) -> "Polynomial":
        """Drop trailing zero coefficients (keeps at least one entry)."""
        return Polynomial(self.coeffs[: self.degree() + 1])

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial(tuple(c * factor for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(tuple(np.convolve(self.coeffs, other.coeffs)))


def poly_eval(p: Polynomial, s: complex) -> complex:
    """Evaluate p at s by Horner's rule."""
    acc = 0.0 + 0.0j
    for c in reversed(p.coeffs):
        acc = acc * s + c
    return acc


def poly_roots(p: Polynomial) -> np.ndarray:
    """All complex roots of p via companion-matrix eigenvalues.

    Raises DegreeZero for constant polynomials and NumericalError, without
    a numpy warning, when the roots cannot be formed in floating point (the
    companion matrix overflows, e.g. for a subnormal leading coefficient).
    Root order is unspecified.
    """
    deg = p.degree()
    if deg < 1:
        raise DegreeZero("cannot take roots of a degree-zero polynomial")
    coeffs = p.coeffs[: deg + 1]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            roots = np.polynomial.polynomial.polyroots(np.asarray(coeffs))
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"roots of {coeffs} cannot be formed: {exc}") from exc
    if not np.isfinite(roots).all():
        raise NumericalError(f"roots of {coeffs} are not finite")
    return roots
