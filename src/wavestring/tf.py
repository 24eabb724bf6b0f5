"""Rational transfer functions in normalized integrator-factored form.

A transfer function is held as ``num(s) / (s**p * den(s))`` where ``p`` counts
poles at the origin explicitly. The integrator count is structural: it is
taken from exact trailing-zero denominator coefficients, never inferred from
near-zero roots, because the gain and stability formulas downstream are
discontinuous in ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (NumeratorOriginZero, NumericalError, PoleAtSample,
                     ZeroDenominator)
from .poly import Polynomial, poly_eval, poly_roots

# Default tolerances; every consumer accepts overrides.
TOL_CRHP = 1e-9  # absolute margin on real parts for closed-right-half-plane tests
TOL_DC = 1e-9    # relative margin for DC-gain equality


@dataclass(frozen=True)
class RationalTF:
    """num(s) / (s**p * den(s)) with den(0) == 1 and num(0) != 0.

    Use tf_normalize to build one from raw coefficient lists; the constructor
    only checks the normalized-form invariants. Properness is deliberately
    not enforced here (check_assumption1 and realize() report it).
    """

    num: Polynomial
    den: Polynomial
    p: int = 0

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("integrator count p must be non-negative")
        if self.den.coeffs[0] != 1.0:
            raise ValueError(
                "denominator constant coefficient must be 1; use tf_normalize"
            )
        if self.num.coeffs[0] == 0.0:
            raise NumeratorOriginZero(
                "numerator constant coefficient must be nonzero; "
                "origin zeros/poles belong in p"
            )

    def is_proper(self) -> bool:
        return self.num.degree() <= self.p + self.den.degree()

    def is_strictly_proper(self) -> bool:
        return self.num.degree() < self.p + self.den.degree()


def tf_eval(tf: RationalTF, s: complex) -> complex:
    """Value num(s) / (s**p * den(s)).

    Raises PoleAtSample on a pole and NumericalError where s**p overflows.
    """
    s = complex(s)
    try:
        denom = (s ** tf.p) * poly_eval(tf.den, s)
    except OverflowError as exc:
        raise NumericalError(f"s**{tf.p} overflows at s={s}") from exc
    if denom == 0:
        raise PoleAtSample(f"transfer function has a pole at s={s}")
    return poly_eval(tf.num, s) / denom


def tf_normalize(num: Polynomial, den: Polynomial) -> RationalTF:
    """Factor origin roots of den into p and scale den(0) to 1.

    Trailing-zero low-order coefficients are counted exactly. Common origin
    roots of num and den cancel. Raises ZeroDenominator for an identically
    zero den and NumeratorOriginZero if the reduced num still vanishes at 0.
    """
    if den.is_zero():
        raise ZeroDenominator("denominator polynomial is identically zero")
    if num.is_zero():
        raise NumeratorOriginZero("numerator polynomial is identically zero")
    den = den.trimmed()
    num = num.trimmed()

    den_origin = _origin_multiplicity(den)
    num_origin = _origin_multiplicity(num)
    cancel = min(den_origin, num_origin)
    p = den_origin - cancel

    num = Polynomial(num.coeffs[cancel:]) if cancel else num
    den = Polynomial(den.coeffs[den_origin:]) if den_origin else den

    if num.coeffs[0] == 0.0:
        raise NumeratorOriginZero(
            "numerator has more origin roots than the denominator"
        )
    c = den.coeffs[0]
    # True division, not multiplication by 1/c: den(0) must land on 1.0 exactly.
    return RationalTF(
        num=Polynomial(tuple(x / c for x in num.coeffs)),
        den=Polynomial(tuple(x / c for x in den.coeffs)),
        p=p,
    )


def _origin_multiplicity(p: Polynomial) -> int:
    k = 0
    while k < len(p.coeffs) and p.coeffs[k] == 0.0:
        k += 1
    return k


@dataclass(frozen=True)
class AgentDynamics:
    """Front/rear couplings (Mf, Mr) plus the headway time h.

    h == 0 is the constant-spacing policy. Equal integrator counts are an
    assumption, not a construction constraint: check_assumption1 reports the
    violation instead of this class refusing to exist.
    """

    Mf: RationalTF
    Mr: RationalTF
    h: float = 0.0

    def __post_init__(self):
        if self.h < 0:
            raise ValueError("headway time h must be non-negative")

    @property
    def p(self) -> int:
        return self.Mf.p


@dataclass(frozen=True)
class LowOrderCoeffs:
    """First Taylor coefficients of Mf/Mr and 1/Mr around s=0.

    kappa is the DC gain ratio n_f0/n_r0, k_y1 the first odd coefficient of
    Im(Mf/Mr) on the axis, l_x1 = 1/n_r0.
    """

    kappa: float
    k_y1: float
    l_x1: float


def low_order_coeffs(d: AgentDynamics) -> LowOrderCoeffs:
    """Read the low-order coefficients straight off the normalized polynomials.

    Raises NumericalError when Mr's numerator constant n_r0 is so large or
    small that n_r0**2 overflows or underflows to zero.
    """
    nf0 = d.Mf.num.coeff(0)
    nf1 = d.Mf.num.coeff(1)
    nr0 = d.Mr.num.coeff(0)
    nr1 = d.Mr.num.coeff(1)
    df1 = d.Mf.den.coeff(1)
    dr1 = d.Mr.den.coeff(1)
    kappa = nf0 / nr0
    try:
        k_y1 = (nf1 * nr0 - nf0 * nr1 - df1 * nf0 * nr0 + dr1 * nf0 * nr0) / nr0**2
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalError(
            f"k_y1 divides by the square of Mr's numerator constant {nr0:.6g}, "
            f"which is not representable ({exc})"
        ) from exc
    return LowOrderCoeffs(kappa=kappa, k_y1=k_y1, l_x1=1.0 / nr0)


def positional_symmetry(d: AgentDynamics, tol_dc: float = TOL_DC) -> bool:
    """True iff the DC coupling gains match (kappa == 1 within tol_dc relative)."""
    return abs(low_order_coeffs(d).kappa - 1.0) <= tol_dc


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the structural checks on a pair (Mf, Mr).

    Every failed check adds a violation; the kappa sign check has no flag.
    """

    equal_integrators: bool
    both_proper: bool
    no_crhp_roots: bool
    violations: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.violations


def check_assumption1(d: AgentDynamics, tol_crhp: float = TOL_CRHP) -> AssumptionReport:
    """Check integrator counts, properness, closed-RHP roots and kappa > 0.

    Origin poles factored into p are exempt from the root check. A root with
    real part > -tol_crhp counts as closed-right-half-plane. A DC gain ratio
    kappa that is not positive (the numerators differ in sign at s = 0) is a
    violation too; the DC gain formulas need kappa > 0, and so are roots
    that cannot be formed in floating point (poly_roots' NumericalError).
    Never raises: violations are reported.
    """
    violations: list[str] = []

    equal = d.Mf.p == d.Mr.p
    if not equal:
        violations.append(
            f"integrator counts differ: Mf has p={d.Mf.p}, Mr has p={d.Mr.p}"
        )

    proper = d.Mf.is_proper() and d.Mr.is_proper()
    if not proper:
        violations.append("Mf or Mr is improper (numerator degree too high)")

    crhp_ok = True
    for name, tf in (("Mf", d.Mf), ("Mr", d.Mr)):
        for kind, poly in (("zero", tf.num), ("pole", tf.den)):
            if poly.degree() < 1:
                continue
            try:
                roots = poly_roots(poly)
            except NumericalError as exc:
                crhp_ok = False
                violations.append(f"{name} {kind}s: {exc}")
                continue
            for root in roots:
                if root.real > -tol_crhp:
                    crhp_ok = False
                    violations.append(
                        f"{name} has a closed-RHP {kind} at {complex(root):.6g}"
                    )

    kappa = d.Mf.num.coeffs[0] / d.Mr.num.coeffs[0]  # low_order_coeffs' kappa
    if not kappa > 0:
        violations.append(f"DC gain ratio kappa = {kappa:.6g} is not positive")

    return AssumptionReport(
        equal_integrators=equal,
        both_proper=proper,
        no_crhp_roots=crhp_ok,
        violations=tuple(violations),
    )
