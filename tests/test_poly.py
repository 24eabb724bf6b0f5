import numpy as np
import pytest

from wavestring import Polynomial, poly_eval, poly_roots
from wavestring.errors import DegreeZero, NumericalError


def test_eval_constant():
    assert poly_eval(Polynomial([1.0]), 3.7 + 2j) == 1.0


def test_eval_s_squared():
    assert poly_eval(Polynomial([0, 0, 1]), 2j) == pytest.approx(-4.0)


def test_eval_linear():
    assert poly_eval(Polynomial([4, 4]), 1j) == pytest.approx(4 + 4j)


def test_degree_ignores_trailing_zeros():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree() == 1
    assert p.trimmed().coeffs == (1.0, 2.0)


def test_zero_polynomial_degree():
    assert Polynomial([0.0, 0.0]).degree() == 0
    assert Polynomial([0.0]).is_zero()


def test_coeff_beyond_length_is_zero():
    assert Polynomial([1.0]).coeff(5) == 0.0


def test_empty_rejected():
    with pytest.raises(ValueError):
        Polynomial([])


def test_multiplication():
    p = Polynomial([1, 1]) * Polynomial([1, -1])
    assert p.coeffs == (1.0, 0.0, -1.0)


def test_roots_linear():
    assert poly_roots(Polynomial([1, 1])) == pytest.approx([-1.0])


def test_roots_pure_imaginary_pair():
    roots = sorted(poly_roots(Polynomial([1, 0, 1])), key=lambda z: z.imag)
    assert roots == pytest.approx([-1j, 1j])


def test_roots_of_zero_at_minus_one():
    assert poly_roots(Polynomial([4, 4])) == pytest.approx([-1.0])


def test_roots_degree_zero_raises():
    with pytest.raises(DegreeZero):
        poly_roots(Polynomial([2.0]))


def test_root_residual_bound_random():
    rng = np.random.default_rng(42)
    tol_root = 1e-8
    for _ in range(100):
        deg = rng.integers(1, 5)
        coeffs = rng.uniform(-3, 3, size=deg + 1)
        coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.2 else 1.0
        p = Polynomial(coeffs)
        scale = max(abs(c) for c in p.coeffs)
        for r in poly_roots(p):
            bound = tol_root * scale * max(1.0, abs(r)) ** p.degree()
            assert abs(poly_eval(p, r)) <= bound


def test_roots_that_overflow_raise_numerical_error():
    # tf_normalize turns den [1e308, 0, 1, 1/3] into [1, 0, 1e-308, ~3.3e-309];
    # the companion matrix divides by the subnormal leading coefficient and
    # overflows. Any numpy warning would fail this test (filterwarnings=error).
    p = Polynomial([1.0, 0.0, 1e-308, 1e-308 / 3.0])
    with pytest.raises(NumericalError, match="cannot be formed"):
        poly_roots(p)
