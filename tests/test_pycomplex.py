"""pycomplex against CPython's own complex arithmetic, bit for bit.

The array core is bit-identical to the scalar chain only while these rules
hold on the running interpreter. Every result is compared through its
uint64 view, so signed zeros, subnormals and last-bit differences count;
entries where Python raises (a zero divisor, an overflowing power) are
skipped, as the core hands those samples to the scalar code.
"""

import itertools

import numpy as np
import pytest

from wavestring.pycomplex import MAX_POWI, cdiv, cmul, cpowi, join

PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, 1.0, -1.0, 0.5, 3.0,
         1e300, -1e300]


def values() -> list[complex]:
    """Every pair of special parts, and random values of mixed scales."""
    rng = np.random.default_rng(7)
    special = [complex(re, im) for re, im in itertools.product(PARTS, PARTS)]
    scaled = rng.normal(size=(200, 2)) * 10.0 ** rng.integers(-8, 9, size=(200, 2))
    return special + [complex(re, im) for re, im in scaled]


VALUES = values()


def bits(z) -> np.ndarray:
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


def python(op, *args):
    """op(*args) in Python, or None where Python raises."""
    try:
        return op(*args)
    except (ZeroDivisionError, OverflowError):
        return None


def assert_same(got_parts, want: list, msg: str = ""):
    """got_parts (re, im arrays) equal want where want is not None."""
    keep = np.array([w is not None for w in want])
    got = join(*np.broadcast_arrays(*got_parts))[keep]
    np.testing.assert_array_equal(
        bits(got), bits([w for w in want if w is not None]), msg)


@pytest.fixture(autouse=True)
def quiet():
    with np.errstate(all="ignore"):
        yield


def split(zs):
    z = np.array(zs, dtype=complex)
    return z.real.copy(), z.imag.copy()


def pairs() -> tuple:
    return tuple(zip(*itertools.product(VALUES, VALUES)))


def test_join_keeps_signed_zeros():
    assert_same(split(VALUES), VALUES)


def test_cmul():
    a, b = pairs()
    assert_same(cmul(*split(a), *split(b)), [x * y for x, y in zip(a, b)])


def test_cdiv():
    a, b = pairs()
    assert_same(cdiv(*split(a), *split(b)),
                [python(lambda x, y: x / y, x, y) for x, y in zip(a, b)])


def test_cpowi():
    for n in range(1, MAX_POWI + 1):
        assert_same(cpowi(*split(VALUES), n), [python(pow, z, n) for z in VALUES],
                    f"n={n}")


def test_float_operands_act_as_complex_with_zero_imaginary_part():
    # CPython 3.10-3.13 promotes x to x + 0j; 3.14 mixes the two as C99
    # does, which changes signed zeros and fails these checks
    re, im = split(VALUES)
    for x in (0.5, 4.0, -1.0, 0.0):
        assert_same(cmul(x, 0.0, re, im), [x * z for z in VALUES])
    assert_same((1.0 + re, 0.0 + im), [1.0 + z for z in VALUES])
