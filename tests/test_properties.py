"""Randomized invariant checks over low-order dynamics (degree <= 4).

One seeded pass of 100 random agent-dynamics draws (property_cases) feeds
every per-dynamics invariant, and test_stability runs its exact axis and norm
oracles over the same dynamics and over 50 more draws with headway
(headway_cases); trajectory-level invariants (step-size independence,
linearity) run on fixed cases in test_platoon.
"""

import numpy as np
import pytest

from wavestring import (
    AgentDynamics,
    Polynomial,
    awtf_eval,
    poly_eval,
    quadratic_residuals,
    realize,
    tf_eval,
    tf_normalize,
)
from conftest import realization_matches


def random_dynamics(rng: np.random.Generator) -> AgentDynamics:
    """Stable proper pair: positive numerators, LHP poles, p in {1, 2}."""
    p = int(rng.integers(1, 3))
    den_roots = -rng.uniform(0.3, 5.0, size=rng.integers(1, 3))
    den = Polynomial([1.0])
    for r in den_roots:
        den = den * Polynomial([1.0, 1.0 / abs(r)])
    num_f = Polynomial(rng.uniform(0.3, 3.0, size=rng.integers(1, 3)))
    num_r = Polynomial(rng.uniform(0.3, 3.0, size=rng.integers(1, 3)))
    mf = tf_normalize(num_f, Polynomial([0.0] * p + list(den.coeffs)))
    mr = tf_normalize(num_r, Polynomial([0.0] * p + list(den.coeffs)))
    return AgentDynamics(mf, mr)


def random_sample_point(rng: np.random.Generator) -> complex:
    # away from the origin and off the real axis, where ties are non-generic
    return complex(rng.uniform(-0.5, 1.5), rng.uniform(0.2, 4.0))


def property_cases(count: int = 100):
    """The randomized suite's seeded draws, one (dynamics, sample point,
    20 realization sample points) per case."""
    rng = np.random.default_rng(20240817)
    for _ in range(count):
        d = random_dynamics(rng)
        s = random_sample_point(rng)
        yield d, s, [random_sample_point(rng) for _ in range(20)]


def headway_cases(count: int = 50):
    """Seeded draws of random_dynamics, each with a headway h drawn from
    [0.05, 1.5]: the exact oracles of test_stability run on them too."""
    rng = np.random.default_rng(20261020)
    for _ in range(count):
        d = random_dynamics(rng)
        yield AgentDynamics(d.Mf, d.Mr, h=float(rng.uniform(0.05, 1.5)))


def test_randomized_invariants_100_cases():
    for case, (d, s, samples) in enumerate(property_cases()):
        ws = awtf_eval(d, s)
        mf = tf_eval(d.Mf, s)
        mr = tf_eval(d.Mr, s)

        # quadratic residuals
        r_plus, r_minus = quadratic_residuals(ws, d)
        assert r_plus <= 1e-9 * max(1.0, abs(ws.beta) ** 2), case
        assert r_minus <= 1e-9 * max(1.0, abs(ws.alpha) ** 2), case

        # root-product identity
        other = ws.beta - ws.g_plus
        assert ws.g_plus * other == pytest.approx(mf / mr, rel=1e-9), case

        # conjugate symmetry
        ws_c = awtf_eval(d, s.conjugate())
        assert ws_c.g_plus == pytest.approx(ws.g_plus.conjugate(), rel=1e-9)
        assert ws_c.g_minus == pytest.approx(ws.g_minus.conjugate(), rel=1e-9)

        # realization matches the transfer function
        assert realization_matches(realize(d), d, samples), case


def test_normalization_idempotent_random():
    rng = np.random.default_rng(5150)
    for _ in range(100):
        p = int(rng.integers(0, 3))
        scale = rng.uniform(0.2, 5.0)
        num = Polynomial(rng.uniform(0.2, 2.0, size=rng.integers(1, 4)))
        den = Polynomial(
            [0.0] * p + list(scale * rng.uniform(0.2, 2.0, size=rng.integers(1, 3)))
        )
        once = tf_normalize(num, den)
        again = tf_normalize(
            Polynomial(once.num.coeffs),
            Polynomial([0.0] * once.p + list(once.den.coeffs)),
        )
        assert again.p == once.p
        assert again.num.coeffs == once.num.coeffs
        assert again.den.coeffs == once.den.coeffs


def test_normalized_matches_raw_ratio_random():
    rng = np.random.default_rng(99)
    for _ in range(50):
        num = Polynomial(rng.uniform(0.2, 2.0, size=2))
        den = Polynomial([0.0, 0.0] + list(rng.uniform(0.2, 2.0, size=2)))
        tf = tf_normalize(num, den)
        for _ in range(4):
            s = random_sample_point(rng)
            want = poly_eval(num, s) / poly_eval(den, s)
            assert tf_eval(tf, s) == pytest.approx(want, rel=1e-12)
