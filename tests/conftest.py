"""Shared dynamics fixtures: a PI-controlled double integrator with friction.

The front coupling is (1/3)(4s+4)/(s^2(s/3+1)) throughout. Three rear
couplings give the canonical comparison set: identical (symmetric), scaled by
2.5/4 (asymmetric in position and velocity), and (1/3)(2.5s+4)/(s^2(s/3+1))
(symmetric position, asymmetric velocity).
"""

import importlib
import pkgutil

import numpy as np
import pytest
import scipy.linalg

from wavestring import AgentDynamics, Polynomial, RationalTF, tf_eval, tf_normalize


def front_coupling() -> RationalTF:
    return tf_normalize(
        Polynomial([4 / 3, 4 / 3]), Polynomial([0, 0, 1, 1 / 3])
    )


def rear_scaled(mu: float) -> RationalTF:
    mf = front_coupling()
    return RationalTF(mf.num.scaled(mu), mf.den, mf.p)


def rear_velocity_asym() -> RationalTF:
    return tf_normalize(
        Polynomial([4 / 3, 2.5 / 3]), Polynomial([0, 0, 1, 1 / 3])
    )


@pytest.fixture(scope="session")
def sym_dyn() -> AgentDynamics:
    mf = front_coupling()
    return AgentDynamics(mf, mf)


@pytest.fixture(scope="session")
def gain_asym_dyn() -> AgentDynamics:
    return AgentDynamics(front_coupling(), rear_scaled(2.5 / 4))


@pytest.fixture(scope="session")
def vel_asym_dyn() -> AgentDynamics:
    return AgentDynamics(front_coupling(), rear_velocity_asym())


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance PASS/FAIL lines after any run that produced them."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


def record_calls(monkeypatch, module, name) -> list:
    """Wrap module.name under every wavestring module bound to it, as the
    bench does; returns the list of each call's positional arguments."""
    import wavestring

    original, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for info in pkgutil.iter_modules(wavestring.__path__):
        bound = importlib.import_module(f"wavestring.{info.name}")
        if getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, wrapper)
    return calls


def block_response(block, s: complex) -> np.ndarray:
    """[Mf(s), Mr(s)] as an agent block realizes them: the position's (last
    state's) response to each input at s."""
    return np.linalg.solve(s * np.eye(block.order) - block.A, block.B)[-1]


def realization_matches(block, d: AgentDynamics, samples, rtol: float = 1e-8) -> bool:
    """Frequency-response agreement between an agent block and its two
    couplings: the front input column realizes Mf, the rear one Mr."""
    for s in samples:
        for got, tf in zip(block_response(block, s), (d.Mf, d.Mr)):
            want = tf_eval(tf, s)
            if abs(got - want) > rtol * max(1.0, abs(want)):
                return False
    return True


def expm_reference(net, cfg):
    """The exact solution, event by event: the oracle for simulate's step map.

    Each step runs exp(tau [[A, B], [0, 0]]) from one grid time or input
    edge (a step's start, a pulse's start or end) to the next, with the
    inputs held at their values at its start.
    The augmented matrix is balanced first, as the high-order case's
    companion blocks are badly scaled.
    """
    n_steps = int(round(cfg.T_final / cfg.dt))
    times = np.arange(n_steps + 1) * cfg.dt
    signals = [cfg.leader, *cfg.disturbances]
    cols = [net.input_column("leader")] + [
        net.input_column(("delta", dist.agent)) for dist in cfg.disturbances
    ]
    nz, ni = net.state_dim, len(cols)
    M = np.zeros((nz + ni, nz + ni))
    M[:nz, :nz], M[:nz, nz:] = net.A, net.B[:, cols]
    balanced, T = scipy.linalg.matrix_balance(M, permute=False)
    scale = np.diag(T)
    maps = {}

    def advance(z, t0, t1):
        if t1 - t0 not in maps:
            E = scale[:, None] * scipy.linalg.expm((t1 - t0) * balanced) / scale
            maps[t1 - t0] = E[:nz]
        u = [float(sig.value(t0)) for sig in signals]
        return maps[t1 - t0] @ np.concatenate([z, u])

    edges = sorted({sig.start for sig in signals} | {
        dist.start + dist.duration for dist in cfg.disturbances if dist.signal == "pulse"})
    positions = np.zeros((net.num_agents + 1, n_steps + 1))
    z = np.zeros(nz)
    for i, t in enumerate(times):
        positions[0, i] = cfg.leader.value(t)
        positions[1:, i] = net.C @ z
        if i == n_steps:
            break
        for when in edges:
            if t < when < times[i + 1]:
                z, t = advance(z, t, when), when
        z = advance(z, t, times[i + 1])
    return positions


def random_pi_pair(rng: np.random.Generator, min_kappa_gap: float = 0.1):
    """Random proper PI-over-double-integrator pair satisfying the checks.

    Positive constant numerator coefficients, two integrators, left-half-plane
    zeros and poles, and |kappa - 1| >= min_kappa_gap.
    """
    tau = rng.uniform(0.1, 1.0)
    den = Polynomial([0.0, 0.0, 1.0, tau])
    while True:
        kif = rng.uniform(0.5, 4.0)
        kir = rng.uniform(0.5, 4.0)
        if abs(kif / kir - 1.0) >= min_kappa_gap:
            break
    kpf = rng.uniform(0.5, 4.0)
    kpr = rng.uniform(0.5, 4.0)
    mf = tf_normalize(Polynomial([kif, kpf]), den)
    mr = tf_normalize(Polynomial([kir, kpr]), den)
    return AgentDynamics(mf, mr)


def undamped() -> AgentDynamics:
    m = RationalTF(Polynomial([1.0]), Polynomial([1.0]), p=2)
    return AgentDynamics(m, m)


def canonical(name: str, h: float) -> AgentDynamics:
    rear = {"gain-asym": rear_scaled(2.5 / 4), "vel-asym": rear_velocity_asym(),
            "sym": front_coupling()}[name]
    return AgentDynamics(front_coupling(), rear, h=h)


CANONICAL = [(name, h) for name in ("gain-asym", "vel-asym", "sym") for h in (0.0, 0.5)]


def bench_pairs() -> list:
    """The 12 seed-1 random PI pairs of the bench's spectral workload."""
    rng = np.random.default_rng(1)
    return [random_pi_pair(rng) for _ in range(12)]
