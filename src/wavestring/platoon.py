"""State-space realization and time-domain simulation of agent chains.

Agents are identical single-input blocks wired on a tree rooted at the
externally driven leader (node 0). Orientation comes from a breadth-first
search from the leader: the front coupling block of every agent faces its
parent, one rear coupling block faces each child, and leaf agents carry no
rear block. Each agent's position is the sum of its block outputs; a
disturbance enters the front block input of its agent, next to the relative
position. The leader is kinematic: its position is an exogenous input, never
integrated.

With a headway time h > 0 each block input gains a -h * (own velocity) term.
Velocities are recovered from the block states by solving a small linear
system once at assembly, which keeps the network an ordinary (non-descriptor)
linear ODE. That requires strictly proper couplings; a biproper coupling
would make positions depend algebraically on input derivatives and is
rejected at assembly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    AssumptionViolated,
    CyclicTopology,
    DisconnectedTopology,
    ImproperTF,
    NonFiniteState,
    SingularSolve,
    StepSizeUnstable,
)
from .poly import poly_roots
from .tf import AgentDynamics, RationalTF, check_assumption1, tf_eval


@dataclass(frozen=True)
class Topology:
    """Tree interconnection with leader 0 and a designated spine 0..spine_n.

    A plain path is the special case with no nodes beyond the spine. In the
    generalized case extra subtrees may hang off the far spine end (node
    spine_n) only; interior spine agents must keep exactly two neighbours.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    spine_n: int

    def __post_init__(self):
        object.__setattr__(
            self,
            "edges",
            tuple(sorted((min(a, b), max(a, b)) for a, b in self.edges)),
        )
        self._validate()

    @staticmethod
    def path(n: int) -> "Topology":
        return Topology(n + 1, tuple((i, i + 1) for i in range(n)), n)

    @staticmethod
    def with_tail_branches(n: int, branch_lengths: Sequence[int]) -> "Topology":
        """Spine 0..n plus one chain of each given length hanging off node n."""
        edges = [(i, i + 1) for i in range(n)]
        next_node = n + 1
        for length in branch_lengths:
            prev = n
            for _ in range(length):
                edges.append((prev, next_node))
                prev = next_node
                next_node += 1
        return Topology(next_node, tuple(edges), n)

    def _validate(self):
        v = self.num_nodes
        if self.spine_n < 3:
            raise ValueError("spine needs at least N = 3 follower agents")
        if self.spine_n >= v:
            raise ValueError("spine extends past the node count")
        for a, b in self.edges:
            if not (0 <= a < v and 0 <= b < v) or a == b:
                raise ValueError(f"bad edge ({a}, {b})")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")

        adj = self.adjacency()
        parents = self.bfs_parents()
        reached = 1 + sum(p >= 0 for p in parents)
        if reached != v:
            raise DisconnectedTopology(
                f"only {reached} of {v} nodes reachable from the leader"
            )
        if len(self.edges) != v - 1:
            raise CyclicTopology("connected graph with |E| != |V|-1 has a cycle")

        edge_set = set(self.edges)
        for i in range(self.spine_n):
            if (i, i + 1) not in edge_set:
                raise ValueError(f"spine edge ({i}, {i + 1}) missing")
        for i in range(1, self.spine_n):
            if len(adj[i]) != 2:
                raise ValueError(
                    f"interior spine agent {i} has degree {len(adj[i])}, not 2"
                )
        # Everything past the spine must hang off the far end.
        for node in range(self.spine_n + 1, v):
            walk = node
            while walk > self.spine_n:
                walk = parents[walk]
            if walk != self.spine_n:
                raise ValueError(
                    f"off-spine node {node} attaches at spine agent {walk}, "
                    f"only node {self.spine_n} may branch"
                )

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def bfs_parents(self) -> list[int]:
        """Parent of every node under BFS from the leader (leader's is -1)."""
        adj = self.adjacency()
        parents = [-1] * self.num_nodes
        seen = {0}
        queue = deque([0])
        while queue:
            node = queue.popleft()
            for nb in sorted(adj[node]):
                if nb not in seen:
                    seen.add(nb)
                    parents[nb] = node
                    queue.append(nb)
        return parents

    def children(self) -> list[list[int]]:
        parents = self.bfs_parents()
        kids: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for node, par in enumerate(parents):
            if par >= 0:
                kids[par].append(node)
        return kids


@dataclass(frozen=True)
class StateSpaceBlock:
    """Controllable-canonical realization of one rational transfer function."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: float

    @property
    def order(self) -> int:
        return self.A.shape[0]

    def response(self, s: complex) -> complex:
        n = self.order
        if n == 0:
            return complex(self.D)
        sol = np.linalg.solve(s * np.eye(n) - self.A, self.B)
        return complex(self.C @ sol + self.D)


def realize(tf: RationalTF) -> StateSpaceBlock:
    """Controllable-canonical state-space block including the origin poles.

    Raises ImproperTF when the numerator degree exceeds p + denominator
    degree. The feedthrough D is nonzero exactly for biproper functions.
    """
    n = tf.p + tf.den.degree()
    if tf.num.degree() > n:
        raise ImproperTF(
            f"numerator degree {tf.num.degree()} exceeds pole count {n}"
        )
    # Full denominator s**p * den(s), made monic.
    full = np.zeros(n + 1)
    for k in range(tf.den.degree() + 1):
        full[k + tf.p] = tf.den.coeff(k)
    lead = full[n]
    a = full[:n] / lead
    b = np.zeros(n + 1)
    for k in range(tf.num.degree() + 1):
        b[k] = tf.num.coeff(k) / lead

    A = np.zeros((n, n))
    if n > 1:
        A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -a
    B = np.zeros(n)
    if n > 0:
        B[-1] = 1.0
    D = float(b[n])
    C = b[:n] - D * a
    for arr in (A, B, C):
        arr.flags.writeable = False
    return StateSpaceBlock(A=A, B=B, C=C, D=D)


@dataclass(frozen=True)
class NetworkSystem:
    """Assembled linear network: z' = A z + B w, positions x = C z.

    The exogenous input vector is w = [leader position, delta_1, ...,
    delta_V] where delta_n is the disturbance entering agent n's front block.
    Positions cover agents 1..V; the leader is prepended by the simulator.
    """

    topology: Topology
    dynamics: AgentDynamics
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    @property
    def num_agents(self) -> int:
        return self.topology.num_nodes - 1

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    def input_column(self, which: Union[str, tuple[str, int]]) -> int:
        if which == "leader":
            return 0
        if isinstance(which, tuple) and which[0] == "delta":
            n = which[1]
            if not 1 <= n <= self.num_agents:
                raise ValueError(f"no agent {n} for a disturbance input")
            return n
        raise ValueError(f"unknown input id {which!r}")


def build_network(topology: Topology, d: AgentDynamics) -> NetworkSystem:
    """Wire one front block per agent and one rear block per child edge."""
    report = check_assumption1(d)
    if not report.passed:
        raise AssumptionViolated("; ".join(report.violations))
    if not (d.Mf.is_strictly_proper() and d.Mr.is_strictly_proper()):
        raise ImproperTF(
            "network assembly needs strictly proper couplings "
            "(biproper blocks would create an algebraic position loop)"
        )

    blk_f = realize(d.Mf)
    blk_r = realize(d.Mr)
    parents = topology.bfs_parents()
    children = topology.children()
    n_agents = topology.num_nodes - 1

    # Block table: (realization, owner agent, referenced neighbour, is_front).
    blocks: list[tuple[StateSpaceBlock, int, int, bool]] = []
    for agent in range(1, topology.num_nodes):
        blocks.append((blk_f, agent, parents[agent], True))
        for child in children[agent]:
            blocks.append((blk_r, agent, child, False))

    nz = sum(blk.order for blk, *_ in blocks)
    nu = len(blocks)
    A_blk = np.zeros((nz, nz))
    B_blk = np.zeros((nz, nu))
    C_out = np.zeros((n_agents, nz))      # positions from states
    S = np.zeros((nu, n_agents))          # relative-position structure
    R = np.zeros((nu, n_agents))          # own-velocity pick for headway
    T = np.zeros((nu, 1 + n_agents))      # leader and disturbance injection

    offset = 0
    for k, (blk, agent, other, is_front) in enumerate(blocks):
        m = blk.order
        A_blk[offset:offset + m, offset:offset + m] = blk.A
        B_blk[offset:offset + m, k] = blk.B
        C_out[agent - 1, offset:offset + m] += blk.C
        S[k, agent - 1] -= 1.0
        if other == 0:
            T[k, 0] = 1.0
        else:
            S[k, other - 1] += 1.0
        if is_front:
            T[k, agent] = 1.0
        R[k, agent - 1] = 1.0
        offset += m

    CA = C_out @ A_blk
    CB = C_out @ B_blk
    # A huge h overflows the headway algebra; the check below refuses it.
    with np.errstate(all="ignore"):
        if d.h > 0.0:
            M = np.eye(n_agents) + d.h * (CB @ R)
            try:
                Minv = np.linalg.inv(M)
            except np.linalg.LinAlgError as exc:
                raise SingularSolve("headway velocity coupling is singular") from exc
            xdot_z = Minv @ (CA + CB @ S @ C_out)
            xdot_w = Minv @ (CB @ T)
            U_z = S @ C_out - d.h * (R @ xdot_z)
            U_w = T - d.h * (R @ xdot_w)
        else:
            U_z = S @ C_out
            U_w = T
        A_net = A_blk + B_blk @ U_z
        B_net = B_blk @ U_w
    if not (np.isfinite(A_net).all() and np.isfinite(B_net).all()):
        raise SingularSolve(f"network matrices are non-finite (headway h={d.h:g})")
    for arr in (A_net, B_net, C_out):
        arr.flags.writeable = False
    return NetworkSystem(topology=topology, dynamics=d, A=A_net, B=B_net, C=C_out)


@dataclass(frozen=True)
class LeaderStep:
    amplitude: float = 1.0
    start: float = 0.0

    def value(self, t: Union[float, np.ndarray]) -> np.ndarray:
        """Leader position at time t (a float or an array of times)."""
        return np.where(t >= self.start, self.amplitude, 0.0)


@dataclass(frozen=True)
class Disturbance:
    """Additive signal on one agent's front block input."""

    agent: int
    signal: str = "step"  # "step" or "pulse"
    amplitude: float = 1.0
    start: float = 0.0
    duration: float = 1.0  # pulse width; ignored for steps

    def __post_init__(self):
        if self.signal not in ("step", "pulse"):
            raise ValueError(f"unknown disturbance signal {self.signal!r}")

    def value(self, t: Union[float, np.ndarray]) -> np.ndarray:
        """Signal value at time t (a float or an array of times)."""
        on = t >= self.start
        if self.signal == "pulse":
            on = on & (t < self.start + self.duration)
        return np.where(on, self.amplitude, 0.0)


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T_final: float
    leader: LeaderStep = LeaderStep()
    disturbances: tuple[Disturbance, ...] = ()

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T_final < 10 * self.dt:
            raise ValueError("T_final must cover at least 10 steps")


def default_dt(d: AgentDynamics) -> float:
    """min(1e-3, 0.05 / fastest pole magnitude); resolves every mode easily."""
    fastest = 0.0
    for tf in (d.Mf, d.Mr):
        if tf.den.degree() >= 1:
            fastest = max(fastest, float(np.max(np.abs(poly_roots(tf.den)))))
    if fastest == 0.0:
        return 1e-3
    return min(1e-3, 0.05 / fastest)


@dataclass(frozen=True)
class Trajectory:
    """times in seconds, positions indexed (agent, time) with row 0 the leader."""

    times: np.ndarray
    positions: np.ndarray

    def agent(self, n: int) -> np.ndarray:
        return self.positions[n]


CHUNK_STEPS = 128  # states held between two position projections


def _rk4_step(A, z, u0, u_half, u1, dt: float):
    """One classical Runge-Kutta step of z' = A z + u, with u sampled at t,
    t + dt/2 and t + dt.

    z and the u's may carry one column per state or input: simulate derives
    its step map from these stage formulas by linearity.
    """
    half = 0.5 * dt
    k1 = A @ z + u0
    k2 = A @ (z + half * k1) + u_half
    k3 = A @ (z + half * k2) + u_half
    k4 = A @ (z + dt * k3) + u1
    return z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_step_size(A: np.ndarray, dt: float) -> None:
    """Refuse a dt at which RK4 amplifies a mode that does not grow.

    R(x) = 1 + x + x**2/2 + x**3/6 + x**4/24 is RK4's amplification per step
    of the mode z' = lambda z at x = dt*lambda. The test is |R(x)| > 1 + 1e-6
    for any eigenvalue with Re lambda <= 1e-6; the margins allow for the
    integrator modes at the origin, which eigvals returns split by about
    1e-7.

    A norm bound settles the usual dt without the eigenvalues: every
    eigenvalue has |lambda| <= ||A||_1, |R| <= 1 on the half disc |x| <= 1,
    Re x <= 0, and |R'| <= 8/3 on the unit disc, so dt*||A||_1 <= 1 with
    dt <= 3/8 leaves no mode to refuse. A non-finite A is left to the first
    step, which reports it as NonFiniteState.
    """
    bound = np.linalg.norm(A, 1)
    if not np.isfinite(bound) or (dt * bound <= 1.0 and dt <= 0.375):
        return
    lam = np.linalg.eigvals(A)
    x = dt * lam[lam.real <= 1e-6]
    amp = np.abs(1.0 + x + x**2 / 2 + x**3 / 6 + x**4 / 24)
    worst = float(np.max(amp, initial=0.0))
    if worst > 1.0 + 1e-6:
        raise StepSizeUnstable(
            f"dt={dt:g} s is outside RK4's stability region: a non-growing "
            f"mode is amplified by {worst:.6g} per step"
        )


def _step_map(A: np.ndarray, B_in: np.ndarray, dt: float):
    """RK4 as the affine map [z, 1] -> step_map @ [z, 1], and its input columns.

    step_map holds P in its leading block and 1 in its corner; its last
    column is c, left for the caller to fill. Column 3*j + k of Q weights
    input j's sample at t + (0, dt/2, dt)[k]. Both come from the stage
    formulas of _rk4_step by linearity. Column j of P is one step from the
    unit state e_j, built a column at a time so that the transient memory
    stays at a few state vectors.
    """
    nz = A.shape[0]
    step_map = np.zeros((nz + 1, nz + 1))
    unit = np.zeros(nz)
    for j in range(nz):
        unit[j] = 1.0
        step_map[:nz, j] = _rk4_step(A, unit, 0.0, 0.0, 0.0, dt)
        unit[j] = 0.0
    step_map[nz, nz] = 1.0
    zero = np.zeros_like(B_in)
    Q = np.stack([
        _rk4_step(A, zero, B_in, zero, zero, dt),
        _rk4_step(A, zero, zero, B_in, zero, dt),
        _rk4_step(A, zero, zero, zero, B_in, dt),
    ], axis=2).reshape(nz, -1)
    return step_map, Q


def simulate(net: NetworkSystem, cfg: SimConfig) -> Trajectory:
    """Fixed-step classical Runge-Kutta integration from rest.

    The network is linear and time-invariant and its inputs are piecewise
    constant, so one RK4 step is the affine map z -> P z + c. P is the RK4
    stability polynomial sum_{k<=4} (dt A)**k / k! and c collects the input
    columns weighted by the input samples at t, t + dt/2 and t + dt. Both
    come from the stage formulas once per call (_step_map), and c is rebuilt
    only on steps where a sample changes. States are projected to positions
    one chunk of CHUNK_STEPS steps at a time; the state history is never
    stored.

    The leader position is imposed, not integrated, so positions[0] equals
    the input signal exactly on the grid. Raises StepSizeUnstable when dt
    lies outside RK4's stability region for a mode that does not grow, and
    NonFiniteState when the state diverges. Its time is the first grid time
    whose state or positions are non-finite.
    """
    dt = cfg.dt
    n_steps = int(round(cfg.T_final / dt))
    times = np.arange(n_steps + 1) * dt
    nz = net.state_dim
    _check_step_size(net.A, dt)

    # Active input channels only: w is sparse (leader plus a few disturbances).
    signals = [cfg.leader, *cfg.disturbances]
    cols = [net.input_column("leader")] + [
        net.input_column(("delta", dist.agent)) for dist in cfg.disturbances
    ]
    positions = np.empty((net.num_agents + 1, n_steps + 1))
    positions[0] = cfg.leader.value(times)
    positions[1:, 0] = 0.0
    chunk = np.empty((CHUNK_STEPS, nz + 1))
    rows = list(chunk)
    z = np.zeros(nz + 1)
    z[nz] = 1.0
    last = np.full(3 * len(signals), np.nan)  # so the first step sets c
    with np.errstate(over="ignore", invalid="ignore"):
        step_map, Q = _step_map(net.A, net.B[:, cols], dt)
        for start in range(0, n_steps, CHUNK_STEPS):
            stop = min(start + CHUNK_STEPS, n_steps)
            t = times[start:stop]
            samples = np.stack([
                sig.value(tk) for sig in signals
                for tk in (t, t + 0.5 * dt, t + dt)
            ], axis=1)
            changed = np.any(samples != np.vstack((last, samples[:-1])), axis=1)
            last = samples[-1]
            drive = dict(zip(np.flatnonzero(changed).tolist(),
                             samples[changed] @ Q.T))
            for i, row in enumerate(rows[:stop - start]):
                if i in drive:
                    step_map[:nz, nz] = drive[i]
                np.dot(step_map, z, out=row)
                z = row
            states = chunk[:stop - start, :nz]
            block = positions[1:, start + 1:stop + 1]
            block[:] = net.C @ states.T
            finite = (np.all(np.isfinite(states), axis=1)
                      & np.all(np.isfinite(block), axis=0))
            if not finite.all():
                first = start + 1 + int(np.argmin(finite))
                raise NonFiniteState(float(times[first]))
    for arr in (times, positions):
        arr.flags.writeable = False
    return Trajectory(times=times, positions=positions)


@dataclass(frozen=True)
class OvershootMetric:
    agent: int
    peak: float
    peak_time: float
    overshoot: float


def overshoot_metrics(traj: Trajectory, step_amplitude: float) -> list[OvershootMetric]:
    """Per-agent peak and fractional overshoot of a step response."""
    out = []
    for n in range(traj.positions.shape[0]):
        row = traj.positions[n]
        k = int(np.argmax(row))
        peak = float(row[k])
        out.append(
            OvershootMetric(
                agent=n,
                peak=peak,
                peak_time=float(traj.times[k]),
                overshoot=(peak - step_amplitude) / step_amplitude,
            )
        )
    return out


def frequency_response(
    net: NetworkSystem,
    from_input: Union[str, tuple[str, int]],
    to_agent: int,
    s: complex,
) -> complex:
    """Exact rational transfer value via a linear solve on (sI - A).

    This is the oracle the wave-domain formulas are checked against. The
    input id is "leader" or ("delta", n).
    """
    col = net.input_column(from_input)
    if not 0 <= to_agent <= net.num_agents:
        raise ValueError(f"no agent {to_agent}")
    if to_agent == 0:
        return 1.0 + 0.0j if col == 0 else 0.0 + 0.0j
    nz = net.state_dim
    try:
        sol = np.linalg.solve(s * np.eye(nz) - net.A, net.B[:, col])
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(f"s={s} is an eigenvalue of the network") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSolve(f"solve at s={s} produced non-finite values")
    return complex(net.C[to_agent - 1] @ sol)


def realization_matches(
    block: StateSpaceBlock,
    tf: RationalTF,
    samples: Sequence[complex],
    rtol: float = 1e-8,
) -> bool:
    """Frequency-response agreement between a block and its transfer function."""
    for s in samples:
        want = tf_eval(tf, s)
        got = block.response(s)
        if abs(got - want) > rtol * max(1.0, abs(want)):
            return False
    return True
