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

simulate integrates the network with classical RK4, applied by linearity:
one step is z -> P z + Q u. The state advances K steps per matvec with P**K,
and one matrix product per chunk of blocks fills the positions in between,
so the Python loop runs once per block, not per step. Only the agents a
caller asks for are reported; the fewer there are, the longer the block
(block_steps): a one-agent run of the N sweep takes 16 steps per matvec.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

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

    Construction checks the edges, runs one breadth-first search from the
    leader and keeps each node's parent in `parents` (the leader's is -1).
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    spine_n: int
    parents: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        v, n = self.num_nodes, self.spine_n
        ends = []
        for edge in self.edges:
            try:
                a, b = map(operator.index, edge)
            except TypeError:
                raise ValueError(f"bad edge {tuple(edge)}: ends must be integers") from None
            ends.append((min(a, b), max(a, b)))
        edges = tuple(sorted(ends))
        object.__setattr__(self, "edges", edges)
        if n < 3:
            raise ValueError("spine needs at least N = 3 follower agents")
        if n >= v:
            raise ValueError("spine extends past the node count")
        # Sorted edges list every node's neighbours in ascending order.
        adj: list[list[int]] = [[] for _ in range(v)]
        for k, (a, b) in enumerate(edges):
            if not 0 <= a < b < v:
                raise ValueError(f"bad edge ({a}, {b})")
            if k and edges[k - 1] == (a, b):
                raise ValueError("duplicate edges")
            adj[a].append(b)
            adj[b].append(a)

        parents = [-1] * v
        order = [0]                     # grows as the search reaches nodes
        for node in order:
            for nb in adj[node]:
                if nb and parents[nb] < 0:
                    parents[nb] = node
                    order.append(nb)
        if len(order) != v:
            raise DisconnectedTopology(
                f"only {len(order)} of {v} nodes reachable from the leader"
            )
        if len(edges) != v - 1:
            raise CyclicTopology("connected graph with |E| != |V|-1 has a cycle")

        # Spine agent i hangs off i - 1, every other node off spine_n or another
        # off-spine node. In a tree that means the spine edges are present,
        # interior spine agents have degree 2 and all else hangs off spine_n.
        for node, par in enumerate(parents[1:], 1):
            if node <= n and par != node - 1:
                raise ValueError(f"spine edge ({node - 1}, {node}) missing")
            if node > n and par < n:
                raise ValueError(f"off-spine node {node} attaches at spine agent "
                                 f"{par}, only node {n} may branch")
        object.__setattr__(self, "parents", tuple(parents))

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

    def bfs_parents(self) -> list[int]:
        """Parent of every node under BFS from the leader (leader's is -1)."""
        return list(self.parents)

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for node, par in enumerate(self.parents[1:], 1):
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

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    @property
    def num_agents(self) -> int:
        return self.C.shape[0]

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
    parents = topology.parents
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
    return NetworkSystem(A=A_net, B=B_net, C=C_out)


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
    """times in seconds, positions indexed (row, time).

    Row 0 is the leader and row k is agent agents[k - 1]; agents defaults to
    1, 2, ... for every row after the leader.
    """

    times: np.ndarray
    positions: np.ndarray
    agents: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.agents is None:
            object.__setattr__(self, "agents", tuple(range(1, self.positions.shape[0])))

    def agent(self, n: int) -> np.ndarray:
        """Positions of agent n (0 is the leader)."""
        if n == 0:
            return self.positions[0]
        if n not in self.agents:
            raise ValueError(f"agent {n} was not simulated")
        return self.positions[1 + self.agents.index(n)]


CHUNK_BLOCKS = 32  # blocks whose positions one GEMM fills


def block_steps(nz: int, inputs: int, agents: int) -> int:
    """RK4 steps per block: one P**K matvec advances the state K steps.

    The largest K in (16, 8) whose output map GL, (nz + 3 K inputs) rows by
    K agents columns, fits in the nz**2 square the build holds anyway, else
    4. So a longer block never raises the peak memory, and a full run of a
    chain of low-order agents, where G's build cost of about 4 K nz**2
    agents would dominate, keeps K = 4.
    """
    for K in (16, 8):
        if (nz + 3 * K * inputs) * K * agents <= nz * nz:
            return K
    return 4


def _rk4_step(A, z, u0, u_half, u1, dt: float):
    """One classical Runge-Kutta step of z' = A z + u, with u sampled at t,
    t + dt/2 and t + dt.

    z and the u's may carry one column per state or input: simulate derives
    its block maps from these stage formulas by linearity.
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


def _block_maps(A: np.ndarray, B_in: np.ndarray, C: np.ndarray, dt: float, K: int):
    """RK4 over one block of K steps (a power of two), as three matrices.

    One step is the affine map z -> P z + Q u, where P is the RK4 stability
    polynomial of dt A and column 3*j + k of Q weights input j's sample at
    t + (0, dt/2, dt)[k]; u stacks the samples of one step. Both come from
    the stage formulas of _rk4_step by linearity, P in column blocks from
    the unit states. Over a block that starts at state z_b, with samples
    u_0..u_{K-1},

        z_{b+K} = P**K z_b + sum_j P**(K-1-j) Q u_j
        C z_{b+i} = C P**i z_b + sum_{j<i} C P**(i-1-j) Q u_j,  i = 1..K.

    Returns (PK, drive, GL): PK = P**K; drive, whose rows take the block's
    samples [u_0, ..., u_{K-1}] to the input term of z_{b+K}; and GL, whose
    rows take [z_b, u_0, ..., u_{K-1}] to the block's K position vectors
    (column (i-1)*na + a is row a of C at step i). Its first nz rows hold
    G, the C P**i, and the rest L, the C P**k Q. P itself is not kept.
    """
    nz, na = A.shape[0], C.shape[0]
    width = 16                       # columns per pass through the stages
    zero = np.zeros_like(B_in)
    Q = np.stack([
        _rk4_step(A, zero, B_in, zero, zero, dt),
        _rk4_step(A, zero, zero, B_in, zero, dt),
        _rk4_step(A, zero, zero, zero, B_in, dt),
    ], axis=2).reshape(nz, -1)
    ns = Q.shape[1]
    # P and its squares alternate between PK and a spare square that shares
    # GL's memory, so the build holds little beyond PK and GL.
    PK = np.empty((nz, nz))
    memory = np.empty(max(nz * nz, (nz + K * ns) * K * na))
    GL = memory[:(nz + K * ns) * K * na].reshape(nz + K * ns, K * na)
    spare = memory[:nz * nz].reshape(nz, nz)
    squarings = K.bit_length() - 1            # K is a power of two
    cur, spare = (spare, PK) if squarings % 2 else (PK, spare)
    for j in range(0, nz, width):
        unit = np.eye(nz, min(width, nz - j), -j)
        cur[:, j:j + unit.shape[1]] = _rk4_step(A, unit, 0.0, 0.0, 0.0, dt)
    PQ = [Q]                                   # P**i Q, i < K
    for _ in range(K - 1):
        PQ.append(cur @ PQ[-1])
    drive = np.concatenate(PQ[::-1], axis=1).T
    for _ in range(squarings):
        np.matmul(cur, cur, out=spare)
        cur, spare = spare, cur
    # GL is filled only now, as the squares may have used its memory. G
    # comes from the stage formulas in A.T (P.T is RK4's polynomial in
    # dt A.T), a few agents at a time: forming it from P would hold P, a
    # square of P and G at once.
    GL[nz:] = 0.0
    CPQ = [(C @ pq).T for pq in PQ]            # C P**k Q, each formed once
    del PQ
    for i in range(1, K + 1):
        for j in range(i):
            GL[nz + j * ns:nz + (j + 1) * ns, (i - 1) * na:i * na] = CPQ[i - 1 - j]
    del CPQ
    for a in range(0, na, width):
        Y = C[a:a + width].T
        for i in range(K):
            Y = _rk4_step(A.T, Y, 0.0, 0.0, 0.0, dt)
            GL[:nz, i * na + a:i * na + a + Y.shape[1]] = Y
    return PK, drive, GL


def simulate(
    net: NetworkSystem, cfg: SimConfig, agents: Optional[Sequence[int]] = None
) -> Trajectory:
    """Fixed-step classical Runge-Kutta integration from rest.

    The network is linear and time-invariant and its inputs are piecewise
    constant, so one RK4 step is the affine map z -> P z + Q u, with P the
    RK4 stability polynomial sum_{k<=4} (dt A)**k / k! and u the input
    samples at t, t + dt/2 and t + dt. The state advances K steps at a
    time: one matvec with P**K plus the block's input term (_block_maps).
    One GEMM per chunk of CHUNK_BLOCKS blocks turns the states at the block
    starts and the samples into every reported position of the chunk; the
    state history is never stored. Leader steps and disturbance edges need
    no special case: they enter through the samples. A last partial block
    is computed whole and its extra steps dropped.

    agents lists the agent ids to report (default: all, in order); the
    trajectory's row k is agents[k - 1]. Fewer agents shrink the output
    map, and block_steps picks K from its size: 4 for a full run of an
    ordinary chain, 16 for one agent of the N sweep. The integration is the
    same RK4 whatever K is; the positions differ only in rounding.

    The leader position is imposed, not integrated, so positions[0] equals
    the input signal exactly on the grid. Raises ValueError for an agents
    list that is empty, repeats an id or names no agent of the network,
    StepSizeUnstable when dt lies outside RK4's stability region for a mode
    that does not grow, and NonFiniteState when the state diverges. Its
    time is the first grid time whose reported positions, or whose state at
    a block start, are non-finite; a subset run checks fewer of both, so it
    reports a divergence no earlier than a full run.
    """
    dt = cfg.dt
    n_steps = int(round(cfg.T_final / dt))
    times = np.arange(n_steps + 1) * dt
    nz = net.state_dim
    if agents is None:
        agents, C = tuple(range(1, net.num_agents + 1)), net.C
    else:
        agents = tuple(agents)
        if not (agents and len(set(agents)) == len(agents) and all(
                isinstance(a, (int, np.integer)) and 1 <= a <= net.num_agents
                for a in agents)):
            raise ValueError(f"agents {agents} must be distinct ids in 1..{net.num_agents}")
        C = net.C[[a - 1 for a in agents]]
    _check_step_size(net.A, dt)

    # Active input channels only: w is sparse (leader plus a few disturbances).
    signals = [cfg.leader, *cfg.disturbances]
    cols = [net.input_column("leader")] + [
        net.input_column(("delta", dist.agent)) for dist in cfg.disturbances
    ]
    na, K = len(agents), block_steps(nz, len(cols), len(agents))
    positions = np.empty((na + 1, n_steps + 1))
    positions[0] = cfg.leader.value(times)
    positions[1:, 0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        PK, drive, GL = _block_maps(net.A, net.B[:, cols], C, dt, K)
        # Row b: the state at block start b, then that block's samples.
        blocks = np.zeros((CHUNK_BLOCKS + 1, nz + drive.shape[0]))
        states = [row[:nz] for row in blocks]
        for start in range(0, n_steps, K * CHUNK_BLOCKS):
            m = min(K * CHUNK_BLOCKS, n_steps - start)
            nb = -(-m // K)
            t = (start + np.arange(nb * K)) * dt
            blocks[:nb, nz:] = np.stack([
                sig.value(tk) for sig in signals
                for tk in (t, t + 0.5 * dt, t + dt)
            ], axis=1).reshape(nb, -1)
            inputs = blocks[:nb, nz:] @ drive
            for z, z_next, w in zip(states, states[1:nb + 1], inputs):
                np.dot(PK, z, out=z_next)
                z_next += w
            pos = (blocks[:nb] @ GL).reshape(nb * K, na)[:m]
            positions[1:, start + 1:start + 1 + m] = pos.T
            finite = np.ones(m + 1, dtype=bool)
            finite[1:] = np.all(np.isfinite(pos), axis=1)
            finite[:m:K] &= np.all(np.isfinite(blocks[:nb, :nz]), axis=1)
            if not finite.all():
                raise NonFiniteState(float(times[start + int(np.argmin(finite))]))
            states[0][:] = states[nb]
    for arr in (times, positions):
        arr.flags.writeable = False
    return Trajectory(times=times, positions=positions, agents=agents)


@dataclass(frozen=True)
class OvershootMetric:
    agent: int
    peak: float
    peak_time: float
    overshoot: float


def overshoot_metrics(traj: Trajectory, step_amplitude: float) -> list[OvershootMetric]:
    """Per-row peak and fractional overshoot of a step response, the leader
    first, then traj.agents in order."""
    out = []
    for n, row in zip((0, *traj.agents), traj.positions):
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
