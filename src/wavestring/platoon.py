"""State-space realization and time-domain simulation of agent chains.

Agents are identical two-input systems wired on a tree rooted at the
externally driven leader (node 0): an agent's position is
Mf (front input) + Mr (rear input). Orientation comes from a breadth-first
search from the leader: the front input of every agent is its parent's
position minus its own, and the rear input sums its children's positions
minus its own (zero for a leaf). A disturbance adds to its agent's front
input. Each agent is one minimal block (realize): [Mf Mr] over their common
denominator, so the network state has p + deg D entries per agent. The
leader is kinematic: its position is an exogenous input, never integrated.

With a headway time h > 0 each relative-position term gains a
-h * (own velocity) term, so the rear input's weight on the own velocity is
the child count. Velocities are recovered from the block states by solving a
small linear system once at assembly, which keeps the network an ordinary
(non-descriptor) linear ODE. That requires strictly proper couplings; a
biproper coupling would make positions depend algebraically on input
derivatives and is rejected at assembly.

simulate solves the network exactly on its grid: its inputs are piecewise
constant, so K steps are one matvec with exp(dt A)**K plus an input term;
block_steps gives K = 128 for one agent of the N sweep, 32 for the path of 20.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    AssumptionViolated,
    CyclicTopology,
    DisconnectedTopology,
    ImproperTF,
    NonFiniteState,
    NumericalError,
    SingularSolve,
)
from .poly import poly_roots
from .tf import AgentDynamics, check_assumption1


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
        for name in ("num_nodes", "spine_n"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, "
                                 f"not {getattr(self, name)!r}") from None
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


@dataclass(frozen=True)
class StateSpaceBlock:
    """Observable-canonical realization of one agent: the two-input system
    [Mf Mr], whose output, the agent's position, is the last state. B's
    columns are the front and the rear input."""

    A: np.ndarray
    B: np.ndarray

    @property
    def order(self) -> int:
        return self.A.shape[0]


def realize(d: AgentDynamics) -> StateSpaceBlock:
    """One agent's minimal block: [Mf Mr] over their common denominator
    s**p D, in observable-canonical form.

    D is the couplings' normalized denominator where they share it, else
    the product of the two, so the block has order p + deg D. Raises
    ImproperTF unless both couplings are strictly proper: a biproper one
    feeds its input straight through to the position, which closes an
    algebraic loop in the network.
    """
    mf, mr = d.Mf, d.Mr
    if not (mf.is_strictly_proper() and mr.is_strictly_proper()):
        raise ImproperTF(
            "network assembly needs strictly proper couplings "
            "(biproper blocks would create an algebraic position loop)"
        )
    if mf.den.trimmed() == mr.den.trimmed():
        den, nums = mf.den, (mf.num, mr.num)
    else:
        den, nums = mf.den * mr.den, (mf.num * mr.den, mr.num * mf.den)
    p = max(mf.p, mr.p)              # equal under Assumption 1
    full = np.concatenate([np.zeros(p), den.trimmed().coeffs])   # s**p D
    n = len(full) - 1
    A = np.zeros((n, n))
    A[1:, :-1] = np.eye(n - 1)
    A[:, -1] = -full[:n] / full[n]
    B = np.zeros((n, 2))
    for j, (num, tf) in enumerate(zip(nums, (mf, mr))):
        b = np.concatenate([np.zeros(p - tf.p), num.trimmed().coeffs])
        B[:len(b), j] = b / full[n]
    for arr in (A, B):
        arr.flags.writeable = False
    return StateSpaceBlock(A=A, B=B)


@dataclass(frozen=True)
class NetworkSystem:
    """Assembled linear network: z' = A z + B w, positions x = C z.

    The exogenous input vector is w = [leader position, delta_1, ...,
    delta_V] where delta_n is the disturbance added to agent n's front input.
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
    """Wire one agent block (realize) per follower.

    Agent n's front input is x_parent - x_n (the leader's position for the
    leader's child) plus delta_n, its rear input the sum of x_c - x_n over
    its children c. With headway each of those terms carries -h v_n, so the
    rear input weighs v_n by the child count. The state stacks the agents'
    blocks in id order; agent n's position is the last state of its block.
    """
    report = check_assumption1(d)
    if not report.passed:
        raise AssumptionViolated("; ".join(report.violations))
    blk = realize(d)
    n_agents = topology.num_nodes - 1
    out = np.zeros(blk.order)
    out[-1] = 1.0
    eye = np.eye(n_agents)
    A_blk = np.kron(eye, blk.A)
    B_blk = np.kron(eye, blk.B)           # agent n's inputs: 2n - 2 front, 2n - 1 rear
    C_out = np.kron(eye, out)             # positions from states
    nu = 2 * n_agents
    S = np.zeros((nu, n_agents))          # relative-position structure
    R = np.zeros((nu, n_agents))          # own-velocity weights for headway
    T = np.zeros((nu, 1 + n_agents))      # leader and disturbance injection

    # Each edge feeds the child's front input and the parent's rear input.
    for agent, parent in enumerate(topology.parents[1:], 1):
        front = 2 * agent - 2
        S[front, agent - 1] -= 1.0
        R[front, agent - 1] = 1.0
        T[front, agent] = 1.0
        if parent == 0:
            T[front, 0] = 1.0
            continue
        S[front, parent - 1] += 1.0
        rear = 2 * parent - 1
        S[rear, agent - 1] += 1.0
        S[rear, parent - 1] -= 1.0
        R[rear, parent - 1] += 1.0

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

    def edges(self) -> tuple[tuple[float, float], ...]:
        """(time, jump) of each edge: value(t) sums the jumps at times <= t."""
        return ((self.start, self.amplitude),)


@dataclass(frozen=True)
class Disturbance:
    """Additive signal on one agent's front input."""

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

    def edges(self) -> tuple[tuple[float, float], ...]:
        """(time, jump) of each edge: value(t) sums the jumps at times <= t."""
        if self.signal == "step":
            return ((self.start, self.amplitude),)
        end = self.start + self.duration
        return ((self.start, self.amplitude), (end, -self.amplitude)) if end > self.start else ()


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T_final: float
    leader: LeaderStep = LeaderStep()
    disturbances: tuple[Disturbance, ...] = ()

    def __post_init__(self):
        for name, value in (("dt", self.dt), ("T_final", self.T_final)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
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
THETA = 0.5        # largest h * ||A||_1 one Taylor series covers
MAX_DOUBLINGS = 40  # doublings of the step map beyond which a dt is refused
MAX_BLOCK = 128     # longest block; 256 measured slower on every N sweep call
GL_BUDGET = 2**16   # doubles GL may take where it outgrows the nz**2 square


def block_steps(nz: int, inputs: int, agents: int, steps: int) -> int:
    """Steps per block: one Phi**K matvec advances the state K steps.

    inputs counts the input columns of one step and steps the run's steps.
    K is the largest power of two from 4 to MAX_BLOCK (else 4) whose output
    map GL, (nz + K inputs) rows by K agents columns, fits in
    max(nz**2, GL_BUDGET) doubles, and one chunk of whose blocks,
    CHUNK_BLOCKS K steps, fits in the run: a longer block saves matvecs and
    their Python, but costs a wider GL and one more squaring in the build.

    So longer runs and fewer agents take longer blocks: one agent of the N
    sweep (15,000 steps) gets 128 at every N = 10..50, the one agent of the
    waves command (nz = 60, 4,000 steps) 64, one agent of the path of 50
    over 2,000 steps 32, and full runs of the paths of 20 and 50 (20,000
    steps) 32 and 8.
    """
    budget = max(nz * nz, GL_BUDGET)
    K = 4
    while (2 * K <= MAX_BLOCK and CHUNK_BLOCKS * 2 * K <= steps
           and (nz + 2 * K * inputs) * 2 * K * agents <= budget):
        K *= 2
    return K


def _series(A, X, h, terms: int, Y, Z):
    """sum_{k=1..terms} h**k A**(k-1) X / k! by Horner's rule,
    h (X + h A / 2 (X + h A / 3 (...))), in the buffers Y and Z, shaped
    like X; returns the one that holds the sum.

    For X = A V + B U this is the Taylor series of the state rows of
    (exp(h M) - I) [V; U], M = [[A, B], [0, 0]]. h is a scalar or a row
    with one step per column.
    """
    Y[...] = X
    for k in range(terms, 1, -1):
        np.matmul(A, Y, out=Z)
        Z *= h / k
        Z += X
        Y, Z = Z, Y
    Y *= h
    return Y


def _block_maps(A: np.ndarray, B_in: np.ndarray, edge_inputs: np.ndarray,
                tau: np.ndarray, C: np.ndarray, dt: float, K: int):
    """The exact step map over one block of K steps (a power of two), as
    three matrices.

    With the inputs held at their samples u, one step takes z to
    Phi z + Gamma u, where Phi = exp(dt A) and Gamma is the integral of
    exp(s A) B_in over 0 <= s <= dt. An edge of input j strictly inside a
    step, tau before its end (edge_inputs and tau list one each), adds the
    column Gamma(tau) b_j, whose sample is the jump on that step and 0 on
    every other. W stacks Gamma and those columns, and u one step's
    samples. Over a block that starts at state z_b, with samples
    u_0..u_{K-1},

        z_{b+K} = Phi**K z_b + sum_j Phi**(K-1-j) W u_j
        C z_{b+i} = C Phi**i z_b + sum_{j<i} C Phi**(i-1-j) W u_j,  i = 1..K.

    Returns (PK, drive, GL): PK = Phi**K; drive, whose rows take the
    block's samples [u_0, ..., u_{K-1}] to the input term of z_{b+K}; and
    GL, whose rows take [z_b, u_0, ..., u_{K-1}] to the block's K position
    vectors (column (i-1)*na + a is row a of C at step i). Its first nz
    rows hold G, the C Phi**i, and the rest L, the C Phi**k W.

    The build sums the Taylor series of h [[A, B], [0, 0]], h = dt / 2**s
    with x = h ||A||_1 <= THETA, to the first k with x**k / (k + 1)! below
    the unit roundoff, which bounds the tail against the sum: E =
    exp(h A) - I, Gamma over h, and an edge column's Gamma over tau mod h.
    s doublings of the step then give Phi and Gamma, and an edge column
    takes the step of each set bit of tau // h. The squarings go on to
    Phi**K, stacking the C Phi**i and the Phi**i W on the way, and GL and
    drive are copied from the stacks.
    """
    nz, na, ni = A.shape[0], C.shape[0], B_in.shape[1]
    src = np.concatenate([np.arange(ni), edge_inputs])
    ns = len(src)
    norm = np.linalg.norm(A, 1)
    # An overflowed dt * norm counts as 2**1024.
    s = max(0, math.frexp(min(dt * norm / THETA, sys.float_info.max))[1])
    if s > MAX_DOUBLINGS:
        raise NumericalError(
            f"dt*||A||_1 = {dt * norm:.3g} needs s = {s} doublings of the step "
            f"map, more than {MAX_DOUBLINGS}; use a smaller dt")
    h = math.ldexp(dt, -s)
    whole = np.minimum(tau // h, np.ldexp(1.0, s) - 1)
    x = h * norm                     # at most THETA
    terms = next((k for k in range(1, 30) if x**k <= 2.0**-53 * math.factorial(k + 1)), 30)
    steps = np.concatenate([np.full(ni, h), tau - whole * h])
    W = _series(A, B_in[:, src], steps, terms, np.empty((nz, ns)), np.empty((nz, ns)))
    # Phi and its squares alternate between PK and a spare square that
    # shares GL's memory, so the build holds little beyond PK and GL. E
    # keeps the digits that I + E would round away. A doubling takes E to
    # 2 E + E**2, Gamma to E Gamma + 2 Gamma and an edge column v, at a set
    # bit, to E v + v + Gamma b_j.
    memory = np.empty(max(nz * nz, (nz + K * ns) * K * na))
    GL = memory[:(nz + K * ns) * K * na].reshape(nz + K * ns, K * na)
    PK, square = np.empty((nz, nz)), memory[:nz * nz].reshape(nz, nz)
    cur = _series(A, A, h, terms, PK, square)
    spare = square if cur is PK else PK
    for level in range(s):
        bit = np.floor(np.ldexp(whole, -level)) % 2 == 1
        on = np.concatenate([np.ones(ni, dtype=bool), bit])
        W[:, on] = cur @ W[:, on] + W[:, on] + W[:, src[on]]
        np.matmul(cur, cur, out=spare)
        spare += cur
        spare += cur
        cur, spare = spare, cur
    cur.flat[::nz + 1] += 1.0                  # Phi
    # The last log2 K doublings, by Phi**m, extend two stacks from items
    # i < m to i < 2m: CP, whose slot i-1 holds C Phi**i (item 0, C itself,
    # stays outside), and D = drive.T, whose column block K-1-i holds
    # Phi**i W. Item m is C Phi**m or Phi**m W, items m+1..2m-1 one GEMM on
    # items 1..m-1, so from K = 8 on a GEMM stacks products that K = 4
    # takes one at a time, and the positions move by rounding with K. The
    # Phi**i W GEMM writes to the spare square, dead until the squaring,
    # where its (m-1) ns columns fit (else to a buffer of its own), and is
    # copied into D from there: with its input and output in D's memory
    # extents, numpy would first copy the input out of D.
    CP = np.empty((K - 1, na, nz))
    D = np.empty((nz, K * ns))
    D[:, (K - 1) * ns:] = W
    m = 1
    while m < K:
        np.matmul(C, cur, out=CP[m - 1])
        np.matmul(CP[:m - 1].reshape(-1, nz), cur, out=CP[m:2 * m - 1].reshape(-1, nz))
        np.matmul(cur, W, out=D[:, (K - 1 - m) * ns:(K - m) * ns])
        w = (m - 1) * ns
        stack = (spare.reshape(-1) if w <= nz else np.empty(nz * w))[:nz * w].reshape(nz, w)
        np.matmul(cur, D[:, (K - m) * ns:(K - 1) * ns], out=stack)
        D[:, (K - 2 * m) * ns:(K - 1 - m) * ns] = stack
        np.matmul(cur, cur, out=spare)
        cur, spare = spare, cur
        m *= 2
    if cur is not PK:
        PK[...] = cur
    # GL is filled only now, as the squares used its memory. L's block
    # (j, i) is C Phi**(i-j) W: T holds K-1 zero blocks, for the blocks
    # below the diagonal, then the C Phi**k W, k = 0..K-1, one product
    # each. Window a of T's K-long windows starts at block a, so window
    # K-1-j holds row j of L's blocks: the reversed windows, a strided view
    # of T, are L, copied into GL with no K by K temporary.
    T = np.zeros((2 * K - 1, na, ns))
    np.matmul(C, D.reshape(nz, K, ns).transpose(1, 0, 2)[::-1], out=T[K - 1:])
    windows = np.lib.stride_tricks.sliding_window_view(T, K, axis=0)[::-1]
    GL[nz:].reshape(K, ns, K, na)[...] = windows.transpose(0, 2, 3, 1)
    GL[:nz, :(K - 1) * na] = CP.reshape(-1, nz).T
    np.matmul(C, PK, out=CP[0])
    GL[:nz, (K - 1) * na:] = CP[0].T
    return PK, D.T, GL


def simulate(
    net: NetworkSystem, cfg: SimConfig, agents: Optional[Sequence[int]] = None
) -> Trajectory:
    """The exact response from rest, on the grid t = k dt.

    The network is linear and time-invariant and its inputs are piecewise
    constant, so one step is exactly the affine map z -> Phi z + W u, with
    Phi = exp(dt A): u holds each input's sample at the step's start and,
    for each edge strictly inside the step, its jump (_block_maps). The
    result is exact for any dt, step time or pulse width, up to rounding;
    dt sets only the output spacing, up to a guard: a dt with dt ||A||_1
    at or above 2**MAX_DOUBLINGS THETA is refused (NumericalError). It was
    set where the doublings rounded the positions away on a realization
    with two blocks per agent; with one, the symmetric path of 3 still
    ends 1.3e-15 off at dt = 1e16 (60 doublings). The state advances K
    steps at a time: one matvec with Phi**K plus the block's input term.
    One GEMM per chunk of CHUNK_BLOCKS blocks turns the states at the block
    starts and the samples into every reported position of the chunk; the
    state history is never stored. A last partial block is computed whole
    and its extra steps dropped.

    agents lists the agent ids to report (default: all, in order); the
    trajectory's row k is agents[k - 1]. Fewer agents shrink the output
    map, and block_steps picks K from its size and the run's length: 128
    for one agent of the N sweep, 32 for a full run of the path of 20 and
    8 for one of the path of 50. The positions differ only in rounding
    whatever K is.

    The leader position is imposed, not integrated, so positions[0] equals
    the input signal exactly on the grid. Raises ValueError for an agents
    list that is empty, repeats an id or names no agent of the network,
    and NonFiniteState when the state diverges. Its time is the first grid
    time whose reported positions, or whose state at a block start, are
    non-finite; a subset run checks fewer of both, so it reports a
    divergence no earlier than a full run.
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

    # Active input channels only: w is sparse (leader plus a few disturbances).
    signals = [cfg.leader, *cfg.disturbances]
    cols = [net.input_column("leader")] + [
        net.input_column(("delta", dist.agent)) for dist in cfg.disturbances
    ]
    # Edges strictly inside a step: the step, the input, the jump and the
    # time from the edge to the step's end.
    edges = []
    for j, sig in enumerate(signals):
        for when, jump in sig.edges():
            k = int(np.searchsorted(times, when))      # first grid time >= when
            if 0 < k <= n_steps and times[k] != when:
                edges.append((k - 1, j, jump, times[k] - when))
    edge_steps, edge_inputs, jumps, tau = np.array(edges).reshape(-1, 4).T
    edge_steps, edge_inputs = edge_steps.astype(int), edge_inputs.astype(int)
    ni, ns = len(cols), len(cols) + len(edges)
    na, K = len(agents), block_steps(nz, ns, len(agents), n_steps)
    positions = np.empty((na + 1, n_steps + 1))
    positions[0] = cfg.leader.value(times)
    positions[1:, 0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        PK, drive, GL = _block_maps(net.A, net.B[:, cols], edge_inputs, tau, C, dt, K)
        # Row b: the state at block start b, then that block's samples.
        blocks = np.zeros((CHUNK_BLOCKS + 1, nz + drive.shape[0]))
        states = [row[:nz] for row in blocks]
        for start in range(0, n_steps, K * CHUNK_BLOCKS):
            m = min(K * CHUNK_BLOCKS, n_steps - start)
            nb = -(-m // K)
            t = (start + np.arange(nb * K)) * dt
            u = np.zeros((nb * K, ns))
            u[:, :ni] = np.stack([sig.value(t) for sig in signals], axis=1)
            here = (edge_steps >= start) & (edge_steps < start + nb * K)
            u[edge_steps[here] - start, ni + np.flatnonzero(here)] = jumps[here]
            blocks[:nb, nz:] = u.reshape(nb, -1)
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

