import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from wavestring import (
    AgentDynamics,
    Disturbance,
    LeaderStep,
    NetworkSystem,
    Polynomial,
    RationalTF,
    SimConfig,
    Topology,
    build_network,
    default_dt,
    frequency_response,
    overshoot_metrics,
    realize,
    simulate,
    tf_eval,
    tf_normalize,
)
from wavestring.errors import (
    AssumptionViolated,
    CyclicTopology,
    DisconnectedTopology,
    ImproperTF,
    NonFiniteState,
    NumericalError,
    SingularSolve,
)
from wavestring import platoon
from wavestring.platoon import (
    CHUNK_BLOCKS,
    GL_BUDGET,
    MAX_BLOCK,
    MAX_DOUBLINGS,
    THETA,
    _block_maps,
    block_steps,
)
from conftest import (block_response, expm_reference, front_coupling, realization_matches,
                      rear_scaled)


class TestTopology:
    def test_path_shape(self):
        t = Topology.path(5)
        assert t.num_nodes == 6
        assert t.parents == (-1, 0, 1, 2, 3, 4)
        assert 5 not in t.parents        # the last agent is a leaf

    def test_short_path_rejected(self):
        with pytest.raises(ValueError):
            Topology.path(1)
        with pytest.raises(ValueError):
            Topology.path(2)

    def test_disconnected(self):
        with pytest.raises(DisconnectedTopology):
            Topology(6, ((0, 1), (1, 2), (2, 3), (4, 5)), 3)

    def test_cycle(self):
        with pytest.raises(CyclicTopology):
            Topology(4, ((0, 1), (1, 2), (2, 3), (1, 3)), 3)

    def test_interior_spine_branching_rejected(self):
        with pytest.raises(ValueError):
            Topology(5, ((0, 1), (1, 2), (2, 3), (1, 4)), 3)

    def test_second_child_of_leader_rejected(self):
        with pytest.raises(ValueError, match="off-spine node 4 attaches at spine agent 0"):
            Topology(5, ((0, 1), (1, 2), (2, 3), (0, 4)), 3)

    def test_missing_spine_edge_rejected(self):
        # a tree whose path to agent 3 detours through node 4
        with pytest.raises(ValueError, match=r"spine edge \(2, 3\) missing"):
            Topology(5, ((0, 1), (1, 2), (2, 4), (3, 4)), 3)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match=r"bad edge \(2, 2\)"):
            Topology(4, ((0, 1), (1, 2), (2, 3), (2, 2)), 3)

    @pytest.mark.parametrize("edges", [
        ((0, 1), (1, 2.5), (2, 3), (3, 4)),
        ((0, 1), (1, 2), (2.0, 3), (3, 4)),
        ((0, 1), (1, 2), (2, 3), ("3", 4)),
    ], ids=["fraction", "integral-float", "string"])
    def test_non_integer_edge_end_rejected(self, edges):
        bad = next(e for e in edges if not all(isinstance(v, int) for v in e))
        with pytest.raises(ValueError, match=rf"bad edge {re.escape(str(bad))}"):
            Topology(5, edges, 3)

    @pytest.mark.parametrize("num_nodes, spine_n, name", [
        (5.0, 3, "num_nodes"),
        ("5", 3, "num_nodes"),
        (5, 3.5, "spine_n"),
        (5, 3.0, "spine_n"),
    ], ids=["float-nodes", "string-nodes", "fraction-spine", "integral-float-spine"])
    def test_non_integer_size_rejected(self, num_nodes, spine_n, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            Topology(num_nodes, ((0, 1), (1, 2), (2, 3), (3, 4)), spine_n)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate edges"):
            Topology(4, ((0, 1), (1, 2), (2, 3), (3, 2)), 3)

    def test_tail_numbered_out_of_order(self):
        # the tail 3 - 6 - 5 - 4 hangs off the far spine end, each off-spine
        # node below a parent with a larger id
        t = Topology(7, ((0, 1), (1, 2), (2, 3), (3, 6), (6, 5), (5, 4)), 3)
        assert t.parents == (-1, 0, 1, 2, 5, 6, 3)
        assert 4 not in t.parents        # the tail's far end is a leaf

    def test_parents_stay_out_of_equality_and_repr(self):
        t = Topology.path(3)
        assert t == Topology(4, ((2, 3), (1, 0), (1, 2)), 3)
        assert repr(t) == "Topology(num_nodes=4, edges=((0, 1), (1, 2), (2, 3)), spine_n=3)"

    def test_tail_branches(self):
        t = Topology.with_tail_branches(3, [2, 1])
        assert t.num_nodes == 7
        # the chains 3 - 4 - 5 and 3 - 6
        assert t.parents[4:] == (3, 4, 3)


class TestRealize:
    def test_double_integrator(self):
        m = RationalTF(Polynomial([1]), Polynomial([1]), p=2)
        blk = realize(AgentDynamics(m, m))
        assert blk.order == 2
        assert np.allclose(blk.A, [[0, 0], [1, 0]])  # nilpotent
        assert np.array_equal(blk.B, [[1, 1], [0, 0]])

    def test_front_coupling_dimension_and_value(self):
        blk = realize(AgentDynamics(front_coupling(), rear_scaled(2.5 / 4)))
        assert blk.order == 3
        assert block_response(blk, 1j) == pytest.approx([-1.6 - 0.8j, -1.0 - 0.5j], rel=1e-9)

    def test_improper_rejected(self):
        tf = RationalTF(Polynomial([1, 0, 0, 1]), Polynomial([1, 1]), p=1)
        with pytest.raises(ImproperTF):
            realize(AgentDynamics(tf, front_coupling()))

    def test_biproper_rejected(self):
        # a biproper coupling feeds its input through to the position
        tf = RationalTF(Polynomial([1, 2, 1]), Polynomial([1, 1]), p=1)
        with pytest.raises(ImproperTF):
            realize(AgentDynamics(front_coupling(), tf))

    def test_random_realization_matches(self):
        # every other draw gives the rear coupling a denominator of its own
        rng = np.random.default_rng(11)
        for k in range(20):
            den = Polynomial([0, 0, 1, rng.uniform(0.1, 1)])
            rear_den = den if k % 2 else Polynomial([0, 0, *rng.uniform(0.1, 1, size=3)])
            d = AgentDynamics(
                tf_normalize(Polynomial(rng.uniform(0.3, 2, size=2)), den),
                tf_normalize(Polynomial(rng.uniform(0.3, 2, size=2)), rear_den),
            )
            samples = [
                complex(rng.uniform(-1, 1), rng.uniform(0.2, 3))
                for _ in range(20)
            ]
            blk = realize(d)
            assert blk.order == (3 if k % 2 else 5)
            assert realization_matches(blk, d, samples)


class TestBuildNetwork:
    def test_path_block_layout(self, sym_dyn):
        net = build_network(Topology.path(3), sym_dyn)
        # one block of order p + deg D = 3 per agent, the leaf's included
        assert net.state_dim == 3 + 3 + 3
        assert net.num_agents == 3
        # agent n's position is the last state of its block
        assert np.array_equal(net.C, np.kron(np.eye(3), [0, 0, 1]))

    def test_star_boundary_blocks(self, sym_dyn):
        topo = Topology.with_tail_branches(3, [1, 1])
        net = build_network(topo, sym_dyn)
        # the branching agent 3 and the leaves 4, 5 carry one block each too
        assert net.state_dim == 5 * 3

    def test_assumption_checked(self):
        mf = RationalTF(Polynomial([1]), Polynomial([1, 1]), p=2)
        mr = RationalTF(Polynomial([1]), Polynomial([1, 1]), p=1)
        with pytest.raises(AssumptionViolated):
            build_network(Topology.path(3), AgentDynamics(mf, mr))

    def test_biproper_rejected(self):
        tf = RationalTF(Polynomial([1, 2, 1]), Polynomial([1, 1]), p=1)
        with pytest.raises(ImproperTF):
            build_network(Topology.path(3), AgentDynamics(tf, tf))

    def test_rear_denominator_of_its_own(self, gain_asym_dyn):
        # Mr with a lag of its own: the block spans s**2 Df Dr, order 5 in
        # place of 3, and the positions keep to the expm oracle with headway
        mf, mr = gain_asym_dyn.Mf, gain_asym_dyn.Mr
        d = AgentDynamics(mf, RationalTF(mr.num, mr.den * Polynomial([1.0, 0.2]), mr.p), h=0.4)
        net = build_network(Topology.path(10), d)
        assert net.state_dim == 10 * 5
        cfg = SimConfig(dt=1 / 64, T_final=30.0, disturbances=(
            Disturbance(agent=4, signal="pulse", amplitude=-0.7, start=2.3, duration=1.3),))
        want = expm_reference(net, cfg)
        got = simulate(net, cfg).positions
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestSimulate:
    def test_leader_row_is_exact_input(self, sym_dyn):
        net = build_network(Topology.path(3), sym_dyn)
        traj = simulate(net, SimConfig(dt=0.01, T_final=1.0,
                                       leader=LeaderStep(2.0, start=0.5)))
        want = np.where(traj.times >= 0.5, 2.0, 0.0)
        assert np.array_equal(traj.positions[0], want)

    def test_step_tracking_small_chain(self, sym_dyn):
        net = build_network(Topology.path(3), sym_dyn)
        traj = simulate(net, SimConfig(dt=0.02, T_final=400.0))
        assert np.all(np.abs(traj.positions[:, -1] - 1.0) < 1e-3)

    def test_symmetric_chain_still_overshoots_eventually(self, sym_dyn):
        # even the string-stable chain overshoots the step once the wave
        # reflects off the rear end (it nearly doubles there)
        net = build_network(Topology.path(8), sym_dyn)
        traj = simulate(net, SimConfig(dt=0.01, T_final=60.0))
        assert np.max(traj.agent(8)) > 1.5

    def test_linearity(self, gain_asym_dyn):
        net = build_network(Topology.path(4), gain_asym_dyn)
        t1 = simulate(net, SimConfig(dt=0.01, T_final=20.0,
                                     leader=LeaderStep(1.0)))
        t2 = simulate(net, SimConfig(dt=0.01, T_final=20.0,
                                     leader=LeaderStep(2.0)))
        assert np.max(np.abs(2 * t1.positions - t2.positions)) <= 1e-9

    def test_step_size_sets_only_the_output_spacing(self, sym_dyn):
        # the map is exact, so halving dt moves the final positions by
        # rounding only
        net = build_network(Topology.path(10), sym_dyn)
        runs = [simulate(net, SimConfig(dt=dt, T_final=10.0)) for dt in (0.02, 0.01, 0.005)]
        peak = max(np.max(np.abs(traj.positions)) for traj in runs)
        finals = [traj.positions[:, -1] for traj in runs]
        assert np.max(np.abs(finals[0] - finals[1])) <= 1e-12 * peak
        assert np.max(np.abs(finals[1] - finals[2])) <= 1e-12 * peak

    def test_divergence_reported_with_time(self):
        # repulsive front coupling: network unstable, state blows up
        mf = tf_normalize(Polynomial([-400, -400]), Polynomial([0, 0, 1, 1 / 3]))
        d = AgentDynamics(mf, mf)
        net = build_network(Topology.path(3), d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as err:
                simulate(net, SimConfig(dt=0.01, T_final=100.0))
            assert 0 < err.value.time <= 100.0
            # the reported time is the first grid time with a non-finite state
            # or position: the run one step shorter stays finite
            before = simulate(net, SimConfig(dt=0.01, T_final=err.value.time - 0.01))
        assert np.all(np.isfinite(before.positions))

    def test_divergence_of_unobserved_states_reported_at_block_start(self, monkeypatch):
        # A repulsive chain with a weak rear coupling: the far agents' states
        # overflow before agent 1's position does. The first non-finite
        # state is at a block start, and the run that ends there is finite.
        # Both runs take the 10,000-step run's K: the shorter one alone
        # would take 64 and check the state at block starts the first
        # never reaches.
        mf = tf_normalize(Polynomial([-400, -400]), Polynomial([0, 0, 1, 1 / 3]))
        mr = RationalTF(mf.num.scaled(1e-3), mf.den, mf.p)
        net = build_network(Topology.path(10), AgentDynamics(mf, mr))
        K = block_steps(net.state_dim, 1, 1, 10_000)
        assert K == MAX_BLOCK
        monkeypatch.setattr(platoon, "block_steps", lambda *shape: K)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState) as err:
                simulate(net, SimConfig(dt=0.01, T_final=100.0), agents=(1,))
            assert round(err.value.time / 0.01) % K == 0
            before = simulate(net, SimConfig(dt=0.01, T_final=err.value.time), agents=(1,))
        assert np.all(np.isfinite(before.positions))

    @pytest.mark.parametrize("edges", [False, True], ids=["on-grid", "inside-steps"])
    def test_long_step_matches_expm_oracle(self, edges, gain_asym_dyn):
        # dt = 5 s is far outside any explicit integrator's stability region;
        # the series covers dt / 256, so an edge inside a step composes the
        # squares of the bits of its offset
        net = build_network(Topology.path(3), gain_asym_dyn)
        cfg = SimConfig(dt=5.0, T_final=100.0)
        if edges:
            cfg = SimConfig(dt=5.0, T_final=100.0, leader=LeaderStep(1.0, start=7.3),
                            disturbances=(
                                Disturbance(agent=2, signal="pulse", amplitude=-0.6,
                                            start=12.1, duration=1.3),
                                Disturbance(agent=3, amplitude=0.4, start=33.0)))
        want = expm_reference(net, cfg)
        got = simulate(net, cfg).positions
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_every_step_size_matches_expm_oracle(self, gain_asym_dyn):
        # step sizes on both sides of dt ||A||_1 = 1, up to 5 s, with and
        # without headway
        for d in (gain_asym_dyn, AgentDynamics(gain_asym_dyn.Mf, gain_asym_dyn.Mr, h=0.8)):
            net = build_network(Topology.path(4), d)
            bound = np.linalg.norm(net.A, 1)
            for dt in (0.5 / bound, 1.0 / bound, 0.3, 0.5, 0.8, 1.2, 5.0):
                cfg = SimConfig(dt=dt, T_final=max(10 * dt, 30.0))
                want = expm_reference(net, cfg)
                got = simulate(net, cfg).positions
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), dt

    def test_step_size_bound(self, sym_dyn):
        # dt ||A||_1 = 35 dt on the symmetric path-3. Up to s = 40 doublings
        # the steady state 1.0 survives ten steps (8.9e-16 off at dt = 1e10
        # and 1.1e-15 just below the bound, both s = 40); beyond, steps are
        # refused (dt = 1e16 needs s = 60), as is an overflowing
        # dt ||A||_1
        net = build_network(Topology.path(3), sym_dyn)
        bound = 2.0**MAX_DOUBLINGS * THETA / np.linalg.norm(net.A, 1)
        for dt in (1e10, 0.99 * bound):
            got = simulate(net, SimConfig(dt=dt, T_final=10 * dt)).positions
            assert np.max(np.abs(got[1:, -1] - 1.0)) <= 1e-8, dt
        for dt, s in ((1.01 * bound, 41), (1e16, 60), (1.7e307, 1024)):
            message = rf"dt\*\|\|A\|\|_1 = .* needs s = {s} doublings"
            with pytest.raises(NumericalError, match=message):
                simulate(net, SimConfig(dt=dt, T_final=10 * dt))

    def test_long_run_at_a_huge_step_keeps_the_steady_state(self, sym_dyn):
        # 2e5 steps of dt = 1e10 (s = 40 doublings each) on the symmetric
        # path-3. The network has no eigenvalue at the origin, so no mode
        # carries each step's rounding forward, and the last half of the
        # run stays at the exact 1.0.
        net = build_network(Topology.path(3), sym_dyn)
        steps = 200_000
        traj = simulate(net, SimConfig(dt=1e10, T_final=steps * 1e10))
        assert np.max(np.abs(traj.positions[1:, steps // 2:] - 1.0)) <= 1e-12

    @staticmethod
    def stagewise_case(case, dyn, one_agent):
        """(net, cfg, agents) of one step-map case; agents is None for a full
        run, else the last agent alone."""
        dt = 1 / 64
        if case == "headway":
            d = AgentDynamics(dyn.Mf, dyn.Mr, h=0.8)
            net = build_network(Topology.path(3), d)
            cfg = SimConfig(dt=dt, T_final=30.0)
        elif case == "off-grid-step":
            # starts between t = 32 dt and t + dt/2
            net = build_network(Topology.path(10), dyn)
            cfg = SimConfig(dt=dt, T_final=30.0,
                            leader=LeaderStep(1.5, start=32.3 * dt))
        elif case == "block-edges":
            # Pulse k rises on the grid at offset k of a 32-step span and
            # falls on the half step of offset k + 16, so each offset of a
            # block of K = 4 to 32 steps carries an edge; the pulses
            # straddle the first chunk boundary. The leader steps at offset
            # 11, and the run ends 5 steps into a 32-step span, so the last
            # block is partial.
            # 17 inputs and 16 falls inside a step: 33 input columns
            net = build_network(Topology.path(20), dyn)
            K = block_steps(net.state_dim, 33, 1 if one_agent else net.num_agents, 32 * 60 + 5)
            first = K * CHUNK_BLOCKS - 32
            cfg = SimConfig(
                dt=dt, T_final=(32 * 60 + 5) * dt,
                leader=LeaderStep(1.0, start=11 * dt),
                disturbances=tuple(
                    Disturbance(agent=k + 1, signal="pulse",
                                amplitude=0.1 * (k + 1) * (-1) ** k,
                                start=(first + 33 * k) * dt, duration=16.5 * dt)
                    for k in range(16)
                ),
            )
            rises = [round(d.start / dt) for d in cfg.disturbances]
            falls = [int((d.start + d.duration) / dt) for d in cfg.disturbances]
            assert sorted(k % K for k in rises + falls) == sorted(
                list(range(K)) * (32 // K))
            assert rises[0] < K * CHUNK_BLOCKS < rises[-1]
            assert round(cfg.T_final / dt) % K == 5 % K
        elif case == "high-order":
            # ninth-order blocks on the path of 10 (nz = 90): the state
            # outgrows the positions map, whose memory the squares of P
            # share in simulate. A run under 16 CHUNK_BLOCKS steps keeps
            # the full run's K at 8, where it does.
            lag = Polynomial([1.0, 0.05]) * Polynomial([1.0, 0.05])
            lag = lag * lag * lag
            mf, mr = dyn.Mf, dyn.Mr
            d = AgentDynamics(RationalTF(mf.num, mf.den * lag, mf.p),
                              RationalTF(mr.num, mr.den * lag, mr.p))
            net = build_network(Topology.path(10), d)
            K = block_steps(net.state_dim, 1, 1 if one_agent else net.num_agents, 480)
            assert net.state_dim ** 2 > (net.state_dim + K) * (
                K * (1 if one_agent else net.num_agents))
            cfg = SimConfig(dt=dt, T_final=480 * dt)
        else:
            # rises on the half-step after 32 dt, falls between grid points
            net = build_network(Topology.path(10), dyn)
            cfg = SimConfig(
                dt=dt, T_final=30.0, leader=LeaderStep(1.0, start=0.2),
                disturbances=(
                    Disturbance(agent=4, signal="pulse", amplitude=-0.7,
                                start=32.5 * dt, duration=1.3),
                    Disturbance(agent=9, amplitude=0.25, start=7.0),
                ),
            )
        return net, cfg, (net.num_agents,) if one_agent else None

    STAGEWISE_CASES = ["off-grid-step", "pulse-edges", "headway", "block-edges",
                       "high-order"]

    @pytest.mark.parametrize("case", STAGEWISE_CASES)
    def test_step_map_matches_expm_oracle(self, case, gain_asym_dyn):
        net, cfg, _ = self.stagewise_case(case, gain_asym_dyn, one_agent=False)
        want = expm_reference(net, cfg)
        got = simulate(net, cfg).positions
        assert np.array_equal(got[0], want[0])
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", STAGEWISE_CASES)
    def test_one_agent_path_matches_expm_oracle(self, case, gain_asym_dyn):
        net, cfg, agents = self.stagewise_case(case, gain_asym_dyn, one_agent=True)
        # even at the most columns a step can take, three per input, the
        # cases run blocks of 8 to 32 steps: the high-order run's 480 steps
        # hold one chunk of 8-step blocks, the other runs' 1,920 or more one
        # of 32-step blocks
        steps = round(cfg.T_final / cfg.dt)
        K = block_steps(net.state_dim, 3 * (1 + len(cfg.disturbances)), 1, steps)
        assert K == {"high-order": 8}.get(case, 32)
        want = expm_reference(net, cfg)[[0, *agents]]
        traj = simulate(net, cfg, agents=agents)
        assert traj.agents == agents
        assert np.array_equal(traj.positions[0], want[0])
        assert np.max(np.abs(traj.positions - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", STAGEWISE_CASES)
    def test_one_agent_path_at_the_longest_blocks_matches_expm_oracle(
            self, case, gain_asym_dyn, monkeypatch):
        # The longest block, whatever the case's output map and run length
        # allow: the cases' edges fall inside 128-step blocks, and the
        # block-edges run ends in a partial one
        net, cfg, agents = self.stagewise_case(case, gain_asym_dyn, one_agent=True)
        full = simulate(net, cfg).positions[[0, *agents]]
        monkeypatch.setattr(platoon, "block_steps", lambda *shape: MAX_BLOCK)
        want = expm_reference(net, cfg)[[0, *agents]]
        got = simulate(net, cfg, agents=agents).positions
        for ref in (want, full):
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [40, 50])
    def test_one_agent_of_the_n_sweep_runs_128_step_blocks(self, n, gain_asym_dyn):
        # the last agent of the paths of 40 and 50, as the N sweep runs
        # them: 15,000 steps of the longest block span four chunks of 32
        # blocks and end in a partial block
        net = build_network(Topology.path(n), gain_asym_dyn)
        cfg = SimConfig(dt=0.01, T_final=150.0)
        K = block_steps(net.state_dim, 1, 1, 15_000)
        assert K == MAX_BLOCK
        assert 15_000 > K * CHUNK_BLOCKS and 15_000 % K
        full = simulate(net, cfg).positions[[0, n]]
        want = expm_reference(net, cfg)[[0, n]]
        got = simulate(net, cfg, agents=(n,)).positions
        for ref in (want, full):
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_block_length_follows_the_output_map(self, gain_asym_dyn):
        # Over the N sweep's 15,000 steps, a full run's output map, N
        # columns per step, shortens the block from 64 at N = 10 and 32 at
        # N = 20 to 8 at N = 40 and 50 (one agent gets the longest block at
        # every N, test_block_length_of_the_bench_calls). A shorter run
        # takes shorter blocks, one chunk of them at most: one agent of the
        # path of 50 gets 16 over 640 steps, 32 over 2,000 and 128 over
        # 5,000. The high-order full run (nz = 90, 480 steps) gets 8.
        for n in (10, 20, 30, 40, 50):
            nz = build_network(Topology.path(n), gain_asym_dyn).state_dim
            assert nz == 3 * n
            assert block_steps(nz, 1, n, 15_000) == {10: 64, 20: 32, 30: 16}.get(n, 8)
        assert [block_steps(150, 1, 1, steps) for steps in (640, 2_000, 5_000)] == [16, 32, 128]
        net, cfg, _ = self.stagewise_case("high-order", gain_asym_dyn, one_agent=False)
        assert block_steps(net.state_dim, 1, net.num_agents, 480) == 8

    def test_block_length_rule_over_a_grid_of_shapes(self):
        # K is the longest power of two up to MAX_BLOCK whose GL fits the
        # budget and one chunk of whose blocks fits in the run, 4 where
        # none does; so it never falls as the run grows, nor rises as the
        # agents or the inputs grow
        axes = ((9, 60, 150, 297), (1, 3, 17, 51), (1, 3, 20, 99),
                (10, 300, 640, 2_000, 5_000, 15_000, 10**6))
        grid = {shape: block_steps(*shape) for shape in itertools.product(*axes)}

        def fits(nz, inputs, agents, steps, K):
            return (K <= MAX_BLOCK and CHUNK_BLOCKS * K <= steps
                    and (nz + K * inputs) * K * agents <= max(nz * nz, GL_BUDGET))

        for shape, K in grid.items():
            assert K in (4, 8, 16, 32, 64, 128), shape
            assert K == 4 or fits(*shape, K), shape
            assert not fits(*shape, 2 * K), shape
        for axis, sign in ((3, 1), (2, -1), (1, -1)):       # steps, agents, inputs
            for shape, K in grid.items():
                if shape[axis] != axes[axis][-1]:
                    bigger = list(shape)
                    bigger[axis] = axes[axis][axes[axis].index(shape[axis]) + 1]
                    assert sign * (grid[tuple(bigger)] - K) >= 0, (shape, axis)
        assert len(set(grid.values())) == 6

    def test_block_length_of_the_bench_calls(self, gain_asym_dyn, vel_asym_dyn, monkeypatch):
        # The K that simulate takes for each call shape of the bench: one
        # agent of the N sweep (15,000 steps), the full run of the path of
        # 20 (20,000 steps) and the waves call's one agent (4,000 steps)
        taken = []

        def recorded(*shape):
            taken.append(block_steps(*shape))
            return taken[-1]

        monkeypatch.setattr(platoon, "block_steps", recorded)
        for n in (10, 20, 30, 40, 50):
            simulate(build_network(Topology.path(n), gain_asym_dyn),
                     SimConfig(dt=0.01, T_final=150.0), agents=(n,))
        assert taken == [MAX_BLOCK] * 5
        simulate(build_network(Topology.path(20), gain_asym_dyn),
                 SimConfig(dt=0.005, T_final=100.0))
        assert taken[-1] == 32
        waves = build_network(Topology.path(20), vel_asym_dyn)
        assert waves.state_dim == 60
        simulate(waves, SimConfig(dt=0.01, T_final=40.0), agents=(10,))
        assert taken[-1] == 64

    def test_subset_rows_match_the_full_run(self, gain_asym_dyn):
        net = build_network(Topology.path(12), gain_asym_dyn)
        cfg = SimConfig(dt=0.01, T_final=40.0, disturbances=(
            Disturbance(agent=5, signal="pulse", amplitude=0.3, start=2.0),))
        full = simulate(net, cfg)
        for agents in ((12,), (7, 2, 12), (3,)):
            sub = simulate(net, cfg, agents=agents)
            assert sub.agents == agents and sub.positions.shape[0] == len(agents) + 1
            assert np.array_equal(sub.times, full.times)
            assert np.array_equal(sub.agent(0), full.agent(0))
            want = full.positions[list(agents)]
            assert np.max(np.abs(sub.positions[1:] - want)) <= 1e-10 * np.max(np.abs(want))
            for n in agents:
                assert np.array_equal(sub.agent(n), sub.positions[1 + agents.index(n)])
            metrics = overshoot_metrics(sub, 1.0)
            assert [m.agent for m in metrics] == [0, *agents]
            assert metrics[-1].peak_time == overshoot_metrics(full, 1.0)[agents[-1]].peak_time

    @pytest.mark.parametrize("agents", [(), (0,), (13,), (-1,), (4, 4), (2.0,)],
                             ids=["empty", "leader", "past-last", "negative",
                                  "repeated", "float"])
    def test_bad_agents_rejected(self, agents, sym_dyn):
        net = build_network(Topology.path(12), sym_dyn)
        with pytest.raises(ValueError, match="agents"):
            simulate(net, SimConfig(dt=0.01, T_final=1.0), agents=agents)

    def test_agent_not_simulated_rejected(self, sym_dyn):
        net = build_network(Topology.path(12), sym_dyn)
        traj = simulate(net, SimConfig(dt=0.01, T_final=1.0), agents=(5, 9))
        with pytest.raises(ValueError, match="agent 4 was not simulated"):
            traj.agent(4)
        full = simulate(net, SimConfig(dt=0.01, T_final=1.0))
        with pytest.raises(ValueError, match="agent 13 was not simulated"):
            full.agent(13)

    def test_one_agent_divergence_no_earlier_than_full(self):
        mf = tf_normalize(Polynomial([-400, -400]), Polynomial([0, 0, 1, 1 / 3]))
        net = build_network(Topology.path(10), AgentDynamics(mf, mf))
        assert block_steps(net.state_dim, 1, 1, 10_000) == MAX_BLOCK
        times = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for agents in (None, (10,), (1,)):
                with pytest.raises(NonFiniteState) as err:
                    simulate(net, SimConfig(dt=0.01, T_final=100.0), agents=agents)
                times[agents] = err.value.time
        assert 0 < times[None] <= times[(10,)] <= 100.0
        assert times[None] <= times[(1,)] <= 100.0

    def test_traced_peak_is_the_block_maps(self, gain_asym_dyn):
        # Beyond the trajectory it returns, simulate holds Phi**K and one more
        # block of memory: the square that Phi**K is squared from, which GL
        # (the K stacked C Phi**j and L) then reuses, or GL where that is
        # larger. The rest stays inside a slack of 2.75 squares of nz**2
        # doubles: in the build, the K - 1 rows C Phi**j that the last
        # squarings build and the drive rows (0.85 squares each for the last
        # agent of the path of 50 at K = 128); in the block loop, the chunk
        # buffers. Both runs peak in the block loop, so a copy of Phi**K held
        # there fails both: the full run of the path of 24 over 200 steps
        # (nz = 72, K = 4) uses 2.41 squares of the slack, 1.1 more than its
        # build, and the last agent of the path of 50 over the N sweep's
        # 15,000 steps (nz = 150) 2.64; a held copy takes them to 3.41 and
        # 3.64.
        over = {}
        for n, agents, t_final, want_K in ((24, None, 2.0, 4), (50, (50,), 150.0, MAX_BLOCK)):
            net = build_network(Topology.path(n), gain_asym_dyn)
            nz = net.state_dim
            na = net.num_agents if agents is None else len(agents)
            K = block_steps(nz, 1, na, int(round(t_final / 0.01)))
            assert K == want_K
            tracemalloc.start()
            try:
                traj = simulate(net, SimConfig(dt=0.01, T_final=t_final), agents=agents)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            beyond = peak - traj.positions.nbytes - traj.times.nbytes
            shared = max(nz * nz, (nz + K) * K * na)
            over[n, agents] = (beyond - 8 * (nz * nz + shared)) / (8 * nz * nz)
        assert all(slack <= 2.75 for slack in over.values()), over

    @pytest.mark.parametrize("field", ["dt", "T_final"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_config_rejected(self, field, value):
        # a NaN passes every comparison the other checks make, and an
        # infinite T_final would ask for infinitely many steps
        kwargs = {"dt": 0.01, "T_final": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SimConfig(**kwargs)

    def test_signal_edges_sum_to_its_value(self):
        # simulate samples value() at the grid and adds an edge's jump
        # inside a step, so the two must describe the same signal
        t = np.linspace(-1.0, 4.0, 5001)
        for sig in (LeaderStep(1.5, start=0.3),
                    Disturbance(agent=1, amplitude=-2.0, start=1.0),
                    Disturbance(agent=1, signal="pulse", amplitude=0.7, start=0.5, duration=1.25),
                    Disturbance(agent=1, signal="pulse", amplitude=0.7, start=0.5, duration=1e-9),
                    Disturbance(agent=1, signal="pulse", amplitude=0.7, start=0.5, duration=-1.0)):
            total = sum(np.where(t >= when, jump, 0.0) for when, jump in sig.edges())
            assert np.array_equal(sig.value(t), total + np.zeros_like(t)), sig

    def test_pulse_disturbance_round_trip(self, sym_dyn):
        net = build_network(Topology.path(3), sym_dyn)
        cfg = SimConfig(
            dt=0.01, T_final=30.0, leader=LeaderStep(0.0),
            disturbances=(Disturbance(agent=2, signal="pulse",
                                      amplitude=0.5, start=1.0, duration=2.0),),
        )
        traj = simulate(net, cfg)
        assert np.max(np.abs(traj.positions)) > 1e-3  # the pulse acts
        assert np.all(traj.positions[0] == 0.0)       # leader untouched

    def test_disturbance_on_missing_agent_rejected(self, sym_dyn):
        net = build_network(Topology.path(3), sym_dyn)
        cfg = SimConfig(dt=0.01, T_final=1.0,
                        disturbances=(Disturbance(agent=4),))
        with pytest.raises(ValueError, match="no agent 4"):
            simulate(net, cfg)

    def test_headway_network_runs(self, gain_asym_dyn):
        d = AgentDynamics(gain_asym_dyn.Mf, gain_asym_dyn.Mr, h=0.8)
        net = build_network(Topology.path(3), d)
        traj = simulate(net, SimConfig(dt=0.01, T_final=60.0))
        assert np.all(np.isfinite(traj.positions))
        # headway network still tracks a step at DC
        assert np.all(np.abs(traj.positions[:, -1] - 1.0) < 0.05)

    def test_default_dt(self, sym_dyn):
        assert default_dt(sym_dyn) == pytest.approx(1e-3)


class TestOvershootMetrics:
    def test_constant_trajectory_zero_overshoot(self):
        traj_times = np.linspace(0, 1, 11)
        from wavestring.platoon import Trajectory

        traj = Trajectory(times=traj_times, positions=np.ones((2, 11)))
        m = overshoot_metrics(traj, 1.0)
        assert m[1].overshoot == 0.0

    def test_growth_with_chain_length(self, gain_asym_dyn):
        peaks = {}
        for n in (5, 8):
            net = build_network(Topology.path(n), gain_asym_dyn)
            traj = simulate(net, SimConfig(dt=0.005, T_final=40.0))
            peaks[n] = overshoot_metrics(traj, 1.0)[n].overshoot
        assert peaks[8] > peaks[5]


class TestFrequencyResponse:
    def test_dc_tracking_is_unity(self, gain_asym_dyn):
        net = build_network(Topology.path(5), gain_asym_dyn)
        for agent in (1, 3, 5):
            assert frequency_response(net, "leader", agent, 1e-6) == pytest.approx(
                1.0, abs=1e-4
            )

    def test_leader_identity(self, sym_dyn):
        net = build_network(Topology.path(3), sym_dyn)
        assert frequency_response(net, "leader", 0, 1j) == 1.0
        assert frequency_response(net, ("delta", 2), 0, 1j) == 0.0

    def test_dc_gain_at_the_origin(self, sym_dyn):
        # the integrators sit inside the loop, so the origin is no
        # eigenvalue of the network and every agent tracks the leader at DC
        net = build_network(Topology.path(3), sym_dyn)
        for agent in (1, 2, 3):
            assert frequency_response(net, "leader", agent, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_singular_at_eigenvalue(self):
        # a hand-built double integrator: the origin is an eigenvalue of A
        net = NetworkSystem(A=np.array([[0.0, 1.0], [0.0, 0.0]]),
                            B=np.array([[0.0, 0.0], [1.0, 0.0]]),
                            C=np.array([[1.0, 0.0]]))
        with pytest.raises(SingularSolve):
            frequency_response(net, "leader", 1, 0.0)

    @pytest.mark.parametrize("h", [0.0, 0.6])
    def test_network_realizes_the_couplings(self, h, vel_asym_dyn):
        # a tail tree, from the leader and from disturbances on the spine,
        # the branching agent and a leaf, against the network's equations
        # solved in the frequency domain from Mf(s) and Mr(s) alone
        topo = Topology.with_tail_branches(4, (2, 3))
        d = AgentDynamics(vel_asym_dyn.Mf, vel_asym_dyn.Mr, h=h)
        net = build_network(topo, d)
        for s in (0.3 + 0.7j, 1j, 2.5j, -0.2 + 4j, 0.05j):
            for which in ("leader", ("delta", 2), ("delta", 4), ("delta", 7)):
                want = coupled_response(topo, d, which, s)
                got = [frequency_response(net, which, n, s) for n in range(1, topo.num_nodes)]
                assert np.allclose(got, want, rtol=1e-9, atol=1e-12), (s, which)

    def test_unknown_input_rejected(self, sym_dyn):
        net = build_network(Topology.path(3), sym_dyn)
        with pytest.raises(ValueError):
            frequency_response(net, ("delta", 9), 1, 1j)


def coupled_response(topology, d, which, s):
    """Every agent's response at s to one input, from the couplings' values:
    x_n = Mf(s) (x_parent - x_n - h s x_n + delta_n)
          + Mr(s) sum over children c of (x_c - x_n - h s x_n),
    solved for all nodes at once with the leader's row x_0 = its input."""
    mf, mr = tf_eval(d.Mf, s), tf_eval(d.Mr, s)
    V = topology.num_nodes
    Q = np.zeros((V, V), dtype=complex)
    Q[0, 0] = 1.0
    rhs = np.zeros(V, dtype=complex)
    if which == "leader":
        rhs[0] = 1.0
    else:
        rhs[which[1]] = mf
    for n, parent in enumerate(topology.parents[1:], 1):
        Q[n, n] += 1.0 + mf * (1.0 + d.h * s)
        Q[n, parent] -= mf
        if parent:
            Q[parent, parent] += mr * (1.0 + d.h * s)
            Q[parent, n] -= mr
    return np.linalg.solve(Q, rhs)[1:]


def loop_block_maps(C, PK, CP, PW):
    """drive and GL laid out block by block from the power lists, as the
    list-built step map did: CP[i] = C Phi**i (i = 1..K-1; CP[0] unused),
    PW[k] = Phi**k W (k = 0..K-1). The reference for _block_maps' stacked
    layout."""
    K, (nz, ns), na = len(PW), PW[0].shape, C.shape[0]
    drive = np.concatenate(PW[::-1], axis=1).T
    GL = np.zeros((nz + K * ns, K * na))
    CPW = [(C @ pw).T for pw in PW]
    for i in range(1, K + 1):
        for j in range(i):
            GL[nz + j * ns:nz + (j + 1) * ns, (i - 1) * na:i * na] = CPW[i - 1 - j]
    for i in range(1, K):
        GL[:nz, (i - 1) * na:i * na] = CP[i].T
    GL[:nz, (K - 1) * na:] = (C @ PK).T
    return drive, GL


class TestBlockMaps:
    DT = 1 / 64

    @staticmethod
    def maps_input(dyn, edges):
        """(A, B_in, edge_inputs, tau) on path-10: the leader alone, or the
        leader and two disturbances with an edge of each inside a step."""
        net = build_network(Topology.path(10), dyn)
        if not edges:
            return net, net.B[:, [0]], np.array([], dtype=int), np.array([])
        B_in = net.B[:, [0, 3, 8]]
        return net, B_in, np.array([0, 2, 1]), np.array([0.3, 0.7, 0.05]) * TestBlockMaps.DT

    @staticmethod
    def oracle_W(A, B_in, edge_inputs, tau, dt):
        """Gamma b_j for every input, then Gamma(tau) b_j for every edge,
        from the top right block of exp(t [[A, b], [0, 0]])."""
        def gamma(t, b):
            M = np.zeros((len(A) + 1, len(A) + 1))
            M[:-1, :-1], M[:-1, -1] = A, b
            return scipy.linalg.expm(t * M)[:-1, -1]
        cols = [gamma(dt, b) for b in B_in.T]
        cols += [gamma(t, B_in[:, j]) for j, t in zip(edge_inputs, tau)]
        return np.stack(cols, axis=1)

    @pytest.mark.parametrize("K", [4, 8, 16, 32, 64, 128])
    @pytest.mark.parametrize("agents", [(10,), (2, 5, 10)], ids=["one-agent", "three-agents"])
    @pytest.mark.parametrize("edges", [False, True], ids=["leader", "edge-inputs"])
    def test_stacked_build_is_the_loop_layout(self, K, agents, edges, gain_asym_dyn):
        net, B_in, edge_inputs, tau = self.maps_input(gain_asym_dyn, edges)
        C = net.C[[a - 1 for a in agents]]
        nz, na, ns = net.state_dim, len(agents), B_in.shape[1] + len(tau)
        PK, drive, GL = _block_maps(net.A, B_in, edge_inputs, tau, C, self.DT, K)
        assert drive.shape == (K * ns, nz) and GL.shape == (nz + K * ns, K * na)
        # The lists the stacks hold, read back from the maps, laid out by
        # the double loops: bit for bit the same maps.
        PW = [drive[(K - 1 - k) * ns:(K - k) * ns].T for k in range(K)]
        CP = [C] + [GL[:nz, (i - 1) * na:i * na].T for i in range(1, K)]
        want_drive, want_GL = loop_block_maps(C, PK, CP, PW)
        assert np.array_equal(drive, want_drive)
        assert np.array_equal(GL, want_GL)
        # PK is the square of the half block's, as the squaring chain is
        # unchanged by the stacks
        half = _block_maps(net.A, B_in, edge_inputs, tau, C, self.DT, K // 2)[0]
        assert np.array_equal(PK, half @ half)
        # and the lists are the powers they stand for
        Phi = scipy.linalg.expm(self.DT * net.A)
        W = self.oracle_W(net.A, B_in, edge_inputs, tau, self.DT)
        power = np.eye(nz)
        for i in range(K):
            scale = np.max(np.abs(power))
            assert np.max(np.abs(CP[i] - C @ power)) <= 1e-12 * scale, i
            assert np.max(np.abs(PW[i] - power @ W)) <= 1e-12 * scale * np.max(np.abs(W)), i
            power = power @ Phi
        assert np.max(np.abs(PK - power)) <= 1e-12 * np.max(np.abs(power))
