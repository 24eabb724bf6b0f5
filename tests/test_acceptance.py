"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The lines also collect in RESULTS, which conftest replays in the terminal
summary so they appear in any capture mode. Tolerances are pinned here, not
configurable.
"""

import time

import numpy as np
import pytest

from wavestring import (
    AgentDynamics,
    FrequencyGrid,
    SimConfig,
    Topology,
    awtf_axis_sweep,
    awtf_dc,
    awtf_eval,
    build_network,
    frequency_response,
    headway_dominant_term,
    local_string_verdict,
    overshoot_metrics,
    quadratic_residuals,
    reflection_from_sample,
    simulate,
    wave_components,
    InverseLaplaceConfig,
)
from wavestring import default_dt
from conftest import front_coupling, random_pi_pair, rear_scaled, rear_velocity_asym
from test_properties import (
    test_normalization_idempotent_random,
    test_randomized_invariants_100_cases,
)

DYNAMICS = {
    "symmetric": AgentDynamics(front_coupling(), front_coupling()),
    "gain-asymmetric": AgentDynamics(front_coupling(), rear_scaled(2.5 / 4)),
    "velocity-asymmetric": AgentDynamics(front_coupling(), rear_velocity_asym()),
}


RESULTS: list[str] = []


def _emit(line: str):
    RESULTS.append(line)
    print("\n" + line)


def criterion(num: int, desc: str, budget_s: float):
    def wrap(body):
        def run():
            t0 = time.perf_counter()
            try:
                body()
            except BaseException:
                _emit(f"ACCEPTANCE {num} FAIL: {desc}")
                raise
            elapsed = time.perf_counter() - t0
            _emit(f"ACCEPTANCE {num} PASS ({elapsed:.1f}s / budget "
                  f"{budget_s:.0f}s): {desc}")
            assert elapsed < budget_s, f"runtime {elapsed:.1f}s over budget"

        run.__name__ = body.__name__
        return run

    return wrap


@criterion(1, "wave/state-space equivalence, N=20, leader->agent 10, 1e-6", 10.0)
def test_criterion_1_wave_state_space_equivalence():
    omegas = np.geomspace(1e-3, 1e2, 50)
    for name, d in DYNAMICS.items():
        net = build_network(Topology.path(20), d)
        for w in omegas[::-1]:
            s = 1j * w
            ws = awtf_eval(d, s)
            refl = reflection_from_sample(ws)
            gp, gm = ws.g_plus, ws.g_minus
            denom = 1.0 - refl.tN * refl.t1 * (gp * gm) ** 19
            wave = (gp**10 + gm**10 * refl.tN * gp**20) / denom
            ss = frequency_response(net, "leader", 10, s)
            assert abs(wave - ss) <= 1e-6 * abs(ss), (name, w)


@criterion(2, "DC gains (1, 1/k) and (k, 1), numeric agreement 1e-3", 1.0)
def test_criterion_2_dc_gains():
    d_over = DYNAMICS["gain-asymmetric"]          # kappa = 1.6
    d_under = AgentDynamics(rear_scaled(2.5 / 4), front_coupling())  # 0.625
    gp, gm = awtf_dc(d_over)
    assert gp == pytest.approx(1.0, abs=1e-12)
    assert gm == pytest.approx(1 / 1.6, rel=1e-12)
    gp_u, gm_u = awtf_dc(d_under)
    assert gp_u == pytest.approx(0.625, rel=1e-12)
    assert gm_u == pytest.approx(1.0, abs=1e-12)
    for d in (d_over, d_under):
        ws = awtf_eval(d, 1e-8 * (1 + 1j))
        want = awtf_dc(d)
        assert abs(ws.g_plus - want[0]) <= 1e-3
        assert abs(ws.g_minus - want[1]) <= 1e-3


@criterion(3, "string-stability verdicts + 20 randomized pairs exceed norm 1", 30.0)
def test_criterion_3_verdicts():
    grid = FrequencyGrid(1e-4, 1e3, 2000)
    v_asym = local_string_verdict(DYNAMICS["gain-asymmetric"], grid)
    assert v_asym.locally_string_stable == "unstable"
    assert v_asym.theorem2_triggered
    assert max(v_asym.norm_gp.value, v_asym.norm_gm.value) > 1.0

    v_sym = local_string_verdict(DYNAMICS["symmetric"], grid)
    assert v_sym.locally_string_stable == "stable"

    v_vel = local_string_verdict(DYNAMICS["velocity-asymmetric"], grid)
    assert v_vel.locally_string_stable in ("stable", "marginal")

    rng = np.random.default_rng(31415)
    scan = np.geomspace(1e-5, 1e-1, 300)
    for _ in range(20):
        d = random_pi_pair(rng)
        samples = awtf_axis_sweep(d, scan)
        peak = max(
            max(abs(s.g_plus) for s in samples),
            max(abs(s.g_minus) for s in samples),
        )
        if peak <= 1.0 + 1e-9:
            samples = awtf_axis_sweep(d, np.geomspace(1e-6, 1.0, 600))
            peak = max(
                max(abs(s.g_plus) for s in samples),
                max(abs(s.g_minus) for s in samples),
            )
        assert peak > 1.0 + 1e-9


@criterion(4, "overshoot growth with agent index and chain length", 60.0)
def test_criterion_4_overshoot_growth():
    d_asym = DYNAMICS["gain-asymmetric"]
    d_vel = DYNAMICS["velocity-asymmetric"]
    dt = default_dt(d_asym)

    peaks = {}
    for n_agents, t_final in ((20, 100.0), (50, 150.0)):
        net = build_network(Topology.path(n_agents), d_asym)
        traj = simulate(net, SimConfig(dt=dt, T_final=t_final))
        m = overshoot_metrics(traj, 1.0)
        peaks[n_agents] = [mm.peak for mm in m]
        for i in range(3, n_agents):
            assert peaks[n_agents][i + 1] >= peaks[n_agents][i] - 1e-6, (n_agents, i)

    over_20 = (peaks[20][20] - 1.0) / 1.0
    over_50 = (peaks[50][50] - 1.0) / 1.0
    assert over_50 > over_20 + 1e-6

    net = build_network(Topology.path(50), d_vel)
    traj = simulate(net, SimConfig(dt=default_dt(d_vel), T_final=150.0))
    over_vel_50 = overshoot_metrics(traj, 1.0)[50].overshoot
    assert over_vel_50 < over_50 - 1e-6


@criterion(5, "wave decomposition of agent 10 vs simulation, 2e-2 / 1e-2", 30.0)
def test_criterion_5_wave_decomposition():
    d = DYNAMICS["velocity-asymmetric"]
    cfg = InverseLaplaceConfig(T_final=40.0)
    wc = wave_components(d, N=20, n=10, cfg=cfg)
    net = build_network(Topology.path(20), d)
    traj = simulate(net, SimConfig(dt=default_dt(d), T_final=40.0))
    sim10 = np.interp(wc.times, traj.times, traj.agent(10))
    assert np.max(np.abs(sim10 - wc.x)) <= 2e-2
    assert np.max(np.abs(wc.b[wc.times < 15.0])) <= 1e-2


@criterion(6, "generalized-path locality (1e-6, t<9 s; visible by 15 s, within "
              "2e-2 on the symmetric two-branch shape; returns from the "
              "boundary) and spine amplification", 120.0)
def test_criterion_6_topology_locality():
    # Locality means the spine responds as on a plain path until the
    # boundary's reflection has travelled back, so the window must end before
    # that return. The leader's step excites high frequencies, where the
    # coupling (4s+4)/(3s^2(s/3+1)) tends to 4/s^2 and the wave runs at
    # c = 2 agents/s; near DC it tends to (4/3)/s^2, c ~ 1.15 agents/s. The
    # 24 hops out to boundary agent 17 and back to agent 10 therefore take
    # ~12 s, not the ~21 s of the low-frequency speed, and the dispersive
    # precursor registers at 1e-6 about 2 s sooner. The continuous system
    # (matrix exponential of [[A, B_leader], [0, 0]], which simulate steps)
    # confirms it: worst shape (star), agents 1..10, symmetric dynamics: gap
    # 1.9e-7 at t = 9 s, 4.6e-6 at 10 s and 2.5e-2 at 14.99 s; agent 2 of
    # the two-branch shape is 2.7e-6 apart at 14.99 s. The gap
    # first exceeds 1e-6 at agent 17 at 5.7-6.2 s and at agent 10 at
    # 9.5-10.7 s, and 0.50-0.61 s (symmetric) or 0.60-0.86 s
    # (gain-asymmetric) later per hop toward the leader. Hence: 1e-6 for t < 9 s, the
    # difference visible above 1e-4 by 15 s, and its onset travelling back
    # from the boundary.
    topologies = {
        "I-path-27": Topology.path(27),
        "II-two-branches": Topology.with_tail_branches(17, [5, 5]),
        "III-three-branches": Topology.with_tail_branches(17, [4, 3, 3]),
        "IV-star": Topology.with_tail_branches(17, [1] * 10),
    }

    def run_all(d, t_final):
        dt = default_dt(d)
        out = {}
        for name, topo in topologies.items():
            net = build_network(topo, d)
            out[name] = simulate(net, SimConfig(dt=dt, T_final=t_final))
        return out

    sym_runs = run_all(DYNAMICS["symmetric"], 15.0)
    asym_runs = run_all(DYNAMICS["gain-asymmetric"], 40.0)

    # the asymmetric positional coupling amplifies the disturbance along the
    # spine interior of every topology (the 2-3 agents adjacent to the
    # branching boundary sit inside its reflection zone, where peak ordering
    # is boundary- rather than propagation-driven)
    for name, traj in asym_runs.items():
        peaks = [overshoot_metrics(traj, 1.0)[a].peak for a in range(16)]
        for i in range(3, 14):
            assert peaks[i + 1] > peaks[i] + 1e-6, (name, i)

    for label, runs in (("symmetric", sym_runs), ("gain-asymmetric", asym_runs)):
        reference = runs["I-path-27"]
        times = reference.times
        for name, traj in runs.items():
            if traj is reference:
                continue
            # spine agents 1..17, row k is agent k + 1
            gaps = np.abs(traj.positions[1:18] - reference.positions[1:18])
            before_return = float(np.max(gaps[:10, times < 9.0]))
            by_15 = float(np.max(gaps[:10, times < 15.0]))
            print(f"criterion 6 diagnostic [{label}, {name}]: max agent-1..10 "
                  f"gap {before_return:.3e} over t<9 s (bound 1e-6), "
                  f"{by_15:.3e} over t<15 s")

            # identical responses until the reflection can return
            assert before_return <= 1e-6, (label, name, before_return)

            # the window hides nothing: the boundary shape does show
            assert by_15 > 1e-4, (label, name, by_15)
            # plot-grade agreement until 15 s while the difference
            # back-propagates from the boundary agent (9.4e-3 measured)
            if (label, name) == ("symmetric", "II-two-branches"):
                assert by_15 <= 2e-2, (label, name, by_15)

            # and it shows first at the boundary, then hop by hop toward the
            # leader: onsets of the 1e-6 gap over the agents that cross
            above = gaps > 1e-6
            crossed = [bool(np.any(row)) for row in above]
            first = crossed.index(True)
            assert all(crossed[first:]), (label, name, crossed)
            onsets = [float(times[np.argmax(row)]) for row in above[first:]]
            for agent, (near, far) in enumerate(zip(onsets, onsets[1:]),
                                                start=first + 1):
                assert near > far, (label, name, agent, near, far)


@criterion(7, "reflection identities at 200 grid frequencies, 1e-9", 5.0)
def test_criterion_7_reflection_identities():
    omegas = np.geomspace(1e-3, 1e2, 200)
    for name, d in DYNAMICS.items():
        for ws in awtf_axis_sweep(d, omegas):
            refl = reflection_from_sample(awtf_eval(d, ws.s))
            assert abs(refl.t1 + ws.g_plus * ws.g_minus) <= 1e-9, name
            assert abs(
                refl.tN * (ws.g_minus - 1) - ws.g_minus * (ws.g_plus - 1)
            ) <= 1e-9, name


@criterion(8, "time-headway residuals and dominant-term sign structure", 5.0)
def test_criterion_8_headway():
    base = DYNAMICS["gain-asymmetric"]
    omegas = np.geomspace(1e-3, 1e2, 200)
    for h in (0.5, 1.0):
        d = AgentDynamics(base.Mf, base.Mr, h=h)
        for ws in awtf_axis_sweep(d, omegas):
            r_plus, r_minus = quadratic_residuals(ws, d)
            assert r_plus <= 1e-9 * max(1.0, abs(ws.beta) ** 2), h
            assert r_minus <= 1e-9 * max(1.0, abs(ws.alpha) ** 2), h

    # positive at h=0, negative past a bisection-located threshold
    assert headway_dominant_term(base) > 0
    lo, hi = 0.0, 2.0
    assert headway_dominant_term(AgentDynamics(base.Mf, base.Mr, h=hi)) < 0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if headway_dominant_term(AgentDynamics(base.Mf, base.Mr, h=mid)) > 0:
            lo = mid
        else:
            hi = mid
    threshold = 0.5 * (lo + hi)
    assert threshold == pytest.approx(np.sqrt(1.2 * 0.36 / 2.56), abs=1e-6)
    assert headway_dominant_term(
        AgentDynamics(base.Mf, base.Mr, h=threshold + 0.05)
    ) < 0

    # kappa = 1 collapses the term to exactly -h^2
    vel = DYNAMICS["velocity-asymmetric"]
    for h in (0.3, 0.5, 1.0):
        d = AgentDynamics(vel.Mf, vel.Mr, h=h)
        assert headway_dominant_term(d) == -(h * h)


@criterion(9, "randomized property suites (100 cases) and final positions "
              "independent of dt within 1e-12 of the peak", 60.0)
def test_criterion_9_property_suites():
    test_randomized_invariants_100_cases()
    test_normalization_idempotent_random()

    # the step map is exact, so the final positions on the symmetric case
    # agree across step sizes up to rounding
    d = DYNAMICS["symmetric"]
    net = build_network(Topology.path(10), d)
    runs = [simulate(net, SimConfig(dt=dt, T_final=10.0)) for dt in (0.02, 0.01, 0.005)]
    peak = max(np.max(np.abs(traj.positions)) for traj in runs)
    finals = [traj.positions[:, -1] for traj in runs]
    assert np.max(np.abs(finals[0] - finals[1])) <= 1e-12 * peak
    assert np.max(np.abs(finals[1] - finals[2])) <= 1e-12 * peak
