"""Travelling-wave decomposition of one agent's motion.

The position of agent 10 in a 20-agent chain splits into a forward wave a(t)
(what arrives from the leader) and a backward wave b(t) (what has reflected
off the far end and come back). Until the reflection returns, x_10 equals
a_10 alone, and the forward wave is simply the 10-th power of the wave
coupling applied to the leader step: analysis of one hop predicts the early
multi-agent response exactly.

Writes demos/output/wave_decomposition.csv with t, x_sim, x_wave, a, b.
"""

import os

import numpy as np

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output")

from wavestring import (
    AgentDynamics,
    InverseLaplaceConfig,
    Polynomial,
    SimConfig,
    Topology,
    build_network,
    early_time_check,
    simulate,
    tf_normalize,
    wave_components,
)

front = tf_normalize(Polynomial([4 / 3, 4 / 3]), Polynomial([0, 0, 1, 1 / 3]))
rear = tf_normalize(Polynomial([4 / 3, 2.5 / 3]), Polynomial([0, 0, 1, 1 / 3]))
d = AgentDynamics(front, rear)

N, n = 20, 10
cfg = InverseLaplaceConfig(T_final=40.0)
wc = wave_components(d, N=N, n=n, cfg=cfg)

net = build_network(Topology.path(N), d)
traj = simulate(net, SimConfig(dt=2e-3, T_final=40.0), agents=(n,))
sim = np.interp(wc.times, traj.times, traj.agent(n))

print(f"agent {n} of {N}, leader steps 0 -> 1 at t = 0")
print(f"max |x_sim - (a + b)| over [0, 40] s : {np.max(np.abs(sim - wc.x)):.2e}")
for t_edge in (10.0, 15.0, 20.0, 30.0):
    mask = wc.times < t_edge
    print(f"max |b| for t < {t_edge:>4.0f} s            : "
          f"{np.max(np.abs(wc.b[mask])):.2e}")
print()
print("the backward wave is silent until the front has reached the far end")
print("and returned (~2N - n hops), after which it accounts for the final")
print("approach to the step level.")

dev = early_time_check(d, n=3, horizon=12.0)
print()
print(f"pure forward-wave prediction for agent 3 over 12 s: "
      f"max deviation {dev:.2e} (exact until the reflection arrives)")

os.makedirs(OUT_DIR, exist_ok=True)
out = os.path.join(OUT_DIR, "wave_decomposition.csv")
data = np.column_stack([wc.times, sim, wc.x, wc.a, wc.b])
np.savetxt(out, data, delimiter=",", header="t,x_sim,x_wave,a,b", comments="")
print(f"traces written to {out}")
