"""Wave couplings: how a position change hops from agent to agent.

A change in one agent's position propagates along the chain as two waves.
Per hop, the forward wave is multiplied by g_plus(s) and the backward wave
by g_minus(s); both are roots of a quadratic whose coefficients come from
the agent couplings, selected for properness (the smaller-modulus root).

This demo sweeps both couplings over frequency for the three canonical
pairs, prints their DC limits against the closed-form gains, and writes the
magnitude curves to demos/output/wave_magnitudes.csv for plotting.
"""

import os

import numpy as np

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output")

from wavestring import (
    AgentDynamics,
    Polynomial,
    awtf_axis_sweep,
    awtf_dc,
    awtf_eval,
    reflection_from_sample,
    tf_normalize,
)

front = tf_normalize(Polynomial([4 / 3, 4 / 3]), Polynomial([0, 0, 1, 1 / 3]))
pairs = {
    "symmetric": AgentDynamics(front, front),
    "gain_asymmetric": AgentDynamics(
        front, tf_normalize(Polynomial([2.5 / 3, 2.5 / 3]), Polynomial([0, 0, 1, 1 / 3]))
    ),
    "velocity_asymmetric": AgentDynamics(
        front, tf_normalize(Polynomial([4 / 3, 2.5 / 3]), Polynomial([0, 0, 1, 1 / 3]))
    ),
}

omegas = np.geomspace(1e-3, 1e2, 400)
columns = {"omega": omegas}

print("DC limits (closed form) vs numerical evaluation at s = 1e-8(1+j):")
for name, d in pairs.items():
    gp_dc, gm_dc = awtf_dc(d)
    ws = awtf_eval(d, 1e-8 * (1 + 1j))
    print(f"  {name:<20} g+ -> {gp_dc:.4f} (num {abs(ws.g_plus):.4f})   "
          f"g- -> {gm_dc:.4f} (num {abs(ws.g_minus):.4f})")

    sweep = awtf_axis_sweep(d, omegas)  # one array per field, one entry per omega
    columns[f"abs_g_plus_{name}"] = np.abs(sweep.g_plus)
    columns[f"abs_g_minus_{name}"] = np.abs(sweep.g_minus)

print()
print("peak forward-wave magnitudes over the sweep:")
for name in pairs:
    mags = columns[f"abs_g_plus_{name}"]
    k = int(np.argmax(mags))
    marker = "  <- exceeds 1: amplifies per hop" if mags[k] > 1 + 1e-3 else ""
    print(f"  {name:<20} max |g+| = {mags[k]:.4f} at {omegas[k]:.3g} rad/s{marker}")

print()
print("boundary reflections at s = 0.2j (leader t1, rear end tN):")
for name, d in pairs.items():
    refl = reflection_from_sample(awtf_eval(d, 0.2j))
    print(f"  {name:<20} t1 = {refl.t1:.4f}   tN = {refl.tN:.4f}")

os.makedirs(OUT_DIR, exist_ok=True)
out = os.path.join(OUT_DIR, "wave_magnitudes.csv")
header = ",".join(columns)
data = np.column_stack(list(columns.values()))
np.savetxt(out, data, delimiter=",", header=header, comments="")
print()
print(f"magnitude curves written to {out}")
