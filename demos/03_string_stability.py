"""Local string stability: when do disturbances grow hop over hop?

A chain is locally string stable when both wave couplings are analytic in
the right half plane with peak magnitue at most one: no frequency exists at
which a disturbance grows while hopping between neighbours. With two
integrators per agent, an asymmetric positional coupling (kappa != 1) forces
a peak above one, so the verdict is decided structurally and the norm
estimates confirm it numerically.

The demo prints the verdict for the three canonical pairs, then sweeps the
rear-coupling scale mu to show the verdict flips exactly at the symmetric
point mu = 1.
"""

import numpy as np

from wavestring import (
    AgentDynamics,
    FrequencyGrid,
    Polynomial,
    RationalTF,
    local_string_verdict,
    low_order_coeffs,
    tf_normalize,
)

front = tf_normalize(Polynomial([4 / 3, 4 / 3]), Polynomial([0, 0, 1, 1 / 3]))
pairs = {
    "symmetric": AgentDynamics(front, front),
    "gain-asymmetric": AgentDynamics(
        front, RationalTF(front.num.scaled(2.5 / 4), front.den, front.p)
    ),
    "velocity-asymmetric": AgentDynamics(
        front, tf_normalize(Polynomial([4 / 3, 2.5 / 3]), Polynomial([0, 0, 1, 1 / 3]))
    ),
}

grid = FrequencyGrid(1e-4, 1e3, 1200)
print(f"{'pair':<22}{'verdict':>10}{'|g+| peak':>11}{'|g-| peak':>11}"
      f"{'axis test':>11}{'fast path':>11}")
for name, d in pairs.items():
    v = local_string_verdict(d, grid)
    print(f"{name:<22}{v.locally_string_stable:>10}{v.norm_gp.value:>11.4f}"
          f"{v.norm_gm.value:>11.4f}{str(v.awtf_stable):>11}"
          f"{str(v.theorem2_triggered):>11}")
    for note in v.notes:
        print(f"    note: {note}")

print()
print("sweep of the rear-coupling scale mu (rear = mu * front):")
print(f"{'mu':>6}{'kappa':>8}{'verdict':>11}{'max norm':>10}")
for mu in (0.6, 0.8, 1.0, 1.25, 1.6):
    d = AgentDynamics(front, RationalTF(front.num.scaled(mu), front.den, front.p))
    v = local_string_verdict(d, grid)
    print(f"{mu:>6.2f}{low_order_coeffs(d).kappa:>8.3f}"
          f"{v.locally_string_stable:>11}"
          f"{max(v.norm_gp.value, v.norm_gm.value):>10.4f}")
print()
print("only mu = 1 (symmetric positional coupling) survives; any other DC")
print("ratio forces a wave-coupling peak above one near zero frequency.")
