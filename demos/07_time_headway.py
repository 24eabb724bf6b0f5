"""Constant time-headway spacing: buying stability with speed-dependent gaps.

Under a headway policy each agent aims at a gap proportional to its own
speed (gap = h * velocity + constant) instead of a fixed distance. The
coupling quadratics keep their form with modified coefficients, and the
low-frequency term that forces the wave peak above one for asymmetric
positional coupling,

    l_x1 (kappa-1)^2 + h k_y1 (1-kappa) - h^2 kappa^2,

turns negative once h is large enough: the structural obstruction is gone.

The demo locates that threshold for the gain-asymmetric pair and shows the
headway wave couplings still satisfy their defining quadratics.
"""

import numpy as np

from wavestring import (
    AgentDynamics,
    Polynomial,
    RationalTF,
    awtf_axis_sweep,
    headway_dominant_term,
    low_order_coeffs,
    quadratic_residuals,
    tf_normalize,
)

front = tf_normalize(Polynomial([4 / 3, 4 / 3]), Polynomial([0, 0, 1, 1 / 3]))
rear = RationalTF(front.num.scaled(2.5 / 4), front.den, front.p)

print("dominant low-frequency term vs headway time h (gain-asymmetric pair):")
print(f"{'h':>6}{'term':>12}")
for h in (0.0, 0.2, 0.4, 0.41, 0.42, 0.6, 1.0):
    d = AgentDynamics(front, rear, h=h)
    print(f"{h:>6.2f}{headway_dominant_term(d):>12.5f}")

lo, hi = 0.0, 2.0
for _ in range(60):
    mid = 0.5 * (lo + hi)
    if headway_dominant_term(AgentDynamics(front, rear, h=mid)) > 0:
        lo = mid
    else:
        hi = mid
c = low_order_coeffs(AgentDynamics(front, rear))
predicted = np.sqrt(c.l_x1 * (c.kappa - 1) ** 2 / c.kappa**2)
print()
print(f"sign change located at h = {0.5 * (lo + hi):.6f}")
print(f"closed-form root          {predicted:.6f}  (k_y1 = {c.k_y1:g} here)")

print()
print("headway wave couplings still solve their quadratics (h = 0.7):")
d = AgentDynamics(front, rear, h=0.7)
sweep = awtf_axis_sweep(d, np.geomspace(1e-3, 1e2, 200))
scale = np.maximum(1.0, np.abs(sweep.beta) ** 2)
worst = max(quadratic_residuals(sweep[k], d)[0] / scale[k] for k in range(len(sweep)))
print(f"worst scaled residual over {len(sweep)} frequencies: {worst:.2e}")
