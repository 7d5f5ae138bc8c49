"""Cross-check the closed forms against independent numerics.

Nothing here reuses the closed-form algebra: the transfer matrix solves
the interface-matching problem numerically, the phase time is compared
against the energy derivative of the numerically obtained phase, solved
exactly together with the linear system, the dwell time against the exact
integral of the solved probability density, region by region, and the
probability current is sampled across all five regions.
"""

import numpy as np

from dirac_tunneling import (
    BarrierSystem,
    default_flux_samples,
    dwell_integral,
    dwell_time,
    flux_profile,
    kinematic_point,
    numeric_phase_time,
    phase_time_closed,
    region_coefficients,
    tm_solve,
    transmission,
)

system = BarrierSystem(V0=1.5, a=0.7, l=0.7)
E = 1.8

# 1. interface matching: closed coefficients vs numerical solve
closed = region_coefficients(E, system)
solved = tm_solve(E, system)
print("region coefficients, closed vs transfer-matrix solve:")
for field in ("T", "R", "A", "B", "C", "D", "F", "G"):
    x, y = getattr(closed, field), getattr(solved, field)
    print(f"  {field}: {x:+.10f}   dev {abs(x - y) / max(abs(y), 1e-30):.1e}")
print()

# 2. phase time vs numerical derivative of the transmission phase
tc = phase_time_closed(E, system)
tn = numeric_phase_time(E, system)
print(f"phase time closed  {tc:.12f}")
print(f"phase time numeric {tn:.12f}   rel dev {abs(tc - tn) / tc:.1e}")
print()

# 3. dwell time vs the integral of |psi|^2 over the barrier span
dc = dwell_time(E, system)
dq = dwell_integral(E, system)
print(f"dwell time closed   {dc:.12f}")
print(f"dwell time integral {dq:.12f}   rel dev {abs(dc - dq) / dc:.1e}")
print()

# 4. stationary state: the probability current must be the same number
# in all five regions, equal to the transmitted current
kp = kinematic_point(E, system)
J_inc = 2.0 * kp.k / (E + system.mass)
magT2 = abs(transmission(E, system)) ** 2
samples = flux_profile(E, system, default_flux_samples(system))
J = np.array([s.J for s in samples])
print(f"current samples over {len(J)} points spanning all regions:")
print(f"  J / J_inc: mean {J.mean() / J_inc:.12f}  std {J.std() / J_inc:.1e}")
print(f"  |T|^2 =    {magT2:.12f}")
