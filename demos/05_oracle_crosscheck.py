"""Cross-check the closed forms against independent numerics.

Nothing here reuses the closed-form algebra: the transfer matrix solves
the interface-matching problem numerically, the phase time is compared
against the energy derivative of the numerically obtained phase, solved
exactly together with the linear system, the dwell time against the exact
integral of the solved probability density, region by region, and the
probability current is read from the same solve in all five regions.
"""

from dirac_tunneling import (
    BarrierSystem,
    dwell_integral,
    dwell_time,
    numeric_phase_time,
    phase_time_closed,
    region_coefficients,
    region_fluxes,
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
magT2 = abs(transmission(E, system)) ** 2
print("current per region, in units of the incident current:")
regions = ("before", "barrier 1", "gap", "barrier 2", "beyond")
for region, J in zip(regions, region_fluxes(E, system)):
    print(f"  {region:<9} {J:.12f}   dev {abs(J - magT2):.1e}")
print(f"  |T|^2     {magT2:.12f}")
