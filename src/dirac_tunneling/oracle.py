"""Independent numerical ground truth for the closed-form layer.

Nothing in this module uses the closed amplitude or time formulas.  The
stationary solution is obtained by solving the eight spinor-continuity
equations (two components at each of the four interfaces) as a dense
linear system, for any broadcast stack of points in one LAPACK call; the
phase time from the exact E-derivative of that solution, x' = M^-1 (b' -
M' x) with M' and b' differentiated entry by entry and solved in the same
call; the dwell time from adaptive quadrature of the probability density,
evaluated on arrays and refined level by level.  The one-point functions
are views of these array paths.  Tests compare the closed forms against
these routines, so the two layers must share as little code as possible.

A one-point call always solves with the derivative, [b | M' | b'], and
keeps (x, x', q) for the next one-point call at the same float inputs,
bit for bit (`numerics._LastPoint`): `tm_solve`, `numeric_phase_time`,
`dwell_integral`, `flux_profile` and `transfer_relation` at one point
share one solve.  Only the last point is kept, once validated; array
calls neither read nor replace it.  x comes out bit for bit as without
the derivative columns, and nothing about this is configurable.

The linear system is assembled in rescaled unknowns: every evanescent
coefficient is multiplied by the exponential factor that makes it O(1)
(for example B, the growing-mode coefficient of the first barrier, enters
as B e^{2qa}).  The matrix entries are then bounded by 1 uniformly in qa
and the solve stays well-conditioned arbitrarily deep into the opaque
regime; the true coefficients are recovered by undoing the scaling.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .amplitudes import RegionCoefficients
from .kinematics import BarrierSystem, KinematicPoint, _validate, kinematic_point
from .numerics import _LastPoint, adaptive_gauss_kronrod

__all__ = [
    "FieldSample",
    "InterfaceMatrix",
    "default_flux_samples",
    "dwell_integral",
    "flux_profile",
    "interface_matrix",
    "numeric_phase_time",
    "random_evanescent_grid",
    "single_barrier_amplitudes",
    "tm_solve",
    "transfer_relation",
]


@dataclass(frozen=True)
class InterfaceMatrix:
    """2x2 map from evanescent to plane coefficient pairs at a step.

    In the local variables u = (P+ e^{ikz0}, P- e^{-ikz0}) and
    v = (Q+ e^{-qz0}, Q- e^{qz0}) the continuity conditions at an
    interface z0 read u = M v with M depending only on alpha.  Its
    determinant is i/alpha, so the map is always invertible.
    """

    matrix: np.ndarray

    @property
    def det(self) -> complex:
        return complex(np.linalg.det(self.matrix))


@dataclass(frozen=True)
class FieldSample:
    """Probability density and flux at one position."""

    z: float
    psi_dag_psi: float
    J: float


# Every entry of the rescaled system is a constant times a factor alpha^s e^{-2qa p + ikz}
# with s = 0 or 1 and z = a za + l zl.  The phase factors, by name, with (p, za, zl):
_PHASES = {"1": (0, 0, 0), "e^-2qa": (1, 0, 0), "e^ika": (0, 1, 0), "e^-ika": (0, -1, 0),
           "e^ik(a+l)": (0, 1, 1), "e^-ik(a+l)": (0, -1, -1), "e^ik(2a+l)": (0, 2, 1)}
_P, _ZA, _ZL = np.array(list(_PHASES.values()), dtype=float).T
_FACTORS = (*_PHASES, *("al" if name == "1" else "al " + name for name in _PHASES))
# Row i of [M | b], two spinor components at each interface, as (column, constant,
# factor) triples; column 8 is the right-hand side b.  [M' | b'] is the same table with
# each factor replaced by its E-derivative.
_ROWS = (
    ((0, -1, "1"), (1, 1, "1"), (2, 1, "e^-2qa"), (8, 1, "1")),
    ((0, 1, "al"), (1, 1j, "1"), (2, -1j, "e^-2qa"), (8, 1, "al")),
    ((1, 1, "1"), (2, 1, "1"), (3, -1, "e^ika"), (4, -1, "e^-ika")),
    ((1, 1j, "1"), (2, -1j, "1"), (3, -1, "al e^ika"), (4, 1, "al e^-ika")),
    ((3, 1, "e^ik(a+l)"), (4, 1, "e^-ik(a+l)"), (5, -1, "1"), (6, -1, "e^-2qa")),
    ((3, 1, "al e^ik(a+l)"), (4, -1, "al e^-ik(a+l)"), (5, -1j, "1"), (6, 1j, "e^-2qa")),
    ((5, 1, "1"), (6, 1, "1"), (7, -1, "e^ik(2a+l)")),
    ((5, 1j, "1"), (6, -1j, "1"), (7, -1, "al e^ik(2a+l)")),
)
# Empty entries have constant 0 on the factor "1".
_CONST = np.zeros((8, 9), dtype=complex)
_INDEX = np.zeros((8, 9), dtype=np.intp)
for _i, _row in enumerate(_ROWS):
    for _j, _c, _f in _row:
        _CONST[_i, _j], _INDEX[_i, _j] = _c, _FACTORS.index(_f)


def _tm_system(E, V0, a, l, mass, derivative):
    """([M | b], [M' | b'] or None, q) of broadcast valid points, shaped ``(..., 8, 9)``.

    A factor alpha^s e^{-2qa p + ikz} has the logarithmic E-derivative
    s alpha'/alpha - 2a q' p + i k' z, with k' = E/k, q' = -(E - V0)/q and
    alpha'/alpha = k'/k - q'/q + 1/(E - V0 + m) - 1/(E + m).
    """
    k = np.sqrt((E - mass) * (E + mass))
    diff = E - V0
    q = np.sqrt((mass - diff) * (mass + diff))
    al = (k / q) * (diff + mass) / (E + mass)
    outer = np.multiply.outer
    ik = 1.0j * k
    phase = np.exp(outer(-2.0 * q * a, _P) + outer(ik * a, _ZA) + outer(ik * l, _ZL))
    factors = np.concatenate((phase, al[..., None] * phase), axis=-1)
    if not derivative:
        return _CONST * factors[..., _INDEX], None, q
    dk, dq = E / k, -diff / q
    dlog_al = dk / k - dq / q + 1.0 / (diff + mass) - 1.0 / (E + mass)
    ikp = 1.0j * dk
    dlog = outer(-2.0 * a * dq, _P) + outer(ikp * a, _ZA) + outer(ikp * l, _ZL)
    slopes = factors * np.concatenate((dlog, dlog + dlog_al[..., None]), axis=-1)
    return _CONST * factors[..., _INDEX], _CONST * slopes[..., _INDEX], q


def _tm_rescaled(E, V0, a, l, mass: float = 1.0, derivative: bool = False):
    """(x, x' or None, q) for broadcast valid points: one stacked solve of their systems.

    The eight continuity equations M x = b, two spinor components at each
    interface, in the unknowns R, A, B e^{2qa}, C e^{qa}, D e^{qa},
    F e^{-ql}, G e^{q(2a+l)} e^{2qa}, T e^{2qa}, which ``x`` holds in that
    order along its leading axis.  The matrix entries are bounded by 1 at
    any qa.  With ``derivative``, x' = dx/dE = M^-1 (b' - M' x) comes from
    the same solve: its right-hand side is [b | M' | b'].
    """
    system, slope, q = _tm_system(E, V0, a, l, mass, derivative)
    rhs = system[..., 8:]
    if slope is not None:
        rhs = np.concatenate((rhs, slope), axis=-1)
    sol = np.linalg.solve(system[..., :8], rhs)
    n = sol.ndim - 2
    lead = (n,) + tuple(range(n))
    x = sol[..., 0].transpose(lead)
    if slope is None:
        return x, None, q
    # x' = M^-1 b' - (M^-1 M') x
    dx = sol[..., 9] - np.matmul(sol[..., 1:9], sol[..., :1])[..., 0]
    return x, dx.transpose(lead), q


def _unscaled(x, q, a, l):
    """The region coefficients (A, B, C, D, F, G, T, R) from the rescaled unknowns ``x``."""
    e2, e1 = np.exp(-2.0 * q * a), np.exp(-q * a)
    return (x[1], x[2] * e2, x[3] * e1, x[4] * e1, x[5] * np.exp(q * l),
            x[6] * np.exp(-q * (2.0 * a + l)) * e2, x[7] * e2, x[0])


def _tm_stack(E, V0, a, l, mass: float = 1.0) -> RegionCoefficients:
    """Region coefficients of broadcast (E, V0, a, l), each field an array.

    Validates every point, solves them in one stack and undoes the scaling.
    """
    _validate(E, V0, a, l, mass)
    x, _, q = _tm_rescaled(E, V0, a, l, mass)
    return RegionCoefficients(*_unscaled(x, q, a, l))


_last_solve = _LastPoint()


def _solve_point(E, V0, a, l, mass):
    """(x, x', q) of one validated point; its arrays are read-only, as they are kept."""
    _validate(E, V0, a, l, mass)
    x, dx, q = _tm_rescaled(E, V0, a, l, mass, derivative=True)
    x.flags.writeable = dx.flags.writeable = False
    return x, dx, q


def _tm_point(E: float, system: BarrierSystem):
    """(x, x', q) at one point, the kept solve every one-point function reads."""
    return _last_solve(_solve_point, E, system.V0, system.a, system.l, system.mass)


def tm_solve(E: float, system: BarrierSystem) -> RegionCoefficients:
    """All region coefficients at one point, from the point's kept solve (`_tm_point`).

    The eight continuity equations in rescaled unknowns, solved with
    LAPACK; no closed amplitude formulas are involved.
    """
    x, _, q = _tm_point(E, system)
    return RegionCoefficients(*map(complex, _unscaled(x, q, system.a, system.l)))


def single_barrier_amplitudes(
    E: float, width: float, V0: float, mass: float = 1.0
) -> tuple[complex, complex]:
    """(T, R) of one rectangular barrier from an explicit 3-region solve.

    Independent of `tm_solve`; used to check the l = 0 double barrier
    against a single barrier of twice the width.
    """
    kp = kinematic_point(E, BarrierSystem(V0=V0, a=width, l=0.0, mass=mass))
    k, q, al = kp.k, kp.q, kp.alpha
    e2w = math.exp(-2.0 * q * width)
    eikw = cmath.exp(1.0j * k * width)

    m = np.zeros((4, 4), dtype=complex)
    rhs = np.zeros(4, dtype=complex)
    # Unknown order: R, A, B e^{2qw}, T e^{qw}
    m[0, 0], m[0, 1], m[0, 2] = -1.0, 1.0, e2w
    rhs[0] = 1.0
    m[1, 0], m[1, 1], m[1, 2] = al, 1.0j, -1.0j * e2w
    rhs[1] = al
    m[2, 1], m[2, 2], m[2, 3] = 1.0, 1.0, -eikw
    m[3, 1], m[3, 2], m[3, 3] = 1.0j, -1.0j, -al * eikw

    x = np.linalg.solve(m, rhs)
    return complex(x[3]) * math.exp(-q * width), complex(x[0])


def _phase_time(E, a, l, mass, x, dx):
    """tau_p = d/dE [arg T + k(2a+l)] = Im(x7'/x7) + (E/k)(2a+l), from a solve with its derivative.

    x7 = T e^{2qa}: the scaling is real and positive, so it leaves the phase alone.
    """
    return (dx[7] / x[7]).imag + E / np.sqrt((E - mass) * (E + mass)) * (2.0 * a + l)


def _phase_time_stack(E, V0, a, l, mass: float = 1.0) -> np.ndarray:
    """Phase time of broadcast valid points from the derivative of the linear solve.

    x' is solved exactly with x (`_tm_rescaled`), so there is no step size.
    """
    _validate(E, V0, a, l, mass)
    x, dx, _ = _tm_rescaled(E, V0, a, l, mass, derivative=True)
    return _phase_time(E, a, l, mass, x, dx)


def numeric_phase_time(E: float, system: BarrierSystem) -> float:
    """Phase time from the exact E-derivative of the linear solve.

    The one-point view of `_phase_time_stack`, on the point's kept solve.
    """
    x, dx, _ = _tm_point(E, system)
    return float(_phase_time(E, system.a, system.l, system.mass, x, dx))


def _wavefunction(kp: KinematicPoint, system: BarrierSystem, coeffs: RegionCoefficients):
    """psi(z) -> (psi1, psi3) at an array of positions, each dispatched by region.

    Every region carries c+ e^{lam z} + c- e^{-lam z}, with lam = ik in the
    free regions and -q in the barriers, and a lower component kappa
    times the difference of the two waves.  An interface belongs to the
    region on its right; the solution is continuous there.
    """
    E, k, q, mass = kp.E, kp.k, kp.q, system.mass
    kappa1, kappa2 = k / (E + mass), 1.0j * q / (E - system.V0 + mass)
    bounds = np.array([0.0, system.a, system.a + system.l, system.span])
    c = coeffs
    table = np.array([
        [1.0j * k, -q, 1.0j * k, -q, 1.0j * k],  # lam
        [1.0, c.A, c.C, c.F, c.T],  # c+
        [c.R, c.B, c.D, c.G, 0.0],  # c-
        [kappa1, kappa2, kappa1, kappa2, kappa1],  # kappa
    ])

    def psi(z):
        lam, c_plus, c_minus, kappa = table[:, bounds.searchsorted(z, side="right")]
        wave = np.exp(lam * z)
        up, dn = c_plus * wave, c_minus / wave
        return up + dn, kappa * (up - dn)

    return psi


def _dwell_integral_detail(
    E: float, system: BarrierSystem, rtol: float = 1e-9
) -> tuple[float, float]:
    """(dwell time, quadrature error estimate) from one adaptive Gauss-Kronrod run.

    The density is analytic on every panel: e^{+-2qz} terms in the
    barriers, cos(2kz + phi) plus a constant in the gap.  Barrier panels
    start no wider than 1/q and gap panels no wider than pi/k, one period
    of the gap density, so the 15-point rule resolves each in one or two
    levels.
    """
    kp = kinematic_point(E, system)
    coeffs = tm_solve(E, system)
    a, s = system.a, system.a + system.l
    n_barrier = math.ceil(kp.q * a)
    pieces = ((0.0, a, n_barrier), (a, s, math.ceil(kp.k * system.l / math.pi)),
              (s, system.span, n_barrier))
    breaks = np.concatenate(
        [lo + (hi - lo) / n * np.arange(n) for lo, hi, n in pieces if n > 0] + [[system.span]]
    )
    psi = _wavefunction(kp, system, coeffs)

    def density(z):
        p1, p3 = psi(z)
        return np.abs(p1) ** 2 + np.abs(p3) ** 2

    total, err = adaptive_gauss_kronrod(density, breaks[:-1], breaks[1:], rtol=rtol)
    j_inc = 2.0 * kp.k / (E + system.mass)
    return total / j_inc, err / j_inc


def dwell_integral(E: float, system: BarrierSystem) -> float:
    """Dwell time as integrated probability density over incident flux.

    Integrates psi^dag psi over the potential arrangement 0 < z < 2a+l
    (both barriers and the gap) by adaptive Gauss-Kronrod quadrature on
    panels split at the interior interfaces, then divides by the incident
    flux J_inc = 2k/(E+m).
    """
    value, err = _dwell_integral_detail(E, system)
    if err > 1e-7 * max(abs(value), 1e-300):
        raise RuntimeError(
            f"dwell quadrature did not converge (value {value:g}, error estimate {err:g})"
        )
    return value


def flux_profile(
    E: float, system: BarrierSystem, z_samples: Sequence[float]
) -> list[FieldSample]:
    """Density and flux J = 2 Re(psi1* psi3) at the given positions.

    For a stationary solution J is position-independent and equals
    J_inc |T|^2 everywhere, including inside the barriers where the two
    evanescent modes sustain it jointly.
    """
    kp = kinematic_point(E, system)
    z = np.asarray(z_samples, dtype=float)
    p1, p3 = _wavefunction(kp, system, tm_solve(E, system))(z)
    dens = np.abs(p1) ** 2 + np.abs(p3) ** 2
    flux = 2.0 * (p1.conjugate() * p3).real
    return [FieldSample(*sample) for sample in zip(z.tolist(), dens.tolist(), flux.tolist())]


def default_flux_samples(
    system: BarrierSystem, per_region: int = 20, offset: float = 1e-6
) -> np.ndarray:
    """Sample positions covering all five regions, kept off the interfaces.

    20 points per region by default; each region's endpoints are pulled
    inward by ``offset`` (capped at a quarter of the region width) so no
    sample lands exactly on a density kink.  The outer regions extend one
    span (at least 1.0) beyond the potential.
    """
    ext = max(1.0, system.span)
    a, s, w = system.a, system.a + system.l, system.span
    chunks = []
    for lo, hi in ((-ext, 0.0), (0.0, a), (a, s), (s, w), (w, w + ext)):
        width = hi - lo
        if width <= 0.0:
            continue
        off = min(offset, 0.25 * width)
        chunks.append(np.linspace(lo + off, hi - off, per_region))
    return np.concatenate(chunks)


def interface_matrix(E: float, system: BarrierSystem) -> InterfaceMatrix:
    """The evanescent-to-plane coefficient map shared by all four steps."""
    kp = kinematic_point(E, system)
    ia = 1.0j / kp.alpha
    return InterfaceMatrix(
        matrix=0.5 * np.array([[1.0 + ia, 1.0 - ia], [1.0 - ia, 1.0 + ia]])
    )


def transfer_relation(E: float, system: BarrierSystem) -> tuple[complex, complex]:
    """Compose interface maps and propagators from region V back to region I.

    Starting from the transmitted pair (T e^{ikw}, 0) of the linear solve
    and walking back through the four interfaces with diagonal propagation
    factors must reproduce the incident pair (1, R).  Uses true (unscaled)
    propagation factors e^{+-qa}, so it is meaningful at moderate qa only.
    """
    kp = kinematic_point(E, system)
    sol = tm_solve(E, system)
    k, q = kp.k, kp.q
    m = interface_matrix(E, system).matrix
    m_inv = np.linalg.inv(m)
    d_evan = np.diag([math.exp(q * system.a), math.exp(-q * system.a)])
    d_plane = np.diag(
        [cmath.exp(-1.0j * k * system.l), cmath.exp(1.0j * k * system.l)]
    )
    u_out = np.array([sol.T * cmath.exp(1.0j * k * system.span), 0.0], dtype=complex)
    u_in = m @ d_evan @ m_inv @ d_plane @ m @ d_evan @ m_inv @ u_out
    return complex(u_in[0]), complex(u_in[1])


def random_evanescent_grid(
    count: int,
    seed: int = 0,
    mass: float = 1.0,
    a_max: float = 30.0,
    l_max: float = 10.0,
    margin: float = 1e-3,
) -> dict[str, np.ndarray]:
    """Randomized parameter grid inside the evanescent window.

    E is drawn from (m, 3m), V0 from the open window (E-m, E+m) clipped
    positive, a from (0, a_max), l from (0, l_max); ``margin`` keeps all
    draws away from the window edges where k or q vanish.  Deterministic
    for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    E = rng.uniform((1.0 + margin) * mass, 3.0 * mass, count)
    lo = np.maximum(E - mass + margin * mass, margin * mass)
    hi = E + mass - margin * mass
    V0 = rng.uniform(lo, hi)
    a = rng.uniform(margin, a_max, count)
    l = rng.uniform(margin, l_max, count)
    return {"E": E, "V0": V0, "a": a, "l": l}
