"""Independent numerical ground truth for the closed-form layer.

Nothing in this module uses the closed amplitude or time formulas.  The
stationary solution is obtained by solving the eight spinor-continuity
equations (two components at each of the four interfaces) as a dense
linear system, for any broadcast stack of points in one LAPACK call; the
phase time from the exact E-derivative of that solution, x' = M^-1 (b' -
M' x) with M' and b' differentiated entry by entry and solved in the same
call; the dwell time from the exact integral of that solution's
probability density, region by region (`_dwell_stack`); the probability
current in each region from the same solution (`_flux_stack`).  The one-point
functions are views of these array paths.  Tests compare the closed
forms against these routines, so the two layers must share as little
code as possible.

Every solve has the derivative columns, [b | M' | b'].  A one-point
call keeps (x, x', q) for the next one-point call at the same float
inputs, bit for bit (`numerics._LastPoint`): `tm_solve`,
`numeric_phase_time`, `dwell_integral` and `region_fluxes` at one point
share one solve.  Only the last point is kept, once validated; array
calls neither read nor replace it, and nothing about this is
configurable.

The linear system is assembled in rescaled unknowns: every evanescent
coefficient is multiplied by the exponential factor that makes it O(1)
(for example B, the growing-mode coefficient of the first barrier, enters
as B e^{2qa}).  The matrix entries are then bounded by 1 uniformly in qa
and the solve stays well-conditioned arbitrarily deep into the opaque
regime; the true coefficients are recovered by undoing the scaling.
"""

from __future__ import annotations

import math

import numpy as np

from .amplitudes import RegionCoefficients
from .kinematics import BarrierSystem, _validate, kinematic_point
from .numerics import _LastPoint

__all__ = [
    "dwell_integral",
    "numeric_phase_time",
    "random_evanescent_grid",
    "region_fluxes",
    "single_barrier_amplitudes",
    "tm_solve",
]


# Every entry of the rescaled system is a constant times a factor alpha^s e^{-2qa p + ikz}
# with s = 0 or 1 and z = a za + l zl.  The phase factors, by name, with (p, za, zl):
_PHASES = {"1": (0, 0, 0), "e^-2qa": (1, 0, 0), "e^ika": (0, 1, 0), "e^-ika": (0, -1, 0),
           "e^ik(a+l)": (0, 1, 1), "e^-ik(a+l)": (0, -1, -1), "e^ik(2a+l)": (0, 2, 1)}
_P, _ZA, _ZL = np.array(list(_PHASES.values()), dtype=float).T
_FACTORS = (*_PHASES, *("al" if name == "1" else "al " + name for name in _PHASES))
# Row i of [M | b], two spinor components at each interface, as (column, constant,
# factor) triples; column 8 is the right-hand side b.  [M' | b'], columns 9 to 17 of the
# gathered table, is the same with each factor replaced by its E-derivative.
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
# Empty entries have constant 0 on the factor "1"; `_tm_system` puts derivatives after factors.
_CONST = np.zeros((8, 9), dtype=complex)
_INDEX = np.zeros((8, 9), dtype=np.intp)
for _i, _row in enumerate(_ROWS):
    for _j, _c, _f in _row:
        _CONST[_i, _j], _INDEX[_i, _j] = _c, _FACTORS.index(_f)
_CONST = np.concatenate((_CONST, _CONST), axis=1)
_INDEX = np.concatenate((_INDEX, _INDEX + len(_FACTORS)), axis=1)


def _tm_system(E, V0, a, l, mass):
    """([M | b | M' | b'], q) of broadcast valid points, the table shaped ``(..., 8, 18)``.

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
    dk, dq = E / k, -diff / q
    dlog_al = dk / k - dq / q + 1.0 / (diff + mass) - 1.0 / (E + mass)
    ikp = 1.0j * dk
    dlog = outer(-2.0 * a * dq, _P) + outer(ikp * a, _ZA) + outer(ikp * l, _ZL)
    slopes = factors * np.concatenate((dlog, dlog + dlog_al[..., None]), axis=-1)
    return _CONST * np.concatenate((factors, slopes), axis=-1)[..., _INDEX], q


def _tm_rescaled(E, V0, a, l, mass: float = 1.0):
    """(x, x', q) for broadcast valid points: one stacked solve of their systems.

    The eight continuity equations M x = b, two spinor components at each
    interface, in the unknowns R, A, B e^{2qa}, C e^{qa}, D e^{qa},
    F e^{-ql}, G e^{q(2a+l)} e^{2qa}, T e^{2qa}, which ``x`` holds in that
    order along its leading axis.  The matrix entries are bounded by 1 at
    any qa.  x' = dx/dE = M^-1 (b' - M' x) comes from the same solve: its
    right-hand side is [b | M' | b'].
    """
    table, q = _tm_system(E, V0, a, l, mass)
    sol = np.linalg.solve(table[..., :8], table[..., 8:])
    n = sol.ndim - 2
    lead = (n,) + tuple(range(n))
    # x' = M^-1 b' - (M^-1 M') x
    dx = sol[..., 9] - np.matmul(sol[..., 1:9], sol[..., :1])[..., 0]
    return sol[..., 0].transpose(lead), dx.transpose(lead), q


def _unscaled(x, q, a, l):
    """The region coefficients (A, B, C, D, F, G, T, R) from the rescaled unknowns ``x``."""
    e2, e1 = np.exp(-2.0 * q * a), np.exp(-q * a)
    # F = x5 e^{ql} overflows to inf past ql ~ 709, silently, as the closed form's F does.
    with np.errstate(over="ignore"):
        grow = np.exp(q * l)
    return (x[1], x[2] * e2, x[3] * e1, x[4] * e1, x[5] * grow,
            x[6] * np.exp(-q * (2.0 * a + l)) * e2, x[7] * e2, x[0])


_last_solve = _LastPoint()


def _solve_point(E, V0, a, l, mass):
    """(x, x', q) of one validated point; its arrays are read-only, as they are kept."""
    _validate(E, V0, a, l, mass)
    x, dx, q = _tm_rescaled(E, V0, a, l, mass)
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
    eikw = complex(math.cos(k * width), math.sin(k * width))

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


def numeric_phase_time(E: float, system: BarrierSystem) -> float:
    """Phase time from the exact E-derivative of the linear solve.

    The one-point view of `_oracle_stack`'s phase time, on the point's kept
    solve; x' is solved exactly with x (`_tm_rescaled`), so there is no step
    size.
    """
    x, dx, _ = _tm_point(E, system)
    return float(_phase_time(E, system.a, system.l, system.mass, x, dx))


# sinh(x)/x - 1 = sum_{n>=1} x^(2n) / (2n+1)!; seven terms reach double precision for
# x below _SERIES_BELOW, where the closed differences lose digits.  Each branch is
# evaluated on arguments clipped to its own side, so neither overflows nor divides by 0,
# and `[()]` keeps a one-point value a numpy scalar.
_SERIES_BELOW = 0.5
_INV_ODD_FACTORIALS = tuple(1.0 / math.factorial(2 * n + 1) for n in range(7, 0, -1))


def _sinhc_minus_one(t):
    """sum_{n>=1} t^n / (2n+1)!: sinh(x)/x - 1 at t = x^2, sin(x)/x - 1 at t = -x^2."""
    acc = 0.0
    for c in _INV_ODD_FACTORIALS:
        acc = (acc + c) * t
    return acc


def _barrier_kernels(x, decay):
    """e^{-x} (sinh(x)/x + 1) and e^{-x} (sinh(x)/x - 1) at x = qa >= 0, with decay = e^{-x}."""
    wide = np.maximum(x, _SERIES_BELOW)
    closed = -np.expm1(-2.0 * wide) / (2.0 * wide) - decay  # e^{-x} sinh(x)/x - e^{-x}
    near = np.minimum(x, _SERIES_BELOW)
    series = decay * _sinhc_minus_one(near * near)
    minus = np.where(x < _SERIES_BELOW, series, closed)[()]
    return minus + 2.0 * decay, minus


def _gap_kernels(y):
    """1 + sin(y)/y and 1 - sin(y)/y at y = kl >= 0."""
    wide = np.maximum(y, _SERIES_BELOW)
    near = np.minimum(y, _SERIES_BELOW)
    series = -_sinhc_minus_one(-near * near)
    minus = np.where(y < _SERIES_BELOW, series, 1.0 - np.sin(wide) / wide)[()]
    return 2.0 - minus, minus


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def _region(s, d, kappa2, plus, minus):
    """(|s|^2 + kappa^2 |d|^2) plus + (|d|^2 + kappa^2 |s|^2) minus: a region's density integral."""
    s2, d2 = _abs2(s), _abs2(d)
    return (s2 + kappa2 * d2) * plus + (d2 + kappa2 * s2) * minus


def _dwell_stack(E, V0, a, l, mass, x, q):
    """Dwell time of broadcast valid points from their rescaled solve ``x`` (`_tm_rescaled`).

    The density psi^dag psi = |psi1|^2 + |psi3|^2 is integrated exactly over
    0 < z < 2a+l and divided by the incident flux J_inc = 2k/(E+m).  About
    the centre of each region, t = z - z0, a barrier carries
    psi1 = s cosh qt - d sinh qt and psi3 = kappa (d cosh qt - s sinh qt),
    kappa = q/(E-V0+m) up to a phase, and the gap the same with cos kt and
    i sin kt, kappa = k/(E+m).  The cross terms are odd in t and integrate
    to zero, which leaves non-negative terms with the kernels of
    `_barrier_kernels` and `_gap_kernels`: no cancellation like 1/q at the
    window edges and no overflow at any qa.  In the rescaled unknowns
    s, d = e^{-qa/2} (x1 +- x2 e^{-qa}) in the first barrier,
    e^{-qa} (x3 e^{ik(2a+l)} +- x4) in the gap (up to a phase) and
    e^{-3qa/2} (x5 +- x6 e^{-qa}) in the second barrier: the gap and the
    second barrier contribute a factor e^{-2qa} beside the first barrier's
    terms, and may underflow to zero.
    """
    k = np.sqrt((E - mass) * (E + mass))
    kappa_free = k / (E + mass)
    kappa_barrier = q / (E - V0 + mass)
    # x * x, not x**2: a numpy scalar's power rounds unlike an array's square.
    kappa2_free, kappa2_barrier = kappa_free * kappa_free, kappa_barrier * kappa_barrier
    with np.errstate(under="ignore"):
        decay = np.exp(-q * a)
        plus, minus = _barrier_kernels(q * a, decay)

        def barrier(grow, fall):
            fall = fall * decay
            return 0.5 * a * _region(grow + fall, grow - fall, kappa2_barrier, plus, minus)

        # x3 e^{ik(2a+l)} from real parts, so a stack rounds as one point (see `amplitudes`).
        phase = k * (2.0 * a + l)
        wave = x[3] * np.cos(phase) + 1.0j * (x[3] * np.sin(phase))
        gap = 0.5 * l * _region(wave + x[4], wave - x[4], kappa2_free, *_gap_kernels(k * l))
        total = barrier(x[1], x[2]) + decay * decay * (gap + barrier(x[5], x[6]))
    return total / (2.0 * kappa_free)


def dwell_integral(E: float, system: BarrierSystem) -> float:
    """Dwell time as integrated probability density over incident flux.

    Integrates psi^dag psi exactly over the potential arrangement
    0 < z < 2a+l (both barriers and the gap) from the coefficients of the
    point's kept solve (`_tm_point`), then divides by the incident flux
    J_inc = 2k/(E+m); the one-point view of `_dwell_stack`.
    """
    x, _, q = _tm_point(E, system)
    return float(_dwell_stack(E, system.V0, system.a, system.l, system.mass, x, q))


def _flux_stack(E, V0, a, l, mass, x, q):
    """Probability current J = 2 Re(psi1* psi3) in each of the five regions, shaped ``(5, ...)``.

    In units of the incident current 2 kappa, kappa = k/(E+m), from the
    rescaled solve ``x`` (`_tm_rescaled`), with sigma = q/(E-V0+m) and
    eps = e^{-2qa}: 1 - |R|^2 before the barriers, -2 (sigma/kappa) Im(B* A)
    = -2 (sigma/kappa) eps Im(x2* x1) in the first barrier, |C|^2 - |D|^2 =
    eps (|x3|^2 - |x4|^2) in the gap, -2 (sigma/kappa) eps^2 Im(x6* x5) in the
    second barrier and |T|^2 = eps^2 |x7|^2 beyond.  A stationary state
    carries the same current in all five; no factor is unscaled, so none
    overflows at any qa or l.
    """
    k = np.sqrt((E - mass) * (E + mass))
    ratio = 2.0 * (q / (E - V0 + mass)) / (k / (E + mass))
    eps = np.exp(-2.0 * q * a)
    eps2 = eps * eps

    def barrier(c, d):  # -2 (sigma/kappa) Im(d* c), from real parts
        return ratio * (d.imag * c.real - d.real * c.imag)

    return np.stack((1.0 - _abs2(x[0]), eps * barrier(x[1], x[2]),
                     eps * (_abs2(x[3]) - _abs2(x[4])), eps2 * barrier(x[5], x[6]),
                     eps2 * _abs2(x[7])))


def region_fluxes(E: float, system: BarrierSystem) -> tuple[float, ...]:
    """The probability current in each of the five regions, in units of the incident current.

    The one-point view of `_oracle_stack`'s currents (`_flux_stack`), on the
    point's kept solve (`_tm_point`); a stationary state carries |T|^2 in each.
    """
    x, _, q = _tm_point(E, system)
    return tuple(_flux_stack(E, system.V0, system.a, system.l, system.mass, x, q).tolist())


def _oracle_stack(E, V0, a, l, mass: float = 1.0):
    """(region coefficients, phase time, dwell time, region currents) of broadcast valid points.

    Validates every point and makes one stacked solve with its derivative:
    the coefficients undo its scaling, the phase time reads x and x'
    (`_phase_time`), the dwell time integrates the density of x
    (`_dwell_stack`) and the currents read x too (`_flux_stack`).  The
    array path of `tm_solve`, `numeric_phase_time`, `dwell_integral` and
    `region_fluxes`, bit for bit.
    """
    _validate(E, V0, a, l, mass)
    x, dx, q = _tm_rescaled(E, V0, a, l, mass)
    return (RegionCoefficients(*_unscaled(x, q, a, l)), _phase_time(E, a, l, mass, x, dx),
            _dwell_stack(E, V0, a, l, mass, x, q), _flux_stack(E, V0, a, l, mass, x, q))


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
