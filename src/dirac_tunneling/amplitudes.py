"""Closed-form scattering amplitudes for the double rectangular barrier.

For two identical electrostatic barriers the stationary Dirac equation is
solvable in closed form.  Writing kl for the phase accumulated across the
gap and qa for the decay exponent of one barrier, the transmission
amplitude is

    T = 8 alpha^2 e^{-2ika} / (Gamma + i Delta),

with real Gamma, Delta built from cosh/sinh of qa and sin/cos of kl, and
the reflection amplitude is proportional to T through a real ratio beta:
R = beta e^{i[k(2a+l) - pi/2]} T.  The transmission phase is

    phi_t = kl - atan2(Delta, Gamma),

so that T = |T| e^{i[phi_t - k(2a+l)]}.  Both amplitudes are evaluated
from V = 8 alpha^2 / (Gamma + i Delta): T = e^{-2ika} V and
R = -i beta e^{ikl} V, where e^{ikl} = cos kl + i sin kl is the record's
own, so R's phase never rounds k(2a+l) to double.  sin kl and cos kl come
from one Cody-Waite reduction of kl by pi/2 (`_sin_cos`).

Everything here is evaluated in rescaled form: the dominant e^{2qa} growth
of the hyperbolic functions is divided out analytically, for example
cosh(2qa) -> (1 + e^{-4qa})/2 after extracting e^{2qa}.  All stored
intermediates are then O(1) for arbitrarily large qa and the exponential
smallness of T reappears only as an explicit e^{-2qa} factor multiplying a
bounded quantity.  The evaluation never overflows; |T| underflows
gracefully to zero once 2qa exceeds about 745.

Near a transmission resonance Gamma, Delta and beta pass through zero
together, and evaluating them costs several digits to cancellation.  The
real combinations are therefore assembled in extended precision
(np.longdouble, 80-bit on x86 Linux) starting from (E, V0), and rounded
to double only at the API boundary; plain double would lose up to five
digits there.  The probabilities are |T|^2 = 1/(1 + beta^2) and
|R|^2 = beta^2/(1 + beta^2) over one denominator, so |T|^2 + |R|^2 - 1
is only the rounding of the two quotients to double (at most 1.11e-16
on 2 x 10^6 random evanescent points).

Every formula above is written once, in the record `_prepare` returns:
the scalar functions (on numpy scalars), the bulk ones and the times are
all views of it, and a one-point output is its bulk row bit for bit.
numpy's array loop may fuse the multiply-adds of a product of two general
complex numbers, its scalar product does not: each such product both
paths evaluate is formed from real parts (U's and R's with V,
`oracle._dwell_stack`'s).

A one-point call keeps its record (`numerics._LastPoint`), and the next
one-point call at the same float inputs, bit for bit, reuses it with all
it has computed (T, R, U, beta, ...): `time_report` then
`scattering_solution` at one point build one record.  Only the last
point is kept, once validated; array calls, the bulk functions and the
nonrelativistic times neither read nor replace it.  Outputs are bit for
bit those of a fresh record, and nothing about this is configurable.

A bulk call of 2^14 points or more is cut along the longest axis of its
broadcast shape into blocks of about 4096 points, small enough for their
extended-precision intermediates to stay in a core's cache, and the
blocks run on a pool of one thread per CPU the process may use (numpy
releases the GIL in its array loops).  Each block evaluates only the
outputs asked for and drops its intermediates when done.  The grid is
validated once as a whole, and only private record code runs on the
pool.  Every output is bit for bit what one evaluation of the whole grid
gives, whatever the number of cores; nothing about this is configurable.

The region coefficients A, B, C, D, F, G are record fields too
(`_coefficient_fields`): `region_coefficients` is their 0-d view, and
`verify` reads them over its whole grid in one bulk call.  Their general
complex products stay, so that view agrees with the bulk rows to 1e-15.

Phases computed by atan2 are defined modulo pi.  Every call returns the
principal branch; `scenarios.run_sweep` continues a swept phase with
`numerics.continue_branch`, and a caller stepping through points one at
a time applies the same rule to the principal values it collected.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .kinematics import BarrierSystem, _validate
from .numerics import _LastPoint

__all__ = [
    "RegionCoefficients",
    "ScatteringSolution",
    "bulk_amplitudes",
    "reflection",
    "region_coefficients",
    "scattering_solution",
    "transmission",
    "transmission_phase",
]


@dataclass(frozen=True)
class ScatteringSolution:
    """Amplitudes and transmission phase at one energy.

    ``phi_t`` is the transmission phase in radians (principal branch),
    ``magT2`` and ``magR2`` the transmission and reflection probabilities.
    """

    T: complex
    R: complex
    phi_t: float
    magT2: float
    magR2: float


@dataclass(frozen=True)
class RegionCoefficients:
    """Coefficients of the piecewise stationary solution.

    All exponentials are anchored at the origin: region I (z < 0) carries
    e^{ikz} + R e^{-ikz}, region II (first barrier) A e^{-qz} + B e^{qz},
    region III (gap) C e^{ikz} + D e^{-ikz}, region IV (second barrier)
    F e^{-qz} + G e^{qz}, and region V T e^{ikz}.  With this anchoring B,
    G are exponentially small and F is exponentially large in qa; the
    physical field values stay bounded.
    """

    A: complex
    B: complex
    C: complex
    D: complex
    F: complex
    G: complex
    T: complex
    R: complex


_LD = np.longdouble
_EIGHT = np.complex128(8.0)


def _extended_kinematics(E, V0, mass):
    """Extended-precision (k, q, alpha) and their energy slopes (k', q', alpha'/alpha).

    Numpy scalars for 0-d input; the regime must be valid.  E - V0 is taken
    in extended precision: alpha'/alpha carries (E - V0)/q^2, which grows
    without bound as q -> 0.
    """
    # Only E is converted (~0.5 us a scalar): V0 and mass enter the extended arithmetic exactly.
    El = np.asarray(E, dtype=_LD)[()]
    k = np.sqrt((El - mass) * (El + mass))
    diff = El - V0
    q = np.sqrt((mass - diff) * (mass + diff))
    alpha = (k / q) * (diff + mass) / (El + mass)
    dk = El / k
    dq = -diff / q
    return k, q, alpha, dk, dq, dk / k - dq / q + 1.0 / (diff + mass) - 1.0 / (El + mass)


class _Hyperbolics(NamedTuple):
    """Hyperbolic factors of qa with the e^{2qa} growth divided out."""

    e2: np.ndarray        # e^{-2qa}
    e4: np.ndarray        # e^{-4qa}
    c2: np.ndarray        # cosh(2qa) e^{-2qa}
    s2: np.ndarray        # sinh(2qa) e^{-2qa}
    s1sq: np.ndarray      # sinh^2(qa) e^{-2qa}


class _computed_once(cached_property):
    """cached_property without the lock it takes per first use before Python 3.12."""

    def __get__(self, obj, owner=None):
        obj.__dict__[self.attrname] = value = self.func(obj)
        return value


class _set_by:
    """A field that the first read of the field ``trigger`` sets on the way."""

    def __init__(self, trigger):
        self.trigger = trigger

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        getattr(obj, self.trigger)
        return obj.__dict__[self.name]


class _ClosedForm:
    """The closed solution at one point or over a grid: every formula, once.

    Eager: the validated inputs (E, V0, a, l, mass), the span 2a + l, the
    extended-precision k, q, alpha and their energy slopes ``dk`` = k',
    ``dq`` = q', ``dlog_alpha`` = alpha'/alpha, ``al2`` = alpha^2,
    ``one_al2`` = 1 + alpha^2, the hyperbolics, kl, and sin kl and cos kl
    from one reduction of kl (`_sin_cos`).
    The rest is computed on first use, in the groups its readers read:
    the rescaled Gamma (``gam``) sets Delta (``dlt``), sin 2kl =
    2 sin kl cos kl and cos 2kl = (cos kl - sin kl)(cos kl + sin kl), and
    |R|^2 sets |T|^2, so |R|^2 alone reads neither Gamma, Delta nor sin 2kl;
    the rescaled gap coefficient c_hat sets d_hat.
    sin kl and cos kl are within 0.5 longdouble eps, absolute, of mpmath
    of the same kl up to 8500 (sinl and cosl, 0.26 eps), the identities
    within 1.2 eps at 2kl, and the rounding of kl itself, about ulp(kl),
    dominates all of them.  Each quantity keeps the shape of its inputs;
    real ones stay in extended precision, while V, U, T, R, c_hat and
    d_hat are double complex.
    """

    def __init__(self, E, V0, a, l, mass, k, q, alpha, dk, dq, dlog_alpha):
        self.E, self.V0, self.a, self.l, self.mass = E, V0, a, l, mass
        self.k, self.q, self.alpha = k, q, alpha
        self.dk, self.dq, self.dlog_alpha = dk, dq, dlog_alpha
        self.al2 = al2 = alpha * alpha
        self.one_al2 = 1.0 + al2
        self.span = 2.0 * a + l
        self.hyp = _hyperbolics(q, a)
        self.kl = kl = k * l
        self.sin_kl, self.cos_kl = _sin_cos(kl)

    @_computed_once
    def gam(self):
        """Gamma e^{-2qa}; sets Delta e^{-2qa}, sin 2kl and cos 2kl on the way, as the phase time reads all four."""
        al2, one, hyp, sin_kl, cos_kl = self.al2, self.one_al2, self.hyp, self.sin_kl, self.cos_kl
        self.sin_2kl = sin_2kl = 2.0 * sin_kl * cos_kl
        # The product form keeps the absolute error of cos^2 - sin^2 where cos 2kl -> 0.
        self.cos_2kl = (cos_kl - sin_kl) * (cos_kl + sin_kl)
        self.dlt = 4.0 * self.alpha * (1.0 - al2) * hyp.s2 + 2.0 * one * one * sin_2kl * hyp.s1sq
        return 8.0 * al2 * hyp.c2 - 4.0 * one * one * sin_kl * sin_kl * hyp.s1sq

    dlt = _set_by("gam")
    sin_2kl = _set_by("gam")
    cos_2kl = _set_by("gam")

    @_computed_once
    def gd2(self):
        """Gamma^2 + Delta^2, rescaled by e^{-4qa}: the phase time's and h3's denominator."""
        return self.gam * self.gam + self.dlt * self.dlt

    @_computed_once
    def beta_hat(self):
        """beta e^{-2qa}, the real ratio with R = beta_hat e^{i[k(2a+l)-pi/2]} U."""
        al2 = self.al2
        return (self.one_al2 / self.alpha) * (
            0.5 * self.cos_kl * self.hyp.s2
            + ((1.0 - al2) / (2.0 * self.alpha)) * self.sin_kl * self.hyp.s1sq
        )

    @_computed_once
    def dbeta_hat(self):
        """d beta_hat / d(kl), beta_hat a quarter period later: beta_hat is a sinusoid in kl."""
        al2 = self.al2
        return (self.one_al2 / self.alpha) * (
            ((1.0 - al2) / (2.0 * self.alpha)) * self.cos_kl * self.hyp.s1sq
            - 0.5 * self.sin_kl * self.hyp.s2
        )

    @_computed_once
    def v(self):
        """V = 8 alpha^2 / (Gamma + i Delta), rescaled by e^{2qa}: U and R without their phases.

        Gamma and Delta are rounded to double here; their extended-precision
        values are accurate to ~1e-18 relative, so the rounding costs one ulp
        even where the doubles-only evaluation would lose digits.
        """
        al2, gam, dlt = np.float64(self.al2), np.float64(self.gam), np.float64(self.dlt)
        # Not gam + 1j * dlt, nor a float64 numerator: the same bits through numpy's
        # generic path, several times slower at one point.
        return _EIGHT * al2 / (1.0j * dlt + gam)

    @_computed_once
    def u(self):
        """U = e^{2qa} T = e^{-2ika} V, an O(1) complex128 quantity; the product from real parts."""
        phase, v = np.exp(-2.0j * np.float64(self.k * self.a)), self.v
        return v * phase.real + 1.0j * (v * phase.imag)

    @_computed_once
    def T(self):
        return np.float64(self.hyp.e2) * self.u

    @_computed_once
    def R(self):
        """-i beta_hat e^{ikl} V = (beta_hat sin kl) V - i (beta_hat cos kl) V: its phase is the record's kl."""
        beta, v = self.beta_hat, self.v
        return v * np.float64(beta * self.sin_kl) - 1.0j * (v * np.float64(beta * self.cos_kl))

    @_computed_once
    def c_hat(self):
        """C e^{-ika} e^{qa} / U = [cosh qa + i ((1 - alpha^2)/2alpha) sinh qa] e^{-qa}, double complex.

        Sets d_hat = D e^{-ik(3a+2l)} e^{qa} / U = -i ((1 + alpha^2)/2alpha) sinh(qa) e^{-qa}
        on the way.  Both are O(1) at any qa.
        """
        e2, al = np.float64(self.hyp.e2), np.float64(self.alpha)
        half_sinh = (1.0 - e2) / (4.0 * al)     # sinh(qa) e^{-qa} / 2alpha
        al2 = al * al
        self.d_hat = -1.0j * ((1.0 + al2) * half_sinh)
        return 1.0j * ((1.0 - al2) * half_sinh) + 0.5 * (1.0 + e2)

    d_hat = _set_by("c_hat")

    @_computed_once
    def phi_t(self):
        """Principal-branch transmission phase kl - atan2(Delta, Gamma)."""
        return self.kl - np.arctan2(self.dlt, self.gam)

    # |T|^2 = 1 / (1 + beta^2) and |R|^2 = beta^2 / (1 + beta^2) over the one denominator
    # e^{-4qa} + beta_hat^2: they sum to one by construction.
    @_computed_once
    def magT2(self):
        return self.hyp.e4 / (self.hyp.e4 + self.beta_hat * self.beta_hat)

    @_computed_once
    def magR2(self):
        """|R|^2; sets |T|^2 on the way, as every reader of |R|^2 reads both."""
        beta_sq = self.beta_hat * self.beta_hat
        den = self.hyp.e4 + beta_sq
        self.magT2 = self.hyp.e4 / den
        return beta_sq / den


_last_record = _LastPoint()


def _prepare(E, V0, a, l, mass) -> _ClosedForm:
    """Validate, then the closed-form record: the one entry to the closed forms.

    At the float inputs of the last one-point call, that call's record.
    """
    return _last_record(_new_record, E, V0, a, l, mass)


def _new_record(E, V0, a, l, mass) -> _ClosedForm:
    _validate(E, V0, a, l, mass)
    return _ClosedForm(E, V0, a, l, mass, *_extended_kinematics(E, V0, mass))


def _full_shape(x, shape):
    """Array or numpy scalar ``x`` as a fresh array of ``shape`` (itself if it has it)."""
    return x if x.shape == shape else np.broadcast_to(x, shape).copy()


# Bulk calls of _BLOCKED_FROM points or more run in blocks of about _BLOCK points
# on the pool (see the module docstring); 4096 was the fastest size on 2 cores.
_BLOCK = 1 << 12
_BLOCKED_FROM = 1 << 14
_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The block pool, created on the first large call (importing concurrent.futures costs ~11 ms)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            import concurrent.futures

            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity mask on this platform
                workers = os.cpu_count() or 1
            _pool = concurrent.futures.ThreadPoolExecutor(workers, thread_name_prefix="dirac_tunneling")
        return _pool


def _forget_pool():
    # A forked child inherits the pool but none of its threads: it would wait forever.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _bulk(fields, E, V0, a, l, mass, kinematics=None) -> dict:
    """``fields(record)`` over a grid, in blocks on the pool once the grid is large.

    The inputs are validated once, on the whole grid, so an error names the
    point's flat index in the full broadcast shape.  ``kinematics`` replaces
    the relativistic (k, q, alpha) and then skips that validation: the
    nonrelativistic path checks its own window.  Every output has the full
    broadcast shape.  Large grids are split along the longest axis of that
    shape; only the inputs that vary along it are sliced, so each block
    evaluates every intermediate on the shape of the inputs it depends on,
    as the whole grid would, and every value comes out bit for bit the same.
    """
    inputs = [np.asarray(x, dtype=float) for x in (E, V0, a, l)]
    if kinematics is None:
        _validate(*inputs, mass)
        kinematics = _extended_kinematics
    shape = np.broadcast_shapes(*(x.shape for x in inputs))

    def evaluate(E, V0, a, l):
        return fields(_ClosedForm(E, V0, a, l, mass, *kinematics(E, V0, mass)))

    size = math.prod(shape)
    if size < _BLOCKED_FROM:
        return {key: _full_shape(value, shape) for key, value in evaluate(*inputs).items()}
    axis = shape.index(max(shape)) - len(shape)   # counted from the end, as for every input
    step = max(1, _BLOCK * shape[axis] // size)
    sliced = [x.ndim >= -axis and x.shape[axis] > 1 for x in inputs]

    def window(start):
        return (..., slice(start, start + step)) + (slice(None),) * (-1 - axis)

    def block(start):
        return evaluate(*(x[window(start)] if cut else x for x, cut in zip(inputs, sliced)))

    starts = range(0, shape[axis], step)
    out = {}
    for start, values in zip(starts, _executor().map(block, starts)):
        for key, value in values.items():
            if key not in out:
                out[key] = np.empty(shape, dtype=value.dtype)
            out[key][window(start)] = value
    return out


# pi/2 = _HALF_PI[0] + _HALF_PI[1] + _HALF_PI[2] to within 5e-35: two heads of 30 bits,
# so that n times either is a double, exact for |n| < _REDUCED_BELOW, and a double tail.
_HALF_PI = (float.fromhex("0x1.921fb54p+0"), float.fromhex("0x1.10b46118p-30"),
            float.fromhex("0x1.313198a2e037p-61"))
_REDUCED_BELOW = 2.0**23
_TWO_OVER_PI = 2.0 / math.pi


def _sin_cos(x):
    """sin x and cos x from one Cody-Waite reduction, x = n pi/2 + r with |r| <~ pi/4.

    n = floor(double(x) 2/pi + 1/2), by the same double arithmetic at one
    point and over an array; r = ((x - n P1) - n P2) - n P3 in the
    precision of x, with the first subtraction exact.  One sine and one
    cosine of r then serve both, picked and negated by n mod 4, which is
    exact.  Where |n| >= 2^23, n = 0 and sin and cos reduce x themselves.
    Within 0.5 longdouble eps (absolute) of mpmath for |x| up to 8500,
    where sinl and cosl read 0.26 eps; over arrays spread on [0, 3] or
    wider it costs 0.4 to 0.5 times what sinl and cosl do.
    """
    one_point = x.ndim == 0
    if one_point:
        # Python floats and ints: each numpy scalar operation would cost more than these together.
        t = float(x) * _TWO_OVER_PI + 0.5
        n = math.floor(t) if 1.0 - _REDUCED_BELOW <= t < _REDUCED_BELOW else 0
    else:
        n = np.floor(x.astype(float) * _TWO_OVER_PI + 0.5)
        n[~(np.abs(n) < _REDUCED_BELOW)] = 0.0
    p1, p2, p3 = _HALF_PI
    r = ((x - n * p1) - n * p2) - n * p3
    s, c = np.sin(r), np.cos(r)
    if one_point:
        if n & 1:
            s, c = c, -s
        return (-s, -c) if n & 2 else (s, c)
    quadrant = n.astype(np.int64)
    odd = (quadrant & 1).astype(bool)
    s, c = np.where(odd, c, s), np.where(odd, -s, c)
    half_turn = (quadrant & 2).astype(bool)
    np.negative(s, out=s, where=half_turn)
    np.negative(c, out=c, where=half_turn)
    return s, c


def _hyperbolics(q, a) -> _Hyperbolics:
    x = q * a
    e2 = np.exp(-2.0 * x)
    e4 = e2 * e2
    shrink = 1.0 - e2
    return _Hyperbolics(
        e2=e2,
        e4=e4,
        c2=0.5 * (1.0 + e4),
        s2=0.5 * (1.0 - e4),
        s1sq=0.25 * shrink * shrink,
    )


def transmission(E: float, system: BarrierSystem) -> complex:
    """Transmission amplitude T.

    Parameters
    ----------
    E : float
        Total energy of the incident particle.
    system : BarrierSystem
        Barrier arrangement; must put E in the evanescent regime.

    Returns
    -------
    complex
        T in the convention T = |T| e^{i[phi_t - k(2a+l)]}.
    """
    return scattering_solution(E, system).T


def reflection(E: float, system: BarrierSystem) -> complex:
    """Reflection amplitude R; satisfies |T|^2 + |R|^2 = 1."""
    return scattering_solution(E, system).R


def transmission_phase(E: float, system: BarrierSystem) -> float:
    """Transmission phase phi_t = kl - atan2(Delta, Gamma), principal branch.

    To continue it along a sequence of points, pass the principal values
    to `numerics.continue_branch`.
    """
    return scattering_solution(E, system).phi_t


def scattering_solution(E: float, system: BarrierSystem) -> ScatteringSolution:
    """Amplitudes, probabilities and phase in one evaluation."""
    rec = _prepare(E, system.V0, system.a, system.l, system.mass)
    return ScatteringSolution(
        T=complex(rec.T),
        R=complex(rec.R),
        phi_t=float(rec.phi_t),
        magR2=float(rec.magR2),   # before magT2, which it sets on the way
        magT2=float(rec.magT2),
    )


def region_coefficients(E: float, system: BarrierSystem) -> RegionCoefficients:
    """Closed-form coefficients of all five regions.

    The gap coefficients follow from the transmitted wave,

        C = [cosh(qa) + i ((1-alpha^2)/2alpha) sinh(qa)] e^{ika} T,
        D = -i ((1+alpha^2)/2alpha) sinh(qa) e^{ik(3a+2l)} T,

    and A, B, F, G then come from spinor continuity at z = 0 and z = a+l.
    Internally each is assembled from O(1) rescaled pieces so the result
    is accurate at any qa; B and G underflow to zero once their true
    magnitude drops below the subnormal range, and F, which grows like
    e^{ql}, overflows to infinity once ql exceeds about 709.  The 0-d view
    of `_coefficient_fields`.
    """
    rec = _prepare(E, system.V0, system.a, system.l, system.mass)
    return RegionCoefficients(*map(complex, _coefficient_fields(rec).values()))


def _coefficient_fields(rec: _ClosedForm) -> dict:
    """A, B, C, D, F, G, T and R of the record, complex128, in `RegionCoefficients` order.

    From c_hat, d_hat and U, the phases e^{ika} (of the ka that U reads) and
    e^{ikl} (of the record's extended-precision sin kl and cos kl), and
    e^{-qa} = sqrt(e^{-2qa}) and e^{ql} in extended precision:

        A = (1/2) [(1 - i alpha) c_hat e^{2ika} + (1 + i alpha) d_hat e^{2ik(a+l)}] U,
        B = (1/2) [(1 + i alpha) c_hat e^{2ika} + (1 - i alpha) d_hat e^{2ik(a+l)}] T,
        C = c_hat e^{ika} e^{-qa} U,         D = d_hat e^{2ik(a+l)} e^{ika} e^{-qa} U,
        F = (1/2) (1 - i alpha) e^{ik(2a+l)} e^{ql} U,
        G = (1/2) (1 + i alpha) e^{ik(2a+l)} e^{-q(4a+l)} U.
    """
    R, T, u, c_hat = rec.R, rec.T, rec.u, rec.c_hat
    half_i_al = 0.5j * np.float64(rec.alpha)
    plus, minus = half_i_al + 0.5, 0.5 - half_i_al     # (1 +- i alpha) / 2
    eika = np.exp(1.0j * np.float64(rec.k * rec.a))
    eikl = 1.0j * np.float64(rec.sin_kl) + np.float64(rec.cos_kl)
    e2ika = eika * eika
    eikw = e2ika * eikl
    c_phase = c_hat * e2ika
    d_phase = rec.d_hat * (eikw * eikl)
    gap = eika * u * np.float64(np.sqrt(rec.hyp.e2))
    wave = eikw * u
    eql = np.exp(rec.q * rec.l)
    return {
        "A": (minus * c_phase + plus * d_phase) * u,
        "B": (plus * c_phase + minus * d_phase) * T,
        "C": c_hat * gap,
        "D": d_phase * gap,
        "F": minus * wave * np.float64(eql),
        "G": plus * wave * np.float64(rec.hyp.e4 / eql),
        "T": T,
        "R": R,
    }


def bulk_amplitudes(E, V0, a, l, mass=1.0) -> dict[str, np.ndarray]:
    """Vectorized amplitudes over broadcastable parameter arrays.

    Parameters
    ----------
    E, V0, a, l : array_like
        Energies and barrier parameters, broadcastable to a common shape.
        Every point must lie in the evanescent regime.  The inputs are not
        broadcast up front: each intermediate is evaluated on the shape of
        the inputs it depends on (k on E, the hyperbolics on E, V0, a), so
        a width or separation sweep pays the trig or the exponentials once.
        Grids of 2^14 points or more run in blocks on every core, with the
        same results.
    mass : float, optional
        Common rest mass.

    Returns
    -------
    dict of ndarray
        Keys k, q, alpha, T, R, phi_t, magT2, magR2, each of the full
        broadcast shape.  ``phi_t`` holds the principal branch per point;
        branch continuation along an ordered sweep is the caller's job.

    Raises
    ------
    ValueError
        At the first non-finite input or negative width, or as
        RegimeError at the first grid point outside the evanescent window.
    """
    return _bulk(_amplitude_fields, E, V0, a, l, mass)


def _amplitude_fields(rec: _ClosedForm) -> dict:
    magR2 = rec.magR2.astype(float)   # first: it sets |T|^2 on the way
    return {
        "k": rec.k.astype(float),
        "q": rec.q.astype(float),
        "alpha": rec.alpha.astype(float),
        "T": rec.T,
        "R": rec.R,
        "phi_t": rec.phi_t.astype(float),
        "magT2": rec.magT2.astype(float),
        "magR2": magR2,
    }
