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

so that T = |T| e^{i[phi_t - k(2a+l)]}.

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
the scalar functions, the bulk ones and the times are all views of it.
It calls one sine and one cosine, of kl (sin kl eagerly, cos kl on first
use), and takes sin 2kl and cos 2kl from them by the double-angle
identities in extended precision.
0-d inputs are evaluated as numpy scalars on the same code path as arrays.

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

Phases computed by atan2 are defined modulo pi.  Single-point calls return
the principal branch; a caller stepping through points one at a time can
thread a PhaseTracker through `transmission_phase` / `scattering_solution`,
and `scenarios.run_sweep` continues the whole bulk phase array with
`numerics.continue_branch`, which applies the same rule in one pass.
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .kinematics import BarrierSystem, _validate
from .numerics import PhaseTracker, _LastPoint

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

    ``phi_t`` is the transmission phase in radians (principal branch
    unless a tracker was threaded through), ``magT2`` and ``magR2`` the
    transmission and reflection probabilities.
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


def _extended_kinematics(E, V0, mass):
    """Extended-precision (k, q, alpha) and their energy slopes (k', q', alpha'/alpha).

    Numpy scalars for 0-d input; the regime must be valid.  E - V0 is taken
    in extended precision: alpha'/alpha carries (E - V0)/q^2, which grows
    without bound as q -> 0.
    """
    El = np.asarray(E, dtype=_LD)[()]
    Vl = np.asarray(V0, dtype=_LD)[()]
    ml = np.asarray(mass, dtype=_LD)[()]
    k = np.sqrt((El - ml) * (El + ml))
    diff = El - Vl
    q = np.sqrt((ml - diff) * (ml + diff))
    alpha = (k / q) * (diff + ml) / (El + ml)
    dk = El / k
    dq = -diff / q
    return k, q, alpha, dk, dq, dk / k - dq / q + 1.0 / (diff + ml) - 1.0 / (El + ml)


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


class _ClosedForm:
    """The closed solution at one point or over a grid: every formula, once.

    Eager: the validated inputs (E, V0, a, l, mass), the span 2a + l, the
    extended-precision k, q, alpha and their energy slopes ``dk`` = k',
    ``dq`` = q', ``dlog_alpha`` = alpha'/alpha, ``al2`` = alpha^2,
    ``one_al2`` = 1 + alpha^2, the hyperbolics, kl and sin kl.  Everything
    else is computed on first use: cos kl, then sin 2kl = 2 sin kl cos kl
    and cos 2kl = (cos kl - sin kl)(cos kl + sin kl) from it, the rescaled
    Gamma and Delta (``gam``, ``dlt``), beta_hat and its kl-slope
    ``dbeta_hat``, and the amplitudes, so |R|^2 alone reads neither Gamma,
    Delta nor sin 2kl.  The identities are within a few longdouble ulps,
    absolute, of sinl and cosl at 2kl (at most 1.2 eps against mpmath of
    the same kl up to 8000; sinl and cosl, 0.26 eps), and the rounding of
    kl itself, about ulp(kl), dominates both.  Each quantity keeps the
    shape of its inputs; real ones stay in extended precision, while U, T
    and R are complex128.
    """

    def __init__(self, E, V0, a, l, mass, k, q, alpha, dk, dq, dlog_alpha):
        self.E, self.V0, self.a, self.l, self.mass = E, V0, a, l, mass
        self.k, self.q, self.alpha = k, q, alpha
        self.dk, self.dq, self.dlog_alpha = dk, dq, dlog_alpha
        self.al2 = al2 = alpha * alpha
        self.one_al2 = 1.0 + al2
        self.span = 2.0 * a + l
        self.hyp = _hyperbolics(q, a)
        self.kl = k * l
        self.sin_kl = np.sin(self.kl)

    @_computed_once
    def cos_kl(self):
        return np.cos(self.kl)

    @_computed_once
    def sin_2kl(self):
        return 2.0 * self.sin_kl * self.cos_kl

    @_computed_once
    def cos_2kl(self):
        # The product form keeps the absolute error of cos^2 - sin^2 where cos 2kl -> 0.
        return (self.cos_kl - self.sin_kl) * (self.cos_kl + self.sin_kl)

    @_computed_once
    def gam(self):
        """Gamma e^{-2qa}; sets Delta e^{-2qa} (``dlt``) on the way, as every reader reads both."""
        al2, one, hyp, sin_kl = self.al2, self.one_al2, self.hyp, self.sin_kl
        self.dlt = 4.0 * self.alpha * (1.0 - al2) * hyp.s2 + 2.0 * one * one * self.sin_2kl * hyp.s1sq
        return 8.0 * al2 * hyp.c2 - 4.0 * one * one * sin_kl * sin_kl * hyp.s1sq

    @_computed_once
    def dlt(self):
        self.gam
        return self.dlt

    @_computed_once
    def gd2(self):
        """Gamma^2 + Delta^2, rescaled by e^{-4qa}: the phase time's and h3's denominator."""
        return self.gam**2 + self.dlt**2

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
    def u(self):
        """U = e^{2qa} T, an O(1) complex128 quantity.

        Gamma and Delta are rounded to double here; their extended-precision
        values are accurate to ~1e-18 relative, so the rounding costs one ulp
        even where the doubles-only evaluation would lose digits.
        """
        al2 = np.float64(self.al2)
        gam, dlt = np.float64(self.gam), np.float64(self.dlt)
        ka = np.float64(self.k * self.a)
        return 8.0 * al2 * np.exp(-2.0j * ka) / (gam + 1.0j * dlt)

    @_computed_once
    def T(self):
        return np.float64(self.hyp.e2) * self.u

    @_computed_once
    def R(self):
        beta_d, k_d = np.float64(self.beta_hat), np.float64(self.k)
        return -1.0j * beta_d * np.exp(1.0j * k_d * self.span) * self.u

    @_computed_once
    def phi_t(self):
        """Principal-branch transmission phase kl - atan2(Delta, Gamma)."""
        return self.kl - np.arctan2(self.dlt, self.gam)

    # |T|^2 = 1 / (1 + beta^2) and |R|^2 = beta^2 / (1 + beta^2): they sum to one by construction.
    @_computed_once
    def mag_den(self):
        """e^{-4qa} + beta_hat^2, the one denominator of both; sets ``beta_sq`` on the way."""
        self.beta_sq = self.beta_hat**2
        return self.hyp.e4 + self.beta_sq

    @_computed_once
    def magT2(self):
        return self.hyp.e4 / self.mag_den

    @_computed_once
    def magR2(self):
        den = self.mag_den
        return self.beta_sq / den


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


def transmission_phase(
    E: float,
    system: BarrierSystem,
    branch_state: PhaseTracker | None = None,
) -> float:
    """Transmission phase phi_t = kl - atan2(Delta, Gamma).

    With ``branch_state=None`` the principal branch is returned.  Passing
    a PhaseTracker continues the branch across successive calls so that a
    swept phi_t has no pi jumps; the tracker is owned by one sweep and
    must not be shared.
    """
    return scattering_solution(E, system, branch_state).phi_t


def scattering_solution(
    E: float,
    system: BarrierSystem,
    branch_state: PhaseTracker | None = None,
) -> ScatteringSolution:
    """Amplitudes, probabilities and phase in one evaluation."""
    rec = _prepare(E, system.V0, system.a, system.l, system.mass)
    phi = float(rec.phi_t)
    if branch_state is not None:
        phi = branch_state.update(phi)
    return ScatteringSolution(
        T=complex(rec.T),
        R=complex(rec.R),
        phi_t=phi,
        magT2=float(rec.magT2),
        magR2=float(rec.magR2),
    )


def region_coefficients(E: float, system: BarrierSystem) -> RegionCoefficients:
    """Closed-form coefficients of all five regions.

    The gap coefficients follow from the transmitted wave,

        C = [cosh(qa) + i ((1-alpha^2)/2alpha) sinh(qa)] e^{ika} T,
        D = -i ((1+alpha^2)/2alpha) sinh(qa) e^{ik(3a+2l)} T,

    and A, B, F, G then come from spinor continuity at z = 0 and z = a+l.
    Internally each is assembled from O(1) rescaled pieces so the result
    is accurate at any qa; B and G underflow to zero once their true
    magnitude drops below the subnormal range.
    """
    a, l = system.a, system.l
    rec = _prepare(E, system.V0, a, l, system.mass)
    u = complex(rec.u)
    k, q, al = float(rec.k), float(rec.q), float(rec.alpha)
    e2 = float(rec.hyp.e2)            # e^{-2qa}
    e1 = math.exp(-q * a)             # e^{-qa}
    shrink = 1.0 - e2
    # c_hat = cosh(qa) e^{-qa} + i (...) sinh(qa) e^{-qa}, similarly d_hat
    c_hat = 0.5 * (1.0 + e2) + 0.25j * ((1.0 - al * al) / al) * shrink
    d_hat = -0.25j * ((1.0 + al * al) / al) * shrink
    span = system.span
    eika = cmath.exp(1.0j * k * a)
    e2ika = eika * eika
    e2iks = cmath.exp(2.0j * k * (a + l))
    eikw = cmath.exp(1.0j * k * span)
    plus = 1.0 + 1.0j * al
    minus = 1.0 - 1.0j * al
    return RegionCoefficients(
        A=0.5 * (minus * c_hat * e2ika + plus * d_hat * e2iks) * u,
        B=0.5 * e2 * (plus * c_hat * e2ika + minus * d_hat * e2iks) * u,
        C=c_hat * eika * e1 * u,
        D=d_hat * cmath.exp(1.0j * k * (3.0 * a + 2.0 * l)) * e1 * u,
        F=0.5 * minus * eikw * math.exp(q * l) * u,
        G=0.5 * plus * eikw * math.exp(-q * span) * e2 * u,
        T=complex(rec.T),
        R=complex(rec.R),
    )


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
    return {
        "k": rec.k.astype(float),
        "q": rec.q.astype(float),
        "alpha": rec.alpha.astype(float),
        "T": rec.T,
        "R": rec.R,
        "phi_t": rec.phi_t.astype(float),
        "magT2": rec.magT2.astype(float),
        "magR2": rec.magR2.astype(float),
    }
