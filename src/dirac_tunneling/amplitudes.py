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
to double only at the API boundary.  This keeps |T|^2 + |R|^2 - 1 at the
1e-15 level even for points drawn arbitrarily close to a resonance;
plain double would lose up to five digits there.

Phases computed by atan2 are defined modulo pi.  Single-point calls return
the principal branch; a caller stepping through points one at a time can
thread a PhaseTracker through `transmission_phase` / `scattering_solution`,
and `scenarios.run_sweep` unwraps the whole bulk phase array with
`numerics.continue_branch`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .kinematics import BarrierSystem, _validate
from .numerics import PhaseTracker

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
    """(k, q, alpha) in extended precision; the regime must already be valid."""
    El = np.asarray(E, dtype=_LD)
    Vl = np.asarray(V0, dtype=_LD)
    ml = np.asarray(mass, dtype=_LD)
    k = np.sqrt((El - ml) * (El + ml))
    diff = El - Vl
    q = np.sqrt((ml - diff) * (ml + diff))
    alpha = (k / q) * (diff + ml) / (El + ml)
    return k, q, alpha


class _Hyperbolics(NamedTuple):
    """Hyperbolic factors of qa with the e^{2qa} growth divided out."""

    e2: np.ndarray        # e^{-2qa}
    e4: np.ndarray        # e^{-4qa}
    c2: np.ndarray        # cosh(2qa) e^{-2qa}
    s2: np.ndarray        # sinh(2qa) e^{-2qa}
    s1sq: np.ndarray      # sinh^2(qa) e^{-2qa}
    c1sq: np.ndarray      # cosh^2(qa) e^{-2qa}
    s4: np.ndarray        # sinh(4qa) e^{-4qa}


class _computed_once(cached_property):
    """cached_property without the lock it takes per first use before Python 3.12."""

    def __get__(self, obj, owner=None):
        obj.__dict__[self.attrname] = value = self.func(obj)
        return value


class _PhaseParts:
    """Rescaled numerator/denominator pair of the phase, and the trig of kl once each."""

    def __init__(self, gam, dlt, kl, hyp, sin_kl, sin_2kl):
        self.gam, self.dlt = gam, dlt     # Gamma e^{-2qa}, Delta e^{-2qa}
        self.kl, self.hyp, self.sin_kl, self.sin_2kl = kl, hyp, sin_kl, sin_2kl

    # On first use only: the NR phase reads neither cosine, the phase time only cos 2kl.
    @_computed_once
    def cos_kl(self):
        return np.cos(self.kl)

    @_computed_once
    def cos_2kl(self):
        return np.cos(2.0 * self.kl)


def _prepare(E, V0, a, l, mass):
    """Validate, then (k, q, alpha, phase parts): the one entry to the closed forms."""
    _validate(E, V0, a, l, mass)
    k, q, alpha = _extended_kinematics(E, V0, mass)
    return k, q, alpha, _phase_parts(k, q, alpha, a, l)


def _full_shape(x, like):
    """Array or numpy scalar ``x`` as a fresh array shaped like ``like`` (itself if it is)."""
    return x if x.shape == like.shape else np.broadcast_to(x, like.shape).copy()


def _hyperbolics(q, a) -> _Hyperbolics:
    x = np.multiply(q, a)
    e2 = np.exp(-2.0 * x)
    e4 = e2 * e2
    shrink = 1.0 - e2
    grow = 1.0 + e2
    return _Hyperbolics(
        e2=e2,
        e4=e4,
        c2=0.5 * (1.0 + e4),
        s2=0.5 * (1.0 - e4),
        s1sq=0.25 * shrink * shrink,
        c1sq=0.25 * grow * grow,
        s4=0.5 * (1.0 - e4 * e4),
    )


def _phase_parts(k, q, alpha, a, l) -> _PhaseParts:
    hyp = _hyperbolics(q, a)
    kl = np.multiply(k, l)
    al2 = np.square(alpha)
    one = 1.0 + al2
    sin_kl = np.sin(kl)
    sin_2kl = np.sin(2.0 * kl)
    gam = 8.0 * al2 * hyp.c2 - 4.0 * one * one * sin_kl * sin_kl * hyp.s1sq
    dlt = 4.0 * alpha * (1.0 - al2) * hyp.s2 + 2.0 * one * one * sin_2kl * hyp.s1sq
    return _PhaseParts(gam, dlt, kl, hyp, sin_kl, sin_2kl)


def _scaled_transmission(k, alpha, a, parts: _PhaseParts):
    """U = e^{2qa} T, an O(1) complex128 quantity.

    Gamma and Delta are rounded to double here; their extended-precision
    values are accurate to ~1e-18 relative, so the rounding costs one ulp
    even where the doubles-only evaluation would lose digits.
    """
    al2 = np.asarray(np.square(alpha), dtype=float)
    gam = np.asarray(parts.gam, dtype=float)
    dlt = np.asarray(parts.dlt, dtype=float)
    ka = np.asarray(np.multiply(k, a), dtype=float)
    return 8.0 * al2 * np.exp(-2.0j * ka) / (gam + 1.0j * dlt)


def _abs_u2(alpha, parts: _PhaseParts):
    """|U|^2 = e^{4qa} |T|^2 in extended precision."""
    return 64.0 * alpha**4 / (parts.gam**2 + parts.dlt**2)


def _reflection_ratio(alpha, parts: _PhaseParts):
    """beta e^{-2qa}, the real ratio with R = beta_hat e^{i[k(2a+l)-pi/2]} U."""
    al2 = np.square(alpha)
    hyp = parts.hyp
    return ((1.0 + al2) / alpha) * (
        0.5 * parts.cos_kl * hyp.s2
        + ((1.0 - al2) / (2.0 * alpha)) * parts.sin_kl * hyp.s1sq
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
    k, q, al, parts = _prepare(E, system.V0, system.a, system.l, system.mass)
    u = _scaled_transmission(k, al, system.a, parts)
    beta_hat = _reflection_ratio(al, parts)
    abs_u2 = _abs_u2(al, parts)
    phi = float(parts.kl - np.arctan2(parts.dlt, parts.gam))
    if branch_state is not None:
        phi = branch_state.update(phi)
    return ScatteringSolution(
        T=complex(float(parts.hyp.e2) * u),
        R=complex(
            -1.0j * float(beta_hat) * cmath.exp(1.0j * float(k) * system.span) * u
        ),
        phi_t=phi,
        magT2=float(parts.hyp.e4 * abs_u2),
        magR2=float(beta_hat**2 * abs_u2),
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
    k_l, q_l, al_l, parts = _prepare(E, system.V0, a, l, system.mass)
    u = complex(_scaled_transmission(k_l, al_l, a, parts))
    beta_hat = float(_reflection_ratio(al_l, parts))
    k, q, al = float(k_l), float(q_l), float(al_l)
    e2 = float(parts.hyp.e2)          # e^{-2qa}
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
        T=e2 * u,
        R=-1.0j * beta_hat * eikw * u,
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
    E, V0, a, l = (np.asarray(x, dtype=float) for x in (E, V0, a, l))
    k, q, alpha, parts = _prepare(E, V0, a, l, mass)
    u = _scaled_transmission(k, alpha, a, parts)
    beta_hat = _reflection_ratio(alpha, parts)
    abs_u2 = _abs_u2(alpha, parts)
    beta_d = beta_hat.astype(float)
    k_d = k.astype(float)
    span = 2.0 * a + l
    return {
        "k": _full_shape(k_d, u),
        "q": _full_shape(q.astype(float), u),
        "alpha": _full_shape(alpha.astype(float), u),
        "T": parts.hyp.e2.astype(float) * u,
        "R": -1.0j * beta_d * np.exp(1.0j * k_d * span) * u,
        "phi_t": (parts.kl - np.arctan2(parts.dlt, parts.gam)).astype(float),
        "magT2": (parts.hyp.e4 * abs_u2).astype(float),
        "magR2": (beta_hat**2 * abs_u2).astype(float),
    }
