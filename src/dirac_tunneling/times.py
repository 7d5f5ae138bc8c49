"""Tunneling time scales of the double-barrier system.

Three times characterize the traversal:

* phase time tau_p: energy derivative of the transmission phase,
  evaluated here from a closed expression rather than numerically;
* self-interference delay tau_i: the contribution of the standing-wave
  pattern in front of the potential, tau_i = -(m/k^2) Im R;
* dwell time tau_d: mean time spent in 0 < z < 2a+l, related to the
  others by tau_d = tau_p - tau_i for a symmetric real potential.

The closed phase-time expression has the shape

    tau_p = l E / k - h1 / (k^2 q^2 (Gamma^2 + Delta^2)),

with h1 = Delta*B_Delta + Gamma*B_Gamma a combination of the same
Gamma/Delta pair that builds the transmission phase.  tau_i likewise has
an explicit form (1+alpha^2)/(4 alpha^3) * (m/k^2) * h2/h3.  Both are
evaluated with the e^{2qa} growth divided out (see `amplitudes`), making
them usable at arbitrarily large qa, which is exactly where the saturated
(Hartman) regime lives: as qa grows, tau_p, tau_d and tau_i become
independent of both the barrier width a and the separation l.

tau_i is always computed two ways, from Im R and from the h2/h3 form; a
disagreement beyond 1e-8 signals an implementation defect and raises
ConsistencyError rather than returning either value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import (
    _abs_u2,
    _full_shape,
    _phase_parts,
    _PhaseParts,
    _prepare,
    _reflection_ratio,
    _scaled_transmission,
)
from .kinematics import BarrierSystem, kinematic_point

__all__ = [
    "AppendixTerms",
    "ConsistencyError",
    "TimeReport",
    "appendix_terms",
    "dwell_time",
    "free_transit_time",
    "light_transit_time",
    "nonrelativistic_times",
    "opaque_limit_times",
    "phase_time_closed",
    "self_interference_delay",
    "time_report",
]

# Dual-form agreement threshold for tau_i; violations are defects.
_CONSISTENCY_TOL = 1e-8


class ConsistencyError(RuntimeError):
    """The two independent tau_i forms disagreed beyond tolerance."""


@dataclass(frozen=True)
class TimeReport:
    """The three tunneling times plus reference transit times.

    ``t_free`` is the free-particle crossing time of the span 2a+l at
    group velocity k/E; ``t_light`` the light crossing time (c = 1).
    ``tau_d`` always equals ``tau_p - tau_i`` bit-exactly.
    """

    tau_p: float
    tau_i: float
    tau_d: float
    t_free: float
    t_light: float

    @classmethod
    def from_split(cls, tau_p: float, tau_i: float, t_free: float, t_light: float) -> "TimeReport":
        tau_p = float(tau_p)
        tau_i = float(tau_i)
        return cls(
            tau_p=tau_p,
            tau_i=tau_i,
            tau_d=tau_p - tau_i,
            t_free=float(t_free),
            t_light=float(t_light),
        )


@dataclass(frozen=True)
class AppendixTerms:
    """Intermediate quantities of the closed time expressions.

    All values carry the overflow-safe rescaling: Gamma and Delta are the
    phase numerator/denominator times e^{-2qa}, and h1, h2, h3 carry
    e^{-4qa}.  The rescaling cancels in every ratio these terms enter, and
    the sign/positivity invariants (Gamma^2 + Delta^2 > 0, h3 > 0) are
    unaffected.
    """

    Gamma: float
    Delta: float
    h1: float
    h2: float
    h3: float


def _brace_terms(E, V0, mass, k, q, alpha, a, parts: _PhaseParts):
    """Rescaled braces (B_Delta, B_Gamma) of the phase-time expression."""
    hyp = parts.hyp
    al2 = np.square(alpha)
    P = 1.0 + al2
    kl2 = 2.0 * parts.kl
    s2l = parts.sin_2kl
    c2l = parts.cos_2kl
    ksq = np.square(k)
    qsq = np.square(q)
    ksum = ksq + qsq
    two_qa = 2.0 * np.multiply(q, a)
    # The terms linear in 2qa cancel against each other in h1 as qa -> inf;
    # with all hyperbolics O(1) the cancellation costs no precision.
    b_delta = (
        2.0 * P * (P * E * qsq * kl2 * s2l - 4.0 * al2 * mass * ksum * c2l) * hyp.s1sq
        - 4.0 * al2 * mass * ksum * (P * hyp.e2 + (3.0 - al2) * hyp.c2)
        + ksq * two_qa * (E - V0) * (P * P * c2l - (1.0 - 6.0 * al2 + al2 * al2)) * hyp.s2
    )
    b_gamma = (
        -4.0 * alpha * (1.0 - al2) * ksq * two_qa * (E - V0) * hyp.c2
        + 2.0 * P * (P * E * qsq * kl2 * c2l + 4.0 * al2 * mass * ksum * s2l) * hyp.s1sq
        + (4.0 * alpha * (1.0 - 3.0 * al2) * mass * ksum - P * P * ksq * two_qa * (E - V0) * s2l)
        * hyp.s2
    )
    return b_delta, b_gamma


def _h2_h3(alpha, parts: _PhaseParts):
    """Rescaled (h2, h3) of the closed self-interference form."""
    hyp = parts.hyp
    al2 = np.square(alpha)
    al4 = al2 * al2
    s_kl = parts.sin_kl
    c_kl = parts.cos_kl
    s2l = parts.sin_2kl
    c2l = parts.cos_2kl
    h2 = (
        0.5 * alpha * (1.0 - al2) * s2l * hyp.s2 * hyp.s2
        + al2 * c_kl * c_kl * hyp.s4
        + alpha * (1.0 - al2) * s2l * hyp.s1sq * hyp.c2
        + (1.0 - al2) ** 2 * s_kl * s_kl * hyp.s1sq * hyp.s2
    )
    h3 = (1.0 / (8.0 * al4)) * (
        8.0 * al4 * hyp.c1sq * hyp.c1sq
        + (1.0 + 6.0 * al4 + al4 * al4 - (1.0 - al4) ** 2 * c2l) * hyp.s1sq * hyp.s1sq
        + al2 * ((1.0 - al2) ** 2 + (1.0 + al2) ** 2 * c2l) * hyp.s2 * hyp.s2
        + 2.0 * alpha * (1.0 - al2) * (1.0 + al2) ** 2 * s2l * hyp.s1sq * hyp.s2
    )
    return h2, h3


def _tau_p_from(E, V0, mass, k, q, alpha, a, l, parts: _PhaseParts):
    b_delta, b_gamma = _brace_terms(E, V0, mass, k, q, alpha, a, parts)
    h1 = parts.dlt * b_delta + parts.gam * b_gamma
    denom = np.square(k) * np.square(q) * (parts.gam**2 + parts.dlt**2)
    return np.multiply(l, E) / k - h1 / denom


def phase_time_closed(E: float, system: BarrierSystem) -> float:
    """Phase time from the closed expression.

    Agrees with the numeric derivative of the transmission phase to the
    differentiation accuracy, but stays exact in the opaque regime where
    finite differences lose the signal.
    """
    k, q, al, parts = _prepare(E, system.V0, system.a, system.l, system.mass)
    return float(
        _tau_p_from(E, system.V0, system.mass, k, q, al, system.a, system.l, parts)
    )


def appendix_terms(E: float, system: BarrierSystem) -> AppendixTerms:
    """The rescaled (Gamma, Delta, h1, h2, h3) at one parameter point."""
    k, q, al, parts = _prepare(E, system.V0, system.a, system.l, system.mass)
    b_delta, b_gamma = _brace_terms(
        E, system.V0, system.mass, k, q, al, system.a, parts
    )
    h2, h3 = _h2_h3(al, parts)
    return AppendixTerms(
        Gamma=float(parts.gam),
        Delta=float(parts.dlt),
        h1=float(parts.dlt * b_delta + parts.gam * b_gamma),
        h2=float(h2),
        h3=float(h3),
    )


def _tau_i_dual(E, V0, a, l, mass, k, alpha, span, parts: _PhaseParts):
    """Both tau_i forms with the built-in agreement check.

    On failure the message names the worst point: its flat index in the
    full broadcast shape (for array input) and its (E, V0, a, l).
    """
    u = _scaled_transmission(k, alpha, a, parts)
    beta_d = np.asarray(_reflection_ratio(alpha, parts), dtype=float)
    k_d = np.asarray(k, dtype=float)
    im_r = np.imag(-1.0j * beta_d * np.exp(1.0j * k_d * span) * u)
    from_r = -(mass / np.square(k_d)) * im_r
    h2, h3 = _h2_h3(alpha, parts)
    al2 = np.square(alpha)
    from_h = np.asarray(
        (mass / np.square(k)) * ((1.0 + al2) / (4.0 * al2 * alpha)) * h2 / h3,
        dtype=float,
    )
    deviation = np.abs(from_r - from_h)
    scale = np.maximum(np.maximum(np.abs(from_r), np.abs(from_h)), mass / np.square(k_d))
    bad = deviation > _CONSISTENCY_TOL * scale
    if np.any(bad):
        ratio = deviation / scale
        i = int(np.argmax(ratio))
        e, v, w, s = (float(np.broadcast_to(x, ratio.shape).flat[i]) for x in (E, V0, a, l))
        where = "" if ratio.ndim == 0 else f" at grid index {i}"
        raise ConsistencyError(
            f"self-interference delay dual forms disagree (relative {ratio.flat[i]:.3e})"
            f"{where}: E={e!r}, V0={v!r}, a={w!r}, l={s!r}"
        )
    return from_r


def self_interference_delay(E: float, system: BarrierSystem) -> float:
    """Self-interference delay tau_i = -(m/k^2) Im R.

    The value is cross-checked against the independent closed h2/h3 form
    at every call; the Im R value is returned.  Vanishes at resonances
    (R = 0) and for a = 0.
    """
    return time_report(E, system).tau_i


def dwell_time(E: float, system: BarrierSystem) -> float:
    """Dwell time tau_d = tau_p - tau_i; positive in the evanescent regime."""
    return time_report(E, system).tau_d


def free_transit_time(E: float, system: BarrierSystem) -> float:
    """Crossing time of the span at the free group velocity k/E."""
    return system.span * E / kinematic_point(E, system).k


def light_transit_time(system: BarrierSystem) -> float:
    """Light crossing time of the span (c = 1)."""
    return system.span


def time_report(E: float, system: BarrierSystem) -> TimeReport:
    """All time scales at one parameter point."""
    k, q, al, parts = _prepare(E, system.V0, system.a, system.l, system.mass)
    tau_p = _tau_p_from(E, system.V0, system.mass, k, q, al, system.a, system.l, parts)
    tau_i = _tau_i_dual(E, system.V0, system.a, system.l, system.mass, k, al, system.span, parts)
    return TimeReport.from_split(
        tau_p=tau_p,
        tau_i=tau_i,
        t_free=system.span * E / float(k),
        t_light=system.span,
    )


def opaque_limit_times(E: float, system: BarrierSystem) -> TimeReport:
    """Saturated times of the opaque regime qa >> 1.

    With pref = 2 alpha / (1 + alpha^2):

        tau_i -> pref m / k^2,
        tau_d -> pref m / q^2,
        tau_p = tau_d + tau_i = pref m (k^2 + q^2) / (k^2 q^2),

    independent of both a and l: the generalized Hartman effect.
    """
    kp = kinematic_point(E, system)
    pref = 2.0 * kp.alpha / (1.0 + kp.alpha**2)
    tau_i = pref * system.mass / kp.k**2
    tau_d = pref * system.mass / kp.q**2
    return TimeReport.from_split(
        tau_p=tau_d + tau_i,
        tau_i=tau_i,
        t_free=system.span * E / kp.k,
        t_light=system.span,
    )


class _NRWindowError(ValueError):
    """A point outside the nonrelativistic window.

    ``index`` is its flat grid index for array input (None for a scalar).
    """

    def __init__(self, detail: str, index: int | None):
        super().__init__(
            "nonrelativistic window requires 0 < E_kin < V0 (including the derivative "
            f"stencil) and finite widths a, l >= 0 ({detail})"
        )
        self.index = index


def _nr_kinematics(E_kin, V0, mass):
    Ek = np.asarray(E_kin, dtype=np.longdouble)
    Vl = np.asarray(V0, dtype=np.longdouble)
    ml = np.asarray(mass, dtype=np.longdouble)
    k = np.sqrt(2.0 * ml * Ek)
    q = np.sqrt(2.0 * ml * (Vl - Ek))
    return k, q, k / q


def _nr_phase(E_kin, V0, a, l, mass):
    """Schroedinger-limit transmission phase, same structural formula."""
    k, q, alpha = _nr_kinematics(E_kin, V0, mass)
    parts = _phase_parts(k, q, alpha, a, l)
    return parts.kl - np.arctan2(parts.dlt, parts.gam)


def nonrelativistic_times(E_kin: float, system: BarrierSystem) -> TimeReport:
    """Time scales in the Schroedinger limit at kinetic energy E_kin.

    Uses k = sqrt(2 m E_kin), q = sqrt(2 m (V0 - E_kin)) and alpha = k/q
    in the same phase and amplitude structure as the relativistic case.
    The phase time is the Richardson derivative of the vectorized sweep
    path (relative step 1e-6 in E_kin); tau_i again equals -(m/k^2) Im R.
    ``t_free`` uses the nonrelativistic velocity k/m.
    """
    tau_p = _bulk_nr_phase_time(E_kin, system.V0, system.a, system.l, system.mass)
    k, q, alpha = _nr_kinematics(E_kin, system.V0, system.mass)
    parts = _phase_parts(k, q, alpha, system.a, system.l)
    u = _scaled_transmission(k, alpha, system.a, parts)
    beta_d = float(_reflection_ratio(alpha, parts))
    k_d = float(k)
    im_r = np.imag(-1.0j * beta_d * np.exp(1.0j * k_d * system.span) * u)
    tau_i = -(system.mass / k_d**2) * im_r
    return TimeReport.from_split(
        tau_p=tau_p,
        tau_i=tau_i,
        t_free=system.span * system.mass / k_d,
        t_light=system.span,
    )


def _bulk_nr_phase_time(E_kin, V0, a, l, mass=1.0) -> np.ndarray:
    """Vectorized NR phase time; the stencil is a new leading axis of the un-broadcast E_kin."""
    E_kin, V0, a, l = (np.asarray(x, dtype=float) for x in (E_kin, V0, a, l))
    E_kin = E_kin[(np.newaxis,) * (max(V0.ndim, a.ndim, l.ndim) - E_kin.ndim)]
    h = 1e-6 * E_kin
    ok = (
        (E_kin - h > 0.0) & (E_kin + h < V0)
        & (0.0 <= a) & (a < math.inf) & (0.0 <= l) & (l < math.inf)
    )
    if not np.all(ok):
        i = None if ok.ndim == 0 else int(np.flatnonzero(~ok)[0])
        e, v, w, s = (float(np.broadcast_to(x, ok.shape).flat[i or 0]) for x in (E_kin, V0, a, l))
        where = "" if i is None else f"grid index {i}: "
        raise _NRWindowError(f"{where}E_kin={e!r}, V0={v!r}, a={w!r}, l={s!r}", i)
    stencil = np.stack([E_kin - h, E_kin - 0.5 * h, E_kin + 0.5 * h, E_kin + h])
    phases = np.unwrap(_nr_phase(stencil, V0, a, l, mass), period=math.pi, axis=0)
    coarse = (phases[3] - phases[0]) / (2.0 * h)
    fine = (phases[2] - phases[1]) / h
    return ((4.0 * fine - coarse) / 3.0).astype(float)


def _bulk_times(E, V0, a, l, mass=1.0) -> dict[str, np.ndarray]:
    """Vectorized time scales over broadcastable parameter arrays.

    Returns arrays tau_p, tau_i, tau_d, t_free, t_light, magT2 and the
    principal-branch phi_t (branch continuation is the caller's job), each
    of the full broadcast shape.  As in `bulk_amplitudes`, intermediates
    are evaluated on the shape of the inputs they depend on.
    """
    E, V0, a, l = (np.asarray(x, dtype=float) for x in (E, V0, a, l))
    k, q, alpha, parts = _prepare(E, V0, a, l, mass)
    span = 2.0 * a + l
    tau_p = np.asarray(_tau_p_from(E, V0, mass, k, q, alpha, a, l, parts), dtype=float)
    tau_i = np.asarray(_tau_i_dual(E, V0, a, l, mass, k, alpha, span, parts), dtype=float)
    return {
        "tau_p": tau_p,
        "tau_i": tau_i,
        "tau_d": tau_p - tau_i,
        "t_free": (span * E / k).astype(float),
        "t_light": _full_shape(span, tau_p),
        "magT2": (parts.hyp.e4 * _abs_u2(alpha, parts)).astype(float),
        "phi_t": (parts.kl - np.arctan2(parts.dlt, parts.gam)).astype(float),
    }
