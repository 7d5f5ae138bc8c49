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
independent of both the barrier width a and the separation l.  Every
time reads Gamma, Delta, beta and R from the closed-form record of
`amplitudes`; the nonrelativistic times use that record with
Schroedinger kinematics.

The relativistic tau_i is always computed two ways, from Im R and from
the h2/h3 form; a disagreement beyond 1e-8 signals an implementation
defect and raises ConsistencyError rather than returning either value.
h2 and h3 are evaluated in factored form through the same rescaled
beta, Gamma and Delta that build R (their expanded sums cancel at opaque
near-resonance points), so the check guards the complex assembly of R --
the -i, the e^{ik(2a+l)} phase and complex128 rounding -- against a
real-arithmetic form, not the algebra of beta, Gamma and Delta.  The
oracle (transfer matrix and dwell quadrature) is the independent check
of those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import _bulk, _ClosedForm, _prepare
from .kinematics import BarrierSystem, kinematic_point
from .numerics import phase_derivative

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


def _h1(rec: _ClosedForm):
    """Rescaled h1 = Delta B_Delta + Gamma B_Gamma, from the braces B of the phase time."""
    E, V0, mass, k, q, alpha, hyp = rec.E, rec.V0, rec.mass, rec.k, rec.q, rec.alpha, rec.hyp
    al2 = alpha * alpha
    P = 1.0 + al2
    kl2 = 2.0 * rec.kl
    s2l = rec.sin_2kl
    c2l = rec.cos_2kl
    ksq = k * k
    qsq = q * q
    ksum = ksq + qsq
    two_qa = 2.0 * (q * rec.a)
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
    return rec.dlt * b_delta + rec.gam * b_gamma


def _h2_h3(alpha, parts: _ClosedForm):
    """Rescaled (h2, h3) of the closed self-interference form, factored through beta_hat.

    h3 = (Gamma^2 + Delta^2) / (64 alpha^4) and
    h2 = alpha / (2 (1 + alpha^2)) * beta_hat * (Gamma cos kl + Delta sin kl).
    The expanded sums these factor cancel to ~1e-13 of their terms at opaque
    near-resonance points, which cost 1e-8 of relative accuracy there.
    """
    al2 = alpha * alpha
    h2 = (alpha / (2.0 * (1.0 + al2)) * parts.beta_hat
          * (parts.gam * parts.cos_kl + parts.dlt * parts.sin_kl))
    h3 = (parts.gam**2 + parts.dlt**2) / (64.0 * al2 * al2)
    return h2, h3


def _tau_p(rec: _ClosedForm):
    denom = (rec.k * rec.k) * (rec.q * rec.q) * (rec.gam**2 + rec.dlt**2)
    return rec.l * rec.E / rec.k - _h1(rec) / denom


def phase_time_closed(E: float, system: BarrierSystem) -> float:
    """Phase time from the closed expression.

    Agrees with the numeric derivative of the transmission phase to the
    differentiation accuracy, but stays exact in the opaque regime where
    finite differences lose the signal.
    """
    return float(_tau_p(_prepare(E, system.V0, system.a, system.l, system.mass)))


def appendix_terms(E: float, system: BarrierSystem) -> AppendixTerms:
    """The rescaled (Gamma, Delta, h1, h2, h3) at one parameter point."""
    rec = _prepare(E, system.V0, system.a, system.l, system.mass)
    h2, h3 = _h2_h3(rec.alpha, rec)
    return AppendixTerms(
        Gamma=float(rec.gam),
        Delta=float(rec.dlt),
        h1=float(_h1(rec)),
        h2=float(h2),
        h3=float(h3),
    )


def _tau_i_forms(rec: _ClosedForm):
    """tau_i from Im R and from the h2/h3 form, and the unit m/k^2 of their agreement check."""
    mass, k, alpha = rec.mass, rec.k, rec.alpha
    k_d = np.float64(k)
    unit = mass / (k_d * k_d)
    from_r = -unit * rec.R.imag
    h2, h3 = _h2_h3(alpha, rec)
    al2 = alpha * alpha
    from_h = np.float64((mass / (k * k)) * ((1.0 + al2) / (4.0 * al2 * alpha)) * h2 / h3)
    return from_r, from_h, unit


def _check_tau_i(E, V0, a, l, from_r, from_h, unit):
    """The agreement check of the two tau_i forms at (E, V0, a, l); returns the Im R form.

    On failure the message names the worst point: its flat index in the
    full broadcast shape (for array input) and its (E, V0, a, l).
    """
    deviation = abs(from_r - from_h)
    # deviation > tol * max(|from_r|, |from_h|, unit), bit for bit, with no ufunc call on a scalar
    bad = ((deviation > _CONSISTENCY_TOL * abs(from_r))
           & (deviation > _CONSISTENCY_TOL * abs(from_h)) & (deviation > _CONSISTENCY_TOL * unit))
    if np.count_nonzero(bad):
        ratio = deviation / np.maximum(np.maximum(abs(from_r), abs(from_h)), unit)
        i = int(np.argmax(ratio))
        e, v, w, s = (float(np.broadcast_to(x, ratio.shape).flat[i]) for x in (E, V0, a, l))
        where = "" if ratio.ndim == 0 else f" at grid index {i}"
        raise ConsistencyError(
            f"self-interference delay dual forms disagree (relative {ratio.flat[i]:.3e})"
            f"{where}: E={e!r}, V0={v!r}, a={w!r}, l={s!r}"
        )
    return from_r


def _tau_i_dual(rec: _ClosedForm):
    """Both tau_i forms with the built-in agreement check; returns the Im R form."""
    return _check_tau_i(rec.E, rec.V0, rec.a, rec.l, *_tau_i_forms(rec))


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
    """Crossing time of the span at the free group velocity k/E; ``time_report``'s ``t_free``."""
    return system.span * E / float(_prepare(E, system.V0, system.a, system.l, system.mass).k)


def light_transit_time(system: BarrierSystem) -> float:
    """Light crossing time of the span (c = 1)."""
    return system.span


def time_report(E: float, system: BarrierSystem) -> TimeReport:
    """All time scales at one parameter point."""
    rec = _prepare(E, system.V0, system.a, system.l, system.mass)
    return TimeReport.from_split(
        tau_p=_tau_p(rec),
        tau_i=_tau_i_dual(rec),
        t_free=system.span * E / float(rec.k),
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
        t_free=free_transit_time(E, system),
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
    Ek = np.asarray(E_kin, dtype=np.longdouble)[()]
    Vl = np.asarray(V0, dtype=np.longdouble)[()]
    ml = np.asarray(mass, dtype=np.longdouble)[()]
    k = np.sqrt(2.0 * ml * Ek)
    q = np.sqrt(2.0 * ml * (Vl - Ek))
    return k, q, k / q


def _nr_record(E_kin, V0, a, l, mass) -> _ClosedForm:
    """The closed-form record with Schroedinger-limit kinematics: same structural formulas."""
    return _ClosedForm(E_kin, V0, a, l, mass, *_nr_kinematics(E_kin, V0, mass))


def nonrelativistic_times(E_kin: float, system: BarrierSystem) -> TimeReport:
    """Time scales in the Schroedinger limit at kinetic energy E_kin.

    Uses k = sqrt(2 m E_kin), q = sqrt(2 m (V0 - E_kin)) and alpha = k/q
    in the same phase and amplitude structure as the relativistic case.
    The phase time is the Richardson derivative of the vectorized sweep
    path (relative step 1e-6 in E_kin); tau_i again equals -(m/k^2) Im R.
    ``t_free`` uses the nonrelativistic velocity k/m.
    """
    tau_p = _bulk_nr_phase_time(E_kin, system.V0, system.a, system.l, system.mass)
    rec = _nr_record(E_kin, system.V0, system.a, system.l, system.mass)
    k_d = float(rec.k)
    return TimeReport.from_split(
        tau_p=tau_p,
        tau_i=-(system.mass / k_d**2) * rec.R.imag,
        t_free=system.span * system.mass / k_d,
        t_light=system.span,
    )


def _bulk_nr_phase_time(E_kin, V0, a, l, mass=1.0) -> np.ndarray:
    """Vectorized NR phase time: `phase_derivative` of phi_t in E_kin, step 1e-6 E_kin.

    The stencil is a new leading axis of the un-broadcast E_kin.  Only the
    phase evaluations go through the block pool; the derivative itself runs
    on the calling thread.
    """
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

    def phi_t(x):
        return _bulk(_nr_phase, x, V0, a, l, mass, _nr_kinematics)["phi_t"]

    return phase_derivative(phi_t, E_kin, h).astype(float)


def _nr_phase(rec: _ClosedForm) -> dict:
    return {"phi_t": rec.phi_t}


def _bulk_times(E, V0, a, l, mass=1.0) -> dict[str, np.ndarray]:
    """Vectorized time scales over broadcastable parameter arrays.

    Returns arrays tau_p, tau_i, tau_d, t_free, t_light, magT2 and the
    principal-branch phi_t (branch continuation is the caller's job), each
    of the full broadcast shape.  As in `bulk_amplitudes`, intermediates
    are evaluated on the shape of the inputs they depend on.
    """
    E, V0, a, l = (np.asarray(x, dtype=float) for x in (E, V0, a, l))
    out = _bulk(_time_fields, E, V0, a, l, mass)
    # Checked once on the whole grid, so a failure names the worst point of all blocks.
    tau_p = out["tau_p"]
    tau_i = _check_tau_i(E, V0, a, l, out["tau_i"], out["from_h"], out["unit"])
    return {
        "tau_p": tau_p,
        "tau_i": tau_i,
        "tau_d": tau_p - tau_i,
        "t_free": out["t_free"],
        "t_light": out["t_light"],
        "magT2": out["magT2"],
        "phi_t": out["phi_t"],
    }


def _time_fields(rec: _ClosedForm) -> dict:
    from_r, from_h, unit = _tau_i_forms(rec)
    return {
        "tau_p": np.asarray(_tau_p(rec), dtype=float),
        "tau_i": np.asarray(from_r, dtype=float),
        "from_h": from_h,
        "unit": unit,
        "t_free": (rec.span * rec.E / rec.k).astype(float),
        "t_light": rec.span,
        "magT2": rec.magT2.astype(float),
        "phi_t": rec.phi_t.astype(float),
    }
