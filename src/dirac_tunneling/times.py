"""Tunneling time scales of the double-barrier system.

Three times characterize the traversal:

* phase time tau_p: energy derivative of the transmission phase,
  evaluated here in closed form rather than numerically;
* self-interference delay tau_i: the contribution of the standing-wave
  pattern in front of the potential, tau_i = -(m/k^2) Im R;
* dwell time tau_d: mean time spent in 0 < z < 2a+l, related to the
  others by tau_d = tau_p - tau_i for a symmetric real potential.

The phase time is the exact energy derivative of phi_t = kl - atan2(Delta, Gamma),

    tau_p = l k' - (Gamma Delta' - Delta Gamma') / (Gamma^2 + Delta^2),

with Gamma' and Delta' taken by the chain rule through the slopes k', q'
and alpha'/alpha that the record's kinematics carry.  The same code with
Schroedinger kinematics gives the nonrelativistic phase time.  tau_i has
an explicit form (1+alpha^2)/(4 alpha^3) * (m/k^2) * h2/h3.  Both are
evaluated with the e^{2qa} growth divided out (see `amplitudes`), making
them usable at arbitrarily large qa, which is exactly where the saturated
(Hartman) regime lives: as qa grows, tau_p, tau_d and tau_i become
independent of both the barrier width a and the separation l.  Every
time reads Gamma, Delta, beta and R from the closed-form record of
`amplitudes`; the nonrelativistic times use that record with
Schroedinger kinematics.  R = -i beta e^{ikl} V takes its phase from the
record's sin kl and cos kl, so the times evaluate no complex exponential.

The relativistic tau_i is always computed two ways, from Im R and from
the h2/h3 form; a disagreement beyond 1e-8 signals an implementation
defect and raises ConsistencyError rather than returning either value.
h2 and h3 are evaluated in factored form through the same rescaled
beta, Gamma and Delta that build R (their expanded sums cancel at opaque
near-resonance points), so the check guards the complex assembly of R --
V, the -i, the e^{ikl} phase and complex128 rounding -- against a
real-arithmetic form, not the algebra of beta, Gamma and Delta.  The
oracle (transfer matrix and the exact integral of its density) is the
independent check of those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import amplitudes
from .amplitudes import _bulk, _ClosedForm, _prepare
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
    e^{-4qa}.  h1 = k^2 q^2 (Gamma Delta' - Delta Gamma'), with ' the
    energy derivative at fixed a and l, so that
    tau_p = l E / k - h1 / (k^2 q^2 (Gamma^2 + Delta^2)).  The rescaling
    cancels in every ratio these terms enter, and the sign/positivity
    invariants (Gamma^2 + Delta^2 > 0, h3 > 0) are unaffected.
    """

    Gamma: float
    Delta: float
    h1: float
    h2: float
    h3: float


def _phase_cross(rec: _ClosedForm):
    """Rescaled Gamma Delta' - Delta Gamma', by the chain rule through the record's slopes.

    The rescaled hyperbolics move as c2' = -2aq' e4, s2' = 2aq' e4 and
    s1sq' = aq' e2 (1 - e2); the e^{-2qa} rescaling cancels in this
    combination, so it is e^{-4qa} times the unscaled one.
    """
    alpha, al2, one, g, hyp = rec.alpha, rec.al2, rec.one_al2, rec.dlog_alpha, rec.hyp
    dal2 = 2.0 * al2 * g           # (alpha^2)'
    dkl = rec.dk * rec.l           # (kl)'
    aq = rec.a * rec.dq            # a q'
    ds2 = 2.0 * aq * hyp.e4        # = -c2'
    ds1sq = aq * hyp.e2 * (1.0 - hyp.e2)
    sin_sq = rec.sin_kl * rec.sin_kl
    dgam = 8.0 * (dal2 * hyp.c2 - al2 * ds2) - 4.0 * one * (
        2.0 * dal2 * sin_sq * hyp.s1sq + one * (rec.sin_2kl * dkl * hyp.s1sq + sin_sq * ds1sq)
    )
    ddlt = 4.0 * alpha * (g * (1.0 - 3.0 * al2) * hyp.s2 + (1.0 - al2) * ds2) + 2.0 * one * (
        2.0 * dal2 * rec.sin_2kl * hyp.s1sq
        + one * (2.0 * rec.cos_2kl * dkl * hyp.s1sq + rec.sin_2kl * ds1sq)
    )
    return rec.gam * ddlt - rec.dlt * dgam


def _h2_h3(parts: _ClosedForm):
    """Rescaled (h2, h3) of the closed self-interference form, factored through beta_hat.

    h3 = (Gamma^2 + Delta^2) / (64 alpha^4) and
    h2 = alpha / (2 (1 + alpha^2)) * beta_hat * (Gamma cos kl + Delta sin kl).
    The expanded sums these factor cancel to ~1e-13 of their terms at opaque
    near-resonance points, which cost 1e-8 of relative accuracy there.
    """
    h2 = (parts.alpha / (2.0 * parts.one_al2) * parts.beta_hat
          * (parts.gam * parts.cos_kl + parts.dlt * parts.sin_kl))
    h3 = parts.gd2 / (64.0 * parts.al2 * parts.al2)
    return h2, h3


def _tau_p(rec: _ClosedForm):
    """Phase time dphi_t/dE = l k' - (Gamma Delta' - Delta Gamma') / (Gamma^2 + Delta^2)."""
    return rec.l * rec.dk - _phase_cross(rec) / rec.gd2


def phase_time_closed(E: float, system: BarrierSystem) -> float:
    """Phase time, the exact energy derivative of the closed transmission phase.

    Agrees with a numeric derivative of the transmission phase to the
    differentiation accuracy, but has no step size: it stays exact in the
    opaque regime and at sharp resonances, where finite differences lose
    the signal.
    """
    return float(_tau_p(_prepare(E, system.V0, system.a, system.l, system.mass)))


def appendix_terms(E: float, system: BarrierSystem) -> AppendixTerms:
    """The rescaled (Gamma, Delta, h1, h2, h3) at one parameter point."""
    rec = _prepare(E, system.V0, system.a, system.l, system.mass)
    h2, h3 = _h2_h3(rec)
    return AppendixTerms(
        Gamma=float(rec.gam),
        Delta=float(rec.dlt),
        h1=float((rec.k * rec.k) * (rec.q * rec.q) * _phase_cross(rec)),
        h2=float(h2),
        h3=float(h3),
    )


def _tau_i_forms(rec: _ClosedForm):
    """tau_i from Im R and from the h2/h3 form, and the unit m/k^2 of their agreement check."""
    mass, k, alpha = rec.mass, rec.k, rec.alpha
    k_d = np.float64(k)
    unit = mass / (k_d * k_d)
    from_r = -unit * rec.R.imag
    h2, h3 = _h2_h3(rec)
    from_h = np.float64((mass / (k * k)) * (rec.one_al2 / (4.0 * rec.al2 * alpha)) * h2 / h3)
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
    # bool() at one point: np.count_nonzero on a 0-d bool costs ~0.9 us, np.any more.
    if bool(bad) if bad.ndim == 0 else np.count_nonzero(bad):
        ratio = deviation / np.maximum(np.maximum(abs(from_r), abs(from_h)), unit)
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


def _t_free(rec: _ClosedForm):
    """span E / k with the record's extended-precision k; each caller rounds it to double once."""
    return rec.span * rec.E / rec.k


def free_transit_time(E: float, system: BarrierSystem) -> float:
    """Crossing time of the span at the free group velocity k/E; ``time_report``'s ``t_free``."""
    return float(_t_free(_prepare(E, system.V0, system.a, system.l, system.mass)))


def light_transit_time(system: BarrierSystem) -> float:
    """Light crossing time of the span (c = 1)."""
    return system.span


def time_report(E: float, system: BarrierSystem) -> TimeReport:
    """All time scales at one parameter point."""
    rec = _prepare(E, system.V0, system.a, system.l, system.mass)
    return TimeReport.from_split(
        tau_p=_tau_p(rec),
        tau_i=_check_tau_i(rec.E, rec.V0, rec.a, rec.l, *_tau_i_forms(rec)),
        t_free=_t_free(rec),
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
            f"nonrelativistic window requires 0 < E_kin < V0 and finite widths a, l >= 0 ({detail})"
        )
        self.index = index


def _nr_kinematics(E_kin, V0, mass):
    """Schroedinger (k, q, alpha = k/q) and their slopes in E_kin, as `amplitudes` gives them."""
    Ek = np.asarray(E_kin, dtype=amplitudes._LD)[()]   # V0 and mass enter exactly, unconverted
    k = np.sqrt(2.0 * mass * Ek)
    q = np.sqrt(2.0 * mass * (V0 - Ek))
    dk = mass / k
    dq = -mass / q
    return k, q, k / q, dk, dq, dk / k - dq / q


def _check_nr_window(E_kin, V0, a, l) -> None:
    """Raise _NRWindowError at the first point outside 0 < E_kin < V0 or with a bad width."""
    E_kin, V0, a, l = (np.asarray(x, dtype=float) for x in (E_kin, V0, a, l))
    ok = (0.0 < E_kin) & (E_kin < V0) & (0.0 <= a) & (a < math.inf) & (0.0 <= l) & (l < math.inf)
    if not np.all(ok):
        i = None if ok.ndim == 0 else int(np.flatnonzero(~ok)[0])
        e, v, w, s = (float(np.broadcast_to(x, ok.shape).flat[i or 0]) for x in (E_kin, V0, a, l))
        where = "" if i is None else f"grid index {i}: "
        raise _NRWindowError(f"{where}E_kin={e!r}, V0={v!r}, a={w!r}, l={s!r}", i)


def nonrelativistic_times(E_kin: float, system: BarrierSystem) -> TimeReport:
    """Time scales in the Schroedinger limit at kinetic energy E_kin.

    Uses k = sqrt(2 m E_kin), q = sqrt(2 m (V0 - E_kin)) and alpha = k/q
    in the same phase and amplitude structure as the relativistic case.
    The phase time is the same closed energy derivative, with the slopes
    k' = m/k, q' = -m/q in E_kin; tau_i again equals -(m/k^2) Im R.
    ``t_free`` uses the nonrelativistic velocity k/m.
    """
    _check_nr_window(E_kin, system.V0, system.a, system.l)
    V0, mass = system.V0, system.mass
    rec = _ClosedForm(E_kin, V0, system.a, system.l, mass, *_nr_kinematics(E_kin, V0, mass))
    k_d = float(rec.k)
    return TimeReport.from_split(
        tau_p=_tau_p(rec),
        tau_i=-(mass / k_d**2) * rec.R.imag,
        t_free=system.span * mass / k_d,
        t_light=system.span,
    )


def _bulk_nr_phase_time(E_kin, V0, a, l, mass=1.0) -> np.ndarray:
    """Vectorized NR phase time in closed form, on the block pool once the grid is large."""
    _check_nr_window(E_kin, V0, a, l)
    return _bulk(_nr_fields, E_kin, V0, a, l, mass, _nr_kinematics)["tau_p"]


def _nr_fields(rec: _ClosedForm) -> dict:
    return {"tau_p": np.asarray(_tau_p(rec), dtype=float)}


def _bulk_times(E, V0, a, l, mass=1.0, magR2=False) -> dict[str, np.ndarray]:
    """Vectorized time scales over broadcastable parameter arrays.

    Returns arrays tau_p, tau_i, tau_d, t_free, t_light, magT2 and the
    principal-branch phi_t (branch continuation is the caller's job), each
    of the full broadcast shape, and with ``magR2`` also |R|^2 from the
    same records.  As in `bulk_amplitudes`, intermediates are evaluated on
    the shape of the inputs they depend on.
    """
    E, V0, a, l = (np.asarray(x, dtype=float) for x in (E, V0, a, l))
    out = _bulk(_time_and_reflection_fields if magR2 else _time_fields, E, V0, a, l, mass)
    # Checked once on the whole grid, so a failure names the worst point of all blocks.
    _check_tau_i(E, V0, a, l, out["tau_i"], out.pop("from_h"), out.pop("unit"))
    out["tau_d"] = out["tau_p"] - out["tau_i"]
    return out


def _time_fields(rec: _ClosedForm) -> dict:
    from_r, from_h, unit = _tau_i_forms(rec)
    return {
        "tau_p": np.asarray(_tau_p(rec), dtype=float),
        "tau_i": np.asarray(from_r, dtype=float),
        "from_h": from_h,
        "unit": unit,
        "t_free": _t_free(rec).astype(float),
        "t_light": rec.span,
        "magT2": rec.magT2.astype(float),
        "phi_t": rec.phi_t.astype(float),
    }


def _time_and_reflection_fields(rec: _ClosedForm) -> dict:
    magR2 = rec.magR2.astype(float)   # first: it sets |T|^2 on the way
    return {**_time_fields(rec), "magR2": magR2}
