"""Kinematics of a Dirac particle meeting a pair of rectangular barriers.

Natural units hbar = c = 1 are used throughout the package: energies are
measured in units of the rest mass, lengths and times in inverse mass
units.  The mass is still carried as an explicit field so that heavy-mass
limits remain expressible.

The potential is a pair of identical rectangular electrostatic barriers of
height ``V0`` and width ``a`` separated by a field-free gap ``l``; they
occupy [0, a] and [a + l, 2a + l] on the z axis.

Outside the barriers a particle of total energy E propagates with
wavenumber k = sqrt(E^2 - m^2).  Inside a barrier the solution is
evanescent whenever |E - V0| < m, with decay constant
q = sqrt(m^2 - (E - V0)^2).  The dimensionless ratio

    alpha = (k / q) * (E - V0 + m) / (E + m)

couples the upper and lower spinor components across an interface and
appears in every scattering formula downstream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BarrierSystem",
    "KinematicPoint",
    "Regime",
    "RegimeError",
    "classify_regime",
    "kinematic_point",
    "regime_error",
]


class Regime(enum.Enum):
    """Where (E, V0) sits relative to the one-particle energy windows."""

    EVANESCENT_PARTICLE = "EvanescentParticle"
    ABOVE_BARRIER = "AboveBarrier"
    SUPERCRITICAL = "Supercritical"
    BELOW_THRESHOLD = "BelowThreshold"


class RegimeError(ValueError):
    """A computation was requested outside its regime of validity.

    Carries the offending :class:`Regime` so callers (notably the CLI) can
    report the classification without re-deriving it, and for array input
    the flat ``index`` of the first offending point (None for a scalar).
    """

    def __init__(self, regime: Regime, message: str, index: int | None = None):
        super().__init__(message)
        self.regime = regime
        self.index = index


@dataclass(frozen=True)
class BarrierSystem:
    """Geometry and potential of the double-barrier arrangement.

    Parameters
    ----------
    V0 : float
        Barrier height, in units of the rest mass.  Must be positive.
    a : float
        Width of each barrier, in inverse mass units.  Must be >= 0.
    l : float
        Gap between the barriers, in inverse mass units.  Must be >= 0.
    mass : float, optional
        Particle rest mass.  1.0 in natural units, but kept explicit so
        heavy-mass limits can be taken.
    """

    V0: float
    a: float
    l: float
    mass: float = 1.0

    def __post_init__(self) -> None:
        # One chained test accepts valid input (NaN fails it); the checks below word the error.
        if 0.0 < self.V0 < math.inf and 0.0 <= self.a < math.inf and 0.0 <= self.l < math.inf \
                and 0.0 < self.mass < math.inf:
            return
        for name in ("V0", "a", "l", "mass"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.V0 <= 0:
            raise ValueError(f"V0 must be positive, got {self.V0}")
        if self.a < 0:
            raise ValueError(f"barrier width a must be >= 0, got {self.a}")
        if self.l < 0:
            raise ValueError(f"separation l must be >= 0, got {self.l}")
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")

    @property
    def span(self) -> float:
        """Total extent 2a + l of the potential arrangement."""
        return 2.0 * self.a + self.l


@dataclass(frozen=True)
class KinematicPoint:
    """Derived kinematic quantities at one energy.

    Valid only in the evanescent-particle regime, where k, q and alpha are
    all real and strictly positive.
    """

    E: float
    k: float
    q: float
    alpha: float


def classify_regime(E: float, system: BarrierSystem) -> Regime:
    """Classify (E, V0) into exactly one regime.

    The classification is total over finite E: boundary cases (E = m,
    V0 = E -+ m) are assigned to the adjacent non-computable regime, since
    k = 0 or q = 0 make the scattering formulas singular.  A non-finite E
    (NaN or +-inf) raises ValueError, as every evaluating entry does.
    """
    if not math.isfinite(E):
        raise ValueError(f"E must be finite, got {E!r}")
    return _classify(E, system.V0, system.mass)


def _classify(E: float, V0: float, m: float) -> Regime:
    if E <= m:
        return Regime.BELOW_THRESHOLD
    if V0 >= E + m:
        return Regime.SUPERCRITICAL
    if V0 <= E - m:
        return Regime.ABOVE_BARRIER
    return Regime.EVANESCENT_PARTICLE


_REGIME_MESSAGES = {
    Regime.BELOW_THRESHOLD: "BelowThreshold regime: E ≤ m",
    Regime.SUPERCRITICAL: "Supercritical regime: V0 ≥ E + m",
    Regime.ABOVE_BARRIER: "AboveBarrier regime: V0 ≤ E - m",
}


def regime_error(
    regime: Regime, detail: str | None = None, index: int | None = None
) -> RegimeError:
    """Build the standard error for a non-computable regime.

    ``detail``, if given, is appended in parentheses; the bare message is
    what the command-line front end prints for out-of-regime requests.
    """
    message = _REGIME_MESSAGES[regime]
    if detail:
        message = f"{message} ({detail})"
    return RegimeError(regime, message, index)


def _validate(E, V0, a, l, mass) -> None:
    """Reject any point the closed forms cannot evaluate.

    Accepts Python floats and broadcastable arrays alike.  The test is
    written with comparisons only, so NaN fails every one of them and
    needs no separate check; for Python floats ``ok`` is a plain bool and
    a valid point costs a handful of comparisons.  On failure the first
    offending point raises ValueError (non-finite input, negative width)
    or RegimeError (outside the evanescent window).
    """
    ok = (
        (E > mass) & (V0 < E + mass) & (V0 > E - mass)
        & (0.0 <= a) & (a < math.inf) & (0.0 <= l) & (l < math.inf)
    )
    if ok is True or np.all(ok):
        return
    points = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (E, V0, a, l, mass)))
    i = None if np.ndim(ok) == 0 else int(np.flatnonzero(~np.broadcast_to(ok, points[0].shape))[0])
    e, v, w, s, m = (float(x.flat[i or 0]) for x in points)
    where = "" if i is None else f" (grid index {i})"
    for name, value in zip(("E", "V0", "a", "l", "mass"), (e, v, w, s, m)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}{where}")
    if w < 0.0 or s < 0.0:
        raise ValueError(f"widths a and l must be >= 0, got a={w}, l={s}{where}")
    detail = None if i is None else f"grid index {i}: E={e:g}, V0={v:g}"
    raise regime_error(_classify(e, v, m), detail, i)


def kinematic_point(E: float, system: BarrierSystem) -> KinematicPoint:
    """Bundle (E, k, q, alpha) after `_validate`: the package's one double-precision kinematics."""
    _validate(E, system.V0, system.a, system.l, system.mass)
    m = system.mass
    k = math.sqrt((E - m) * (E + m))
    diff = E - system.V0
    q = math.sqrt((m - diff) * (m + diff))
    return KinematicPoint(E=E, k=k, q=q, alpha=(k / q) * (diff + m) / (E + m))
