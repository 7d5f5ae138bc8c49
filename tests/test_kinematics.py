"""Kinematic quantities, regime classification, and input validation."""

import math

import pytest

from dirac_tunneling import (
    BarrierSystem,
    Regime,
    RegimeError,
    classify_regime,
    kinematic_point,
)
from dirac_tunneling.kinematics import alpha, decay_q, regime_error, wavenumber_k


def sys_for(V0, mass=1.0):
    """A geometry-agnostic system; kinematics ignore (a, l)."""
    return BarrierSystem(V0=V0, a=0.7, l=0.7, mass=mass)


# Reference values computed with 50-digit arithmetic from the defining relations
# k = sqrt(E^2 - m^2), q = sqrt(m^2 - (E - V0)^2), alpha = (k/q)(E - V0 + m)/(E + m).
CASES = [
    # (E, V0, k, q, alpha)
    (1.8, 1.5, 1.4966629547095765, 0.9539392014169456, 0.7284313590846835),
    (1.46, 2.19, 1.0637668917577760, 0.6834471449936710, 0.1708323805420000),
    (1.01, 0.018, 0.1417744687875783, 0.1262378707044760, 1.1130166082090841),
]


@pytest.mark.parametrize("E, V0, k_ref, q_ref, a_ref", CASES)
def test_kinematic_values(E, V0, k_ref, q_ref, a_ref):
    system = sys_for(V0)
    assert wavenumber_k(E, system) == pytest.approx(k_ref, rel=1e-14)
    assert decay_q(E, system) == pytest.approx(q_ref, rel=1e-14)
    assert alpha(E, system) == pytest.approx(a_ref, rel=1e-14)


def test_kinematic_point_consistency():
    kp = kinematic_point(1.8, sys_for(1.5))
    assert kp.E == 1.8
    assert kp.alpha == pytest.approx(
        (kp.k / kp.q) * (kp.E - 1.5 + 1.0) / (kp.E + 1.0), rel=1e-15
    )
    # explicit mass
    kp2 = kinematic_point(3.6, sys_for(3.0, mass=2.0))
    assert kp2.k == pytest.approx(math.sqrt(3.6**2 - 4.0), rel=1e-15)


def test_massless_threshold_value():
    # E = sqrt(2), m = 1 gives k = 1 up to rounding
    assert wavenumber_k(math.sqrt(2.0), sys_for(1.5)) == pytest.approx(1.0, rel=1e-15)


def test_classify_regime_total():
    assert classify_regime(1.8, sys_for(1.5)) is Regime.EVANESCENT_PARTICLE
    assert classify_regime(0.5, sys_for(1.5)) is Regime.BELOW_THRESHOLD
    assert classify_regime(1.8, sys_for(3.1)) is Regime.SUPERCRITICAL
    assert classify_regime(1.8, sys_for(0.5)) is Regime.ABOVE_BARRIER


def test_classify_regime_boundaries_rejected():
    # boundary points belong to the adjacent non-computable regime
    assert classify_regime(1.0, sys_for(0.5)) is Regime.BELOW_THRESHOLD  # E = m
    assert classify_regime(1.8, sys_for(2.8)) is Regime.SUPERCRITICAL  # V0 = E + m
    assert classify_regime(1.8, sys_for(0.8)) is Regime.ABOVE_BARRIER  # V0 = E - m


def test_regime_enum_values():
    assert Regime.EVANESCENT_PARTICLE.value == "EvanescentParticle"
    assert Regime.ABOVE_BARRIER.value == "AboveBarrier"
    assert Regime.SUPERCRITICAL.value == "Supercritical"
    assert Regime.BELOW_THRESHOLD.value == "BelowThreshold"


@pytest.mark.parametrize(
    "E, V0, fragment",
    [
        (0.5, 1.5, "E ≤ m"),
        (1.8, 3.2, "V0 ≥ E + m"),
        (1.8, 0.3, "V0 ≤ E - m"),
    ],
)
def test_kinematic_point_rejects_noncomputable(E, V0, fragment):
    system = sys_for(V0)
    with pytest.raises(RegimeError) as exc:
        kinematic_point(E, system)
    assert fragment in str(exc.value)
    assert exc.value.regime is classify_regime(E, system)


def test_regime_error_detail_suffix():
    err = regime_error(Regime.SUPERCRITICAL, detail="grid index 3")
    assert "Supercritical" in str(err)
    assert "grid index 3" in str(err)


def test_wavenumber_requires_energy_above_mass():
    with pytest.raises(RegimeError):
        wavenumber_k(1.0, sys_for(1.5))
    with pytest.raises(RegimeError):
        wavenumber_k(0.2, sys_for(1.5, mass=0.5))


def test_decay_q_rejects_propagating_barrier():
    with pytest.raises(RegimeError):
        decay_q(1.8, sys_for(0.5))  # above barrier
    with pytest.raises(RegimeError):
        decay_q(1.8, sys_for(3.0))  # supercritical


@pytest.mark.parametrize("func", [wavenumber_k, decay_q])
@pytest.mark.parametrize("E", [math.nan, math.inf, -math.inf])
def test_partial_kinematics_reject_non_finite_energy(func, E):
    with pytest.raises(ValueError, match="E must be finite"):
        func(E, sys_for(1.5))


def test_partial_kinematics_keep_their_own_domain():
    # k needs only E > m and q only |E - V0| < m: each works where the other fails
    assert wavenumber_k(1.8, sys_for(0.5)) == pytest.approx(math.sqrt(1.8**2 - 1.0), rel=1e-15)
    assert decay_q(0.9, sys_for(0.5)) == pytest.approx(math.sqrt(1.0 - 0.4**2), rel=1e-15)


def test_barrier_system_validation():
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    assert s.mass == 1.0
    assert s.span == pytest.approx(2.1)
    BarrierSystem(V0=1.5, a=0.0, l=0.0)  # degenerate geometry is allowed
    for bad in (
        dict(V0=0.0, a=0.7, l=0.7),
        dict(V0=-1.0, a=0.7, l=0.7),
        dict(V0=1.5, a=-0.1, l=0.7),
        dict(V0=1.5, a=0.7, l=-0.1),
        dict(V0=1.5, a=0.7, l=0.7, mass=0.0),
        dict(V0=math.inf, a=0.7, l=0.7),
        dict(V0=1.5, a=math.nan, l=0.7),
    ):
        with pytest.raises(ValueError):
            BarrierSystem(**bad)


@pytest.mark.parametrize("fields, message", [
    *(({name: value}, f"{name} must be finite, got {value!r}")
      for name in ("V0", "a", "l", "mass") for value in (math.nan, math.inf, -math.inf)),
    (dict(V0=0.0), "V0 must be positive, got 0.0"),
    (dict(V0=-1.5), "V0 must be positive, got -1.5"),
    (dict(mass=0.0), "mass must be positive, got 0.0"),
    (dict(mass=-1.0), "mass must be positive, got -1.0"),
    (dict(a=-0.1), "barrier width a must be >= 0, got -0.1"),
    (dict(l=-5e-324), "separation l must be >= 0, got -5e-324"),
    (dict(V0=-1.0, a=math.nan), "a must be finite, got nan"),   # finiteness is checked first
])
def test_barrier_system_rejects_each_bad_field_with_its_message(fields, message):
    # The one-comparison acceptance test must leave every rejection as it was worded.
    with pytest.raises(ValueError) as exc:
        BarrierSystem(**{**dict(V0=1.5, a=0.7, l=0.7), **fields})
    assert str(exc.value) == message


def test_barrier_system_accepts_negative_zero_widths():
    s = BarrierSystem(V0=1.5, a=-0.0, l=-0.0)
    assert math.copysign(1.0, s.a) == math.copysign(1.0, s.l) == -1.0


def test_barrier_system_frozen():
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    with pytest.raises(AttributeError):
        s.a = 1.0
