"""Closed-form scattering amplitudes: exact limits, scaling laws, unitarity."""

import cmath
import dataclasses
import gc
import math

import numpy as np
import pytest

from dirac_tunneling import (
    BarrierSystem,
    RegionCoefficients,
    bulk_amplitudes,
    kinematic_point,
    reflection,
    region_coefficients,
    scattering_solution,
    transmission,
    transmission_phase,
)
from dirac_tunneling.amplitudes import (
    _bulk,
    _ClosedForm,
    _coefficient_fields,
    _extended_kinematics,
    _new_record,
    _prepare,
    _sin_cos,
)
from dirac_tunneling.kinematics import RegimeError
from dirac_tunneling.oracle import random_evanescent_grid
from dirac_tunneling.times import (
    _bulk_times,
    appendix_terms,
    dwell_time,
    free_transit_time,
    nonrelativistic_times,
    phase_time_closed,
    time_report,
)
from dirac_tunneling.numerics import continue_branch

SYS_2A = BarrierSystem(V0=1.5, a=0.7, l=0.7)

# Point values frozen from a 50-digit evaluation of the closed forms.
T_2A = -0.5999891793782475 - 0.1933038408340911j
R_2A = 0.2390922254728793 - 0.7385672057884993j
MAGT2_2A = 0.3973533902521944
PHI_T_2A = 0.3130777301512177


def test_point_values_frozen():
    sol = scattering_solution(1.8, SYS_2A)
    assert sol.T == pytest.approx(T_2A, rel=1e-13)
    assert sol.R == pytest.approx(R_2A, rel=1e-13)
    assert sol.magT2 == pytest.approx(MAGT2_2A, rel=1e-13)
    assert sol.phi_t == pytest.approx(PHI_T_2A, rel=1e-13)


def test_solution_fields_consistent():
    sol = scattering_solution(1.8, SYS_2A)
    assert sol.T == transmission(1.8, SYS_2A)
    assert sol.R == reflection(1.8, SYS_2A)
    assert sol.magT2 == pytest.approx(abs(sol.T) ** 2, rel=1e-14)
    assert sol.magR2 == pytest.approx(abs(sol.R) ** 2, rel=1e-14)


def test_zero_width_is_transparent():
    # a = 0 removes the barriers entirely: T = 1 and R = 0 exactly
    s = BarrierSystem(V0=1.5, a=0.0, l=0.7)
    sol = scattering_solution(1.8, s)
    assert sol.T == 1.0 + 0.0j
    assert sol.R == 0.0 + 0.0j
    assert sol.phi_t == pytest.approx(kinematic_point(1.8, s).k * 0.7, rel=1e-15)


def test_unitarity_random_grid(random_grid_small):
    g = random_grid_small
    out = bulk_amplitudes(g["E"], g["V0"], g["a"], g["l"])
    defect = np.abs(out["magT2"] + out["magR2"] - 1.0)
    assert defect.max() < 1e-12


# Opaque, non-resonant points where |T|^2 + |R|^2 - 1 reached 4.6e-12 and 2.5e-12
# while each probability was assembled from Gamma and Delta rather than from beta.
@pytest.mark.parametrize("E, V0, a, l", [
    (2.7711344075752153, 3.3953543690797363, 15.596609746245413, 7.047141578441659),
    (1.803690857795717, 2.3318253741528423, 13.376005562916893, 7.986158490074246),
])
def test_unitarity_by_construction_at_opaque_points(E, V0, a, l):
    sol = scattering_solution(E, BarrierSystem(V0=V0, a=a, l=l))
    out = bulk_amplitudes(E, V0, a, l)
    assert abs(sol.magT2 + sol.magR2 - 1.0) <= np.finfo(float).eps
    assert abs(out["magT2"] + out["magR2"] - 1.0) <= np.finfo(float).eps


def test_reflection_phase_locked_to_transmission():
    # R = beta exp(i(k w - pi/2)) T with real beta, so R e^{-ikw} / T is
    # purely imaginary at every evanescent point.
    rng = np.random.default_rng(11)
    for _ in range(200):
        E = rng.uniform(1.05, 3.0)
        V0 = rng.uniform(max(E - 0.95, 1e-3), E + 0.95)
        s = BarrierSystem(V0=V0, a=rng.uniform(0.05, 4.0), l=rng.uniform(0.0, 6.0))
        kp = kinematic_point(E, s)
        sol = scattering_solution(E, s)
        ratio = sol.R * cmath.exp(-1j * kp.k * s.span) / sol.T
        assert abs(ratio.real) <= 1e-10 * max(abs(ratio), 1e-30)


def test_transmission_decay_rate():
    # deep in the evanescent regime |T| falls as exp(-2 q a) per unit width
    kp = kinematic_point(1.8, SYS_2A)
    t20 = transmission(1.8, BarrierSystem(V0=1.5, a=20.0, l=0.7))
    t21 = transmission(1.8, BarrierSystem(V0=1.5, a=21.0, l=0.7))
    assert abs(t21) / abs(t20) == pytest.approx(math.exp(-2.0 * kp.q), rel=1e-9)


def _transmission_direct(E: float, system: BarrierSystem) -> complex:
    # Unrescaled textbook evaluation; overflows past qa ~ 300. Reference only.
    kp = kinematic_point(E, system)
    a, l = system.a, system.l
    k, q, al = kp.k, kp.q, kp.alpha
    one = 1.0 + al * al
    sh = math.sinh(q * a)
    gamma = 8.0 * al * al * math.cosh(2.0 * q * a) - 4.0 * one * one * math.sin(k * l) ** 2 * sh * sh
    delta = 4.0 * al * (1.0 - al * al) * math.sinh(2.0 * q * a) + 2.0 * one * one * math.sin(
        2.0 * k * l
    ) * sh * sh
    return 8.0 * al * al * cmath.exp(-2.0j * k * a) / (gamma + 1.0j * delta)


def _reflection_direct(E: float, system: BarrierSystem) -> complex:
    kp = kinematic_point(E, system)
    a, l = system.a, system.l
    k, q, al = kp.k, kp.q, kp.alpha
    sh, ch = math.sinh(q * a), math.cosh(q * a)
    beta = ((1.0 + al * al) / al) * sh * (
        math.cos(k * l) * ch + ((1.0 - al * al) / (2.0 * al)) * math.sin(k * l) * sh
    )
    return beta * cmath.exp(1.0j * (k * system.span - 0.5 * math.pi)) * _transmission_direct(E, system)


@pytest.mark.parametrize("a", [0.3, 2.0, 20.0, 100.0, 300.0])
def test_rescaled_matches_direct(a):
    # the overflow-safe evaluation must agree with the textbook cosh/sinh
    # expressions wherever the latter are representable (q a up to ~300)
    s = BarrierSystem(V0=1.5, a=a, l=0.7)
    T = transmission(1.8, s)
    R = reflection(1.8, s)
    Td = _transmission_direct(1.8, s)
    Rd = _reflection_direct(1.8, s)
    assert abs(T - Td) <= 1e-12 * abs(Td)
    assert abs(R - Rd) <= 1e-12 * abs(Rd)


def test_amplitudes_survive_extreme_opacity():
    s = BarrierSystem(V0=1.5, a=2000.0, l=0.7)
    sol = scattering_solution(1.8, s)
    assert np.isfinite(sol.phi_t)
    assert sol.magT2 < 1e-300  # underflows, never overflows
    assert sol.magR2 == pytest.approx(1.0, rel=1e-13)


def test_phase_branch_continuity_energy_sweep():
    # continuing the principal phase across a fine energy grid removes all pi jumps,
    # and the one-point phases continue to the same bits as the bulk ones
    E_grid = np.arange(1.6, 2.0, 1e-4)
    out = bulk_amplitudes(E_grid, 1.5, 0.7, 0.7)
    unwrapped = continue_branch(out["phi_t"])
    assert np.abs(np.diff(unwrapped)).max() < math.pi / 2

    one_point = continue_branch([transmission_phase(float(E), SYS_2A) for E in E_grid])
    assert np.array_equal(one_point, unwrapped)


def test_bulk_matches_scalar():
    g = dict(E=np.array([1.8, 1.46]), V0=np.array([1.5, 2.19]),
             a=np.array([0.7, 1.2]), l=np.array([0.7, 2.0]))
    out = bulk_amplitudes(**g)
    for i in range(2):
        s = BarrierSystem(V0=g["V0"][i], a=g["a"][i], l=g["l"][i])
        sol = scattering_solution(g["E"][i], s)
        assert (out["T"][i], out["R"][i], out["phi_t"][i]) == (sol.T, sol.R, sol.phi_t)


def test_one_point_record_holds_numpy_scalars():
    # A 0-d ndarray here gives the same values but sends every later
    # operation through array dispatch, several times slower per point.
    rec = _prepare(1.8, 1.5, 0.7, 0.7, 1.0)
    for name in ("k", "q", "alpha", "sin_kl", "cos_kl", "gam", "dlt", "v", "u", "R"):
        value = getattr(rec, name)
        assert isinstance(value, np.generic), (name, type(value))


def test_bulk_reports_offending_grid_index():
    E = np.array([1.8, 0.4, 1.8])
    with pytest.raises(Exception) as exc:
        bulk_amplitudes(E, 1.5, 0.7, 0.7)
    assert "grid index 1" in str(exc.value)


def test_region_coefficients_are_the_0d_view_of_the_bulk_fields():
    # verify reads the bulk fields; the one-point function rounds the same formulas.
    # T and R are bit-equal.  C, D, F and G keep general complex products, which numpy's
    # array loop may round unlike a scalar: forming their ~16 from real parts made them
    # bit-equal too, but cost the one-point region_coefficients + phase_time_closed pair
    # 17% (median 31.0 to 36.4 us, 2-vCPU x86-64, numpy 2.4.6).
    g = random_evanescent_grid(3000, seed=1003)
    E, V0, a, l = g["E"], g["V0"], g["a"], g["l"]
    bulk = _bulk(_coefficient_fields, E, V0, a, l, 1.0)
    assert list(bulk) == [field.name for field in dataclasses.fields(RegionCoefficients)]
    worst = dict.fromkeys("CDFG", 0.0)
    for i, (e, v, w, s) in enumerate(zip(E.tolist(), V0.tolist(), a.tolist(), l.tolist())):
        one = region_coefficients(e, BarrierSystem(V0=v, a=w, l=s))
        assert all(type(getattr(one, name)) is complex for name in bulk)
        assert bulk["T"][i] == one.T and bulk["R"][i] == one.R
        for name in worst:
            ref = getattr(one, name)
            worst[name] = max(worst[name], abs(bulk[name][i] - ref) / abs(ref))
    assert max(worst.values()) <= 1e-15, worst


def test_region_coefficients_zero_width():
    s = BarrierSystem(V0=1.5, a=0.0, l=0.7)
    c = region_coefficients(1.8, s)
    assert c.T == 1.0 + 0.0j
    assert abs(c.R) == 0.0
    assert c.C == pytest.approx(1.0 + 0.0j, rel=1e-14)
    assert abs(c.D) < 1e-14


def test_region_coefficient_decay_scaling():
    # |C| carries the e^{-q a} envelope the gap inherits from barrier one
    kp = kinematic_point(1.8, SYS_2A)
    a0 = 20.0
    c0 = region_coefficients(1.8, BarrierSystem(V0=1.5, a=a0, l=0.7))
    c1 = region_coefficients(1.8, BarrierSystem(V0=1.5, a=a0 + 1.0 / kp.q, l=0.7))
    assert abs(c1.C) / abs(c0.C) == pytest.approx(math.exp(-1.0), rel=1e-6)


def _psi_region(region, kp, system, c, z):
    """(psi1, psi3) in the named region at z, mirroring the solution ansatz."""
    k, q = kp.k, kp.q
    kappa1 = k / (kp.E + system.mass)
    kappa2 = q / (kp.E - system.V0 + system.mass)
    if region == "I":
        up = cmath.exp(1j * k * z)
        dn = c.R * cmath.exp(-1j * k * z)
        return up + dn, kappa1 * (up - dn)
    if region == "II":
        dc = c.A * math.exp(-q * z)
        gr = c.B * math.exp(q * z)
        return dc + gr, 1j * kappa2 * (dc - gr)
    if region == "III":
        up = c.C * cmath.exp(1j * k * z)
        dn = c.D * cmath.exp(-1j * k * z)
        return up + dn, kappa1 * (up - dn)
    if region == "IV":
        dc = c.F * math.exp(-q * z)
        gr = c.G * math.exp(q * z)
        return dc + gr, 1j * kappa2 * (dc - gr)
    up = c.T * cmath.exp(1j * k * z)  # region V
    return up, kappa1 * up


@pytest.mark.parametrize("a, l", [(0.7, 0.7), (2.0, 1.3), (0.2, 5.0)])
def test_region_coefficients_interface_continuity(a, l):
    s = BarrierSystem(V0=1.5, a=a, l=l)
    kp = kinematic_point(1.8, s)
    c = region_coefficients(1.8, s)
    interfaces = [
        ("I", "II", 0.0),
        ("II", "III", a),
        ("III", "IV", a + l),
        ("IV", "V", s.span),
    ]
    for left, right, z in interfaces:
        ul, ll = _psi_region(left, kp, s, c, z)
        ur, lr = _psi_region(right, kp, s, c, z)
        scale = max(abs(ul), abs(ll), 1e-30)
        assert abs(ul - ur) < 1e-10 * scale
        assert abs(ll - lr) < 1e-10 * scale


# One-point calls at the float inputs of the previous one reuse its record.
_ONE_POINT_VIEWS = (time_report, scattering_solution, phase_time_closed, dwell_time,
                    region_coefficients, appendix_terms, free_transit_time)
_ELSEWHERE = (2.5, 2.0, 1.1, 0.3)


def _memo_points():
    g = random_evanescent_grid(6, seed=13, a_max=8.0)
    return list(zip(*(g[key].tolist() for key in ("E", "V0", "a", "l")))) + [(1.8, 1.5, 0.7, 0.7)]


def _cold(view, E, V0, a, l):
    # repr tells every float apart bit for bit, -0.0 from 0.0 too.
    phase_time_closed(_ELSEWHERE[0], BarrierSystem(*_ELSEWHERE[1:]))
    return repr(view(E, BarrierSystem(V0=V0, a=a, l=l)))


@pytest.mark.parametrize("E, V0, a, l", _memo_points())
def test_one_point_views_bit_identical_cold_and_after_any_view(E, V0, a, l):
    cold = {view: _cold(view, E, V0, a, l) for view in _ONE_POINT_VIEWS}
    for first in _ONE_POINT_VIEWS:
        for view in _ONE_POINT_VIEWS:
            _cold(first, E, V0, a, l)
            assert repr(view(E, BarrierSystem(V0=V0, a=a, l=l))) == cold[view], (first, view)


@pytest.mark.parametrize("zero", ["a", "l"])
def test_signed_zero_widths_are_different_points(zero):
    systems = [BarrierSystem(**{"V0": 1.5, "a": 0.7, "l": 0.7, zero: sign}) for sign in (0.0, -0.0)]
    plus, minus = (_prepare(1.8, s.V0, s.a, s.l, s.mass) for s in systems)
    assert minus is not plus
    assert math.copysign(1.0, getattr(minus, zero)) == -1.0
    for system in systems:
        for view in _ONE_POINT_VIEWS:
            assert repr(view(1.8, system)) == _cold(view, 1.8, system.V0, system.a, system.l)


def test_invalid_point_raises_after_a_kept_point():
    time_report(1.8, SYS_2A)
    with pytest.raises(RegimeError):
        time_report(2.6, SYS_2A)
    with pytest.raises(ValueError, match="finite"):
        scattering_solution(math.nan, SYS_2A)
    with pytest.raises(ValueError, match="finite"):
        _prepare(1.8, 1.5, math.inf, 0.7, 1.0)
    assert _prepare(1.8, 1.5, 0.7, 0.7, 1.0) is _prepare(1.8, 1.5, 0.7, 0.7, 1.0)


def test_array_calls_neither_read_nor_replace_the_kept_record():
    kept = _prepare(1.8, 1.5, 0.7, 0.7, 1.0)
    point = [np.asarray(x) for x in (1.8, 1.5, 0.7, 0.7)]
    assert _prepare(*point, 1.0) is not kept
    assert _prepare(*(x.reshape(1) for x in point), 1.0) is not kept
    _prepare(np.asarray(2.5), 2.0, 1.1, 0.3, 1.0)
    bulk_amplitudes(*point)
    _bulk_times(*point)
    nonrelativistic_times(0.8, SYS_2A)
    assert _prepare(1.8, 1.5, 0.7, 0.7, 1.0) is kept


def test_threads_at_different_points_get_their_own_answers(run_threads):
    points = _memo_points()[:4]
    cold = [(_cold(time_report, *p), _cold(scattering_solution, *p)) for p in points]
    wrong = []

    def work(i):
        E, V0, a, l = points[i]
        for _ in range(300):
            got = (repr(time_report(E, BarrierSystem(V0=V0, a=a, l=l))),
                   repr(scattering_solution(E, BarrierSystem(V0=V0, a=a, l=l))))
            if got != cold[i]:
                wrong.append(i)

    run_threads(work, len(points))
    assert wrong == []


def test_distinct_points_keep_at_most_one_record():
    for i in range(10**4):
        phase_time_closed(1.8 + 1e-6 * i, SYS_2A)
    gc.collect()
    assert sum(isinstance(obj, _ClosedForm) for obj in gc.get_objects()) <= 1


def test_magR2_alone_leaves_gamma_delta_and_sin_2kl_uncomputed():
    rec = _ClosedForm(1.8, 1.5, 0.7, np.linspace(0.5, 4.0, 9), 1.0,
                      *_extended_kinematics(1.8, 1.5, 1.0))
    rec.magR2
    assert not {"gam", "dlt", "sin_2kl"} & set(vars(rec))


@pytest.mark.parametrize("E, V0, a, l", [
    (2.137018249255177, 2.542349811539691, 20.59490816541399, 1.2681584571234454),  # opaque
    (1.8, 0.8 + 1e-9, 0.7, 0.7),                                                       # q -> 0
    (1.8, 1.5, 0.7, 0.7),                                                              # plain
])
def test_lazy_fields_bit_identical_to_a_fresh_record(E, V0, a, l):
    # The lazy record reads |R|^2 first and Delta before Gamma, the fresh one the reverse.
    names = ["dlt", "sin_2kl", "cos_2kl", "cos_kl", "gam", "phi_t", "R", "T", "d_hat", "c_hat"]
    lazy = _ClosedForm(E, V0, a, l, 1.0, *_extended_kinematics(E, V0, 1.0))
    lazy.magR2
    got = {name: getattr(lazy, name) for name in names}
    fresh = _new_record(E, V0, a, l, 1.0)
    for name in reversed(names):
        x, y = getattr(fresh, name), got[name]
        # complex128 has no padding; the 6 padding bytes of an 80-bit longdouble are not
        # initialised, so longdoubles compare by value and sign (`_same`).
        if np.iscomplexobj(x):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), name
        else:
            assert _same(x, y), name


def _exact(x):
    """The mpmath value of a longdouble, exactly: its double head plus the exact remainder."""
    mp = pytest.importorskip("mpmath")
    head = float(x)
    return mp.mpf(head) + mp.mpf(float(x - np.longdouble(head)))


def _same(x, y):
    """Equal values with equal signs (longdouble padding bytes are not part of the value)."""
    return bool(np.all((x == y) & (np.signbit(x) == np.signbit(y))))


def _reduction_points():
    """Longdouble arguments of `_sin_cos`: +-0, near +-n pi/4 up to 8500 (with both
    neighbours), and about the reduction's limit n = 2^23 and beyond it."""
    LD = np.longdouble
    pi = LD(math.pi) + LD(1.2246467991473532e-16)   # pi to ~1e-32
    n = np.concatenate([np.arange(1, 41), np.arange(10816, 10824)]).astype(LD)
    limit = LD(2.0**23)
    x = np.concatenate([n * (pi / 4), (limit + np.arange(-2, 3)) * (pi / 2),
                        np.array([1e8, 1e12], dtype=LD)])
    x = np.concatenate([x, np.nextafter(x, LD(0)), np.nextafter(x, LD(np.inf))])
    return np.concatenate([[LD(0.0), LD(-0.0)], x, -x])


def test_sin_cos_within_half_an_eps_of_mpmath():
    # One Cody-Waite reduction for both: within 0.5 longdouble eps (absolute) of the
    # 50-digit values, as sinl and cosl are (0.26 eps); measured worst 0.45 eps up to 8500.
    mp = pytest.importorskip("mpmath")
    x = _reduction_points()
    s, c = _sin_cos(x)
    eps = float(np.finfo(np.longdouble).eps)
    with mp.workdps(50):
        for xi, si, ci in zip(x, s, c):
            exact = _exact(xi)
            assert abs(_exact(si) - mp.sin(exact)) <= 0.5 * eps, repr(xi)
            assert abs(_exact(ci) - mp.cos(exact)) <= 0.5 * eps, repr(xi)
    # Past the limit, sinl and cosl reduce the argument themselves: three multiples of
    # pi/2 and two larger points, each with both neighbours, of either sign.
    beyond = ~(np.abs(np.floor(x.astype(float) * (2.0 / math.pi) + 0.5)) < 2.0**23)
    assert beyond.sum() == 5 * 3 * 2
    assert _same(s[beyond], np.sin(x[beyond])) and _same(c[beyond], np.cos(x[beyond]))


def test_sin_cos_one_point_branch_is_its_array_row():
    # The 0-d branch finds n and the quadrant in Python floats and ints; both branches
    # share r, so every bit agrees, signed zeros and the limit's two sides included.
    x = _reduction_points()
    s, c = _sin_cos(x)
    for i, xi in enumerate(x):
        one_s, one_c = _sin_cos(xi)
        assert _same(one_s, s[i]) and _same(one_c, c[i]), repr(xi)


def test_double_angle_terms_within_a_few_ulps_of_mpmath():
    # sin 2kl and cos 2kl come from sin kl and cos kl by identities, where cos 2kl -> 0
    # (kl near odd multiples of pi/4) and at kl ~ 8000, as in long separation sweeps.
    mp = pytest.importorskip("mpmath")
    k = float(_extended_kinematics(1.8, 1.5, 1.0)[0])
    kl = np.concatenate([np.arange(1, 9), np.arange(10184, 10189)]) * (np.pi / 4)
    l = np.concatenate([kl, np.linspace(7999.0, 8001.0, 9)]) / k
    l = np.concatenate([l, np.nextafter(l, 0.0), np.nextafter(l, np.inf)])
    rec = _ClosedForm(1.8, 1.5, 0.7, l, 1.0, *_extended_kinematics(1.8, 1.5, 1.0))
    tol = 4 * float(np.finfo(np.longdouble).eps)   # measured worst 1.2 eps on 6000 such points
    with mp.workdps(40):
        for x, s2, c2 in zip(rec.kl, rec.sin_2kl, rec.cos_2kl):
            x = _exact(x)
            assert abs(_exact(s2) - mp.sin(2 * x)) <= tol, float(x)
            assert abs(_exact(c2) - mp.cos(2 * x)) <= tol, float(x)
