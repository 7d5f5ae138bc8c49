"""Independent numerical oracles and their agreement with the closed forms."""

import math

import numpy as np
import pytest

from dirac_tunneling import (
    BarrierSystem,
    dwell_integral,
    dwell_time,
    flux_profile,
    kinematic_point,
    numeric_phase_time,
    phase_time_closed,
    region_coefficients,
    self_interference_delay,
    single_barrier_amplitudes,
    tm_solve,
    transmission,
)
from dirac_tunneling.kinematics import RegimeError
from dirac_tunneling.oracle import (
    _dwell_stack,
    _oracle_stack,
    _tm_point,
    _tm_rescaled,
    default_flux_samples,
    random_evanescent_grid,
)

SYS_2A = BarrierSystem(V0=1.5, a=0.7, l=0.7)


def test_tm_solve_zero_width():
    s = BarrierSystem(V0=1.5, a=0.0, l=0.7)
    sol = tm_solve(1.8, s)
    assert sol.T == pytest.approx(1.0 + 0.0j, rel=1e-13)
    assert abs(sol.R) < 1e-13
    assert sol.C == pytest.approx(1.0 + 0.0j, rel=1e-13)
    assert abs(sol.D) < 1e-13


def test_tm_solve_matches_closed_forms(random_grid_small):
    g = random_grid_small
    worst = 0.0
    for i in range(0, len(g["E"]), 4):
        s = BarrierSystem(V0=g["V0"][i], a=g["a"][i], l=g["l"][i])
        num = tm_solve(g["E"][i], s)
        ref = region_coefficients(g["E"][i], s)
        for field in ("T", "R", "A", "B", "C", "D", "F", "G"):
            x, y = getattr(num, field), getattr(ref, field)
            scale = max(abs(y), 1e-300)
            worst = max(worst, abs(x - y) / scale)
    assert worst < 1e-10


def test_zero_gap_reduces_to_single_barrier():
    # l = 0 merges the two barriers into one of width 2a
    for a in (0.4, 1.1, 2.5):
        s = BarrierSystem(V0=1.5, a=a, l=0.0)
        T_double = tm_solve(1.8, s).T
        T_single, R_single = single_barrier_amplitudes(1.8, 2.0 * a, 1.5)
        assert abs(T_double - T_single) <= 1e-12 * abs(T_single)
        T_closed = transmission(1.8, s)
        assert abs(T_closed - T_single) <= 1e-12 * abs(T_single)
        assert abs(T_single) ** 2 + abs(R_single) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_numeric_phase_time_free_limit():
    # a = 0: the packet crosses the span at speed k/E
    s = BarrierSystem(V0=1.5, a=0.0, l=0.7)
    kp = kinematic_point(1.8, SYS_2A)
    assert numeric_phase_time(1.8, s) == pytest.approx(0.7 * 1.8 / kp.k, rel=1e-8)


@pytest.mark.parametrize(
    "E, V0, a, l",
    [(1.8, 1.5, 0.7, 0.7), (1.46, 2.19, 0.7, 0.7), (1.01, 0.018, 2.0, 0.7),
     (1.8, 1.5, 3.0, 5.0)],
)
def test_numeric_phase_time_matches_closed(E, V0, a, l):
    s = BarrierSystem(V0=V0, a=a, l=l)
    tn = numeric_phase_time(E, s)
    tc = phase_time_closed(E, s)
    assert abs(tn - tc) <= 1e-6 * abs(tc)


def test_numeric_phase_time_near_the_window_edge():
    # V0 - (E - m) = 1e-7, so q a = 3e-4: a stencil of step 1e-6 E would leave the
    # window here, while the solve's derivative needs no neighbouring energy.
    s = BarrierSystem(V0=0.8 + 1e-7, a=0.7, l=0.7)
    mpmath_tau_p = 3.386370630280501706  # 50 digits, as tests/test_accuracy.py evaluates it
    assert abs(numeric_phase_time(1.8, s) - mpmath_tau_p) <= 1e-6 * mpmath_tau_p


def test_numeric_phase_time_resolves_a_sharp_resonance():
    # index 752 of random_evanescent_grid(2000, seed=1): |T|^2 = 0.70 on a resonance so
    # narrow that a finite difference of step 1e-6 E misses tau_p by 4.7e-6
    s = BarrierSystem(V0=0.5558902422230831, a=22.923006143950143, l=0.2787039453688473)
    mpmath_tau_p = 51498.547739054957
    assert abs(numeric_phase_time(1.5442936443585942, s) - mpmath_tau_p) <= 1e-10 * mpmath_tau_p


@pytest.mark.parametrize(
    "E, V0, a, l",
    [(1.8, 1.5, 0.7, 0.7), (1.46, 2.19, 0.7, 0.7), (2.2, 1.9, 1.3, 2.4)],
)
def test_solve_derivative_matches_central_difference(E, V0, a, l):
    # every unknown, so every row of M' and b' is checked, not only T's
    x, dx, _ = _tm_rescaled(E, V0, a, l)
    h = 1e-6 * E
    central = (_tm_rescaled(E + h, V0, a, l)[0] - _tm_rescaled(E - h, V0, a, l)[0]) / (2.0 * h)
    assert x.shape == dx.shape == (8,)
    assert (np.abs(central - dx) <= 1e-7 * np.abs(dx)).all()


def test_dwell_integral_free_limit():
    # a = 0 leaves only the gap: tau_d = l E / k exactly
    s = BarrierSystem(V0=1.5, a=0.0, l=0.7)
    kp = kinematic_point(1.8, SYS_2A)
    assert dwell_integral(1.8, s) == pytest.approx(0.7 * 1.8 / kp.k, rel=1e-9)


@pytest.mark.parametrize(
    "E, V0, a, l",
    [(1.8, 1.5, 0.7, 0.7), (1.46, 2.19, 0.7, 0.7), (2.2, 1.9, 1.3, 2.4)],
)
def test_dwell_integral_matches_closed(E, V0, a, l):
    s = BarrierSystem(V0=V0, a=a, l=l)
    assert dwell_integral(E, s) == pytest.approx(dwell_time(E, s), rel=1e-7)


# Points where k l / pi sits near a multiple of 4: Simpson's five samples of one panel
# across the whole gap met the density's oscillation at the same phase, so a quadrature
# starting from the interfaces alone accepted it at depth 0 and missed by up to 10%.
# The exact integral has no samples to alias; they stay as points where the gap holds
# whole periods of its density and sin(kl)/kl is near 0.
ALIASING_POINTS = [
    (2.764813258117634, 2.5892134431490312, 6.851029872745196, 9.743186231730236),
    (1.8643854937233861, 1.5885333850873093, 1.2644924460698288, 7.976935759519555),
    (2.7051101681338485, 2.6198320102883637, 1.0995272262910674, 9.990126396363838),
    (2.8121015451999707, 1.953591901233556, 11.6324613913151, 9.587087100321279),
    (1.8, 1.5, 0.7, 4.0 * math.pi / kinematic_point(1.8, SYS_2A).k),  # k l = 4 pi exactly
]


@pytest.mark.parametrize("E, V0, a, l", ALIASING_POINTS)
def test_dwell_integral_resolves_gap_oscillation(E, V0, a, l):
    s = BarrierSystem(V0=V0, a=a, l=l)
    assert dwell_integral(E, s) == pytest.approx(dwell_time(E, s), rel=1e-7)


def _assert_stack_matches_views(E, V0, a, l):
    stacked = _oracle_stack(E, V0, a, l)[0]
    shape = np.broadcast(E, V0, a, l).shape
    for idx in np.ndindex(shape):
        e, v, w, s = (float(np.broadcast_to(x, shape)[idx]) for x in (E, V0, a, l))
        view = tm_solve(e, BarrierSystem(V0=v, a=w, l=s))
        for field in ("A", "B", "C", "D", "F", "G", "T", "R"):
            assert getattr(stacked, field).shape == shape
            assert getattr(stacked, field)[idx] == getattr(view, field)


def test_stacked_solve_equals_tm_solve_on_a_grid(random_grid_small):
    g = random_grid_small
    _assert_stack_matches_views(g["E"][:60], g["V0"][:60], g["a"][:60], g["l"][:60])


def test_stacked_solve_equals_tm_solve_on_a_2d_grid():
    E = np.linspace(1.5, 2.4, 5)[:, None]
    _assert_stack_matches_views(E, 1.5, np.linspace(0.0, 3.0, 4), 0.7)


def test_stacked_solve_equals_tm_solve_on_the_stencil_shape(random_grid_small):
    g = random_grid_small
    E = g["E"][:10]
    stencil = E + 1e-6 * E * np.array([-1.0, -0.5, 0.5, 1.0])[:, None]
    _assert_stack_matches_views(stencil, g["V0"][:10], g["a"][:10], g["l"][:10])


def test_stacked_phase_time_equals_numeric_phase_time(random_grid_small):
    g = random_grid_small
    E, V0, a, l = (g[key][:40] for key in ("E", "V0", "a", "l"))
    stacked = _oracle_stack(E, V0, a, l)[1]
    assert stacked.shape == (40,)
    for i in range(40):
        s = BarrierSystem(V0=float(V0[i]), a=float(a[i]), l=float(l[i]))
        assert stacked[i] == numeric_phase_time(float(E[i]), s)


def test_stacked_phase_time_names_the_point_outside_the_window():
    E = np.array([1.8, 1.8])
    V0 = np.array([1.5, 0.8 - 1e-7])
    with pytest.raises(RegimeError) as exc:
        _oracle_stack(E, V0, 0.7, 0.7)
    assert exc.value.index == 1


def test_stacked_phase_time_is_one_solve(random_grid_small, monkeypatch):
    # one call on one system per point: a derivative stencil would stack more energies
    calls = []
    solve = np.linalg.solve

    def counted(*args):
        calls.append(args[0].shape)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    g = random_grid_small
    _oracle_stack(*(g[key][:40] for key in ("E", "V0", "a", "l")))
    assert calls == [(40, 8, 8)]


def test_dwell_integral_opaque():
    kp = kinematic_point(1.8, SYS_2A)
    s = BarrierSystem(V0=1.5, a=25.0 / kp.q, l=0.7)
    assert dwell_integral(1.8, s) == pytest.approx(1.0459527207369815, rel=1e-6)


# (E, V0, a, l): the 2A point, q -> 0 (q a = 3.1e-4), a thin barrier with |R| = 4.1e-6,
# an opaque point with q a = 20, and each width zero.
_DWELL_QUAD_POINTS = [
    (1.8, 1.5, 0.7, 0.7),
    (2.4999999, 1.5, 0.7, 0.7),
    (2.0776302037671788, 1.0823750737372189, 0.0023724349850200934, 7.762841937104375),
    (1.8, 1.5, 20.0 / math.sqrt(0.91), 0.7),
    (1.8, 1.5, 0.0, 0.7),
    (1.8, 1.5, 0.7, 0.0),
]


@pytest.mark.parametrize("E, V0, a, l", _DWELL_QUAD_POINTS)
def test_dwell_integral_matches_mpmath_quadrature_of_the_solved_density(E, V0, a, l):
    # psi^dag psi of tm_solve's coefficients, integrated by mpmath's tanh-sinh quadrature
    # at 30 digits region by region: a check of the exact integral, not of the solve.
    mp = pytest.importorskip("mpmath")
    system = BarrierSystem(V0=V0, a=a, l=l)
    c = tm_solve(E, system)
    with mp.workdps(30):
        E, V0, a, l = (mp.mpf(v) for v in (E, V0, a, l))
        k = mp.sqrt((E - 1) * (E + 1))
        q = mp.sqrt((1 - (E - V0)) * (1 + (E - V0)))
        kappa_free, kappa_barrier = k / (E + 1), q / (E - V0 + 1)

        def density(plus, minus, lam, kappa):
            def f(z):
                up, dn = mp.mpc(plus) * mp.exp(lam * z), mp.mpc(minus) * mp.exp(-lam * z)
                return abs(up + dn) ** 2 + kappa**2 * abs(up - dn) ** 2
            return f

        regions = [(0, a, density(c.A, c.B, -q, kappa_barrier)),
                   (a, a + l, density(c.C, c.D, 1j * k, kappa_free)),
                   (a + l, 2 * a + l, density(c.F, c.G, -q, kappa_barrier))]
        total = sum(mp.quad(f, [lo, hi]) for lo, hi, f in regions if hi > lo)
        reference = float(total / (2 * kappa_free))
    assert dwell_integral(float(E), system) == pytest.approx(reference, rel=1e-12, abs=0.0)


def _dwell_extreme_points(grid):
    # q a = 400, k -> 0 and a = l = 0 appended to the grid
    E, V0, a, l = (grid[key].tolist() for key in ("E", "V0", "a", "l"))
    extreme = [(1.8, 1.5, 400.0 / math.sqrt(0.91), 0.7), (1.0 + 1e-9, 1.5, 0.7, 0.7),
               (1.8, 1.5, 0.0, 0.0)]
    return [np.array(column + list(more)) for column, more in zip((E, V0, a, l), zip(*extreme))]


def test_dwell_stack_raises_nothing_and_equals_the_one_point_view(random_grid_small):
    E, V0, a, l = _dwell_extreme_points(random_grid_small)
    x, _, q = _tm_rescaled(E, V0, a, l)
    with np.errstate(all="raise"):
        stacked = _dwell_stack(E, V0, a, l, 1.0, x, q)
    views = [dwell_integral(e, BarrierSystem(V0=v, a=w, l=s))
             for e, v, w, s in zip(E.tolist(), V0.tolist(), a.tolist(), l.tolist())]
    assert np.count_nonzero(stacked != np.array(views)) == 0
    assert stacked[-1] == 0.0 and (stacked[:-1] > 0.0).all()
    # the saturated dwell time at q a = 400
    assert stacked[-3] == pytest.approx(dwell_time(1.8, BarrierSystem(V0=1.5, a=a[-3], l=0.7)),
                                        rel=1e-14)


def test_flux_profile_constant():
    samples = flux_profile(1.8, SYS_2A, default_flux_samples(SYS_2A))
    J = np.array([s.J for s in samples])
    dens = np.array([s.psi_dag_psi for s in samples])
    kp = kinematic_point(1.8, SYS_2A)
    J_inc = 2.0 * kp.k / (1.8 + 1.0)
    assert (dens > 0.0).all()
    assert J.std() < 1e-10 * J_inc
    magT2 = abs(transmission(1.8, SYS_2A)) ** 2
    assert J.mean() == pytest.approx(J_inc * magT2, rel=1e-10)


def test_flux_profile_transparent_system():
    s = BarrierSystem(V0=1.5, a=0.0, l=0.7)
    kp = kinematic_point(1.8, SYS_2A)
    J_inc = 2.0 * kp.k / (1.8 + 1.0)
    for sample in flux_profile(1.8, s, np.linspace(-1.0, 2.0, 31)):
        assert sample.J == pytest.approx(J_inc, rel=1e-12)


def test_flux_collapses_with_opacity():
    # far side of an opaque pair: transmitted flux ~ e^{-4 q a}
    kp = kinematic_point(1.8, SYS_2A)
    a = 10.0 / kp.q  # q a = 10
    s = BarrierSystem(V0=1.5, a=a, l=0.7)
    J_inc = 2.0 * kp.k / (1.8 + 1.0)
    bound = 10.0 * math.exp(-4.0 * 10.0)
    for z in (a + 0.3, s.span + 1.0):
        (sample,) = flux_profile(1.8, s, [z])
        assert 0.0 < sample.J / J_inc < bound


def test_default_flux_samples_cover_all_regions():
    z = np.asarray(default_flux_samples(SYS_2A, per_region=10))
    assert (z < 0.0).any()
    assert ((0.0 < z) & (z < 0.7)).any()
    assert ((0.7 < z) & (z < 1.4)).any()
    assert ((1.4 < z) & (z < 2.1)).any()
    assert (z > 2.1).any()


def test_random_grid_is_deterministic_and_in_window():
    g1 = random_evanescent_grid(64, seed=42)
    g2 = random_evanescent_grid(64, seed=42)
    for key in ("E", "V0", "a", "l"):
        assert (g1[key] == g2[key]).all()
    assert len(g1["E"]) == 64
    assert (g1["E"] > 1.0).all()
    assert (g1["V0"] > g1["E"] - 1.0).all()
    assert (g1["V0"] < g1["E"] + 1.0).all()
    assert (g1["a"] >= 0.0).all()
    assert (g1["l"] >= 0.0).all()


def test_resonant_interference_delay_vanishes():
    # at a |R| minimum both oracles agree tau_i ~ 0 and tau_p ~ tau_d
    from dirac_tunneling import find_resonances

    hits = find_resonances(BarrierSystem(V0=1.5, a=0.7, l=0.01), 1.8, (1.0, 1.4))
    assert hits
    l_res, absR, tau_p, tau_d = hits[0]
    s = BarrierSystem(V0=1.5, a=0.7, l=l_res)
    assert absR < 1e-6
    assert abs(self_interference_delay(1.8, s)) < 1e-6 * tau_p
    assert dwell_integral(1.8, s) == pytest.approx(tau_p, rel=1e-6)


# One-point oracle calls at the float inputs of the previous one reuse its solve.
def _flux(E, system):
    return flux_profile(E, system, default_flux_samples(system, per_region=3))


_ONE_POINT_VIEWS = (tm_solve, numeric_phase_time, dwell_integral, _flux)
_ELSEWHERE = (2.5, BarrierSystem(V0=2.0, a=1.1, l=0.3))


def _memo_points():
    g = random_evanescent_grid(4, seed=17, a_max=6.0)
    return list(zip(*(g[key].tolist() for key in ("E", "V0", "a", "l")))) + [(1.8, 1.5, 0.7, 0.7)]


def _cold(view, E, V0, a, l):
    # repr tells every float apart bit for bit, -0.0 from 0.0 too.
    tm_solve(*_ELSEWHERE)
    return repr(view(E, BarrierSystem(V0=V0, a=a, l=l)))


@pytest.mark.parametrize("E, V0, a, l", _memo_points())
def test_one_point_oracle_views_bit_identical_cold_and_after_any_view(E, V0, a, l):
    cold = {view: _cold(view, E, V0, a, l) for view in _ONE_POINT_VIEWS}
    for first in _ONE_POINT_VIEWS:
        for view in _ONE_POINT_VIEWS:
            _cold(first, E, V0, a, l)
            assert repr(view(E, BarrierSystem(V0=V0, a=a, l=l))) == cold[view], (first, view)


@pytest.mark.parametrize("zero", ["a", "l"])
def test_signed_zero_widths_are_different_oracle_points(zero):
    systems = [BarrierSystem(**{"V0": 1.5, "a": 0.7, "l": 0.7, zero: sign}) for sign in (0.0, -0.0)]
    plus, minus = (_tm_point(1.8, s) for s in systems)
    assert minus is not plus
    for system in systems:
        for view in _ONE_POINT_VIEWS:
            assert repr(view(1.8, system)) == _cold(view, 1.8, system.V0, system.a, system.l)


def test_invalid_point_raises_after_a_kept_solve():
    kept = _tm_point(1.8, SYS_2A)
    with pytest.raises(RegimeError):
        tm_solve(2.6, SYS_2A)
    with pytest.raises(ValueError, match="finite"):
        numeric_phase_time(math.nan, SYS_2A)
    assert _tm_point(1.8, SYS_2A) is kept


def test_kept_solve_is_read_only_and_array_calls_leave_it():
    kept = _tm_point(1.8, SYS_2A)
    x, dx, _ = kept
    assert not x.flags.writeable and not dx.flags.writeable
    point = [np.asarray(v) for v in (1.8, 1.5, 0.7, 0.7)]
    _oracle_stack(*point)
    _oracle_stack(*(v.reshape(1) for v in point))
    tm_solve(np.asarray(2.5), BarrierSystem(V0=2.0, a=1.1, l=0.3))
    assert _tm_point(1.8, SYS_2A) is kept


def test_oracle_threads_at_different_points_get_their_own_answers(run_threads):
    points = _memo_points()
    cold = [(_cold(tm_solve, *p), _cold(numeric_phase_time, *p)) for p in points]
    wrong = []

    def work(i):
        E, V0, a, l = points[i]
        for _ in range(200):
            got = (repr(tm_solve(E, BarrierSystem(V0=V0, a=a, l=l))),
                   repr(numeric_phase_time(E, BarrierSystem(V0=V0, a=a, l=l))))
            if got != cold[i]:
                wrong.append(i)

    run_threads(work, len(points))
    assert wrong == []
