"""Phase time, dwell time, self-interference delay, and their identities."""

import hashlib
import math

import numpy as np
import pytest

import dirac_tunneling.times as times_mod
from dirac_tunneling import (
    BarrierSystem,
    ConsistencyError,
    TimeReport,
    appendix_terms,
    dwell_time,
    free_transit_time,
    kinematic_point,
    light_transit_time,
    nonrelativistic_times,
    opaque_limit_times,
    phase_time_closed,
    self_interference_delay,
    time_report,
)
from dirac_tunneling.oracle import random_evanescent_grid
from dirac_tunneling.times import _bulk_times

# Frozen from a 50-digit evaluation of the closed forms.
GOLDEN = [
    # (E, V0, a, l, tau_p, tau_i, tau_d)
    (1.8, 1.5, 0.7, 0.7, 2.8732738923905551, 0.3297175025841515, 2.5435563898064037),
    (1.46, 2.19, 0.7, 0.7, 1.1976569800286070, 0.5188789546966806, 0.6787780253319259),
    (1.01, 0.018, 2.0, 0.7, 55.504394199270280, None, 32.573221453046020),
    (1.8, 1.5, 3.0, 5.0, 1.5993243051207020, 0.4261438601390494, 1.1731804449816520),
    (2.2, 1.9, 1.3, 2.4, 13.886809043248200, 0.1477527268803649, None),
]

OPAQUE_TAU_P = 1.4708710135363802
OPAQUE_TAU_D = 1.0459527207369815
OPAQUE_TAU_I = 0.4249182927993987


@pytest.mark.parametrize("E, V0, a, l, tp, ti, td", GOLDEN)
def test_golden_point_values(E, V0, a, l, tp, ti, td):
    s = BarrierSystem(V0=V0, a=a, l=l)
    assert phase_time_closed(E, s) == pytest.approx(tp, rel=1e-12)
    if ti is not None:
        assert self_interference_delay(E, s) == pytest.approx(ti, rel=1e-12)
    if td is not None:
        assert dwell_time(E, s) == pytest.approx(td, rel=1e-12)


def test_time_report_winful_identity_exact():
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    rep = time_report(1.8, s)
    assert rep.tau_d == rep.tau_p - rep.tau_i  # bitwise, by construction
    assert rep.t_free == pytest.approx(2.1 * 1.8 / kinematic_point(1.8, s).k)
    assert rep.t_light == pytest.approx(2.1)


def test_time_report_from_split():
    rep = TimeReport.from_split(tau_p=3.0, tau_i=0.5, t_free=2.0, t_light=1.5)
    assert rep.tau_d == 2.5
    assert rep.tau_p == 3.0


def test_transit_references():
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    kp = kinematic_point(1.8, s)
    assert free_transit_time(1.8, s) == pytest.approx(s.span * 1.8 / kp.k, rel=1e-15)
    assert light_transit_time(s) == s.span


def test_free_transit_time_equals_time_report_t_free():
    # All three divide span E by the extended-precision k and round the quotient once.
    g = random_evanescent_grid(3000, seed=7)
    differ = [
        i for i, (E, V0, a, l) in enumerate(zip(*(g[key].tolist() for key in ("E", "V0", "a", "l"))))
        if len({free_transit_time(E, BarrierSystem(V0=V0, a=a, l=l)),
                time_report(E, BarrierSystem(V0=V0, a=a, l=l)).t_free,
                opaque_limit_times(E, BarrierSystem(V0=V0, a=a, l=l)).t_free}) != 1
    ]
    assert differ == []


def test_scalar_t_free_bit_identical_to_bulk():
    # Both divide span E by the record's extended-precision k and round once.
    g = random_evanescent_grid(3000, seed=3)
    bulk = _bulk_times(g["E"], g["V0"], g["a"], g["l"])["t_free"]
    scalar = np.array([time_report(E, BarrierSystem(V0=V0, a=a, l=l)).t_free
                       for E, V0, a, l in zip(*(g[key].tolist() for key in ("E", "V0", "a", "l")))])
    assert np.count_nonzero(scalar != bulk) == 0


def test_appendix_terms_reconstruct_phase_time():
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    kp = kinematic_point(1.8, s)
    terms = appendix_terms(1.8, s)
    tau = (s.l * 1.8 / kp.k
           - terms.h1 / (kp.k**2 * kp.q**2 * (terms.Gamma**2 + terms.Delta**2)))
    assert tau == pytest.approx(phase_time_closed(1.8, s), rel=1e-14)
    assert terms.h3 > 0.0


def test_interference_delay_equals_reflection_form():
    # the closed interference delay must match -(m/k^2) Im R everywhere
    from dirac_tunneling import reflection

    g = random_evanescent_grid(400, seed=19)
    for i in range(400):
        s = BarrierSystem(V0=g["V0"][i], a=g["a"][i], l=g["l"][i])
        kp = kinematic_point(g["E"][i], s)
        tau_i = self_interference_delay(g["E"][i], s)
        ref = -(1.0 / kp.k**2) * reflection(g["E"][i], s).imag
        scale = max(abs(tau_i), abs(ref), 1.0 / kp.k**2)
        assert abs(tau_i - ref) <= 1e-10 * scale


def test_interference_delay_dual_closed_forms():
    # reconstruct the h2/h3 form from the exposed appendix terms and compare
    for E, V0, a, l in [(1.8, 1.5, 0.7, 0.7), (1.46, 2.19, 2.0, 1.1),
                        (1.01, 0.018, 3.0, 0.4), (2.2, 1.9, 1.3, 2.4)]:
        s = BarrierSystem(V0=V0, a=a, l=l)
        kp = kinematic_point(E, s)
        terms = appendix_terms(E, s)
        al2 = kp.alpha**2
        from_h = (1.0 / kp.k**2) * (1.0 + al2) / (4.0 * al2 * kp.alpha) \
            * terms.h2 / terms.h3
        tau_i = self_interference_delay(E, s)
        scale = max(abs(tau_i), abs(from_h), 1.0 / kp.k**2)
        assert abs(tau_i - from_h) <= 1e-10 * scale


def test_interference_guard_trips_on_corruption(monkeypatch):
    # sabotage one of the two internal forms: the cross check must fire
    orig = times_mod._h2_h3

    def bad(parts):
        h2, h3 = orig(parts)
        return h2 * (1.0 + 1e-3), h3

    monkeypatch.setattr(times_mod, "_h2_h3", bad)
    with pytest.raises(ConsistencyError, match="E=1.8, V0=1.5, a=0.7, l=0.7"):
        self_interference_delay(1.8, BarrierSystem(V0=1.5, a=0.7, l=0.7))

    # on a grid the message also names the worst point's flat index
    def bad_at_1(parts):
        h2, h3 = orig(parts)
        return h2 * np.array([1.0, 1.0 + 1e-3, 1.0]), h3

    monkeypatch.setattr(times_mod, "_h2_h3", bad_at_1)
    with pytest.raises(ConsistencyError) as exc:
        _bulk_times(1.8, 1.5, [0.5, 1.25, 2.0], 0.7)
    message = str(exc.value)
    assert message.startswith("self-interference delay dual forms disagree (relative ")
    assert "grid index 1: E=1.8, V0=1.5, a=1.25, l=0.7" in message


@pytest.mark.parametrize("factor, raises", [(1.0 + 1e-7, True), (1.0 + 1e-9, False)])
def test_one_point_guard_decides_on_the_threshold(monkeypatch, factor, raises):
    # The one-point check takes a scalar branch: it must still trip above 1e-8 and only there.
    orig = times_mod._h2_h3
    monkeypatch.setattr(times_mod, "_h2_h3", lambda parts: (orig(parts)[0] * factor, orig(parts)[1]))
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    if raises:
        with pytest.raises(ConsistencyError) as exc:
            time_report(1.8, s)
        assert "grid index" not in str(exc.value)
        assert str(exc.value).endswith("E=1.8, V0=1.5, a=0.7, l=0.7")
    else:
        assert time_report(1.8, s).tau_i == self_interference_delay(1.8, s)


def test_time_report_on_zero_d_numpy_inputs_equals_floats():
    for E, V0, a, l in zip(*(x.tolist() for x in random_evanescent_grid(50, seed=21).values())):
        expected = repr(time_report(E, BarrierSystem(V0=V0, a=a, l=l)))
        for wrap in (np.float64, np.array):
            system = BarrierSystem(V0=wrap(V0), a=wrap(a), l=wrap(l), mass=wrap(1.0))
            assert repr(time_report(wrap(E), system)) == expected


# Opaque near-resonance points, as (seed, flat index) in
# random_evanescent_grid(10**6, seed), where the expanded h2/h3 sums
# cancelled to ~1e-13 of their terms and the dual-form check raised
# ConsistencyError (relative 1.38e-8, 1.53e-8, 1.45e-6) on a correct tau_i.
FALSE_ALARM_POINTS = [(2, 245193), (3, 605943), (4, 210306)]
# tau_i at the seed-3 point: -(m/k^2) Im R from a 50-digit mpmath evaluation.
SEED3_TAU_I_MPMATH = 0.2773110712875416


def _grid_point(seed, index):
    g = random_evanescent_grid(10**6, seed=seed)
    return tuple(float(g[name][index]) for name in ("E", "V0", "a", "l"))


def test_dual_forms_agree_at_opaque_near_resonance_points():
    points = np.array([_grid_point(*where) for where in FALSE_ALARM_POINTS])
    tau_i = _bulk_times(*points.T)["tau_i"]
    for (E, V0, a, l), bulk in zip(points.tolist(), tau_i.tolist()):
        scalar = self_interference_delay(E, BarrierSystem(V0=V0, a=a, l=l))
        assert abs(scalar - bulk) <= 1e-13 * abs(bulk)
    E = points[1, 0]
    assert abs(tau_i[1] - SEED3_TAU_I_MPMATH) <= 1e-12 / ((E - 1.0) * (E + 1.0))


def test_h2_h3_factored_forms_match_expanded_sums():
    # h3 = (Gamma^2 + Delta^2) / (64 alpha^4) and
    # h2 = alpha / (2 (1 + alpha^2)) beta (Gamma cos kl + Delta sin kl), checked
    # at 50 digits against the expanded sums, with everything rescaled by e^{-2qa}.
    mp = pytest.importorskip("mpmath")
    g = random_evanescent_grid(17, seed=23)
    points = list(zip(*(g[name].tolist() for name in ("E", "V0", "a", "l"))))
    points += [_grid_point(*where) for where in FALSE_ALARM_POINTS]
    for E, V0, a, l in points:
        with mp.workdps(50):
            Em, Vm, am, lm = (mp.mpf(x) for x in (E, V0, a, l))
            k = mp.sqrt((Em - 1) * (Em + 1))
            d = Em - Vm
            q = mp.sqrt((1 - d) * (1 + d))
            al = (k / q) * (d + 1) / (Em + 1)
            al2, al4 = al**2, al**4
            e2 = mp.exp(-2 * q * am)
            e4 = e2**2
            c2, s2, s4 = (1 + e4) / 2, (1 - e4) / 2, (1 - e4**2) / 2
            s1sq, c1sq = (1 - e2) ** 2 / 4, (1 + e2) ** 2 / 4
            kl = k * lm
            skl, ckl, s2l, c2l = mp.sin(kl), mp.cos(kl), mp.sin(2 * kl), mp.cos(2 * kl)
            gam = 8 * al2 * c2 - 4 * (1 + al2) ** 2 * skl**2 * s1sq
            dlt = 4 * al * (1 - al2) * s2 + 2 * (1 + al2) ** 2 * s2l * s1sq
            beta = ((1 + al2) / al) * (ckl * s2 / 2 + ((1 - al2) / (2 * al)) * skl * s1sq)
            h2_terms = [
                al * (1 - al2) * s2l * s2**2 / 2,
                al2 * ckl**2 * s4,
                al * (1 - al2) * s2l * s1sq * c2,
                (1 - al2) ** 2 * skl**2 * s1sq * s2,
            ]
            h3_terms = [
                8 * al4 * c1sq**2,
                (1 + 6 * al4 + al4**2 - (1 - al4) ** 2 * c2l) * s1sq**2,
                al2 * ((1 - al2) ** 2 + (1 + al2) ** 2 * c2l) * s2**2,
                2 * al * (1 - al2) * (1 + al2) ** 2 * s2l * s1sq * s2,
            ]
            h2 = al / (2 * (1 + al2)) * beta * (gam * ckl + dlt * skl)
            h3 = (gam**2 + dlt**2) / (64 * al4)
            # The sums cancel, so the check is relative to the size of their terms.
            tol = mp.mpf("1e-45")
            assert abs(sum(h2_terms) - h2) <= tol * sum(abs(t) for t in h2_terms)
            assert abs(sum(h3_terms) - 8 * al4 * h3) <= tol * sum(abs(t) for t in h3_terms)
        # Near resonance Gamma and Delta cancel to ~1e-6 of their terms in
        # longdouble, which leaves ~4e-13 of relative error in h2 and h3.
        terms = appendix_terms(E, BarrierSystem(V0=V0, a=a, l=l))
        assert abs(terms.h2 - float(h2)) <= 1e-11 * abs(float(h2))
        assert abs(terms.h3 - float(h3)) <= 1e-11 * float(h3)


def test_dwell_positive_on_random_grid():
    g = random_evanescent_grid(300, seed=23)
    out = _bulk_times(g["E"], g["V0"], g["a"], g["l"])
    assert (out["tau_d"] > 0.0).all()
    assert np.isfinite(out["tau_p"]).all()
    assert (out["tau_d"] == out["tau_p"] - out["tau_i"]).all()


def test_opaque_limit_frozen_values():
    rep = opaque_limit_times(1.8, BarrierSystem(V0=1.5, a=0.7, l=0.7))
    assert rep.tau_p == pytest.approx(OPAQUE_TAU_P, rel=1e-12)
    assert rep.tau_d == pytest.approx(OPAQUE_TAU_D, rel=1e-12)
    assert rep.tau_i == pytest.approx(OPAQUE_TAU_I, rel=1e-12)
    assert rep.tau_p == rep.tau_d + rep.tau_i  # identity holds exactly


def test_opaque_limit_geometry_independent():
    # the saturated times depend only on (E, V0, mass)
    s1 = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    s2 = BarrierSystem(V0=1.5, a=4.0, l=9.0)
    kp = kinematic_point(1.8, s1)
    pref = 2.0 * kp.alpha / (1.0 + kp.alpha**2)
    rep = opaque_limit_times(1.8, s1)
    assert rep.tau_i == pytest.approx(pref / kp.k**2, rel=1e-14)
    assert rep.tau_d == pytest.approx(pref / kp.q**2, rel=1e-14)
    other = opaque_limit_times(1.8, s2)
    assert other.tau_p == rep.tau_p
    assert other.tau_d == rep.tau_d


def test_phase_time_saturates_monotonically():
    # |tau_p(a) - saturated value| decreases with qa and is tiny by qa = 25
    s0 = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    kp = kinematic_point(1.8, s0)
    ref = opaque_limit_times(1.8, s0).tau_p
    qa_grid = np.array([5.0, 8.0, 12.0, 16.0, 20.0, 25.0])
    dev = np.array(
        [
            abs(phase_time_closed(1.8, BarrierSystem(V0=1.5, a=qa / kp.q, l=0.7)) - ref)
            for qa in qa_grid
        ]
    )
    # allow a rounding floor: saturation bottoms out near machine precision
    floor = 1e-13 * ref
    assert all(dev[i + 1] <= dev[i] + floor for i in range(len(dev) - 1))
    assert dev[-1] < 1e-8


def test_phase_time_varies_before_saturation():
    tau = np.array(
        [
            phase_time_closed(1.8, BarrierSystem(V0=1.5, a=0.7, l=l))
            for l in np.linspace(0.1, 10.0, 120)
        ]
    )
    assert (tau.max() - tau.min()) > 0.1 * tau.mean()


def test_nonrelativistic_zero_width_is_free_motion():
    # with a = 0 the NR particle crosses the span ballistically
    s = BarrierSystem(V0=1.5, a=0.0, l=0.7)
    rep = nonrelativistic_times(0.8, s)
    k_nr = math.sqrt(2.0 * 0.8)
    assert rep.tau_p == pytest.approx(0.7 / k_nr, rel=1e-9)
    assert rep.t_free == pytest.approx(0.7 / k_nr, rel=1e-14)


def test_nonrelativistic_window_enforced():
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    with pytest.raises(ValueError):
        nonrelativistic_times(1.6, s)  # E_kin > V0: no tunneling
    with pytest.raises(ValueError):
        nonrelativistic_times(0.0, s)
    with pytest.raises(ValueError):
        nonrelativistic_times(-0.5, s)


def test_nonrelativistic_limit_of_relativistic_time():
    # scaling m -> 1000 m pushes the relativistic phase time onto the NR one
    m = 1000.0
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7, mass=m)
    tau_rel = phase_time_closed(m + 0.8, s)
    tau_nr = nonrelativistic_times(0.8, s).tau_p
    assert abs(tau_rel - tau_nr) / tau_nr < 1e-3


def test_bulk_times_matches_scalar():
    out = _bulk_times(np.array([1.8]), np.array([1.5]), np.array([0.7]),
                      np.array([0.7]))
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    assert out["tau_p"][0] == phase_time_closed(1.8, s)
    assert out["tau_i"][0] == self_interference_delay(1.8, s)
    assert out["t_light"][0] == time_report(1.8, s).t_light
    assert out["t_light"][0] == pytest.approx(2.1, rel=1e-15)


# SHA-256 of the float64 bytes of the one-point outputs on the grid of the
# pin_grid_outputs fixture.  tests/test_bulk_shapes.py::test_random_grid_bytes_pinned
# asserts that each equals its bulk row, so this one pin covers both paths.  Like the
# figure CSV pins, it holds for the 80-bit x87 longdouble build.
CLOSED_FORMS_SHA256 = "6c75aa15318597e01bca84084ff93a4bac7196890567738673b25f8752f59b40"


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63, reason="hash pinned for the 80-bit longdouble build"
)
def test_random_grid_scalar_bytes_pinned(pin_grid_outputs):
    digest = hashlib.sha256()
    for values in pin_grid_outputs[0].values():
        digest.update(values.tobytes())
    assert digest.hexdigest() == CLOSED_FORMS_SHA256
