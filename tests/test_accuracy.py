"""Error budget of the closed forms against a 50-digit mpmath reference.

The reference evaluates the unscaled textbook formulas (mpmath carries
arbitrary exponents, so nothing is rescaled even at qa = 400) and shares
no code with the package:

    Gamma = 8 al^2 cosh(2qa) - 4 (1+al^2)^2 sin^2(kl) sinh^2(qa)
    Delta = 4 al (1-al^2) sinh(2qa) + 2 (1+al^2)^2 sin(2kl) sinh^2(qa)
    beta  = ((1+al^2)/al) sinh(qa) [cos(kl) cosh(qa) + ((1-al^2)/(2al)) sin(kl) sinh(qa)]

    tau_p = d/dE [kl - atan2(Delta, Gamma)]            (mp.diff)
    tau_i = -(m/k^2) Im R,   R = beta e^{i[k(2a+l) - pi/2]} T,
                             T = 8 al^2 e^{-2ika} / (Gamma + i Delta)
    |T|^2 = 64 al^4 / (Gamma^2 + Delta^2)

and the nonrelativistic phase time is mp.diff of the same phase with
Schroedinger kinematics k = sqrt(2 m E_kin), q = sqrt(2 m (V0 - E_kin)),
al = k/q, at E_kin = E - m on the same grid.

The seeded grid holds 8 points of each of five kinds: plain points,
q -> 0 (V0 within 1e-8..1e-2 of E -+ m), k -> 0 (E - m in 1e-8..1e-2),
near a transmission resonance (relative offset 1e-12..1e-3 from a
closed-form zero of beta) and opaque barriers (qa up to 400).  Each
budget is 4 times the worst error on this grid, measured with the 80-bit
longdouble build; each test of the closed forms first asserts that the
one-point and bulk paths give the same bits, so one budget covers both.
The phase times have a budget of their own at q -> 0, where alpha'/alpha
grows like 1/q^2 and the terms of the derivative cancel: there they lose
up to 2.7e-12, elsewhere at most 6e-14.  The nonrelativistic grid also holds a point
where a Richardson stencil of step 1e-6 E_kin missed by 1.8e-5.

The reference dwell time is tau_p - tau_i subtracted at 50 digits and
then rounded; two rounded doubles would cancel as k -> 0, where both
grow like 1/k.  The oracle's dwell time `dwell_integral`, the exact
integral of the solved density, has a budget per kind against it, 4
times the worst relative error that an adaptive quadrature of the same
density reached there; at k -> 0, 4 times the integral's own error
(1.2e-15).  Near a resonance the oracle's linear solve, not the
integral, sets the error (6.7e-10); elsewhere it is at most 1.6e-13.

The closed dwell time tau_d = tau_p - tau_i has a budget per kind as
well, 4 times its worst relative error against the reference.  At
k -> 0 the difference cancels: there it loses up to 2.1e-8 on the grid
(E - m >= 1e-8), while tau_p stays exact; elsewhere at most 2.6e-12.

A sixth kind, opaque near-resonance, holds three fixed points at qa of
11 to 19 where Gamma, Delta and beta are O(e^{-2qa}) differences of O(1)
terms and the closed forms lose far more than on the grid (ROADMAP item
6).  Each point has budgets of its own, 4 times its measured errors, so
a change that loses more there shows, and one that mends it can tighten
them.

The grid is also run with the record in float64 instead of longdouble,
with budgets 4 times the errors measured so (ROADMAP item 6): the gap to
the longdouble budgets is what a platform without x87 would lose.
"""

import math

import numpy as np
import pytest

from dirac_tunneling import BarrierSystem, amplitudes, scattering_solution, time_report
from dirac_tunneling.amplitudes import bulk_amplitudes
from dirac_tunneling.oracle import dwell_integral
from dirac_tunneling.times import _bulk_nr_phase_time, _bulk_times, _nr_kinematics, nonrelativistic_times

mp = pytest.importorskip("mpmath")

x87 = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63,
    reason="budgets measured for the 80-bit longdouble build "
    "(float64 is ROADMAP item 6, precision without x87 longdouble)",
)

# 4 times the worst error on the grid.
BUDGET = {
    "tau_p": 4 * 5.95e-14,  # relative, all kinds but q -> 0
    "tau_p_q_edge": 4 * 2.49e-12,  # relative, q -> 0
    "tau_i": 4 * 2.97e-14,  # absolute, in units of m/k^2
    "magT2": 4 * 3.38e-15,  # relative, where |T|^2 is a normal double
    "unitarity": 4 * 1.11e-16,  # |T|^2 + |R|^2 - 1; 0 on this grid
    "tau_p_nr": 4 * 3.89e-14,  # relative, all kinds but q -> 0
    "tau_p_nr_q_edge": 4 * 2.65e-12,  # relative, q -> 0
}

# 4 times the worst relative error of dwell_integral against tau_p - tau_i, per kind.
DWELL_BUDGET = {
    "plain": 4 * 1.48e-15,
    "q_edge": 4 * 1.19e-13,
    "k_edge": 4 * 1.23e-15,
    "resonance": 4 * 6.72e-10,
    "opaque": 4 * 5.09e-16,
}

# 4 times the worst relative error of the closed tau_d against tau_p - tau_i, per kind.
TAU_D_BUDGET = {
    "plain": 4 * 1.18e-16,
    "q_edge": 4 * 2.49e-12,
    "k_edge": 4 * 7.41e-9,
    "resonance": 4 * 5.94e-14,
    "opaque": 4 * 2.92e-15,
}

# 4 times the worst error with the record in float64; unitarity keeps its longdouble budget.
FLOAT64_BUDGET = {
    "tau_p": 4 * 3.23e-10,
    "tau_p_q_edge": 4 * 2.28e-8,
    "tau_i": 4 * 6.14e-11,
    "magT2": 4 * 1.68e-10,
    "unitarity": BUDGET["unitarity"],
    "tau_p_nr": 4 * 7.55e-12,
    "tau_p_nr_q_edge": 4 * 5.43e-8,
}

# Opaque near-resonance points, with budgets 4 times the worst error: tau_p relative,
# tau_i in units of m/k^2, |T|^2 relative.
_OPAQUE_RESONANCE = (
    # perfbench's DEFECT_A: qa = 18.8, |T|^2 = 4.3e-20.  The closed tau_p has missed by
    # 4.91e-6 since sin 2kl was first taken from sin kl and cos kl; the budget stays 4
    # times its earlier 2.41e-6, as retaking it at 4 times would loosen it.
    ((2.137018249255177, 2.542349811539691, 20.59490816541399, 1.2681584571234454),
     {"tau_p": 4 * 2.41e-6, "tau_i": 4 * 2.70e-13, "magT2": 4 * 1.22e-12}),
    # the two points where |T|^2 + |R|^2 - 1 reached 4.6e-12 and 2.5e-12 (ROADMAP item 1)
    ((2.7711344075752153, 3.3953543690797363, 15.596609746245413, 7.047141578441659),
     {"tau_p": 4 * 1.66e-9, "tau_i": 4 * 2.34e-12, "magT2": 4 * 7.78e-11}),
    ((1.803690857795717, 2.3318253741528423, 13.376005562916893, 7.986158490074246),
     {"tau_p": 4 * 8.41e-10, "tau_i": 4 * 1.84e-12, "magT2": 4 * 9.34e-11}),
)

_PER_KIND = 8
_NORMAL_MIN = 2.2250738585072014e-308


def _kinematics(E, V0, m):
    k = mp.sqrt((E - m) * (E + m))
    d = E - V0
    q = mp.sqrt((m - d) * (m + d))
    return k, q, (k / q) * (d + m) / (E + m)


def _gamma_delta(k, q, al, a, l):
    one = 1 + al * al
    sh2 = mp.sinh(q * a) ** 2
    gam = 8 * al * al * mp.cosh(2 * q * a) - 4 * one**2 * mp.sin(k * l) ** 2 * sh2
    dlt = 4 * al * (1 - al * al) * mp.sinh(2 * q * a) + 2 * one**2 * mp.sin(2 * k * l) * sh2
    return gam, dlt


def _phase(E, V0, a, l, m):
    k, q, al = _kinematics(E, V0, m)
    gam, dlt = _gamma_delta(k, q, al, a, l)
    return k * l - mp.atan2(dlt, gam)


def _nr_phase(E_kin, V0, a, l, m):
    k, q = mp.sqrt(2 * m * E_kin), mp.sqrt(2 * m * (V0 - E_kin))
    gam, dlt = _gamma_delta(k, q, k / q, a, l)
    return k * l - mp.atan2(dlt, gam)


def _nr_reference(E_kin, V0, a, l, m=1.0):
    """The nonrelativistic tau_p at the exact binary values of the double inputs."""
    with mp.workdps(50):
        E_kin, V0, a, l, m = (mp.mpf(x) for x in (E_kin, V0, a, l, m))
        return float(mp.diff(lambda x: _nr_phase(x, V0, a, l, m), E_kin))


def _reference(E, V0, a, l, m=1.0):
    """(tau_p, tau_i, |T|^2, tau_p - tau_i) at the exact binary values of the double inputs.

    The dwell time is subtracted at 50 digits, then rounded: tau_p and tau_i
    grow like 1/k, and the difference of their doubles cancels as k -> 0.
    """
    with mp.workdps(50):
        E, V0, a, l, m = (mp.mpf(x) for x in (E, V0, a, l, m))
        k, q, al = _kinematics(E, V0, m)
        gam, dlt = _gamma_delta(k, q, al, a, l)
        sh = mp.sinh(q * a)
        beta = ((1 + al * al) / al) * sh * (
            mp.cos(k * l) * mp.cosh(q * a) + ((1 - al * al) / (2 * al)) * mp.sin(k * l) * sh
        )
        t_amp = 8 * al * al * mp.expj(-2 * k * a) / (gam + 1j * dlt)
        r_amp = beta * mp.expj(k * (2 * a + l) - mp.pi / 2) * t_amp
        tau_p = mp.diff(lambda x: _phase(x, V0, a, l, m), E)
        tau_i = -(m / k**2) * mp.im(r_amp)
        return float(tau_p), float(tau_i), float(64 * al**4 / (gam**2 + dlt**2)), float(tau_p - tau_i)


def _grid():
    """40 seeded (kind, E, V0, a, l) points, 8 of each kind."""
    rng = np.random.default_rng(20071)
    points = []

    def window(E):
        return float(rng.uniform(max(E - 1.0, 0.0) + 1e-3, E + 1.0 - 1e-3))

    def width():
        return float(rng.uniform(1e-3, 30.0)), float(rng.uniform(1e-3, 10.0))

    for _ in range(_PER_KIND):
        E = float(rng.uniform(1.001, 3.0))
        points.append(("plain", E, window(E), *width()))

        E, eps = float(rng.uniform(1.001, 3.0)), 10.0 ** rng.uniform(-8.0, -2.0)
        points.append(("q_edge", E, E + 1.0 - eps if rng.integers(2) else E - 1.0 + eps, *width()))

        E = 1.0 + 10.0 ** rng.uniform(-8.0, -2.0)
        points.append(("k_edge", E, window(E), *width()))

        # beta = 0 where tan(kl) = -2 alpha coth(qa) / (1 - alpha^2)
        E, a = float(rng.uniform(1.001, 3.0)), float(rng.uniform(0.1, 8.0))
        V0 = window(E)
        k, d = math.sqrt(E * E - 1.0), E - V0
        q = math.sqrt((1.0 - d) * (1.0 + d))
        al = (k / q) * (d + 1.0) / (E + 1.0)
        theta = math.atan(-2.0 * al / (math.tanh(q * a) * (1.0 - al * al))) % math.pi
        l_n = (theta + math.pi * int(rng.integers(5))) / k
        offset = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-12.0, -3.0)
        points.append(("resonance", E, V0, a, l_n * (1.0 + offset)))

        E = float(rng.uniform(1.001, 3.0))
        V0 = window(E)
        d = E - V0
        q = math.sqrt((1.0 - d) * (1.0 + d))
        points.append(("opaque", E, V0, float(rng.uniform(1.0, 400.0)) / q, float(rng.uniform(1e-3, 10.0))))
    return points


_KIND, *_COLUMNS = (np.array(column) for column in zip(*_grid()))
_Q_EDGE = _KIND == "q_edge"

# The grid at E_kin = E - m, then a point where a Richardson stencil of step
# 1e-6 E_kin gave 1117.222057908897 against mpmath's 1117.2423290178247.
_NR_COLUMNS = [
    np.append(column, extra) for column, extra in zip(
        (_COLUMNS[0] - 1.0, *_COLUMNS[1:]),
        (1.6808634405998637, 1.8763740995933487, 10.360227019707729, 5.498892810053804),
    )
]
_NR_Q_EDGE = np.append(_Q_EDGE, False)


@pytest.fixture(scope="module")
def reference():
    return np.array([_reference(*point) for point in zip(*_COLUMNS)])


@pytest.fixture(scope="module")
def nr_reference():
    return np.array([_nr_reference(*point) for point in zip(*_NR_COLUMNS)])


def _one_point(columns, evaluate):
    """``evaluate(E, system)`` at each point of ``columns``, as arrays."""
    return np.array([evaluate(E, BarrierSystem(V0=V0, a=a, l=l))
                     for E, V0, a, l in zip(*(column.tolist() for column in columns))]).T


def _bulk_closed_forms():
    """tau_p, tau_i, |T|^2 and |R|^2 on the grid."""
    times, amp = _bulk_times(*_COLUMNS), bulk_amplitudes(*_COLUMNS)
    return times["tau_p"], times["tau_i"], amp["magT2"], amp["magR2"]


def _errors(ref, tau_p, tau_i, magT2, magR2):
    """The error measures, elementwise."""
    E = _COLUMNS[0]
    normal = ref[:, 2] >= _NORMAL_MIN
    tau_p_err = np.abs(tau_p - ref[:, 0]) / np.abs(ref[:, 0])
    return {
        "tau_p": tau_p_err[~_Q_EDGE],
        "tau_p_q_edge": tau_p_err[_Q_EDGE],
        "tau_i": np.abs(tau_i - ref[:, 1]) * ((E - 1.0) * (E + 1.0)),
        "magT2": np.abs(magT2 - ref[:, 2])[normal] / ref[normal, 2],
        "unitarity": np.abs(magT2 + magR2 - 1.0),
    }


def _nr_errors(ref, tau_p):
    err = np.abs(tau_p - ref) / np.abs(ref)
    return {"tau_p_nr": err[~_NR_Q_EDGE], "tau_p_nr_q_edge": err[_NR_Q_EDGE]}


def _within_budget(errors, budget=BUDGET):
    over = {key: float(err.max()) for key, err in errors.items() if not err.max() <= budget[key]}
    assert not over, f"over budget {budget}: {over}"


def _one_point_closed_forms(E, system):
    report, sol = time_report(E, system), scattering_solution(E, system)
    return report.tau_p, report.tau_i, sol.magT2, sol.magR2


@x87
def test_scalar_paths_within_budget(reference):
    _within_budget(_errors(reference, *_one_point(_COLUMNS, _one_point_closed_forms)))


@x87
def test_bulk_paths_within_budget(reference):
    bulk = _bulk_closed_forms()
    assert all(np.array_equal(x, y) for x, y in zip(_one_point(_COLUMNS, _one_point_closed_forms), bulk))
    _within_budget(_errors(reference, *bulk))


def test_float64_record_within_its_budget(reference, nr_reference, monkeypatch):
    # One name sets the precision of every record.  Bulk paths only: a one-point call
    # would leave a float64 record in the last-point memo.  In float64, numpy's scalar
    # x**2 and arctan2 round unlike its array loops, so the paths are not bit-equal there.
    monkeypatch.setattr(amplitudes, "_LD", np.float64)
    assert _nr_kinematics(0.5, 1.5, 1.0)[0].dtype == np.float64
    nr = _nr_errors(nr_reference, _bulk_nr_phase_time(*_NR_COLUMNS))
    _within_budget({**_errors(reference, *_bulk_closed_forms()), **nr}, FLOAT64_BUDGET)


def _dwell_within_budget(reference, got, budget):
    tau_d = reference[:, 3]
    err = np.abs(got - tau_d) / np.abs(tau_d)
    worst = {kind: float(err[_KIND == kind].max()) for kind in budget}
    over = {kind: value for kind, value in worst.items() if not value <= budget[kind]}
    assert not over, f"over budget {budget}: {over}"


@x87
def test_dwell_integral_within_budget(reference):
    _dwell_within_budget(reference, _one_point(_COLUMNS, dwell_integral), DWELL_BUDGET)


@x87
def test_closed_dwell_time_within_budget(reference):
    bulk = _bulk_times(*_COLUMNS)["tau_d"]
    assert np.array_equal(_one_point(_COLUMNS, lambda E, s: time_report(E, s).tau_d), bulk)
    _dwell_within_budget(reference, bulk, TAU_D_BUDGET)


@x87
def test_nonrelativistic_phase_time_within_budget(nr_reference):
    bulk = _bulk_nr_phase_time(*_NR_COLUMNS)
    assert np.array_equal(_one_point(_NR_COLUMNS, lambda E, s: nonrelativistic_times(E, s).tau_p), bulk)
    _within_budget(_nr_errors(nr_reference, bulk))


@x87
@pytest.mark.parametrize("point, budget", _OPAQUE_RESONANCE, ids=["defect_a", "item1_a", "item1_b"])
def test_opaque_near_resonance_within_budget(point, budget):
    E, V0, a, l = point
    tau_p_ref, tau_i_ref, magT2_ref, _ = _reference(*point)
    system = BarrierSystem(V0=V0, a=a, l=l)
    report, sol = time_report(E, system), scattering_solution(E, system)
    times, amp = _bulk_times(*point), bulk_amplitudes(*point)
    tau_p, tau_i, magT2, magR2 = times["tau_p"], times["tau_i"], amp["magT2"], amp["magR2"]
    assert (report.tau_p, report.tau_i, sol.magT2, sol.magR2) == (tau_p, tau_i, magT2, magR2)
    errors = {
        "tau_p": abs(tau_p - tau_p_ref) / abs(tau_p_ref),
        "tau_i": abs(tau_i - tau_i_ref) * ((E - 1.0) * (E + 1.0)),
        "magT2": abs(magT2 - magT2_ref) / magT2_ref,
    }
    over = {key: float(err) for key, err in errors.items() if not err <= budget[key]}
    assert not over, f"over budget {budget}: {over}"
    assert abs(magT2 + magR2 - 1.0) <= BUDGET["unitarity"]
