"""Sweep engine, canonical figure datasets, and resonance finding."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_tunneling import (
    BarrierSystem,
    SweepSpec,
    bulk_amplitudes,
    dwell_time,
    figure_datasets,
    figure_spec,
    find_resonances,
    kinematic_point,
    opaque_limit_times,
    phase_time_closed,
    run_sweep,
)
from dirac_tunneling import amplitudes, scenarios
from dirac_tunneling.kinematics import RegimeError
from dirac_tunneling.scenarios import FIGURE_IDS


def test_sweep_spec_validation():
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    SweepSpec(swept="width_a", lo=0.1, hi=2.0, points=10, system=s, E=1.8)
    with pytest.raises(ValueError):
        SweepSpec(swept="bogus", lo=0.1, hi=2.0, points=10, system=s, E=1.8)
    with pytest.raises(ValueError):
        SweepSpec(swept="width_a", lo=2.0, hi=0.1, points=10, system=s, E=1.8)
    with pytest.raises(ValueError):
        SweepSpec(swept="width_a", lo=-0.1, hi=2.0, points=10, system=s, E=1.8)
    with pytest.raises(ValueError):
        SweepSpec(swept="width_a", lo=0.1, hi=2.0, points=1, system=s, E=1.8)


def test_run_sweep_minimal():
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    spec = SweepSpec(swept="separation_l", lo=0.5, hi=0.9, points=2, system=s, E=1.8)
    ds = run_sweep(spec)
    assert len(ds) == 2
    assert ds.swept[0] == 0.5 and ds.swept[-1] == 0.9
    # each row matches an independent scalar evaluation
    from dirac_tunneling import phase_time_closed

    for i, l in enumerate(ds.swept):
        assert ds.tau_p[i] == pytest.approx(
            phase_time_closed(1.8, BarrierSystem(V0=1.5, a=0.7, l=float(l))),
            rel=1e-12,
        )


def test_run_sweep_is_deterministic():
    spec = figure_spec("2A")
    d1, d2 = run_sweep(spec), run_sweep(spec)
    for field in ("swept", "tau_p", "tau_d", "tau_i", "magT2", "tau_p_nr"):
        a, b = getattr(d1, field), getattr(d2, field)
        assert (np.asarray(a) == np.asarray(b)).all()


def test_run_sweep_regime_guard_names_the_point():
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    spec = SweepSpec(swept="energy_E", lo=1.2, hi=3.0, points=10, system=s, E=1.8)
    with pytest.raises(RegimeError) as exc:
        run_sweep(spec)  # upper part of the range is above-barrier
    assert "sweep point" in str(exc.value)
    assert "energy_E" in str(exc.value)


def test_run_sweep_nr_curve_reaches_the_window_edge():
    # Evanescent up to E = 2.5 - 1e-7; there the NR point sits 1e-7 below V0.
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    spec = SweepSpec(swept="energy_E", lo=2.0, hi=2.5 - 1e-7, points=5, system=s, E=1.8,
                     include_nr=True)
    ds = run_sweep(spec)
    assert np.isfinite(ds.tau_p_nr).all()
    if np.finfo(np.longdouble).nmant == 63:
        # 50-digit mpmath derivative of the NR phase at E_kin = 1.4999999000000002, as
        # tests/test_accuracy.py evaluates it; the closed form is within 4.4e-11 there.
        assert ds.tau_p_nr[-1] == pytest.approx(2.0737744006059609378, rel=4 * 4.4e-11)


def test_energy_sweep_omits_opaque_reference():
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    spec = SweepSpec(swept="energy_E", lo=1.6, hi=2.0, points=5, system=s, E=1.8)
    ds = run_sweep(spec)
    assert ds.tau_p_opaque is None
    assert ds.tau_d_opaque is None
    assert len(ds) == 5


def test_winful_identity_on_all_datasets(figure_data):
    for ds in figure_data.values():
        assert (ds.tau_d == ds.tau_p - ds.tau_i).all()
        assert np.isfinite(ds.tau_p).all()
        assert (ds.magT2 > 0.0).all()
        assert (ds.magT2 <= 1.0 + 1e-12).all()


def test_figure_catalog():
    assert set(FIGURE_IDS) == {"2A", "2B", "2C", "3A", "3B"}
    spec_2a = figure_spec("2a")  # case-insensitive
    assert spec_2a.swept == "width_a"
    assert spec_2a.E == 1.8
    assert spec_2a.system.V0 == 1.5
    assert spec_2a.system.l == 0.7
    assert spec_2a.include_nr
    spec_2b = figure_spec("2B")
    assert (spec_2b.E, spec_2b.system.V0) == (1.46, 2.19)
    spec_2c = figure_spec("2C")
    assert (spec_2c.E, spec_2c.system.V0) == (1.01, 0.018)
    spec_3a = figure_spec("3A")
    assert spec_3a.swept == "separation_l"
    assert spec_3a.system.a == 0.7
    assert not spec_3a.include_nr
    assert figure_spec("3B").system.a == 3.0
    with pytest.raises(ValueError):
        figure_spec("9Z")


def test_figure_grids(figure_data):
    for which, ds in figure_data.items():
        assert len(ds) == 600
        lo, hi = (0.01, 6.0) if which.startswith("2") else (0.01, 10.0)
        assert ds.swept[0] == pytest.approx(lo)
        assert ds.swept[-1] == pytest.approx(hi)


def test_width_sweep_approaches_saturation(figure_data):
    # Fig 2A: by a = 6 the phase and dwell times sit on the opaque constants
    ds = figure_data["2A"]
    rel_p = abs(ds.tau_p[-1] - ds.tau_p_opaque) / ds.tau_p_opaque
    rel_d = abs(ds.tau_d[-1] - ds.tau_d_opaque) / ds.tau_d_opaque
    assert rel_p < 2e-4
    assert rel_d < 2e-4


def test_separation_sweep_resonance_peaks(figure_data):
    # Fig 3A: several interior tau_p maxima from gap resonances
    tau = figure_data["3A"].tau_p
    interior_max = (tau[1:-1] > tau[:-2]) & (tau[1:-1] > tau[2:])
    assert interior_max.sum() >= 2


def test_separation_sweep_off_resonance_slope(figure_data):
    # between resonances tau_p grows linearly with the gap (free flight)
    ds = figure_data["3A"]
    hits = find_resonances(BarrierSystem(V0=1.5, a=0.7, l=0.01), 1.8, (0.01, 10.0))
    mask = (ds.swept >= 2.0) & (ds.swept <= 10.0)
    for l_res, *_ in hits:
        mask &= np.abs(ds.swept - l_res) > 0.3
    slope = np.polyfit(ds.swept[mask], ds.tau_p[mask], 1)[0]
    assert slope > 0.5


def test_opaque_gap_sweep_flattens(figure_data):
    # Fig 3B (a = 3): baseline hugs the opaque constant yet peaks persist
    ds = figure_data["3B"]
    baseline = ds.tau_p.min()
    assert abs(baseline - ds.tau_p_opaque) / ds.tau_p_opaque < 0.05
    assert ds.tau_p.max() > 10.0 * baseline


def test_resonance_collapse_at_high_opacity():
    # at q a = 25 the l dependence of tau_p is gone to float precision
    kp = kinematic_point(1.8, BarrierSystem(V0=1.5, a=0.7, l=0.7))
    a25 = 25.0 / kp.q
    s = BarrierSystem(V0=1.5, a=a25, l=0.01)
    spec = SweepSpec(swept="separation_l", lo=0.1, hi=10.0, points=300,
                     system=s, E=1.8)
    tau = run_sweep(spec).tau_p
    ref = opaque_limit_times(1.8, s).tau_p
    assert (tau.max() - tau.min()) / ref < 1e-8


def test_superluminal_rows_exist(figure_data):
    # Fig 2B: phase times below the light transit time at nonzero |T|^2
    ds = figure_data["2B"]
    rows = (ds.tau_p < ds.t_light) & (ds.magT2 > 1e-12)
    assert rows.any()


def test_nr_column_only_where_requested(figure_data):
    for which in ("2A", "2B", "2C"):
        assert figure_data[which].tau_p_nr is not None
    for which in ("3A", "3B"):
        assert figure_data[which].tau_p_nr is None


def test_nr_column_tracks_relativistic_at_low_energy(figure_data):
    # Fig 2C is nearly nonrelativistic: columns agree to a percent
    ds = figure_data["2C"]
    mask = (ds.swept >= 0.1) & (ds.swept <= 5.0)
    rel = np.abs(ds.tau_p_nr[mask] - ds.tau_p[mask]) / ds.tau_p[mask]
    assert rel.max() < 0.01


def test_find_resonances_positions():
    hits = find_resonances(BarrierSystem(V0=1.5, a=0.7, l=0.01), 1.8, (0.01, 10.0))
    positions = [h[0] for h in hits]
    expected = [1.17369545, 3.27276034, 5.37182, 7.47089, 9.56996]
    assert len(positions) == len(expected)
    for got, ref in zip(positions, expected):
        assert got == pytest.approx(ref, abs=1e-4)
    for _, absR, tau_p, tau_d in hits:
        assert absR < 1e-6
        assert abs(tau_p - tau_d) < 1e-6 * tau_p


def test_find_resonances_transparent_system():
    # a = 0 gives R = 0 identically: nothing to find
    s = BarrierSystem(V0=1.5, a=0.0, l=0.7)
    assert find_resonances(s, 1.8, (0.1, 10.0)) == []


def _strict_scan_minima(system, E, l_range, scan_points=1024):
    # The scan find_resonances documents: strict interior minima of |R|^2 on a uniform grid.
    grid = np.linspace(l_range[0], l_range[1], scan_points)
    r2 = bulk_amplitudes(E, system.V0, system.a, grid, system.mass)["magR2"]
    i = 1 + np.flatnonzero((r2[1:-1] < r2[:-2]) & (r2[1:-1] < r2[2:]))
    return grid, i


def _one_at_a_time_resonances(system, E, l_range, scan_points=1024):
    # Reference: per scan minimum g, the root of tan(kl) = -2 alpha coth(qa) / (1 - alpha^2)
    # nearest g, in 40-digit mpmath, rounded to double once.
    mp = pytest.importorskip("mpmath")
    grid, i = _strict_scan_minima(system, E, l_range, scan_points)
    if i.size == 0:
        return []
    with mp.workdps(40):
        E_, V0, a, m = (mp.mpf(x) for x in (E, system.V0, system.a, system.mass))
        k = mp.sqrt((E_ - m) * (E_ + m))
        q = mp.sqrt((m - (E_ - V0)) * (m + (E_ - V0)))
        alpha = (k / q) * (E_ - V0 + m) / (E_ + m)
        theta = mp.atan2(-2 * alpha * mp.coth(q * a), 1 - alpha * alpha)
        return [float((theta + mp.nint((k * mp.mpf(g) - theta) / mp.pi) * mp.pi) / k)
                for g in grid[i].tolist()]


@pytest.mark.parametrize(
    "V0, a, E, l_range, hits",
    [
        (1.5, 0.7, 1.8, (0.01, 10.0), 5),
        (1.5, 0.7, 1.8, (0.01, 210.0), 100),
        (2.19, 0.3, 1.46, (0.1, 60.0), 20),
        (1.5, 0.0, 1.8, (0.1, 10.0), 0),
    ],
)
def test_find_resonances_equals_one_at_a_time_search(V0, a, E, l_range, hits):
    system = BarrierSystem(V0=V0, a=a, l=l_range[0])
    got = find_resonances(system, E, l_range)
    assert len(got) == hits
    reference = _one_at_a_time_resonances(system, E, l_range)
    assert len(reference) == hits
    for (l_star, absR, tau_p, tau_d), l_ref in zip(got, reference):
        assert abs(l_star - l_ref) <= 4 * math.ulp(l_ref)
        # The other columns are the package's own values at the listed l.
        at = BarrierSystem(V0=V0, a=a, l=l_star)
        assert absR == math.sqrt(float(bulk_amplitudes(E, V0, a, l_star)["magR2"]))
        assert (tau_p, tau_d) == (phase_time_closed(E, at), dwell_time(E, at))
    assert all(type(x) is float for row in got for x in row)


def test_find_resonances_at_an_opaque_barrier():
    # qa = 13.4: |R|^2 rounds to 1.0 at every scan point, |beta_hat| does not.
    system = BarrierSystem(V0=1.5, a=14.0, l=0.01)
    kp = kinematic_point(1.8, system)
    qa, al = kp.q * system.a, kp.alpha
    theta = math.atan2(-2.0 * al / math.tanh(qa), 1.0 - al * al)
    zeros = [(theta + n * math.pi) / kp.k for n in range(-2, 10)]
    zeros = [z for z in zeros if 0.01 <= z <= 10.0]
    r2 = bulk_amplitudes(1.8, system.V0, system.a, np.linspace(0.01, 10.0, 1024))["magR2"]
    assert np.all(r2 == 1.0)
    hits = find_resonances(system, 1.8, (0.01, 10.0))
    assert len(zeros) == len(hits) == 5
    for (l_star, absR, tau_p, tau_d), l_n in zip(hits, zeros):
        assert abs(l_star - l_n) <= 1e-8
        assert absR < 1e-3 and abs(tau_p - tau_d) <= 1e-12 * tau_p


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63, reason="hash pinned for the 80-bit longdouble build"
)
def test_find_resonances_long_range_pin():
    # 1429 resonance spacings; the 1024-point scan samples 406 of the dips.
    system = BarrierSystem(V0=1.5, a=0.7, l=0.01)
    k = kinematic_point(1.8, system).k
    hits = find_resonances(system, 1.8, (0.01, 0.01 + 1429 * math.pi / k))
    assert len(hits) == 406
    assert hashlib.sha256(repr(hits).encode()).hexdigest() == (
        "f2ea91c84b3db6df14582ba3643ed6289bbd6498adc466ef9acaf2e50fb0a00f"
    )


_MARGIN = 1e-3


@st.composite
def _searches(draw):
    E = draw(st.floats(1.0 + _MARGIN, 3.0))
    V0 = draw(st.floats(max(E - 1.0 + _MARGIN, _MARGIN), E + 1.0 - _MARGIN))
    a = draw(st.floats(0.01, 5.0))
    lo = draw(st.floats(0.0, 100.0))
    hi = lo + draw(st.floats(0.1, 1000.0))
    return BarrierSystem(V0=V0, a=a, l=lo), E, (lo, hi), draw(st.integers(3, 2048))


# 4x the worst of 300 derandomized examples at a <= 5 (0.5001 and 1.73e-16).  |R| is
# counted in units of |dR/dl| ulp(l*): a correctly rounded zero reads at most 0.5.
_ABS_R_ULPS_BUDGET = 2.0
_TAU_P_TAU_D_BUDGET = 6.9e-16


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_searches())
def test_find_resonances_places_one_zero_per_strict_scan_minimum(search):
    system, E, l_range, scan_points = search
    hits = find_resonances(system, E, l_range, scan_points)
    grid, i = _strict_scan_minima(system, E, l_range, scan_points)
    assert len(hits) == i.size
    l_star = np.array([row[0] for row in hits])
    assert np.all(grid[i - 1] < l_star) and np.all(l_star < grid[i + 1])
    assert np.all(np.diff(l_star) > 0)
    # beta = A cos kl + B sin kl in l, so |dR/dl| = k hypot(A, B) at a zero.
    kp = kinematic_point(E, system)
    qa, al = kp.q * system.a, kp.alpha
    slope = kp.k * (1.0 + al * al) / al * math.hypot(
        0.5 * math.sinh(2.0 * qa), (1.0 - al * al) / (2.0 * al) * math.sinh(qa) ** 2)
    for l, absR, tau_p, tau_d in hits:
        assert absR <= _ABS_R_ULPS_BUDGET * slope * math.ulp(l)
        assert abs(tau_p - tau_d) <= _TAU_P_TAU_D_BUDGET * tau_p


@pytest.mark.parametrize("l_range", [(0.01, math.inf), (math.nan, 4.0), (-math.inf, 4.0), (0.5, math.nan)])
def test_find_resonances_rejects_non_finite_range(l_range):
    with pytest.raises(ValueError, match="l_range must be finite"):
        find_resonances(BarrierSystem(V0=1.5, a=0.7, l=0.01), 1.8, l_range)


@pytest.mark.parametrize("scan_points", [0, 1, 2])
def test_find_resonances_rejects_fewer_than_three_scan_points(scan_points):
    with pytest.raises(ValueError, match="at least 3 points"):
        find_resonances(BarrierSystem(V0=1.5, a=0.7, l=0.01), 1.8, (0.5, 4.0), scan_points)


def test_find_resonances_validates_the_scan():
    system = BarrierSystem(V0=1.5, a=0.7, l=0.01)
    with pytest.raises(ValueError, match="E must be finite"):
        find_resonances(system, math.nan, (0.5, 4.0))
    with pytest.raises(ValueError, match="separation cannot be negative"):
        find_resonances(system, 1.8, (-0.5, 4.0))
    with pytest.raises(RegimeError):
        find_resonances(system, 1.0, (0.5, 4.0))
    with pytest.raises(RegimeError):
        find_resonances(system, 0.6, (0.5, 4.0))


def test_find_resonances_validates_and_solves_kinematics_once_per_search(monkeypatch):
    # Once for the scan and the minima, once for the final bulk times, which also give
    # |R| at the listed l; one record each for the scan and the minima: never per resonance.
    calls = {"validate": 0, "kinematics": 0, "records": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    for module in (amplitudes, scenarios):
        monkeypatch.setattr(module, "_validate", counted("validate", module._validate))
        monkeypatch.setattr(module, "_extended_kinematics",
                            counted("kinematics", module._extended_kinematics))
    monkeypatch.setattr(scenarios, "_ClosedForm", counted("records", scenarios._ClosedForm))

    system = BarrierSystem(V0=1.5, a=0.7, l=0.01)
    k = kinematic_point(1.8, system).k
    seen = []
    for l_range in [(0.5, 0.5 + 3.5 * math.pi / k), (0.01, 0.01 + 1429 * math.pi / k)]:
        calls.update(dict.fromkeys(calls, 0))
        assert find_resonances(system, 1.8, l_range)
        seen.append(dict(calls))
    assert [c["validate"] for c in seen] == [2, 2]
    assert [c["kinematics"] for c in seen] == [2, 2]
    assert [c["records"] for c in seen] == [2, 2]
