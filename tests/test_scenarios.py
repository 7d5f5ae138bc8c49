"""Sweep engine, canonical figure datasets, and resonance finding."""

import hashlib
import math

import numpy as np
import pytest

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


def test_run_sweep_nr_window_guard_names_the_point():
    # Evanescent up to E = 2.5 - 1e-7, but the NR stencil crosses V0 at the top.
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7)
    spec = SweepSpec(swept="energy_E", lo=2.0, hi=2.5 - 1e-7, points=5, system=s, E=1.8,
                     include_nr=True)
    with pytest.raises(ValueError, match=r"nonrelativistic window .* \(sweep point "
                       r"energy_E=2.5 \(index 4\)\)$") as exc:
        run_sweep(spec)
    assert exc.value.index == 4


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


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _scalar_golden_section_min(f, a, b, tol=1e-12):
    # The one-bracket search find_resonances ran before the lock-step one.
    if b < a:
        a, b = b, a
    width = b - a
    if width <= tol:
        return 0.5 * (a + b)
    n = max(1, math.ceil(math.log(tol / width) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * width
    d = a + _INV_PHI * width
    fc, fd = f(c), f(d)
    for _ in range(n):
        if fc < fd:
            b, d, fd = d, c, fc
            width *= _INV_PHI
            c = a + _INV_PHI2 * width
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            width *= _INV_PHI
            d = a + _INV_PHI * width
            fd = f(d)
    return 0.5 * (a + b)


def _one_at_a_time_resonances(system, E, l_range, scan_points=1024):
    # Reference: the same scan, then one scalar search and scalar times per minimum.
    lo, hi = float(l_range[0]), float(l_range[1])

    def mag_r2(l):
        amp = bulk_amplitudes(E, system.V0, system.a, l, system.mass)
        return float(amp["magR2"])

    grid = np.linspace(lo, hi, scan_points)
    r2 = bulk_amplitudes(E, system.V0, system.a, grid, system.mass)["magR2"]
    found = []
    for i in range(1, scan_points - 1):
        if r2[i] < r2[i - 1] and r2[i] < r2[i + 1]:
            l_star = _scalar_golden_section_min(mag_r2, grid[i - 1], grid[i + 1], tol=1e-11)
            trimmed = BarrierSystem(
                V0=system.V0, a=system.a, l=l_star, mass=system.mass
            )
            tau_p = phase_time_closed(E, trimmed)
            tau_d = dwell_time(E, trimmed)
            found.append((float(l_star), math.sqrt(mag_r2(l_star)), tau_p, tau_d))
    return found


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
    assert got == _one_at_a_time_resonances(system, E, l_range)
    assert all(type(x) is float for row in got for x in row)


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
        "f643cb873931c7bc015dbec68add6990fb9c25bd4389bc03a5d9ddd69a6ef750"
    )
