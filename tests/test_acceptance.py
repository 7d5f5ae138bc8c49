"""Acceptance gate: the ten headline guarantees, one test per criterion.

Each test prints a single summary line; run with ``pytest -v`` to see one
pass/fail line per criterion.  Expected constants were frozen from an
independent 50-digit evaluation of the defining expressions.
"""

import time
import warnings

import numpy as np
import pytest

from dirac_tunneling import (
    BarrierSystem,
    SweepSpec,
    bulk_amplitudes,
    dwell_integral,
    figure_spec,
    find_resonances,
    kinematic_point,
    nonrelativistic_times,
    numeric_phase_time,
    opaque_limit_times,
    phase_time_closed,
    region_coefficients,
    run_sweep,
    self_interference_delay,
    single_barrier_amplitudes,
    transmission,
)
from dirac_tunneling.oracle import _oracle_stack, random_evanescent_grid

OPAQUE_TAU_P = 1.4708710135363802
OPAQUE_TAU_D = 1.0459527207369815
OPAQUE_TAU_I = 0.4249182927993987


@pytest.fixture(scope="module")
def acceptance_grid():
    return random_evanescent_grid(10_000, seed=101)


def _row_system(spec, value):
    """BarrierSystem for one row of a canonical sweep."""
    base = spec.system
    if spec.swept == "width_a":
        return BarrierSystem(V0=base.V0, a=float(value), l=base.l, mass=base.mass)
    if spec.swept == "separation_l":
        return BarrierSystem(V0=base.V0, a=base.a, l=float(value), mass=base.mass)
    return base


def test_criterion_01_bulk_unitarity(acceptance_grid):
    g = acceptance_grid
    start = time.perf_counter()
    out = bulk_amplitudes(g["E"], g["V0"], g["a"], g["l"])
    elapsed = time.perf_counter() - start
    defect = float(np.max(np.abs(out["magT2"] + out["magR2"] - 1.0)))
    print(f"criterion 1: unitarity defect {defect:.2e} on 10^4 points "
          f"in {elapsed*1e3:.1f} ms")
    assert defect <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_oracle_equivalence(acceptance_grid):
    g = acceptance_grid
    # One stacked solve for the whole grid; `tm_solve` is its one-point view.
    solved = _oracle_stack(g["E"], g["V0"], g["a"], g["l"])[0]
    worst = 0.0
    for i in range(len(g["E"])):
        s = BarrierSystem(V0=float(g["V0"][i]), a=float(g["a"][i]),
                          l=float(g["l"][i]))
        closed = region_coefficients(float(g["E"][i]), s)
        for field in ("T", "R", "C", "D"):
            x, y = getattr(closed, field), complex(getattr(solved, field)[i])
            worst = max(worst, abs(x - y) / max(abs(y), 1e-30))
    single_worst = 0.0
    for i in range(200):
        s = BarrierSystem(V0=float(g["V0"][i]), a=float(g["a"][i]), l=0.0)
        T_single, _ = single_barrier_amplitudes(
            float(g["E"][i]), 2.0 * s.a, s.V0
        )
        T_double = transmission(float(g["E"][i]), s)
        single_worst = max(single_worst, abs(T_double - T_single) / abs(T_single))
    print(f"criterion 2: closed vs solve worst {worst:.2e}, "
          f"merged-barrier worst {single_worst:.2e}")
    assert worst <= 1e-10
    assert single_worst <= 1e-12


def test_criterion_03_phase_time_consistency(figure_data):
    worst = 0.0
    start = time.perf_counter()
    for which, ds in figure_data.items():
        spec = figure_spec(which)
        E = spec.E
        for i, value in enumerate(ds.swept):
            s = _row_system(spec, value)
            numeric = numeric_phase_time(E, s)
            worst = max(worst, abs(ds.tau_p[i] - numeric) / abs(numeric))
    elapsed = time.perf_counter() - start
    print(f"criterion 3: closed vs solve-derivative worst {worst:.2e} "
          f"over 3000 canonical points in {elapsed:.2f} s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_04_dwell_quadrature(figure_data):
    worst = 0.0
    for which, ds in figure_data.items():
        spec = figure_spec(which)
        for i in range(0, len(ds), 50):
            s = _row_system(spec, ds.swept[i])
            integral = dwell_integral(spec.E, s)
            worst = max(worst, abs(integral - ds.tau_d[i]) / abs(integral))
    print(f"criterion 4: dwell integral vs tau_p - tau_i worst {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_05_opaque_constants():
    kp = kinematic_point(1.8, BarrierSystem(V0=1.5, a=0.7, l=0.7))
    s = BarrierSystem(V0=1.5, a=25.0 / kp.q, l=0.7)
    tau_p = phase_time_closed(1.8, s)
    tau_i = self_interference_delay(1.8, s)
    tau_d = tau_p - tau_i
    assert abs(tau_p - OPAQUE_TAU_P) <= 1e-6 * OPAQUE_TAU_P
    assert abs(tau_d - OPAQUE_TAU_D) <= 1e-6 * OPAQUE_TAU_D
    assert abs(tau_i - OPAQUE_TAU_I) <= 1e-6 * OPAQUE_TAU_I
    rep = opaque_limit_times(1.8, BarrierSystem(V0=1.5, a=0.7, l=0.7))
    assert rep.tau_p == rep.tau_d + rep.tau_i  # exact identity
    assert rep.tau_p == pytest.approx(OPAQUE_TAU_P, rel=1e-12)
    print(f"criterion 5: qa=25 times ({tau_p:.6f}, {tau_d:.6f}, {tau_i:.6f}) "
          "match the saturated constants")


def test_criterion_06_generalized_hartman():
    kp = kinematic_point(1.8, BarrierSystem(V0=1.5, a=0.7, l=0.7))
    a25 = 25.0 / kp.q
    spec_sat = SweepSpec(swept="separation_l", lo=0.1, hi=10.0, points=300,
                         system=BarrierSystem(V0=1.5, a=a25, l=0.1), E=1.8)
    tau_sat = run_sweep(spec_sat).tau_p
    spread_sat = float(tau_sat.max() - tau_sat.min())
    spec_thin = SweepSpec(swept="separation_l", lo=0.1, hi=10.0, points=300,
                          system=BarrierSystem(V0=1.5, a=0.7, l=0.1), E=1.8)
    tau_thin = run_sweep(spec_thin).tau_p
    spread_thin = float(tau_thin.max() - tau_thin.min())
    print(f"criterion 6: gap-length spread {spread_sat:.2e} at qa=25, "
          f"{spread_thin:.2f} at a=0.7 (mean {tau_thin.mean():.2f})")
    assert spread_sat < 1e-8
    assert spread_thin > 0.1 * tau_thin.mean()


def test_criterion_07_resonance_times():
    hits = find_resonances(BarrierSystem(V0=1.5, a=0.7, l=0.01), 1.8,
                           (0.01, 10.0))
    assert len(hits) >= 2
    worst = 0.0
    for _, absR, tau_p, tau_d in hits:
        assert absR < 1e-6
        worst = max(worst, abs(tau_p - tau_d) / tau_p)
    print(f"criterion 7: {len(hits)} resonances, worst |tau_p - tau_d|/tau_p "
          f"= {worst:.2e}")
    assert worst < 1e-6


def test_criterion_08_nonrelativistic_limit(figure_data):
    ds = figure_data["2C"]
    mask = (ds.swept >= 0.1) & (ds.swept <= 5.0)
    rel = np.abs(ds.tau_p_nr[mask] - ds.tau_p[mask]) / ds.tau_p[mask]
    m = 1000.0
    s = BarrierSystem(V0=1.5, a=0.7, l=0.7, mass=m)
    tau_rel = phase_time_closed(m + 0.8, s)
    tau_nr = nonrelativistic_times(0.8, s).tau_p
    heavy = abs(tau_rel - tau_nr) / tau_nr
    print(f"criterion 8: NR column off by {rel.max():.2%} max on 2C, "
          f"heavy-mass limit off by {heavy:.2e}")
    assert rel.max() <= 0.01
    assert heavy <= 1e-3


def test_criterion_09_superluminal_rows(figure_data):
    counts = {}
    for which in ("2A", "2B"):
        ds = figure_data[which]
        rows = ((ds.tau_p < ds.t_light)
                & (np.abs(ds.tau_p - ds.tau_p_opaque) > 0.01 * ds.tau_p_opaque)
                & (ds.magT2 > 1e-12))
        counts[which] = int(rows.sum())
        assert rows.any()
    print(f"criterion 9: pre-saturation superluminal rows 2A={counts['2A']}, "
          f"2B={counts['2B']}")


def test_criterion_10_extreme_opacity():
    kp = kinematic_point(1.8, BarrierSystem(V0=1.5, a=0.7, l=0.7))
    s = BarrierSystem(V0=1.5, a=1000.0 / kp.q, l=0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise"):
            tau_p = phase_time_closed(1.8, s)
    assert np.isfinite(tau_p)
    dev = abs(tau_p - OPAQUE_TAU_P) / OPAQUE_TAU_P
    print(f"criterion 10: tau_p at qa=1000 within {dev:.2e} of the "
          "saturated constant, no overflow")
    assert dev <= 1e-10
