"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

dt = run.load_package()

# Known defect (a): the h2/h3 form of tau_i is wrong here, so the dual-form
# check raises ConsistencyError although Im R matches mpmath.
DEFECT_A = dict(E=2.137018249255177, V0=2.542349811539691, a=20.59490816541399, l=1.2681584571234454)
# Known defect (b): the finite-difference phase time cannot resolve this
# sharp resonance (index 752 of random_evanescent_grid(2000, seed=1)).
DEFECT_B = reference.SHARP_RESONANCE


def _run_point(workload_cls, point):
    """Run the workload's own operation on one fixed point through Run.execute."""
    w = workload_cls(dt, 0, "unused")
    r = run.Run(w)
    r.execute(w.op_at(**point), 0)
    return r


def test_defect_a_is_counted_not_raised():
    r = _run_point(workloads.ScalarPoints, DEFECT_A)
    assert r.attempted == 1
    assert len(r.failures) == 1
    assert r.failures[0]["reason"].startswith("ConsistencyError")
    assert r.failures[0]["inputs"]["E"] == DEFECT_A["E"]


def test_defect_b_is_counted_not_raised():
    r = _run_point(workloads.OracleCrosscheck, DEFECT_B)
    assert r.attempted == 1
    assert len(r.failures) == 1
    assert "phase time closed vs finite difference" in r.failures[0]["reason"]


def test_a_repeated_operation_counts_once():
    w = workloads.OracleCrosscheck(dt, 0, "unused")
    r = run.Run(w)
    op = w.op_at(**DEFECT_B)
    r.execute(op, 0)
    r.execute(op, 0)
    assert r.attempted == 1
    assert len(r.failures) == 1


def test_attempted_and_failed_do_not_depend_on_the_time_measured():
    def measured(seconds):
        w = workloads.OracleCrosscheck(dt, 7, "unused")
        w.run_ops = 2 * w.cycle
        r = run.measure(w, seconds)
        return r.attempted, [f["inputs"] for f in r.failures]

    once = measured(1e-9)
    assert once[0] == 16
    assert measured(0.05) == once


def test_unreadable_output_is_counted_not_raised(tmp_path):
    w = workloads.FiguresResonances(dt, 0, str(tmp_path))
    r = run.Run(w)
    missing = str(tmp_path / "never-written.csv")
    r.execute(workloads.Op("figure_2A", 1, {"argv": []}, lambda: (0, [missing])), 0)
    assert r.attempted == 1
    assert r.failures[0]["reason"].startswith("output unreadable: FileNotFoundError")


def test_defect_b_is_in_the_verify_distribution():
    grid = dt.oracle.random_evanescent_grid(2000, seed=1)
    assert [float(grid[k][752]) for k in ("E", "V0", "a", "l")] == [DEFECT_B[k] for k in ("E", "V0", "a", "l")]


def test_reference_pins_the_sharp_resonance():
    reference.self_test()
    p = DEFECT_B
    closed = dt.times.phase_time_closed(p["E"], dt.kinematics.BarrierSystem(V0=p["V0"], a=p["a"], l=p["l"]))
    assert abs(closed - reference.SHARP_RESONANCE_TAU_P) <= 2e-16 * reference.SHARP_RESONANCE_TAU_P


def test_resonance_condition_matches_find_resonances():
    E, V0, a, lo, hi = 1.8, 1.5, 0.7, 0.5, 4.0
    hits = dt.scenarios.find_resonances(dt.kinematics.BarrierSystem(V0=V0, a=a, l=lo), E, (lo, hi))
    present = workloads.resonance_separations(E, V0, a, lo, hi)
    assert len(hits) == present.size == 2
    for hit, l_n in zip(hits, present):
        assert abs(hit[0] - l_n) < workloads.RESONANCE_DL


def test_traced_counts_repeat_and_cover_every_layer(tmp_path):
    w = workloads.FiguresResonances(dt, 3, str(tmp_path))
    gen = w.ops()
    ops = [next(gen) for _ in range(w.cycle)]
    # Shorten the long resonance range so the test stays quick.
    ops = [op for op in ops if op.kind != "resonances_long"]
    tracer = Tracer()
    summaries = []
    originals = dt.scenarios.run_sweep, dt.cli.run_sweep
    for _ in range(2):
        tracer.reset()
        tracer.install(dt)
        try:
            r = run.Run(w)
            for index, op in enumerate(ops):
                r.execute(op, index)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
    assert (dt.scenarios.run_sweep, dt.cli.run_sweep) == originals
    first, second = summaries
    assert {k: v for k, v in first.items() if not k.endswith("self_s")} == \
        {k: v for k, v in second.items() if not k.endswith("self_s")}
    for layer in LAYERS:
        assert f"{layer}.calls" in first and f"{layer}.self_s" in first
    assert first["cli.calls"] > 0 and first["numerics.golden_evals"] > 0
    assert r.failures == []


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install(dt)
    try:
        dt.cli.main(["point", "--E", "1.8", "--V0", "1.5", "--a", "0.7", "--l", "0.7", "--out", os.devnull])
    finally:
        tracer.uninstall()
    spans = tracer.spans
    total = sum(end - start for _, start, end, parent in spans if parent < 0)
    summary = tracer.summary()
    assert math.isclose(sum(summary[f"{layer}.self_s"] for layer in LAYERS), total, rel_tol=1e-9)


def test_compare_verdicts():
    base = {s: 100.0 + s for s in range(10)}
    faster = {s: 80.0 + s for s in range(10)}
    assert compare.verdict(base, faster, lower_is_better=True, bound=0.2)[0] == "better"
    slower = {s: 130.0 + s for s in range(10)}
    assert compare.verdict(base, slower, lower_is_better=True, bound=0.2)[0] == "worse"
    same = {s: 101.0 + s for s in range(10)}
    assert compare.verdict(base, same, lower_is_better=True, bound=0.2)[0] == "unresolved"
    noisy = {s: 100.0 * (1 + s % 2) for s in range(10)}
    assert compare.verdict(noisy, same, lower_is_better=True, bound=0.2)[0] == "unresolved"


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(os.path.join(root, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar_points", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_repeat_for_a_seed(name, tmp_path):
    def first_inputs():
        gen = workloads.WORKLOADS[name](dt, 5, str(tmp_path)).ops()
        inputs = [json.dumps(next(gen).inputs, sort_keys=True, default=str) for _ in range(3)]
        gen.close()
        return inputs

    assert first_inputs() == first_inputs()
