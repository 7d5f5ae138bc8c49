"""The four benchmark workloads: seeded inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned.  An operation is a call (or
a short fixed sequence of calls) into the package's public functions,
always looked up as a module attribute at call time so that the traced
run can wrap it.

Check tolerances are the package's own: 1e-12 for unitarity
(acceptance criterion 1), 1e-10 for closed amplitudes against the
transfer-matrix solve (criterion 2, ``verify``), 1e-6 for the
finite-difference phase time and the dwell quadrature (criteria 3 and 4,
``verify``), |R| < 1e-6 at a resonance (criterion 7).  Sampled outputs
are also compared with the mpmath reference at 1e-10, the loosest of
the package's closed-form tolerances.
"""

from __future__ import annotations

import math
import os
import statistics
from typing import Callable, Iterator, NamedTuple

import numpy as np

# Inputs stay this far inside the evanescent window, as in the package's
# own random grids; the accuracy grid in reference.py goes to the edges.
MARGIN = 1e-3
SWEEP_POINTS = 100_000
UNITARITY_TOL = 1e-12
AMPLITUDE_TOL = 1e-10
NUMERIC_TOL = 1e-6
REFERENCE_TOL = 1e-10
RESONANCE_ABS_R = 1e-6
RESONANCE_DL = 1e-8
# Resonances present in the long separation range of figures_resonances;
# the range is sized per draw so every operation does similar work.
LONG_RANGE_RESONANCES = 1429


class Op(NamedTuple):
    """One operation: what it is, how much work it counts for, how to run it."""

    kind: str
    items: int
    inputs: dict
    run: Callable[[], object]


class Sample(NamedTuple):
    """A program output to compare with the mpmath reference."""

    E: float
    V0: float
    a: float
    l: float
    tau_p: float | None
    tau_i: float | None
    magT2: float | None


def window_point(rng, E_lo=1.0 + MARGIN, E_hi=3.0):
    """(E, V0) uniform in the evanescent window, as ``verify`` draws them."""
    E = float(rng.uniform(E_lo, E_hi))
    V0 = float(rng.uniform(max(E - 1.0 + MARGIN, MARGIN), E + 1.0 - MARGIN))
    return E, V0


def verify_grid(rng, count):
    """The distribution of ``random_evanescent_grid`` (a < 30, l < 10)."""
    E = rng.uniform(1.0 + MARGIN, 3.0, count)
    V0 = rng.uniform(np.maximum(E - 1.0 + MARGIN, MARGIN), E + 1.0 - MARGIN)
    a = rng.uniform(MARGIN, 30.0, count)
    l = rng.uniform(MARGIN, 10.0, count)
    return E, V0, a, l


def resonance_separations(E, V0, a, lo, hi, mass=1.0):
    """Separations l in [lo, hi] with R = 0, from tan(kl) = -2al coth(qa)/(1-al^2)."""
    k = math.sqrt((E - mass) * (E + mass))
    d = E - V0
    q = math.sqrt((mass - d) * (mass + d))
    al = (k / q) * (d + mass) / (E + mass)
    theta = math.atan2(-2.0 * al / math.tanh(q * a), 1.0 - al * al) % math.pi
    n0 = math.ceil((lo * k - theta) / math.pi)
    n1 = math.floor((hi * k - theta) / math.pi)
    return np.array([(theta + n * math.pi) / k for n in range(n0, n1 + 1)])


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(x, dtype=float)))) for x in arrays)


def _rel(x, ref) -> float:
    return abs(x - ref) / abs(ref)


class Workload:
    """Base: a seeded stream of operations plus their checks."""

    name = ""
    #: kind -> share of the operation mix, for the weighted median.
    shares: dict[str, float] = {}
    #: operations in one pass through the mix; runs end on a whole cycle.
    cycle = 1
    #: operations in a run's fixed list (whole cycles), about 10 s of work.
    run_ops = 1
    #: operations run by the traced pass (fixed, so counts repeat).
    trace_ops = 1
    #: every n-th operation offers outputs for the mpmath comparison.
    sample_every = 1

    def __init__(self, dt, seed: int, workdir: str):
        self.dt = dt
        self.seed = seed
        # Separate stream, so that sampling never shifts the inputs.
        self.sample_rng = np.random.default_rng([seed, 1])
        self.workdir = workdir

    def ops(self) -> Iterator[Op]:
        """The seed's stream of operations; every call starts it afresh."""
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        """Names of the checks the output missed (empty when correct)."""
        raise NotImplementedError

    def samples(self, op: Op, out) -> list[Sample]:
        return []

    def extra(self, op: Op, out) -> dict:
        """Per-operation counts beyond time, summed over the run."""
        return {}

    def named(self, durations: dict[str, list[float]], totals: dict[str, int], rate: float) -> dict:
        """The workload's readable figures, under the names the README uses."""
        return {}


class BulkSweeps(Workload):
    """10^5-point sweeps over a, l and E in turn, plus one bulk_amplitudes call."""

    name = "bulk_sweeps"
    shares = {"width_a": 0.25, "separation_l": 0.25, "energy_E": 0.25, "bulk_amplitudes": 0.25}
    cycle = 4
    run_ops = 12
    trace_ops = 4

    def ops(self):
        dt, rng = self.dt, np.random.default_rng(self.seed)
        while True:
            E, V0 = window_point(rng)
            system = dt.kinematics.BarrierSystem(V0=V0, a=0.01, l=float(rng.uniform(0.1, 10.0)))
            spec = dt.scenarios.SweepSpec(
                swept="width_a", lo=0.01, hi=float(rng.uniform(4.0, 8.0)), points=SWEEP_POINTS,
                system=system, E=E, include_nr=True,
            )
            yield Op("width_a", SWEEP_POINTS, {"spec": repr(spec)}, lambda s=spec: dt.scenarios.run_sweep(s))

            E, V0 = window_point(rng)
            system = dt.kinematics.BarrierSystem(V0=V0, a=float(rng.uniform(0.1, 3.0)), l=0.01)
            spec = dt.scenarios.SweepSpec(
                swept="separation_l", lo=0.01, hi=float(rng.uniform(1000.0, 3000.0)),
                points=SWEEP_POINTS, system=system, E=E,
            )
            yield Op("separation_l", SWEEP_POINTS, {"spec": repr(spec)}, lambda s=spec: dt.scenarios.run_sweep(s))

            V0 = float(rng.uniform(0.2, 2.5))
            system = dt.kinematics.BarrierSystem(
                V0=V0, a=float(rng.uniform(0.1, 5.0)), l=float(rng.uniform(0.1, 10.0))
            )
            lo = max(1.0, V0 - 1.0) + MARGIN
            spec = dt.scenarios.SweepSpec(
                swept="energy_E", lo=lo, hi=V0 + 1.0 - MARGIN, points=SWEEP_POINTS, system=system, E=lo,
            )
            yield Op("energy_E", SWEEP_POINTS, {"spec": repr(spec)}, lambda s=spec: dt.scenarios.run_sweep(s))

            # A sub-seed names the 10^5 points in a failure record.
            grid_seed = int(rng.integers(2**63))
            grid = verify_grid(np.random.default_rng(grid_seed), SWEEP_POINTS)
            yield Op("bulk_amplitudes", SWEEP_POINTS, {"verify_grid_seed": grid_seed},
                     lambda g=grid: (g, dt.amplitudes.bulk_amplitudes(*g)))

    def check(self, op, out):
        if op.kind == "bulk_amplitudes":
            _, amp = out
            missed = []
            if not _finite(amp["magT2"], amp["magR2"], amp["phi_t"]):
                missed.append("finite")
            defect = float(np.max(np.abs(amp["magT2"] + amp["magR2"] - 1.0)))
            if not defect <= UNITARITY_TOL:
                missed.append(f"unitarity {defect:.3e}")
            return missed
        ds = out
        missed = []
        if len(ds) != SWEEP_POINTS:
            missed.append("length")
        if not _finite(ds.tau_p, ds.tau_i, ds.tau_d, ds.magT2, ds.phi_t):
            missed.append("finite")
        if not np.array_equal(ds.tau_d, ds.tau_p - ds.tau_i):
            missed.append("tau_d = tau_p - tau_i")
        if not (np.all(ds.magT2 >= 0.0) and np.all(ds.magT2 <= 1.0)):
            missed.append("0 <= |T|^2 <= 1")
        if np.any(np.abs(np.diff(ds.phi_t)) >= 0.5 * math.pi):
            missed.append("continued phase jumps")
        if op.kind == "width_a" and (ds.tau_p_nr is None or not _finite(ds.tau_p_nr)):
            missed.append("nonrelativistic curve")
        if op.kind != "energy_E" and ds.tau_p_opaque is None:
            missed.append("opaque reference")
        return missed

    def samples(self, op, out):
        picks = self.sample_rng.integers(0, SWEEP_POINTS, 3)
        if op.kind == "bulk_amplitudes":
            (E, V0, a, l), amp = out
            return [Sample(E[i], V0[i], a[i], l[i], None, None, amp["magT2"][i]) for i in picks]
        ds = out
        spec, base = ds.spec, ds.spec.system
        found = []
        for i in picks:
            x = float(ds.swept[i])
            E = x if spec.swept == "energy_E" else spec.E
            a = x if spec.swept == "width_a" else base.a
            l = x if spec.swept == "separation_l" else base.l
            found.append(Sample(E, base.V0, a, l, ds.tau_p[i], ds.tau_i[i], ds.magT2[i]))
        return found

    def named(self, durations, totals, rate):
        figures = {"sweep_points_per_s": rate}
        for kind in self.shares:
            if kind in durations:
                figures[f"{kind}_p50_s"] = statistics.median(durations[kind])
        return figures


class ScalarPoints(Workload):
    """One point at a time: time_report, then scattering_solution."""

    name = "scalar_points"
    shares = {"point": 1.0}
    run_ops = 64_000
    trace_ops = 2000
    sample_every = 400
    block = 4096

    def op_at(self, E, V0, a, l):
        K, T, A = self.dt.kinematics, self.dt.times, self.dt.amplitudes

        def point():
            report = T.time_report(E, K.BarrierSystem(V0=V0, a=a, l=l))
            solution = A.scattering_solution(E, K.BarrierSystem(V0=V0, a=a, l=l))
            return report, solution

        return Op("point", 1, {"E": E, "V0": V0, "a": a, "l": l}, point)

    def ops(self):
        rng = np.random.default_rng(self.seed)
        while True:
            grid = verify_grid(rng, self.block)
            for E, V0, a, l in zip(*(x.tolist() for x in grid)):
                yield self.op_at(E, V0, a, l)

    def check(self, op, out):
        report, solution = out
        missed = []
        if not _finite(report.tau_p, report.tau_i, solution.magT2, solution.magR2):
            missed.append("finite")
        if report.tau_d != report.tau_p - report.tau_i:
            missed.append("tau_d = tau_p - tau_i")
        defect = abs(solution.magT2 + solution.magR2 - 1.0)
        if not defect <= UNITARITY_TOL:
            missed.append(f"unitarity {defect:.3e}")
        return missed

    def samples(self, op, out):
        report, solution = out
        p = op.inputs
        return [Sample(p["E"], p["V0"], p["a"], p["l"], report.tau_p, report.tau_i, solution.magT2)]

    def named(self, durations, totals, rate):
        points = sorted(durations.get("point", ()))
        figures = {"points": len(points)}
        if points:
            figures["point_p50_us"] = 1e6 * statistics.median(points)
        if len(points) >= 1000:  # p99 needs ten samples beyond it
            figures["point_p99_us"] = 1e6 * points[int(0.99 * len(points))]
        return figures


class OracleCrosscheck(Workload):
    """One ``verify`` point at a time, with verify's checks and tolerances.

    ``verify`` integrates the dwell time for 25 of its default 200 points;
    every eighth point here does the same.
    """

    name = "oracle_crosscheck"
    shares = {"point": 7.0 / 8.0, "point+dwell": 1.0 / 8.0}
    cycle = 8
    run_ops = 16_000
    trace_ops = 400
    sample_every = 100
    block = 4096
    dwell_every = 8

    def op_at(self, E, V0, a, l, dwell=False):
        K, A, T, O = self.dt.kinematics, self.dt.amplitudes, self.dt.times, self.dt.oracle

        def point():
            system = K.BarrierSystem(V0=V0, a=a, l=l)
            out = {
                "closed": A.region_coefficients(E, system),
                "solved": O.tm_solve(E, system),
                "tau_p": T.phase_time_closed(E, system),
                "tau_p_numeric": O.numeric_phase_time(E, system),
            }
            if dwell:
                out["tau_d"] = T.dwell_time(E, system)
                out["tau_d_quadrature"] = O.dwell_integral(E, system)
            return out

        return Op("point+dwell" if dwell else "point", 1, {"E": E, "V0": V0, "a": a, "l": l}, point)

    def ops(self):
        rng = np.random.default_rng(self.seed)
        n = 0
        while True:
            grid = verify_grid(rng, self.block)
            for E, V0, a, l in zip(*(x.tolist() for x in grid)):
                yield self.op_at(E, V0, a, l, dwell=n % self.dwell_every == 0)
                n += 1

    def check(self, op, out):
        closed, solved = out["closed"], out["solved"]
        missed = []
        for name, floor in (("T", 0.0), ("R", 1e-30), ("C", 0.0), ("D", 1e-30)):
            x, ref = getattr(closed, name), getattr(solved, name)
            dev = abs(x - ref) / max(abs(ref), floor)
            if not dev <= AMPLITUDE_TOL:
                missed.append(f"closed {name} vs transfer solve {dev:.3e}")
        dev = _rel(out["tau_p"], out["tau_p_numeric"])
        if not dev <= NUMERIC_TOL:
            missed.append(f"phase time closed vs finite difference {dev:.3e}")
        if "tau_d" in out:
            dev = _rel(out["tau_d"], out["tau_d_quadrature"])
            if not dev <= NUMERIC_TOL:
                missed.append(f"dwell quadrature vs tau_p - tau_i {dev:.3e}")
        return missed

    def samples(self, op, out):
        p = op.inputs
        return [Sample(p["E"], p["V0"], p["a"], p["l"], out["tau_p"], None, abs(out["closed"].T) ** 2)]

    def named(self, durations, totals, rate):
        return {"crosscheck_points_per_s": rate}


_FIGURE_KINDS = ("2A", "2B", "2C", "3A", "3B")


class FiguresResonances(Workload):
    """The paper's reproduction job through ``cli.main``, in process.

    Each cycle writes the five canonical datasets (3B with its plot
    script), then lists resonances for one seeded (E, V0, a) over a short
    separation range and over a long one holding a fixed number of
    closed-form resonances.
    """

    name = "figures_resonances"
    shares = {kind: 1.0 / 7.0 for kind in (*(f"figure_{f}" for f in _FIGURE_KINDS), "resonances_short", "resonances_long")}
    cycle = 7
    run_ops = 42
    trace_ops = 7

    def __init__(self, dt, seed, workdir):
        super().__init__(dt, seed, workdir)
        os.makedirs(workdir, exist_ok=True)

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def ops(self):
        cli = self.dt.cli
        rng = np.random.default_rng(self.seed)

        def run(argv, outputs):
            code = cli.main(argv)
            return code, outputs

        while True:
            for fig in _FIGURE_KINDS:
                out = self._path(f"fig{fig}.csv")
                argv = ["figure", fig, "--out", out]
                outputs = [out]
                if fig == "3B":
                    argv += ["--format", "plot-script"]
                    outputs.append(self._path(f"fig{fig}.gp"))
                yield Op(f"figure_{fig}", 1, {"argv": argv}, lambda v=argv, o=outputs: run(v, o))
            E, V0 = window_point(rng, E_lo=1.5, E_hi=2.5)
            a = float(rng.uniform(0.3, 1.5))
            k = math.sqrt(E * E - 1.0)
            for kind, lo, hi in (
                ("resonances_short", 0.5, 0.5 + 3.5 * math.pi / k),
                ("resonances_long", 0.01, 0.01 + LONG_RANGE_RESONANCES * math.pi / k),
            ):
                out = self._path(f"{kind}.csv")
                argv = ["resonances", "--E", repr(E), "--V0", repr(V0), "--a", repr(a),
                        "--l-lo", repr(lo), "--l-hi", repr(hi), "--out", out]
                yield Op(kind, 1, {"E": E, "V0": V0, "a": a, "l_lo": lo, "l_hi": hi},
                         lambda v=argv, o=[out]: run(v, o))

    def check(self, op, out):
        code, outputs = out
        if code != 0:
            return [f"exit code {code}"]
        if op.kind.startswith("figure_"):
            return self._check_figure(op, outputs)
        return self._check_resonances(op, outputs)

    def _check_figure(self, op, outputs):
        header, data = _read_table(outputs[0])
        missed = []
        spec = self.dt.scenarios.figure_spec(op.kind[len("figure_"):])
        if data.shape[0] != spec.points:
            missed.append("row count")
        for column in ("swept", "tau_p", "tau_d", "tau_i", "t_free", "t_light", "T2",
                       "tau_p_opaque", "tau_d_opaque"):
            if column not in header:
                missed.append(f"column {column}")
        if not _finite(data):
            missed.append("finite")
        if len(outputs) > 1:
            with open(outputs[1], encoding="ascii") as fh:
                if outputs[0] not in fh.read():
                    missed.append("plot script names its CSV")
        return missed

    def _check_resonances(self, op, outputs):
        header, data = _read_table(outputs[0])
        p = op.inputs
        if header != ["l", "absR", "tau_p", "tau_d"]:
            return ["header"]
        present = resonance_separations(p["E"], p["V0"], p["a"], p["l_lo"], p["l_hi"])
        missed = []
        for l_star, abs_r in zip(data[:, 0], data[:, 1]):
            if not abs_r < RESONANCE_ABS_R:
                missed.append(f"|R| {abs_r:.3e} at l={l_star!r}")
            if present.size == 0 or np.min(np.abs(present - l_star)) > RESONANCE_DL:
                missed.append(f"l={l_star!r} is not a closed-form resonance")
        return missed[:5]

    def named(self, durations, totals, rate):
        figures = {}
        kinds = [k for k in self.shares if k.startswith("figure_")]
        if all(k in durations for k in kinds):
            figures["figures_s"] = sum(statistics.median(durations[k]) for k in kinds)
        kinds = ["resonances_short", "resonances_long"]
        if all(k in durations for k in kinds):
            figures["resonances_s"] = sum(statistics.median(durations[k]) for k in kinds)
        if totals.get("present"):
            figures["resonance_recall"] = totals["found"] / totals["present"]
        figures["cli_bytes_out"] = totals.get("bytes_out", 0)
        return figures

    def extra(self, op, out):
        code, outputs = out
        stats = {"bytes_out": sum(os.path.getsize(p) for p in outputs if os.path.exists(p))}
        if op.kind.startswith("resonances") and code == 0:
            _, data = _read_table(outputs[0])
            p = op.inputs
            stats["found"] = int(data.shape[0])
            stats["present"] = int(resonance_separations(p["E"], p["V0"], p["a"], p["l_lo"], p["l_hi"]).size)
        return stats

    def samples(self, op, out):
        code, outputs = out
        if code != 0 or not op.kind.startswith("figure_"):
            return []
        header, data = _read_table(outputs[0])
        spec = self.dt.scenarios.figure_spec(op.kind[len("figure_"):])
        col = {name: i for i, name in enumerate(header)}
        # The CSV rounds the swept value to 12 digits; sample the exact grid point.
        grid = np.linspace(spec.lo, spec.hi, spec.points)
        found = []
        for i in self.sample_rng.integers(0, data.shape[0], 2):
            x = float(grid[i])
            a = x if spec.swept == "width_a" else spec.system.a
            l = x if spec.swept == "separation_l" else spec.system.l
            found.append(Sample(spec.E, spec.system.V0, a, l, data[i, col["tau_p"]],
                                data[i, col["tau_i"]], data[i, col["T2"]]))
        return found


def _read_table(path):
    """Header and rows of a CSV written by the CLI (read independently of it)."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data.reshape(-1, len(header))


WORKLOADS = {w.name: w for w in (BulkSweeps, ScalarPoints, OracleCrosscheck, FiguresResonances)}
