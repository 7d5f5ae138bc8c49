"""Benchmark of the dirac_tunneling package: one workload, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload bulk_sweeps --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the seed's fixed list of operations in a closed loop
with one client, once through and then again until ``--seconds`` seconds
of operation time have gone, and prints the end-to-end metrics;
``--trace 1`` runs a fixed list of operations untraced and traced in
turn, twice each after a warm-up, and prints the per-layer metrics.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the same run in readable form.  A full record (machine, failures with their
inputs, accuracy details) goes to ``.perfbench_out/`` under the
repository root, and a traced run writes its spans there too.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

# Single-threaded measurement: pin every BLAS/OpenMP pool before numpy loads.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402  (after the pins)
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120.0
SETUP_SCRIPT = (
    "import sys\n"
    f"sys.path.insert(0, {SRC!r})\n"
    "import dirac_tunneling as dt\n"
    "dt.time_report(1.8, dt.BarrierSystem(V0=1.5, a=0.7, l=0.7))\n"
    "dt.figure_datasets('2A')\n"
)
# Workload outputs compared with mpmath per run (untimed).
REFERENCE_SAMPLES = 120
# The loop is cut into windows of whole cycles holding at least this much
# operation time.  On a shared machine the speed of the CPU swings by tens
# of percent over seconds; the sustained figures (the throughput reached
# and the latency kept in three windows out of four) move far less between
# runs than whole-run averages do.
WINDOW_S = 0.5
# Speed probes (below) are taken every PROBE_EVERY_S of operation time;
# a window is credited with the geometric mean of its probes.  Timings are
# scaled to a probe time of PROBE_REF_S, the probe's time at the machine's
# usual speed, by the probe-time ratio to the power SPEED_EXPONENT: over
# the windows of all four workloads on the machine in README.md, the
# package's throughput moved with about that power of the probe time
# (the probe reacts more strongly than the package does).
PROBE_EVERY_S = 0.25
PROBE_REF_S = 0.0045
SPEED_EXPONENT = 0.5
_PROBE_ARRAY = np.linspace(0.0, 1.0, 50_000)


def speed_probe() -> float:
    """Time of a fixed piece of interpreter and numpy work, best of three.

    The shared machine switches, within seconds, between speeds some
    20-50% apart, and this work speeds up and slows down with the
    package's own.  The probe is benchmark code, so a change to the
    package does not move it.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        z, acc = complex(0.3, 0.7), 0j
        for i in range(10_000):
            acc = acc * 0.5 + z * (i % 13)
        x = _PROBE_ARRAY
        for _ in range(3):
            x = np.sqrt(x * 1.0001 + 0.5) * np.cos(x)
        best = min(best, time.perf_counter() - t0)
    return best


def load_package():
    """Import the package from the checkout's source tree."""
    if not os.path.isfile(os.path.join(SRC, "dirac_tunneling", "__init__.py")):
        raise ImportError(f"no dirac_tunneling package under {SRC}")
    sys.path.insert(0, SRC)
    import dirac_tunneling
    import dirac_tunneling.cli  # noqa: F401  (binds every layer as an attribute)

    return dirac_tunneling


def to_reference_speed(seconds: float, probe: float) -> float:
    """A time measured next to a probe of ``probe`` seconds, at the usual speed."""
    return seconds * (PROBE_REF_S / probe) ** SPEED_EXPONENT


def measure_setup() -> list[float]:
    """Fresh interpreter to first result: import, one point, one canonical sweep.

    Each start is awaited with a blocking wait: a wait with a timeout polls
    at up to 50 ms steps and would round every time up to that step.  A
    timer kills a start that hangs instead.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        probe = speed_probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_SCRIPT], stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        if i:  # the first start compiles bytecode once
            times.append(to_reference_speed(elapsed, probe))
    return times


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "threads": THREAD_ENV,
    }


def weighted_median(durations: dict[str, list[float]], shares: dict[str, float]) -> float:
    """Each kind's median operation time, averaged with its share of the mix.

    Kinds without a completed operation are left out and the shares of the
    rest renormalized.
    """
    present = {kind: share for kind, share in shares.items() if durations.get(kind)}
    total = sum(present.values())
    return sum(share * statistics.median(durations[kind]) for kind, share in present.items()) / total


def quartile(values: list[float], which: int) -> float:
    """First (1) or third (3) quartile, as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[which - 1]


class Run:
    """Executes operations, checks them and keeps the failure record."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.items = 0
        self.spent = 0.0
        self.failures: list[dict] = []
        self.failed: set[int] = set()
        self.durations: dict[str, list[float]] = {}
        self.totals: dict[str, int] = {}
        self.samples: list[tuple[int, workloads.Op, workloads.Sample]] = []
        self.window: dict[str, list[float]] = {}
        self.window_start = (0.0, 0)
        self.probes: list[float] = []
        #: (items per second, weighted median operation time or None, probe), as measured
        self.windows: list[tuple[float, float | None, float]] = []

    def execute(self, op, index: int, keep_sample=False) -> None:
        """Run one operation; record a failure instead of raising.

        ``index`` is the operation's place in the run's list.  A repeated
        index counts once in ``attempted`` and once at most in the failures.
        """
        self.attempted = max(self.attempted, index + 1)
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a defect in the program: count it, keep going
            self.spent += time.perf_counter() - t0
            self.fail(index, op, f"{type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - t0
        self.spent += elapsed
        self.items += op.items
        self.durations.setdefault(op.kind, []).append(elapsed)
        self.window.setdefault(op.kind, []).append(elapsed)
        try:
            missed = self.workload.check(op, out)
            extra = self.workload.extra(op, out)
            samples = self.workload.samples(op, out) if keep_sample and not missed else []
        except Exception as exc:  # output that cannot be read back is a failure too
            self.fail(index, op, f"output unreadable: {type(exc).__name__}: {exc}")
            return
        if missed:
            self.fail(index, op, "; ".join(missed))
        for key, value in extra.items():
            self.totals[key] = self.totals.get(key, 0) + value
        self.samples.extend((index, op, s) for s in samples)

    def close_window(self) -> None:
        if not self.probes:
            self.probes.append(speed_probe())
        probe = math.exp(statistics.fmean(math.log(p) for p in self.probes))
        spent, items = self.window_start
        latency = None
        if all(kind in self.window for kind in self.workload.shares):
            latency = weighted_median(self.window, self.workload.shares)
        self.windows.append(((self.items - items) / (self.spent - spent), latency, probe))
        self.window = {}
        self.window_start = (self.spent, self.items)
        self.probes = []

    def window_rates(self) -> list[float]:
        """Each window's throughput at the usual speed of the machine."""
        return [1.0 / to_reference_speed(1.0 / rate, probe) for rate, _, probe in self.windows]

    def window_latencies(self) -> list[float]:
        """Each complete window's median operation time at the usual speed."""
        return [to_reference_speed(latency, probe) for _, latency, probe in self.windows if latency is not None]

    def fail(self, index: int, op, reason: str) -> None:
        if index not in self.failed:
            self.failed.add(index)
            self.failures.append({"index": index, "kind": op.kind, "inputs": op.inputs, "reason": reason})


def measure(workload, seconds: float) -> Run:
    """Closed loop over the run's operation list for ``seconds`` of operation time.

    The list is the first ``run_ops`` operations of the seed's stream.  It
    is always run through once, so every run with a seed attempts and
    checks the same operations, whatever the speed of the machine; further
    passes over the same list fill the remaining time, and the loop stops
    on a whole cycle of the mix.
    """
    run = Run(workload)
    wall_limit = time.perf_counter() + 3.0 * seconds + 60.0
    first_pass = True
    probed = 0.0
    while True:
        for index, op in enumerate(itertools.islice(workload.ops(), workload.run_ops)):
            keep = first_pass and index % workload.sample_every == 0 and len(run.samples) < REFERENCE_SAMPLES
            run.execute(op, index, keep_sample=keep)
            if run.spent - probed >= PROBE_EVERY_S:
                run.probes.append(speed_probe())
                probed = run.spent
            if (index + 1) % workload.cycle:
                continue
            if run.spent - run.window_start[0] >= WINDOW_S or run.spent >= seconds and not run.windows:
                run.close_window()
            if not first_pass and (run.spent >= seconds or time.perf_counter() > wall_limit):
                return run
        first_pass = False
        if run.spent >= seconds or time.perf_counter() > wall_limit:
            return run


def check_samples(run: Run, reference) -> None:
    """Compare sampled outputs with mpmath; a miss fails its operation."""
    tol = workloads.REFERENCE_TOL
    for index, op, s in run.samples[:REFERENCE_SAMPLES]:
        tau_p, tau_i, mag_t2 = reference.reference_point(s.E, s.V0, s.a, s.l)
        missed = []
        if s.tau_p is not None and not abs(s.tau_p - tau_p) <= tol * abs(tau_p):
            missed.append(f"tau_p {s.tau_p!r} vs mpmath {tau_p!r}")
        if s.tau_i is not None and not abs(s.tau_i - tau_i) <= tol * reference.tau_i_scale(s.E):
            missed.append(f"tau_i {s.tau_i!r} vs mpmath {tau_i!r}")
        if s.magT2 is not None and mag_t2 > 0.0 and not abs(s.magT2 - mag_t2) <= tol * mag_t2:
            missed.append(f"|T|^2 {s.magT2!r} vs mpmath {mag_t2!r}")
        if missed:
            run.fail(index, op, f"reference at E={s.E!r}, V0={s.V0!r}, a={s.a!r}, l={s.l!r}: " + "; ".join(missed))


def end_to_end(args, dt, workload, reference) -> tuple[dict, dict]:
    setup = measure_setup()
    run = measure(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_samples(run, reference)
    # Without a window holding every kind, op_p50_ms does not describe the mix.
    latencies = run.window_latencies()
    complete = bool(latencies)
    latencies = latencies or [weighted_median(run.durations, workload.shares)]
    grid = reference.accuracy_grid()
    worst, where, raised = reference.measure_accuracy(dt, grid)

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "items_per_s": (quartile(run.window_rates(), 1), "1/s"),
        "op_p50_ms": (1e3 * quartile(latencies, 3), "ms"),
        **{name: (value, "ratio") for name, value in worst.items()},
    }
    named = {"failed_share": len(run.failures) / run.attempted,
             **workload.named(run.durations, run.totals, metrics["items_per_s"][0])}
    record = {
        "setup_runs_s": setup,
        "operation_time_s": run.spent,
        "windows_rate_p50_probe": run.windows,
        "durations_p50_s": {k: statistics.median(v) for k, v in run.durations.items()},
        "named": named,
        "failures": run.failures,
        "accuracy_worst_at": where,
        "accuracy_grid_points": len(grid),
        "accuracy_grid_raised": raised,
    }
    lines = [f"{name} = {value:.6g}" for name, value in named.items()]
    lines.append(f"accuracy grid: {len(raised)} of {len(grid)} points raised")
    return _result(run, metrics, lines, correct=complete), record


def traced(args, dt, workload) -> tuple[dict, dict]:
    from spans import Tracer

    gen = workload.ops()
    ops = [next(gen) for _ in range(workload.trace_ops)]
    run = Run(workload)

    def one_pass():
        t0 = time.perf_counter()
        for index, op in enumerate(ops):
            run.execute(op, index)
        return time.perf_counter() - t0

    one_pass()  # warm-up, so that first-call costs stay out of the overhead
    tracer = Tracer()
    summaries, untraced_s, traced_s = [], [], []
    for _ in range(2):
        untraced_s.append(one_pass())
        tracer.reset()
        bytes_before = run.totals.get("bytes_out", 0)
        tracer.install(dt)
        try:
            traced_s.append(one_pass())
        finally:
            tracer.uninstall()
        tracer.add("cli.bytes_out", run.totals.get("bytes_out", 0) - bytes_before)
        summaries.append(tracer.summary())
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.json.gz"))

    first, second = summaries
    counts_repeat = all(first[k] == second[k] for k in first if not k.endswith(".self_s"))
    metrics = {}
    for key, value in first.items():
        if key.endswith(".self_s"):
            metrics[key] = (0.5 * (value + second[key]), "s")
        else:
            metrics[key] = (value, "bytes" if key == "cli.bytes_out" else "count")
    metrics["trace.overhead_frac"] = (statistics.mean(traced_s) / statistics.mean(untraced_s) - 1.0, "ratio")
    lines = [
        "untraced passes " + ", ".join(f"{t:.4f} s" for t in untraced_s)
        + "; traced passes " + ", ".join(f"{t:.4f} s" for t in traced_s),
        f"counts repeat between the two traced passes: {counts_repeat}",
    ]
    record = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "counts_repeat": counts_repeat,
        "failures": run.failures,
    }
    return _result(run, metrics, lines, correct=counts_repeat), record


def _result(run, metrics, lines, correct):
    result = {
        "correct": bool(correct),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()] + lines
    lines.append(f"attempted {run.attempted}, failed {len(run.failures)}")
    lines += [f"FAILED {f['kind']}: {f['reason']} inputs={f['inputs']}" for f in run.failures[:10]]
    return {"result": result, "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        dt = load_package()
        import reference
    except ImportError as exc:
        print(f"cannot load the package or its reference: {exc}", file=sys.stderr)
        return 2

    reference.self_test()
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](dt, args.seed, workdir)
    try:
        if args.trace:
            out, record = traced(args, dt, workload)
        else:
            out, record = end_to_end(args, dt, workload, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "result": out["result"],
        **record,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
