"""Command-line front end.

Subcommands
-----------
point       print the time scales at one parameter point as a CSV row
sweep       run a one-parameter sweep and emit CSV (or CSV + plot script)
figure      evaluate one of the canonical datasets 2A, 2B, 2C, 3A, 3B
resonances  locate |R| minima in the separation l
verify      cross-check closed forms against the numerical oracle

Parameters can come from flags, from a ``key=value`` config file passed
with ``--config`` (one pair per line, ``#`` starts a comment), or both;
flags override file values.  Unknown or malformed config keys are usage
errors.

Exit codes: 0 success, 1 I/O failure, 2 invalid or out-of-regime
parameters, 3 internal consistency failure.

CSV files use 12 significant digits, LF line endings and a stable column
order, so a fixed dataset always produces byte-identical output.  Every
table is rendered with one ``%`` format: a ``%.11e`` row template,
repeated once per row and filled from the flattened table, gives the same
bytes as formatting each value with ``f"{v:.11e}"``.  The argument parser
is built once per process.  Plot
scripts are plain gnuplot (5.4+ for column-by-name access) reading the
emitted CSV; saturated reference times appear as dashed lines.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .amplitudes import bulk_amplitudes, region_coefficients
from .kinematics import BarrierSystem, RegimeError
from .oracle import _phase_time_stack, _tm_stack, dwell_integral, random_evanescent_grid
from .scenarios import (
    FIGURE_IDS,
    SweepDataset,
    SweepSpec,
    figure_datasets,
    find_resonances,
    run_sweep,
)
from .times import ConsistencyError, _bulk_times, time_report

__all__ = [
    "RunConfig",
    "emit_csv",
    "emit_plot_script",
    "entry_point",
    "main",
    "parse_config",
    "read_csv",
]


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation parameters for one command."""

    command: str
    E: float | None = None
    V0: float | None = None
    a: float | None = None
    l: float | None = None
    mass: float = 1.0
    swept: str | None = None
    lo: float | None = None
    hi: float | None = None
    points: int | None = None
    include_nr: bool = False
    include_opaque_reference: bool = True
    figure: str | None = None
    l_lo: float | None = None
    l_hi: float | None = None
    count: int = 200
    seed: int = 1
    out: str | None = None
    format: str = "csv"


_FLOAT_KEYS = {"E", "V0", "a", "l", "mass", "lo", "hi", "l_lo", "l_hi"}
_INT_KEYS = {"points", "count", "seed"}
_BOOL_KEYS = {"include_nr", "include_opaque_reference"}

_COMMAND_KEYS = {
    "point": {"E", "V0", "a", "l", "mass", "out"},
    "sweep": {
        "swept", "lo", "hi", "points", "E", "V0", "a", "l", "mass",
        "include_nr", "include_opaque_reference", "out", "format",
    },
    "figure": {"figure", "out", "format"},
    "resonances": {"E", "V0", "a", "mass", "l_lo", "l_hi", "out"},
    "verify": {"count", "seed"},
}

_SWEPT_ALIASES = {
    "a": "width_a",
    "width_a": "width_a",
    "l": "separation_l",
    "separation_l": "separation_l",
    "E": "energy_E",
    "energy_E": "energy_E",
}

_DEFAULTS = {
    "mass": 1.0,
    "include_nr": False,
    "include_opaque_reference": True,
    "format": "csv",
    "count": 200,
    "seed": 1,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-tunneling",
        description="Tunneling times of a Dirac particle through two rectangular barriers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="FILE", help="key=value config file")
        p.add_argument("--out", help="output path (default: stdout)")

    def add_system(p, with_l=True):
        p.add_argument("--E", type=float, help="total energy (units of the rest mass)")
        p.add_argument("--V0", type=float, help="barrier height")
        p.add_argument("--a", type=float, help="barrier width")
        if with_l:
            p.add_argument("--l", type=float, help="barrier separation")
        p.add_argument("--mass", type=float, help="rest mass (default 1)")

    p = sub.add_parser("point", help="time scales at a single parameter point")
    add_system(p)
    add_common(p)

    p = sub.add_parser("sweep", help="sweep one parameter over a uniform grid")
    p.add_argument("--swept", help="axis: a | l | E (aliases width_a, separation_l, energy_E)")
    p.add_argument("--lo", type=float, help="lower end of the sweep range")
    p.add_argument("--hi", type=float, help="upper end of the sweep range")
    p.add_argument("--points", type=int, help="number of grid points")
    add_system(p)
    p.add_argument("--include-nr", action=argparse.BooleanOptionalAction, default=None,
                   help="add the nonrelativistic phase-time column")
    p.add_argument("--include-opaque-reference", action=argparse.BooleanOptionalAction,
                   default=None, help="add saturated reference constants (default on)")
    p.add_argument("--format", choices=("csv", "plot-script"),
                   help="csv (default) or plot-script (CSV plus gnuplot file)")
    add_common(p)

    p = sub.add_parser("figure", help="evaluate a canonical dataset")
    p.add_argument("figure", nargs="?", metavar="ID",
                   help=f"dataset id, one of {', '.join(FIGURE_IDS)}")
    p.add_argument("--format", choices=("csv", "plot-script"))
    add_common(p)

    p = sub.add_parser("resonances", help="locate |R| minima in the separation l")
    add_system(p, with_l=False)
    p.add_argument("--l-lo", type=float, help="lower end of the separation range")
    p.add_argument("--l-hi", type=float, help="upper end of the separation range")
    add_common(p)

    p = sub.add_parser("verify", help="cross-check closed forms against the oracle")
    p.add_argument("--count", type=int, help="random grid size (default 200)")
    p.add_argument("--seed", type=int, help="random seed (default 1)")
    p.add_argument("--config", metavar="FILE", help="key=value config file")

    return parser


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            entries[key.strip()] = value.strip()
    return entries


def _convert(parser, key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            lowered = raw.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
    except ValueError:
        parser.error(f"invalid value for config key {key!r}: {raw!r}")
    return raw


def parse_config(argv=None) -> RunConfig:
    """Parse flags and the optional config file into a RunConfig.

    File keys carry the same names as the long flags (with underscores,
    e.g. ``l_lo``); command-line flags override file values.  Usage
    problems (unknown keys, missing required keys, malformed values) exit
    with code 2 through the standard argparse error path.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    command = ns.command
    keys = _COMMAND_KEYS[command]

    merged: dict[str, object] = {}
    if getattr(ns, "config", None):
        for key, raw in _read_config_file(ns.config).items():
            if key not in keys:
                parser.error(f"unknown config key {key!r} for command {command!r}")
            merged[key] = _convert(parser, key, raw)
    for key in keys:
        cli_value = getattr(ns, key, None)
        if cli_value is not None:
            merged[key] = cli_value
    for key, default in _DEFAULTS.items():
        if key in keys:
            merged.setdefault(key, default)

    if command == "sweep":
        swept_raw = merged.get("swept")
        if swept_raw is not None:
            canonical = _SWEPT_ALIASES.get(str(swept_raw))
            if canonical is None:
                parser.error(f"invalid swept axis {swept_raw!r}; "
                             f"choose from {sorted(set(_SWEPT_ALIASES))}")
            merged["swept"] = canonical
        required = {"swept", "lo", "hi", "points", "V0"}
        axis_param = {"width_a": "a", "separation_l": "l", "energy_E": "E"}.get(
            merged.get("swept"), None
        )
        for name in ("E", "a", "l"):
            if name != axis_param:
                required.add(name)
    elif command == "point":
        required = {"E", "V0", "a", "l"}
    elif command == "figure":
        required = {"figure"}
    elif command == "resonances":
        required = {"E", "V0", "a", "l_lo", "l_hi"}
    else:
        required = set()

    missing = sorted(key for key in required if merged.get(key) is None)
    if missing:
        parser.error(f"missing required key(s) for {command}: {', '.join(missing)}")

    if command == "figure":
        figure_id = str(merged["figure"]).upper()
        if figure_id not in FIGURE_IDS:
            parser.error(f"unknown dataset id {merged['figure']!r}; "
                         f"choose from {', '.join(FIGURE_IDS)}")
        merged["figure"] = figure_id
    if merged.get("format") == "plot-script" and not merged.get("out"):
        parser.error("--format plot-script requires --out (the CSV path)")

    return RunConfig(command=command, **merged)


def _render_table(names: list[str], table, constants=()) -> str:
    """CSV text of a float table: the header line, then one ``%.11e`` row per line.

    One row template is repeated per row and filled by a single ``%`` on the
    flattened table; the bytes equal those of formatting each value with
    ``f"{v:.11e}"``.  ``constants`` are trailing columns with one value for
    every row, formatted once into the template.
    """
    table = np.asarray(table, dtype=float).reshape(-1, len(names) - len(constants))
    row = ",".join(["%.11e"] * table.shape[1] + ["%.11e" % c for c in constants]) + "\n"
    return ",".join(names) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def _render_csv(dataset: SweepDataset) -> str:
    columns = {
        "swept": dataset.swept,
        "tau_p": dataset.tau_p,
        "tau_d": dataset.tau_d,
        "tau_i": dataset.tau_i,
        "t_free": dataset.t_free,
        "t_light": dataset.t_light,
        "T2": dataset.magT2,
    }
    if dataset.tau_p_nr is not None:
        columns["tau_p_nr"] = dataset.tau_p_nr
    names, constants = list(columns), ()
    if dataset.tau_p_opaque is not None:
        names += ["tau_p_opaque", "tau_d_opaque"]
        constants = (dataset.tau_p_opaque, dataset.tau_d_opaque)
    return _render_table(names, np.column_stack(list(columns.values())), constants)


def emit_csv(dataset: SweepDataset, path) -> None:
    """Write a sweep dataset as CSV with LF endings, 12 significant digits."""
    if len(dataset) == 0:
        raise ValueError("refusing to emit an empty dataset")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(_render_csv(dataset))


def read_csv(path) -> dict[str, np.ndarray]:
    """Read back an emitted CSV as a column-name to array mapping."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        return {name: np.empty(0) for name in header}
    return {name: data[:, i].copy() for i, name in enumerate(header)}


_XLABELS = {
    "width_a": "barrier width a",
    "separation_l": "separation l",
    "energy_E": "energy E",
}
_CURVE_COLUMNS = (
    ("tau_p", "phase time"),
    ("tau_d", "dwell time"),
    ("tau_p_nr", "NR phase time"),
    ("t_free", "free transit"),
    ("t_light", "light transit"),
)
_DASHED_COLUMNS = (
    ("tau_p_opaque", "saturated phase time"),
    ("tau_d_opaque", "saturated dwell time"),
)


def emit_plot_script(csv_path, figure_id=None, script_path=None, xlabel=None) -> str:
    """Write a gnuplot script that plots an emitted CSV; returns its path.

    The script references columns by name (gnuplot 5.4+), draws every
    curve column found in the CSV header, and renders the saturated
    reference columns with a dashed line type.
    """
    csv_path = os.fspath(csv_path)
    if not os.path.exists(csv_path):
        raise FileNotFoundError(f"dataset CSV not found: {csv_path}")
    with open(csv_path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    if xlabel is None:
        if figure_id is not None and str(figure_id).upper().startswith("3"):
            xlabel = _XLABELS["separation_l"]
        else:
            xlabel = _XLABELS["width_a"]
    if script_path is None:
        script_path = str(Path(csv_path).with_suffix(".gp"))

    terms = []
    for name, title in _CURVE_COLUMNS:
        if name in header:
            terms.append(
                f'csv using (column("swept")):(column("{name}")) '
                f'with lines linewidth 2 title "{title}"'
            )
    for name, title in _DASHED_COLUMNS:
        if name in header:
            terms.append(
                f'csv using (column("swept")):(column("{name}")) '
                f'with lines dashtype 2 title "{title}"'
            )
    plot_body = ", \\\n     ".join(terms)
    tag = figure_id if figure_id is not None else "sweep"
    script = (
        f"# gnuplot script for dataset {tag} (gnuplot 5.4+)\n"
        "set datafile separator comma\n"
        "set datafile columnheaders\n"
        f'csv = "{csv_path}"\n'
        f'set xlabel "{xlabel}"\n'
        'set ylabel "time [1/m]"\n'
        "set key top right\n"
        f"plot {plot_body}\n"
    )
    with open(script_path, "w", encoding="ascii", newline="") as fh:
        fh.write(script)
    return script_path


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _cmd_point(cfg: RunConfig) -> int:
    system = BarrierSystem(V0=cfg.V0, a=cfg.a, l=cfg.l, mass=cfg.mass)
    r = time_report(cfg.E, system)
    _write_text(_render_table(["tau_p", "tau_d", "tau_i", "t_free", "t_light"],
                              [r.tau_p, r.tau_d, r.tau_i, r.t_free, r.t_light]), cfg.out)
    return 0


def _deliver_dataset(dataset: SweepDataset, cfg: RunConfig, xlabel: str) -> int:
    if cfg.format == "csv":
        if cfg.out is None:
            sys.stdout.write(_render_csv(dataset))
        else:
            emit_csv(dataset, cfg.out)
        return 0
    emit_csv(dataset, cfg.out)
    script = emit_plot_script(cfg.out, figure_id=cfg.figure, xlabel=xlabel)
    sys.stderr.write(f"wrote {cfg.out} and {script}\n")
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    a0 = cfg.a if cfg.a is not None else max(cfg.lo, 0.0)
    l0 = cfg.l if cfg.l is not None else max(cfg.lo, 0.0)
    E0 = cfg.E if cfg.E is not None else cfg.lo
    spec = SweepSpec(
        swept=cfg.swept,
        lo=cfg.lo,
        hi=cfg.hi,
        points=cfg.points,
        system=BarrierSystem(V0=cfg.V0, a=a0, l=l0, mass=cfg.mass),
        E=E0,
        include_nr=cfg.include_nr,
        include_opaque_reference=cfg.include_opaque_reference,
    )
    dataset = run_sweep(spec)
    return _deliver_dataset(dataset, cfg, xlabel=_XLABELS[cfg.swept])


def _cmd_figure(cfg: RunConfig) -> int:
    dataset = figure_datasets(cfg.figure)
    xlabel = _XLABELS[dataset.spec.swept]
    return _deliver_dataset(dataset, cfg, xlabel=xlabel)


def _cmd_resonances(cfg: RunConfig) -> int:
    system = BarrierSystem(V0=cfg.V0, a=cfg.a, l=max(cfg.l_lo, 0.0), mass=cfg.mass)
    hits = find_resonances(system, cfg.E, (cfg.l_lo, cfg.l_hi))
    _write_text(_render_table(["l", "absR", "tau_p", "tau_d"], hits), cfg.out)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    grid = random_evanescent_grid(cfg.count, seed=cfg.seed)
    E, V0, a, l = grid["E"], grid["V0"], grid["a"], grid["l"]
    failures = []

    def check(name: str, worst: float, tol: float) -> None:
        status = "ok" if worst <= tol else "FAIL"
        print(f"{name}: max relative deviation {worst:.3e} (tolerance {tol:g}) {status}")
        if worst > tol:
            failures.append(name)

    bulk = bulk_amplitudes(E, V0, a, l)
    check("unitarity |T|^2+|R|^2-1", float(np.max(np.abs(bulk["magT2"] + bulk["magR2"] - 1.0))), 1e-12)

    # The oracle side is one stacked solve for the coefficients and one for all the
    # phase-time stencils; the closed times are one bulk call, the closed
    # coefficients and the dwell quadratures are evaluated point by point.
    points = list(zip(E.tolist(), (BarrierSystem(V0=v, a=w, l=s)
                                   for v, w, s in zip(V0.tolist(), a.tolist(), l.tolist()))))
    closed = [region_coefficients(e, s) for e, s in points]
    solved = _tm_stack(E, V0, a, l)
    for name, floor in (("T", 0.0), ("R", 1e-30), ("C", 0.0), ("D", 1e-30)):
        ref = getattr(solved, name)
        x = np.array([getattr(c, name) for c in closed])
        worst = float(np.max(np.abs(x - ref) / np.maximum(np.abs(ref), floor)))
        check(f"closed {name} vs transfer solve", worst, 1e-10)

    times = _bulk_times(E, V0, a, l)
    numeric = _phase_time_stack(E, V0, a, l)
    check("phase time closed vs finite difference",
          float(np.max(np.abs(times["tau_p"] - numeric) / np.abs(numeric))), 1e-6)

    n_dwell = min(cfg.count, 25)
    quad = np.array([dwell_integral(e, s) for e, s in points[:n_dwell]])
    check(f"dwell quadrature vs tau_p - tau_i ({n_dwell} pts)",
          float(np.max(np.abs(quad - times["tau_d"][:n_dwell]) / np.abs(quad))), 1e-6)

    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 3
    print("all checks passed")
    return 0


_DISPATCH = {
    "point": _cmd_point,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "resonances": _cmd_resonances,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        return _DISPATCH[cfg.command](cfg)
    except RegimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))
