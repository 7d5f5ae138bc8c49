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
flags override file values.  Config-file keys are exactly the flag names,
with underscores (``l_lo`` for ``--l-lo``), and their values pass the same
type and choice checks as the flags.  Unknown keys, malformed values and
a ``count`` below 1 are usage errors.  Each key is declared once, in one
table that builds the parser, checks file values and names what each
subcommand takes; defaults are those of :class:`RunConfig`.

Exit codes: 0 success, 1 I/O failure, 2 invalid or out-of-regime
parameters, 3 internal consistency failure.

CSV files use 12 significant digits, LF line endings and a stable column
order, so a fixed dataset always produces byte-identical output.  A numpy
kernel renders tables in blocks of ``_BLOCK`` rows with the bytes of
``f"{v:.11e}"``: one correctly rounded scaling by a power of ten, an exact
split into digits, and Python's ``%`` for values near a tie.  The parser is
built once per process.  Plot scripts are gnuplot (5.4+, columns by name)
reading the emitted CSV, saturated reference times as dashed lines.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .amplitudes import RegionCoefficients, _bulk, _coefficient_fields
from .kinematics import BarrierSystem
from .oracle import _oracle_stack, random_evanescent_grid
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


_SYSTEM = ("point", "sweep", "resonances")
_OUTPUT = ("point", "sweep", "figure", "resonances")

# Every CLI key, declared once: its type, the subcommands that take it and its
# help text.  A tuple type is a set of choices, bool a --key/--no-key switch.
# The same table builds the flags and converts config-file values; defaults
# are RunConfig's.
_KEYS = {
    "figure": (str, ("figure",), f"dataset id, one of {', '.join(FIGURE_IDS)}"),
    "swept": (str, ("sweep",), "axis: a | l | E (aliases width_a, separation_l, energy_E)"),
    "lo": (float, ("sweep",), "lower end of the sweep range"),
    "hi": (float, ("sweep",), "upper end of the sweep range"),
    "points": (int, ("sweep",), "number of grid points"),
    "E": (float, _SYSTEM, "total energy (units of the rest mass)"),
    "V0": (float, _SYSTEM, "barrier height"),
    "a": (float, _SYSTEM, "barrier width"),
    "l": (float, ("point", "sweep"), "barrier separation"),
    "mass": (float, _SYSTEM, "rest mass (default 1)"),
    "include_nr": (bool, ("sweep",), "add the nonrelativistic phase-time column"),
    "include_opaque_reference": (bool, ("sweep",), "add saturated reference constants (default on)"),
    "format": (("csv", "plot-script"), ("sweep", "figure"),
               "csv (default) or plot-script (CSV plus gnuplot file)"),
    "l_lo": (float, ("resonances",), "lower end of the separation range"),
    "l_hi": (float, ("resonances",), "upper end of the separation range"),
    "count": (int, ("verify",), "random grid size (default 200)"),
    "seed": (int, ("verify",), "random seed (default 1)"),
    "out": (str, _OUTPUT, "output path (default: stdout)"),
}

# Keys without a default that each subcommand needs.
_REQUIRED = {
    "point": {"E", "V0", "a", "l"},
    "sweep": {"swept", "lo", "hi", "points", "E", "V0", "a", "l"},
    "figure": {"figure"},
    "resonances": {"E", "V0", "a", "l_lo", "l_hi"},
    "verify": set(),
}

# Each sweep axis and the key it varies: --swept takes either name, and a
# sweep needs no value for the key of its own axis.
_AXIS_KEY = {"width_a": "a", "separation_l": "l", "energy_E": "E"}
_SWEPT_ALIASES = {name: axis for axis, key in _AXIS_KEY.items() for name in (axis, key)}

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-tunneling",
        description="Tunneling times of a Dirac particle through two rectangular barriers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=run.__doc__) for name, run in _DISPATCH.items()}
    for key, (kind, takers, text) in _KEYS.items():
        flag = f"--{key.replace('_', '-')}"
        if key == "figure":
            flag, spec = "figure", {"nargs": "?", "metavar": "ID"}
        elif kind is bool:
            spec = {"action": argparse.BooleanOptionalAction, "default": None}
        elif isinstance(kind, tuple):
            spec = {"choices": kind}
        else:
            spec = {"type": kind}
        for name in takers:
            commands[name].add_argument(flag, help=text, **spec)
    for p in commands.values():
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
    """A config-file value converted and checked as its flag would be."""
    kind = _KEYS[key][0]
    try:
        if kind is bool:
            return _BOOL_WORDS[raw.lower()]
        if isinstance(kind, tuple):
            if raw not in kind:
                raise ValueError(raw)
            return raw
        return kind(raw)
    except (KeyError, ValueError):
        parser.error(f"invalid value for config key {key!r}: {raw!r}")


def parse_config(argv=None) -> RunConfig:
    """Parse flags and the optional config file into a RunConfig.

    File keys carry the same names as the long flags (with underscores,
    e.g. ``l_lo``) and pass the same type and choice checks; command-line
    flags override file values.  Usage problems (unknown keys, missing
    required keys, malformed values) exit with code 2 through the standard
    argparse error path.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    command = ns.command
    keys = [key for key, (_, takers, _) in _KEYS.items() if command in takers]

    merged: dict[str, object] = {}
    if ns.config:
        for key, raw in _read_config_file(ns.config).items():
            if key not in keys:
                parser.error(f"unknown config key {key!r} for command {command!r}")
            merged[key] = _convert(parser, key, raw)
    for key in keys:
        if getattr(ns, key) is not None:
            merged[key] = getattr(ns, key)

    swept_raw = merged.get("swept")
    if swept_raw is not None:
        if swept_raw not in _SWEPT_ALIASES:
            parser.error(f"invalid swept axis {swept_raw!r}; "
                         f"choose from {sorted(set(_SWEPT_ALIASES))}")
        merged["swept"] = _SWEPT_ALIASES[swept_raw]
    required = _REQUIRED[command] - {_AXIS_KEY.get(merged.get("swept"))}
    missing = sorted(key for key in required if merged.get(key) is None)
    if missing:
        parser.error(f"missing required key(s) for {command}: {', '.join(missing)}")

    if command == "figure":
        figure_id = str(merged["figure"]).upper()
        if figure_id not in FIGURE_IDS:
            parser.error(f"unknown dataset id {merged['figure']!r}; "
                         f"choose from {', '.join(FIGURE_IDS)}")
        merged["figure"] = figure_id
    cfg = RunConfig(command=command, **merged)
    if cfg.format == "plot-script" and not cfg.out:
        parser.error("--format plot-script requires --out (the CSV path)")
    if cfg.count < 1:
        parser.error(f"count must be at least 1, got {cfg.count}")
    return cfg


_BLOCK = 1 << 12  # rows per rendered block, whose cells take under a megabyte
# A value fills _CELL bytes, five little-endian words [sign NUL d .][dddd][dddd][ddde]
# [sign dd ,], NUL for a plus sign; _QUADS[i] is i < 10^4 in ASCII, first digit lowest.
_CELL = 20
_PAIRS = np.arange(100) // 10 + ord("0") | (np.arange(100) % 10 + ord("0")) << 8
_QUADS = (_PAIRS[:, None] | _PAIRS << 16).astype(np.uint32).ravel()
_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact in binary64


def _render_rows(x: np.ndarray, tail: str = "") -> str:
    """Rows of a 2-D float block as CSV text, ``tail`` after the values of each row."""
    rows, cols = x.shape
    ok = np.isfinite(x) & (x != 0.0)
    a = np.where(ok, np.abs(x), 1.0)
    k = np.clip(11 - np.floor(np.log10(a)).astype(np.int64), -44, 44)
    k1 = np.clip(k, -22, 22)   # past |k| = 22, 10^k = 10^k1 10^(k - k1): two exact powers of ten
    y = a * _POW10[np.maximum(k1, 0)] / _POW10[np.maximum(-k1, 0)]
    y = y * _POW10[np.maximum(k - k1, 0)] / _POW10[np.maximum(k1 - k, 0)]
    n = np.floor(y + 0.5)
    slow = ~ok | (y < 1e11) | (n > 1e12) | (np.abs(n - y) >= 0.5 - 2.0 ** -11)
    carry = n == 1e12
    e = 11 - k + carry
    n = np.where(slow | carry, 1e11, n).astype(np.int64)
    buf = np.empty((rows, cols * _CELL + len(tail)), np.uint8)
    buf[:, cols * _CELL:] = np.frombuffer(tail.encode("ascii"), np.uint8)
    words = buf[:, :cols * _CELL].view("<u4").reshape(rows, cols, 5)
    words[..., 0] = np.where(x < 0, ord("-"), 0) | (n // 10 ** 11 + ord("0")) << 16 | ord(".") << 24
    words[..., 1] = _QUADS[n // 10 ** 7 % 10000]
    words[..., 2] = _QUADS[n // 1000 % 10000]
    words[..., 3] = _QUADS[n % 1000] >> 8 | ord("e") << 24
    words[..., 4] = (np.where(e < 0, ord("-"), ord("+")) | (_QUADS[np.abs(e)] & 0xFFFF0000) >> 8
                     | ord(",") << 24)
    for r, c in zip(*np.nonzero(slow)):
        cell = ("%.11e" % x[r, c]).encode("ascii").ljust(_CELL - 1, b"\0") + b","
        words[r, c] = np.frombuffer(cell, "<u4")
    buf[:, -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _table_chunks(names: list[str], table, constants=()):
    """The text of :func:`_render_table` in pieces: the header, then blocks of ``_BLOCK`` rows."""
    table = np.asarray(table, dtype=float).reshape(-1, len(names) - len(constants))
    tail = _render_rows(np.array([constants], dtype=float)) if constants else ""
    yield ",".join(names) + "\n"
    for start in range(0, len(table), _BLOCK):
        yield _render_rows(table[start:start + _BLOCK], tail)


def _render_table(names: list[str], table, constants=()) -> str:
    """CSV text of a float table: the header line, then one ``%.11e`` row per line.

    Bytes equal ``f"{v:.11e}"`` per value: y = |x| 10^(11-e), e = floor(log10|x|),
    |11 - e| <= 44, is one correctly rounded product or quotient by an exact power
    of ten (two, 10^22 and the rest, past |11 - e| = 22), within 2^-12 of exact for
    y <= 1e12; more than 2^-11 from a tie, its rounding holds the exact value's 12
    digits (10^12 carries to 10^11, e + 1), split exactly by integer division.  Zero,
    inf, nan, out-of-range and near-tie values take Python's ``%``.  ``constants`` are
    trailing columns rendered once per table.
    """
    return "".join(_table_chunks(names, table, constants))


def _csv_chunks(dataset: SweepDataset):
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
    return _table_chunks(names, np.column_stack(list(columns.values())), constants)


def emit_csv(dataset: SweepDataset, path) -> None:
    """Write a sweep dataset as CSV with LF endings, 12 significant digits."""
    if len(dataset) == 0:
        raise ValueError("refusing to emit an empty dataset")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.writelines(_csv_chunks(dataset))


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
    ("tau_p", "phase time", "linewidth 2"),
    ("tau_d", "dwell time", "linewidth 2"),
    ("tau_p_nr", "NR phase time", "linewidth 2"),
    ("t_free", "free transit", "linewidth 2"),
    ("t_light", "light transit", "linewidth 2"),
    ("tau_p_opaque", "saturated phase time", "dashtype 2"),
    ("tau_d_opaque", "saturated dwell time", "dashtype 2"),
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

    terms = [
        f'csv using (column("swept")):(column("{name}")) with lines {style} title "{title}"'
        for name, title, style in _CURVE_COLUMNS
        if name in header
    ]
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


def _write_text(chunks, out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.writelines(chunks)


def _cmd_point(cfg: RunConfig) -> int:
    """time scales at a single parameter point"""
    system = BarrierSystem(V0=cfg.V0, a=cfg.a, l=cfg.l, mass=cfg.mass)
    r = time_report(cfg.E, system)
    _write_text(_table_chunks(["tau_p", "tau_d", "tau_i", "t_free", "t_light"],
                              [r.tau_p, r.tau_d, r.tau_i, r.t_free, r.t_light]), cfg.out)
    return 0


def _deliver_dataset(dataset: SweepDataset, cfg: RunConfig, xlabel: str) -> int:
    _write_text(_csv_chunks(dataset), cfg.out)
    if cfg.format == "plot-script":
        script = emit_plot_script(cfg.out, figure_id=cfg.figure, xlabel=xlabel)
        sys.stderr.write(f"wrote {cfg.out} and {script}\n")
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    """sweep one parameter over a uniform grid"""
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
    """evaluate a canonical dataset"""
    dataset = figure_datasets(cfg.figure)
    xlabel = _XLABELS[dataset.spec.swept]
    return _deliver_dataset(dataset, cfg, xlabel=xlabel)


def _cmd_resonances(cfg: RunConfig) -> int:
    """locate |R| minima in the separation l"""
    # The search replaces l; find_resonances checks the range itself.
    system = BarrierSystem(V0=cfg.V0, a=cfg.a, l=0.0, mass=cfg.mass)
    hits = find_resonances(system, cfg.E, (cfg.l_lo, cfg.l_hi))
    _write_text(_table_chunks(["l", "absR", "tau_p", "tau_d"], hits), cfg.out)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    """cross-check closed forms against the oracle"""
    grid = random_evanescent_grid(cfg.count, seed=cfg.seed)
    E, V0, a, l = grid["E"], grid["V0"], grid["a"], grid["l"]
    failures = []

    def check(name: str, worst: float, tol: float) -> None:
        status = "ok" if worst <= tol else "FAIL"
        print(f"{name}: max relative deviation {worst:.3e} (tolerance {tol:g}) {status}")
        if worst > tol:
            failures.append(name)

    times = _bulk_times(E, V0, a, l, magR2=True)
    check("unitarity |T|^2+|R|^2-1", float(np.max(np.abs(times["magT2"] + times["magR2"] - 1.0))), 1e-12)

    # The oracle side is one stacked solve with its E-derivative, which gives the
    # coefficients, the phase times, the dwell times and the region currents of every
    # point; the closed coefficients and the closed times are one bulk call each.
    closed = RegionCoefficients(**_bulk(_coefficient_fields, E, V0, a, l, 1.0))
    solved, numeric, dwell, flux = _oracle_stack(E, V0, a, l)
    for name, floor in (("T", 0.0), ("R", 1e-30), ("C", 0.0), ("D", 1e-30)):
        x, ref = getattr(closed, name), getattr(solved, name)
        worst = float(np.max(np.abs(x - ref) / np.maximum(np.abs(ref), floor)))
        check(f"closed {name} vs transfer solve", worst, 1e-10)

    check("phase time closed vs solve derivative",
          float(np.max(np.abs(times["tau_p"] - numeric) / np.abs(numeric))), 1e-6)
    check(f"dwell integral vs tau_p - tau_i ({cfg.count} pts)",
          float(np.max(np.abs(dwell - times["tau_d"]) / np.abs(dwell))), 1e-6)
    # Absolute, in units of the incident current: at opaque points the barrier and gap
    # currents cancel down to |T|^2, so a deviation relative to |T|^2 means nothing.
    check("flux conservation, each region vs transmitted (units of J_inc)",
          float(np.max(np.abs(flux - flux[4]))), 3e-12)

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
        return _DISPATCH[cfg.command](cfg)
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
