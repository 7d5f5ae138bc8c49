"""Command line interface: argument handling, file formats, exit codes."""

import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dirac_tunneling import (
    FIGURE_IDS,
    BarrierSystem,
    SweepSpec,
    emit_csv,
    emit_plot_script,
    figure_datasets,
    find_resonances,
    read_csv,
    run_sweep,
    time_report,
)
from dirac_tunneling import cli
from dirac_tunneling.cli import main, parse_config


def _reference_table(names, rows):
    """The per-value rendering the CLI's one-format tables must reproduce byte for byte.

    Returned as lines with their LF, so that a mismatch is reported by line
    index (pytest's diff of two long strings takes minutes).
    """
    lines = [",".join(names)]
    lines += [",".join(f"{value:.11e}" for value in row) for row in rows]
    return [line + "\n" for line in lines]


def _lines(text):
    return text.splitlines(keepends=True)


def _reference_dataset_csv(ds):
    columns = [("swept", ds.swept), ("tau_p", ds.tau_p), ("tau_d", ds.tau_d),
               ("tau_i", ds.tau_i), ("t_free", ds.t_free), ("t_light", ds.t_light),
               ("T2", ds.magT2)]
    if ds.tau_p_nr is not None:
        columns.append(("tau_p_nr", ds.tau_p_nr))
    if ds.tau_p_opaque is not None:
        columns.append(("tau_p_opaque", np.full(len(ds), ds.tau_p_opaque)))
        columns.append(("tau_d_opaque", np.full(len(ds), ds.tau_d_opaque)))
    arrays = [np.asarray(values, dtype=float) for _, values in columns]
    return _reference_table([name for name, _ in columns], zip(*arrays))


def test_point_prints_report(capsys):
    assert main(["point", "--E", "1.8", "--V0", "1.5", "--a", "0.7", "--l", "0.7"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "tau_p,tau_d,tau_i,t_free,t_light"
    rep = time_report(1.8, BarrierSystem(V0=1.5, a=0.7, l=0.7))
    values = [float(v) for v in out[1].split(",")]
    assert values[0] == pytest.approx(rep.tau_p, rel=1e-11)
    assert values[2] == pytest.approx(rep.tau_i, rel=1e-11)


def test_point_regime_failure(capsys):
    code = main(["point", "--E", "1.8", "--V0", "3.5", "--a", "0.7", "--l", "0.7"])
    assert code == 2
    err = capsys.readouterr().err
    assert "Supercritical regime: V0 ≥ E + m" in err


def test_point_below_threshold(capsys):
    assert main(["point", "--E", "0.6", "--V0", "1.5", "--a", "1.0", "--l", "0.0"]) == 2
    assert "BelowThreshold" in capsys.readouterr().err


@pytest.mark.parametrize("energy", ["nan", "inf"])
def test_point_rejects_non_finite_energy(energy, capsys):
    assert main(["point", "--E", energy, "--V0", "1.5", "--a", "0.7", "--l", "0.7"]) == 2
    assert "E must be finite" in capsys.readouterr().err


def test_missing_required_arguments():
    with pytest.raises(SystemExit) as exc:
        main(["point", "--E", "1.8", "--V0", "1.5"])
    assert exc.value.code == 2


def test_parse_config_file_and_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# sweep configuration\n"
        "swept = l\n"
        "lo = 0.5\n"
        "hi = 2.5\n"
        "points = 50\n"
        "E = 1.8\n"
        "V0 = 1.5\n"
        "a = 0.7\n"
    )
    cfg = parse_config(["sweep", "--config", str(cfg_file), "--points", "10"])
    assert cfg.swept == "separation_l"  # alias resolved
    assert cfg.points == 10  # CLI flag wins over file value
    assert cfg.lo == 0.5
    assert cfg.mass == 1.0  # default applied


def test_parse_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("bogus = 1\n")
    with pytest.raises(SystemExit) as exc:
        parse_config(["sweep", "--config", str(cfg_file)])
    assert exc.value.code == 2


def test_parse_config_rejects_bad_value(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("E = not-a-number\n")
    with pytest.raises(SystemExit) as exc:
        parse_config(["point", "--config", str(cfg_file)])
    assert exc.value.code == 2


@pytest.mark.parametrize("line, key", [("format = bogus", "format"), ("include_nr = maybe", "include_nr")])
def test_config_values_pass_the_flag_checks(line, key, tmp_path, capsys):
    # A file value outside the flag's choices is a usage error naming the key.
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(line + "\n")
    command = ["figure", "2A"] if key == "format" else ["sweep"]
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", str(cfg_file)])
    assert exc.value.code == 2
    assert f"invalid value for config key {key!r}" in capsys.readouterr().err


def test_parse_config_rejects_bad_syntax(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("E 1.8\n")
    assert main(["point", "--config", str(cfg_file)]) == 2


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["point", "--config", str(tmp_path / "absent.cfg")]) == 1


def test_invalid_swept_axis():
    with pytest.raises(SystemExit) as exc:
        parse_config(["sweep", "--swept", "bogus", "--lo", "0.1", "--hi", "1.0",
                      "--points", "5", "--E", "1.8", "--V0", "1.5", "--a", "0.7"])
    assert exc.value.code == 2


def test_unknown_figure_id():
    with pytest.raises(SystemExit) as exc:
        parse_config(["figure", "9Z"])
    assert exc.value.code == 2


def test_sweep_stdout(capsys):
    code = main(["sweep", "--swept", "a", "--lo", "0.2", "--hi", "1.0",
                 "--points", "5", "--E", "1.8", "--V0", "1.5", "--l", "0.7",
                 "--no-include-opaque-reference"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "swept,tau_p,tau_d,tau_i,t_free,t_light,T2"
    assert len(lines) == 6


def test_figure_csv_file(tmp_path, capsys):
    out = tmp_path / "fig2c.csv"
    assert main(["figure", "2C", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode("ascii").splitlines()
    assert lines[0] == ("swept,tau_p,tau_d,tau_i,t_free,t_light,T2,"
                        "tau_p_nr,tau_p_opaque,tau_d_opaque")
    assert len(lines) == 601


# SHA-256 of the canonical `figure <id> --out` files.  They hold for the
# 80-bit x87 longdouble build (x86 Linux); a longdouble of another width
# rounds the extended-precision intermediates differently.
FIGURE_SHA256 = {
    "2A": "0cf6d2024d6de33bf0e05c480f889f671e2e186a9d75b7951183566b15cc3caf",
    "2B": "6488bd089f0719e6f5e5d1682b6601b5c8823dec2fe91d39b2c8d467d7a1146e",
    "2C": "4947e091ca37983b3012b646024ebec5b1f96cb56ec72b05ccf61b08e999ad9f",
    "3A": "e0f7fe02a4b8c82465ac8e71909e6f57a8f0ff96eaeda91555812e8334220b9c",
    "3B": "44cf8491c1fb15800b470c7ab099d896545389ef0fe45c26e50648487eb55215",
}


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63, reason="hashes pinned for the 80-bit longdouble build"
)
@pytest.mark.parametrize("which", sorted(FIGURE_SHA256))
def test_figure_csv_bytes_pinned(which, tmp_path):
    out = tmp_path / f"{which}.csv"
    assert main(["figure", which, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_SHA256[which]


@pytest.mark.parametrize("which", FIGURE_IDS)
def test_figure_stdout_matches_per_value_rendering(which, capsys):
    assert main(["figure", which]) == 0
    assert _lines(capsys.readouterr().out) == _reference_dataset_csv(figure_datasets(which))


def test_point_matches_per_value_rendering(capsys):
    assert main(["point", "--E", "1.8", "--V0", "1.5", "--a", "0.7", "--l", "0.7"]) == 0
    r = time_report(1.8, BarrierSystem(V0=1.5, a=0.7, l=0.7))
    assert _lines(capsys.readouterr().out) == _reference_table(
        ["tau_p", "tau_d", "tau_i", "t_free", "t_light"],
        [(r.tau_p, r.tau_d, r.tau_i, r.t_free, r.t_light)])


@pytest.mark.parametrize("a, expected_hits", [(0.7, 2), (0.0, 0)])
def test_resonances_match_per_value_rendering(a, expected_hits, capsys):
    # a = 0 has R identically zero, so no minima: the output is the header alone.
    argv = ["resonances", "--E", "1.8", "--V0", "1.5", "--a", str(a),
            "--l-lo", "0.5", "--l-hi", "4.0"]
    assert main(argv) == 0
    hits = find_resonances(BarrierSystem(V0=1.5, a=a, l=0.5), 1.8, (0.5, 4.0))
    assert len(hits) == expected_hits
    expected = _reference_table(["l", "absR", "tau_p", "tau_d"], hits)
    assert _lines(capsys.readouterr().out) == expected


def test_render_table_matches_per_value_rendering_on_edge_values():
    values = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
              math.inf, -math.inf, math.nan, 0.1, -123456789.123456789, 9.999999999995e-5]
    rows = [values[i:i + 2] for i in range(0, len(values) - 1, 2)]
    assert _lines(cli._render_table(["x", "y"], rows)) == _reference_table(["x", "y"], rows)
    assert _lines(cli._render_table(["x", "y", "c"], rows, constants=(-0.0,))) == _reference_table(
        ["x", "y", "c"], [row + [-0.0] for row in rows])


def test_render_table_is_exact_on_ties_carries_and_extreme_exponents():
    # Where a renderer that rounds twice, or scales by an inexact power of ten, goes
    # wrong: decimal ties of the 12th digit and their neighbours, decade carries,
    # 3-digit exponents, subnormals, signed zeros and non-finite values; in tables of
    # 0 rows, 1 row and several row blocks, with and without constant columns.
    rng = np.random.default_rng(1711)
    digits = rng.integers(10**11, 10**12, 2000) * 10 + 5  # 13 digits ending in 5
    # Exact ties (m 10^p < 2^53, and 12-digit integers plus a half), then the doubles
    # nearest to decimal ties across the whole exponent range.
    ties = np.array(
        [float(int(m) * 10 ** int(p)) for m, p in zip(digits, rng.integers(0, 5, digits.size))]
        + (rng.integers(10**11, 10**12, 1000) + 0.5).tolist()
        + [float(f"{m}e{p}") for m, p in zip(digits, rng.integers(-335, 296, digits.size))])
    carries = np.array([float(f"9.999999999995e{n}") for n in range(-320, 309)])
    extremes = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.5e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, 1e100, 9.99999999999e99, 1.5e-200, 1e-100, 9.9999999999995e-100]
    values = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, math.inf),
                             carries, np.nextafter(carries, 0.0), np.nextafter(carries, math.inf),
                             extremes])
    table = np.resize(values * rng.choice([-1.0, 1.0], values.size), (2 * cli._BLOCK + 5, 3))
    for rows in (table[:0], table[:1], table):
        for constants in ((), (-0.0, 9.999999999995e-5, 1e-300)):
            names = ["x", "y", "z"] + ["c"] * len(constants)
            expected = _reference_table(names, [row + list(constants) for row in rows.tolist()])
            assert _lines(cli._render_table(names, rows, constants)) == expected


def test_render_table_matches_percent_format_across_sixty_decades():
    # Past |11 - e| = 22 the fast path scales by two powers of ten: 10^5 values of
    # random sign and magnitude over 10^-60 .. 10^60, against Python's % per value.
    rng = np.random.default_rng(2003)
    values = rng.choice([-1.0, 1.0], 10**5) * 10.0 ** rng.uniform(-60.0, 60.0, 10**5)
    text = cli._render_table(["x", "y", "z", "w"], values.reshape(-1, 4))
    assert text == "x,y,z,w\n" + "".join(
        ",".join("%.11e" % v for v in row) + "\n" for row in values.reshape(-1, 4).tolist())


def test_sweep_across_row_blocks_matches_per_value_rendering(tmp_path, capsys):
    # 20000 rows are four full row blocks and a partial one, written to a file and to stdout.
    argv = ["sweep", "--swept", "a", "--lo", "0.01", "--hi", "6", "--points", "20000",
            "--E", "1.8", "--V0", "1.5", "--l", "0.7", "--include-nr"]
    spec = SweepSpec(swept="width_a", lo=0.01, hi=6.0, points=20000,
                     system=BarrierSystem(V0=1.5, a=0.01, l=0.7), E=1.8, include_nr=True)
    expected = _reference_dataset_csv(run_sweep(spec))
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert _lines(out.read_bytes().decode("ascii")) == expected
    assert main(argv) == 0
    assert _lines(capsys.readouterr().out) == expected


def test_parser_is_built_once_and_keeps_no_state():
    sweep = ["sweep", "--swept", "a", "--lo", "0.2", "--hi", "1.0", "--points", "5",
             "--E", "1.8", "--V0", "1.5", "--l", "0.7"]
    assert parse_config(sweep + ["--include-nr"]).include_nr is True
    assert parse_config(sweep).include_nr is False
    assert cli._build_parser() is cli._build_parser()
    # usage errors still exit 2 through the reused parser
    for argv in (sweep + ["--points", "five"], ["point", "--E", "1.8"], ["bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert parse_config(sweep).points == 5


def test_csv_round_trip(tmp_path):
    ds = figure_datasets("3A")
    path = tmp_path / "fig3a.csv"
    emit_csv(ds, path)
    back = read_csv(path)
    assert set(back) == {"swept", "tau_p", "tau_d", "tau_i", "t_free",
                         "t_light", "T2", "tau_p_opaque", "tau_d_opaque"}
    # values survive the 12-significant-digit round trip
    assert np.abs(back["tau_p"] - ds.tau_p).max() <= 1e-10 * np.abs(ds.tau_p).max()
    assert back["tau_p_opaque"][0] == back["tau_p_opaque"][-1]


def test_csv_is_deterministic(tmp_path):
    ds = figure_datasets("2A")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(ds, p1)
    emit_csv(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_plot_script_generation(tmp_path):
    out = tmp_path / "fig2a.csv"
    assert main(["figure", "2A", "--format", "plot-script", "--out", str(out)]) == 0
    script = (tmp_path / "fig2a.gp").read_text()
    assert "set datafile separator comma" in script
    assert 'column("tau_p")' in script
    assert 'column("tau_p_nr")' in script
    assert 'column("tau_p_opaque")' in script
    assert "dashtype 2" in script
    assert "barrier width a" in script


def test_plot_script_requires_out():
    with pytest.raises(SystemExit) as exc:
        parse_config(["figure", "2A", "--format", "plot-script"])
    assert exc.value.code == 2


def test_plot_script_missing_csv(tmp_path):
    with pytest.raises(FileNotFoundError):
        emit_plot_script(tmp_path / "absent.csv")


def test_plot_script_xlabel_tracks_axis(tmp_path):
    ds = figure_datasets("3A")
    path = tmp_path / "d.csv"
    emit_csv(ds, path)
    script_path = emit_plot_script(path, xlabel="separation l")
    text = Path(script_path).read_text()
    assert "separation l" in text
    assert 'column("swept")' in text


def test_resonances_command(tmp_path, capsys):
    cfg_file = tmp_path / "res.cfg"
    cfg_file.write_text(
        "E = 1.8\nV0 = 1.5\na = 0.7\nl_lo = 0.5\nl_hi = 4.0\n"
    )
    assert main(["resonances", "--config", str(cfg_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "l,absR,tau_p,tau_d"
    assert len(lines) == 3  # two resonances in (0.5, 4.0)
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(1.17369545, abs=1e-4)


@pytest.mark.parametrize("bounds", [["--l-lo", "0.5", "--l-hi", "inf"], ["--l-lo", "nan", "--l-hi", "4"]])
def test_resonances_rejects_non_finite_range(bounds, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["resonances", "--E", "1.8", "--V0", "1.5", "--a", "0.7", *bounds])
    assert code == 2
    assert caught == []
    assert "l_range must be finite" in capsys.readouterr().err


def test_verify_smoke(capsys):
    assert main(["verify", "--count", "8", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "unitarity" in out
    assert "dwell integral vs tau_p - tau_i (8 pts)" in out


def test_verify_resolves_the_sharp_resonance_of_seed_1(capsys):
    # grid index 752 is a resonance a finite-difference phase time misses by 4.7e-6
    assert main(["verify", "--count", "2000"]) == 0
    out = capsys.readouterr().out
    assert "phase time closed vs solve derivative" in out
    # the dwell time is checked at every point, not at a prefix of the grid
    assert "dwell integral vs tau_p - tau_i (2000 pts)" in out


def test_verify_rejects_junk_argument():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--count", "eight"])
    assert exc.value.code == 2


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_rejects_count_below_one(count, tmp_path, capsys):
    for argv in (["verify", "--count", count], ["verify", "--config", str(tmp_path / "v.cfg")]):
        (tmp_path / "v.cfg").write_text(f"count = {count}\n")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"count must be at least 1, got {count}" in capsys.readouterr().err


def _run_module(*args):
    """``python -m dirac_tunneling ARGS`` in a subprocess, importing this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dirac_tunneling", *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


def test_python_dash_m_runs_the_cli(capsys):
    run = _run_module("figure", "2A")
    assert run.returncode == 0, run.stderr
    assert main(["figure", "2A"]) == 0
    assert run.stdout == capsys.readouterr().out
    assert run.stdout.startswith("swept,tau_p,")

    usage = _run_module("figure")
    assert usage.returncode == 2
    assert usage.stdout == ""
    assert "usage: dirac-tunneling" in usage.stderr
