"""Command line interface: argument handling, file formats, exit codes."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirac_tunneling import (
    FIGURE_IDS,
    BarrierSystem,
    emit_csv,
    emit_plot_script,
    figure_datasets,
    find_resonances,
    read_csv,
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
    "2A": "b3517a87195d1253c91954f99a00f2eda7eb870e862b91bbe00c47772c2ef987",
    "2B": "25757d43d4b1ec931f418e1c887c46760702a26690c6a000041e1cf084a17537",
    "2C": "6fdc70dcf92da5b50f3e79f7d2673cbc871bae42291c9db2424e60e9d1c29f76",
    "3A": "50a1f062e4071f8954d032753f445f71a6f87cef6f922df223ff00f528fadcd6",
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


def test_verify_smoke(capsys):
    assert main(["verify", "--count", "8", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "unitarity" in out


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
