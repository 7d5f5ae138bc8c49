"""Command line interface: argument handling, file formats, exit codes."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from dirac_tunneling import (
    BarrierSystem,
    emit_csv,
    emit_plot_script,
    figure_datasets,
    read_csv,
    time_report,
)
from dirac_tunneling.cli import main, parse_config


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
