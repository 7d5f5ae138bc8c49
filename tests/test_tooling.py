"""Repository tooling: the demos run, the oracle stays independent of the closed forms,
and each CLI key is declared once."""

import argparse
import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dirac_tunneling import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # In a scratch working directory: demos may write their outputs there.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_oracle_uses_no_closed_form_algebra():
    # The oracle may share the coefficient record with the closed forms, nothing else.
    allowed = {"amplitudes": {"RegionCoefficients"}, "times": set()}
    tree = ast.parse((ROOT / "src" / "dirac_tunneling" / "oracle.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            if module in allowed:
                assert {alias.name for alias in node.names} <= allowed[module], ast.dump(node)
            if node.module is None or node.module == "dirac_tunneling":
                assert not {alias.name for alias in node.names} & set(allowed), ast.dump(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.rsplit(".", 1)[-1] not in allowed, alias.name


def _calls(name):
    """File of every call to a function or attribute named ``name`` in the package."""
    found = []
    for path in sorted((ROOT / "src" / "dirac_tunneling").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                    found.append(path.name)
    return found


def test_one_phase_formula_and_one_branch_rule():
    # phi_t = kl - atan2(Delta, Gamma) is written once, in the closed-form record,
    # and numerics.continue_branch is the only branch-continuation rule.
    assert _calls("arctan2") == ["amplitudes.py"]
    assert _calls("unwrap") == []
    assert _calls("rint") == ["numerics.py"]


def test_each_cli_key_is_declared_once():
    # The key table is the only declaration: RunConfig holds exactly its keys, and
    # every subparser takes exactly the keys the table gives it, plus --config.
    fields = {field.name for field in dataclasses.fields(cli.RunConfig)} - {"command"}
    assert set(cli._KEYS) == fields
    (subparsers,) = (action for action in cli._build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(cli._REQUIRED)
    for command, parser in subparsers.choices.items():
        dests = {action.dest for action in parser._actions} - {"help"}
        assert dests == {key for key, (_, takers, _) in cli._KEYS.items() if command in takers} | {"config"}


def test_no_environment_knob_and_one_thread_pool():
    # Nothing reads the environment, so no variable changes how the package
    # computes; the block pool of `amplitudes` is the only thread pool.
    pools = []
    for path in sorted((ROOT / "src" / "dirac_tunneling").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                    or getattr(node, "name", None))
            assert name not in ("environ", "getenv", "environb", "getenvb"), (path.name, ast.dump(node))
            if name == "ThreadPoolExecutor":
                pools.append(path.name)
    assert pools == ["amplitudes.py"]
