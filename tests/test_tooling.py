"""Repository tooling: the demos run, the oracle stays independent of the closed forms,
each CLI key is declared once, no public numerics helper is dead, every package export
resolves, the one-point memo is the only cache kept across calls, the CSV number
format is written in the renderer alone, and a failing hypothesis test fails cleanly."""

import argparse
import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirac_tunneling
from dirac_tunneling import cli, numerics

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


def test_one_sine_and_one_cosine_in_the_closed_forms():
    # The closed-form record takes sin 2kl and cos 2kl from sin kl and cos kl.
    assert _calls("sin").count("amplitudes.py") == 1
    assert _calls("cos").count("amplitudes.py") == 1


def test_a_failing_hypothesis_test_fails_without_aborting_the_session(tmp_path):
    # On failure the hypothesis plugin imports libcst, whose DeprecationWarning must not
    # become an INTERNALERROR under the repository's filterwarnings = ["error"].
    (tmp_path / "test_given.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@settings(database=None, derandomize=True, max_examples=5)\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n    assert n != n\n\n"
        "def test_after():\n    pass\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert run.returncode == 1 and "1 failed, 1 passed" in run.stdout, run.stdout


def test_every_numerics_helper_has_a_package_user():
    # A public helper that no package module imports is dead code: delete it with its tests.
    imported = set()
    for path in sorted((ROOT / "src" / "dirac_tunneling").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] == "numerics":
                imported |= {alias.name for alias in node.names}
    assert set(numerics.__all__) <= imported, set(numerics.__all__) - imported


def test_every_package_export_resolves():
    # A name left in __all__ after its import was removed breaks `from dirac_tunneling import *`.
    missing = [name for name in dirac_tunneling.__all__ if not hasattr(dirac_tunneling, name)]
    assert not missing, missing


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


def test_one_memo_and_no_other_cache_across_calls():
    # Values kept across calls live in the block pool and in numerics._LastPoint, one
    # instance per layer, which keeps its pair on itself: only the pool's functions
    # rebind a module global, and a functools cache only builds a constant once (it
    # takes no argument, so it cannot grow).
    rebinds = []
    for path in sorted((ROOT / "src" / "dirac_tunneling").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(inner, ast.Global) for inner in ast.walk(node)):
                rebinds.append((path.name, node.name))
            for deco in node.decorator_list:
                deco = deco.func if isinstance(deco, ast.Call) else deco
                name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", None)
                if name in ("cache", "lru_cache"):
                    assert not (node.args.args or node.args.vararg or node.args.kwonlyargs
                                or node.args.kwarg), (path.name, node.name)
    assert set(rebinds) <= {("amplitudes.py", "_executor"), ("amplitudes.py", "_forget_pool")}
    assert _calls("_LastPoint") == ["amplitudes.py", "oracle.py"]


def test_the_csv_number_format_is_written_in_the_renderer_alone():
    # The 12-digit format of every CSV table appears only in cli._render_rows, so no
    # second table writer can grow beside it.  f"{v:.11e}" parses to the spec ".11e";
    # docstrings may name the format.
    found = []
    for path in sorted((ROOT / "src" / "dirac_tunneling").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner, docstrings = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.body and isinstance(node.body[0], ast.Expr):
                    docstrings.add(id(node.body[0].value))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(inner), node.name) for inner in ast.walk(node))
        found += [(path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and ".11e" in node.value and id(node) not in docstrings]
    assert found == [("cli.py", "_render_rows")]
