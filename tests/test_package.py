"""The package namespace and its entry points."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import singk3

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_all_lists_exactly_the_public_names_bound_in_init():
    tree = ast.parse((SRC / "singk3" / "__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "_LAZY" for t in node.targets):
                bound.update(ast.literal_eval(node.value))  # every public name, resolved on first use
    public = {name for name in bound if not name.startswith("_")}
    assert len(singk3.__all__) == len(set(singk3.__all__))
    assert set(singk3.__all__) == public
    assert all(hasattr(singk3, name) for name in singk3.__all__)


def test_each_name_resolves_to_the_module_the_table_names():
    for name, module_name in singk3._LAZY.items():
        module = importlib.import_module(f"singk3.{module_name}")
        value = getattr(singk3, name)
        assert value is vars(module)[name], name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name


def test_bare_import_loads_no_submodule():
    code = "import sys, singk3; print(sorted(m for m in sys.modules if m.startswith('singk3.')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_one_version():
    # Python 3.10 has no tomllib, so the version is read with a regex
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "singk3.cli", "--version"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert declared == singk3.__version__
    assert proc.stdout == f"singk3 {declared}\n"


def test_cli_module_runs_as_a_script():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "singk3.cli", "classgroup", "-23", "--json"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout)
    assert envelope["command"]["verb"] == "classgroup"
    assert envelope["result"]["h"] == 3


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(singk3, "no_such_name")
