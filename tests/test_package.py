"""The package namespace and its entry points."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import singk3

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_lists_exactly_the_public_names_bound_in_init():
    tree = ast.parse((SRC / "singk3" / "__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "_LAZY" for t in node.targets):
                bound.update(ast.literal_eval(node.value))  # names resolved on first use
    public = {name for name in bound if not name.startswith("_")}
    assert len(singk3.__all__) == len(set(singk3.__all__))
    assert set(singk3.__all__) == public
    assert all(hasattr(singk3, name) for name in singk3.__all__)


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
