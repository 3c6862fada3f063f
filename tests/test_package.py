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


def form_entries():
    # every public function that reads a form's methods, as a call on the form
    from singk3 import Form, lattice_from_form, power, shioda_mitani_check

    lattice = lattice_from_form(Form(2, 1, 3))
    names = (
        "analyze", "inose_pencil", "kummer_equation", "surface_class", "kummer_reduction",
        "genus_of_transcendental_lattice", "sm_factors", "tau_from_form", "lattice_from_form",
        "j_of_form", "is_two_torsion", "genus_characters",
    )
    entries = {name: getattr(singk3, name) for name in names}
    entries["power"] = lambda q: power(q, 2)
    entries["shioda_mitani_check"] = lambda q: shioda_mitani_check(lattice, lattice, q)
    return entries


def test_public_form_functions_refuse_a_plain_tuple():
    for name, call in form_entries().items():
        call(singk3.Form(2, 1, 3))
        try:
            call((2, 1, 3))  # after the Form call, so any cache holds its key
        except TypeError as exc:
            assert str(exc) == "expected a Form, got tuple", name
        else:
            raise AssertionError(f"{name} answered a tuple")


def huge_integer_entries():
    # (call, the error class it documents), each on an integer of over 4300
    # digits, which str() refuses; the error message must not try it
    from singk3.classgroup import class_number, is_two_torsion
    from singk3.errors import (
        InconsistentPair,
        InputTooLarge,
        InvalidDiscriminant,
        NotNegativeDiscriminant,
        NotPositiveDefinite,
        NotReduced,
    )
    from singk3.k3 import analyze, inose_pencil, kummer_equation, lem_bounds_applies
    from singk3.modular import class_polynomial, j_of_form

    huge = 10**5000
    yield lambda: class_polynomial(huge), InputTooLarge
    yield lambda: class_polynomial(-huge), InputTooLarge
    yield lambda: singk3.Form(-huge, 1, 1), NotPositiveDefinite
    yield lambda: singk3.Form(1, huge, 1), NotNegativeDiscriminant
    for call in (j_of_form, analyze, inose_pencil, kummer_equation):
        yield lambda call=call: call(singk3.Form(2, 1, 3), precision_bits=huge), InputTooLarge
    yield lambda: class_number(-4 * huge - 1), InvalidDiscriminant
    yield lambda: lem_bounds_applies(-4 * huge, 3), InconsistentPair
    yield lambda: is_two_torsion(singk3.Form(huge, 1, 1)), NotReduced


def test_huge_integers_raise_the_documented_error_on_one_short_line():
    for call, error in huge_integer_entries():
        try:
            call()
        except error as exc:
            message = str(exc)
            assert len(message) < 200 and "\n" not in message, message[:200]
        else:
            raise AssertionError(f"{error.__name__} not raised")


def test_the_pencil_refuses_a_tuple_in_either_cache_order():
    # cold first: no Form call has filled a cache when each tuple call runs
    code = (
        "from singk3 import Form, analyze, inose_pencil, kummer_equation\n"
        "calls = (analyze, inose_pencil, kummer_equation)\n"
        "def refused(call):\n"
        "    try:\n"
        "        call((2, 1, 3))\n"
        "    except TypeError:\n"
        "        return True\n"
        "    return False\n"
        "cold = [refused(c) for c in calls]\n"
        "for c in calls:\n"
        "    c(Form(2, 1, 3))\n"
        "print(cold, [refused(c) for c in calls])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[True, True, True] [True, True, True]"


def test_every_cache_is_in_the_one_registry():
    import pkgutil

    from singk3 import _cache

    registered = {id(c) for c in _cache._CACHES}
    found = []
    for info in pkgutil.iter_modules(singk3.__path__):
        module = importlib.import_module(f"singk3.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found.append(f"{info.name}.{name}")
                assert id(value) in registered, f"{info.name}.{name} is not registered"
    # and every registered cache is one of them
    assert len(found) == len(registered), found


def test_clear_empties_every_cache():
    from singk3 import _cache, analyze, class_polynomial

    analyze(singk3.Form(2, 1, 3), 64)
    class_polynomial(-23)
    assert any(c.cache_info().currsize for c in _cache._CACHES)
    _cache.clear()
    assert all(c.cache_info().currsize == 0 for c in _cache._CACHES)
