import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from singk3 import cli, modular
from singk3.classgroup import classes_per_genus
from singk3.errors import PrecisionExhausted
from singk3.forms import Form

from oracles import (
    PRINTED_DIGITS,
    fraction_lattice_from_form,
    printed_digit_faults,
    reduced_forms,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_json(capsys, argv):
    code = cli.run(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == 0, out
    envelope = json.loads(out)
    assert envelope["schema_version"] == "5"
    return envelope


def test_classgroup_verb(capsys):
    env = run_json(capsys, ["classgroup", "-23"])
    res = env["result"]
    assert res["h"] == 3
    forms = {Form.from_json(f) for f in res["forms"]}
    assert forms == {Form(1, 1, 6), Form(2, 1, 3), Form(2, -1, 3)}
    assert res["cyclic_decomposition"][0]["order"] == 3
    assert env["command"]["verb"] == "classgroup"


def test_classgroup_text(capsys):
    code = cli.run(["classgroup", "-23"])
    out = capsys.readouterr().out
    assert code == 0
    assert "h = 3" in out and "(2,1,3)" in out and "Z/3" in out


def test_genus_verb(capsys):
    res = run_json(capsys, ["genus", "-56"])["result"]
    assert set(res) == {"d", "h", "g", "n", "cosets"}  # no principal_genus
    assert (res["h"], res["g"], res["n"]) == (4, 2, 2)
    principal = {Form.from_json(f) for f in res["cosets"][0]}
    assert principal == {Form(1, 0, 14), Form(2, 0, 7)}


def test_genus_text(capsys):
    assert cli.run(["genus", "-56"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Cl(-56): h = 4, genera g = 2, classes per genus n = 2",
        "  genus 0 (principal): (1,0,14) (2,0,7)",
        "  genus 1: (3,2,5) (3,-2,5)",
    ]


def test_scan_text(capsys):
    assert cli.run(["scan", "--bound", "100"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "one class per genus, |d| <= 100: 32 discriminants, 18 fields, largest -100",
        "  -3 -4 -7 -8 -11 -12 -15 -16 -19 -20 -24 -27 -28 -32 -35 -36 -40 -43 -48 -51"
        " -52 -60 -64 -67 -72 -75 -84 -88 -91 -96 -99 -100",
    ]
    assert captured.err.startswith(
        "warning: the scan bound is a search cutoff, not a completeness proof"
    )


def test_factors_text(capsys):
    assert cli.run(["factors", "--form", "4,0,4", "--kummer"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "d = -64",
        "  tau1 = (0 + 1/2*sqrt(-4))",
        "  tau2 = (0 + 2*sqrt(-4))",
        "  tau1 lattice: class (1,0,1), conductor 1",
        "  Kummer: half form (2,0,2), tau1 = (0 + 1/2*sqrt(-4)), tau2/2 = (0 + 1*sqrt(-4))",
    ]


def test_bounds_verb(capsys):
    res = run_json(capsys, ["bounds", "--form", "2,1,3"])["result"]
    assert res["n"] == 3
    assert res["parity_forced"] is True
    assert res["exact_minimal_field"] == "K(j(tau1))"
    assert res["d"] == -23 and res["d_K"] == -23 and res["m"] == 1
    assert set(res["model_field"]) == {"j_tau1_normalized", "j_tau2_normalized"}
    assert res["model_field"]["j_tau1_normalized"]["type"] == "complex"
    assert cli.run(["bounds", "--form", "2,1,3"]) == 0
    assert "  model over Q(j(tau1), j(tau2)) (inside K(j(tau2)))\n" in capsys.readouterr().out


def test_factors_verb(capsys):
    res = run_json(capsys, ["factors", "--form", "4,0,4", "--kummer"])["result"]
    assert res["d"] == -64
    assert res["tau1"] == {"d_K": -4, "x": [0, 1], "y": [1, 2]}
    assert res["tau2"] == {"d_K": -4, "x": [0, 1], "y": [2, 1]}
    assert Form.from_json(res["kummer"]["half_form"]) == Form(2, 0, 2)
    assert res["kummer"]["tau2"] == {"d_K": -4, "x": [0, 1], "y": [1, 1]}
    assert res["tau1_lattice"]["conductor"] == 1


def test_factors_not_divisible_warns(capsys):
    env = run_json(capsys, ["factors", "--form", "2,1,3", "--kummer"])
    assert env["result"]["kummer"] is None
    assert any("not 2-divisible" in w for w in env["warnings"])


def test_factors_json_matches_the_fraction_oracle_to_400(monkeypatch):
    from singk3 import _numeric_verbs

    argvs = [
        ["factors", "--form", str(q), "--json", *kummer]
        for q in reduced_forms(400)
        for kummer in ([], ["--kummer"])
    ]

    def outputs():
        for argv in argvs:
            out = io.StringIO()
            assert cli.run(argv, out=out) == 0, argv
            yield out.getvalue()

    printed = list(outputs())
    monkeypatch.setattr(_numeric_verbs, "lattice_from_form", fraction_lattice_from_form)
    assert list(outputs()) == printed


def test_equation_verb(capsys):
    res = run_json(capsys, ["equation", "--form", "1,0,1"])["result"]
    assert res["equation"] == "y^2 = x^3 - 3*t^4*x + t^5*(t^2 + 1)"
    assert res["A"] == {"type": "rational", "value": "1"}
    assert res["B"] == {"type": "rational", "value": "0"}
    assert res["degenerate_rule_applied"] is True
    assert res["a6"] == {
        "5": {"type": "rational", "value": "1"},
        "7": {"type": "rational", "value": "1"},
    }


def test_equation_kummer_flag(capsys):
    res = run_json(capsys, ["equation", "--form", "1,0,1", "--kummer"])["result"]
    assert res["kind"] == "kummer"
    assert res["equation"] == "y^2 = x^3 - 3*t^4*x + t^4*(t^4 + 1)"


def test_equation_numeric_warns(capsys):
    env = run_json(capsys, ["equation", "--form", "2,1,3", "--precision", "48"])
    assert env["result"]["A"]["type"] == "complex"
    assert any("numerically" in w for w in env["warnings"])


def test_equation_claims_no_unproven_rational(capsys):
    # A and B here are irrational; their values merely lie near fractions
    res = run_json(capsys, ["equation", "--form", "1,0,100", "--precision", "36"])["result"]
    assert (res["A"]["type"], res["B"]["type"]) == ("complex", "complex")
    res = run_json(capsys, ["equation", "--form", "1,1,313"])["result"]
    assert res["B"]["type"] == "complex"


def test_equation_is_exact_where_the_class_group_proves_it(capsys):
    # h(-15) = 2 and (2,1,2) is not principal: 1728^2 A = H_-15(0)
    res = run_json(capsys, ["equation", "--form", "2,1,2"])["result"]
    assert res["A"] == {"type": "rational", "value": str(Fraction(-121287375, 1728**2))}
    assert res["B"]["type"] == "rational"


def test_equation_at_the_j_size_limit(capsys):
    # d = -10^6: the largest |d| the j accuracy lemma covers; printing an
    # unproven "exact" 3*A*B of more than 4300 digits used to fail here
    assert cli.run(["equation", "--form", "1,0,250000"]) == 0
    assert "A = " in capsys.readouterr().out


# Forms past the tier-1 sweep whose a4 or a6 printed a wrong last digit while
# A and B were rounded without guard bits
DIGIT_CASES = (Form(3, 2, 7), Form(4, 3, 6), Form(4, 3, 7), Form(3, 1, 8))


def assert_printed_digits_correct(max_abs_d, extra=()):
    forms = [f for f in reduced_forms(max_abs_d) if f.b >= 0] + list(extra)
    faults = [x for f in forms for digits in PRINTED_DIGITS for x in printed_digit_faults(f, digits)]
    assert not faults, faults[:5]


def test_every_printed_digit_is_correct():
    assert_printed_digits_correct(60, DIGIT_CASES)


@pytest.mark.slow
def test_every_printed_digit_is_correct_to_300():
    assert_printed_digits_correct(300)


def test_bounds_and_equation_refuse_discriminants_beyond_the_j_lemma(capsys):
    for verb in ("bounds", "equation"):
        err = assert_usage_error(capsys, [verb, "--form", "1,0,10000000000"])
        assert "10^6" in err


def test_classpoly_verb(capsys):
    res = run_json(capsys, ["classpoly", "-23"])["result"]
    assert res["degree"] == 3
    assert res["coefficients"] == ["12771880859375", "-5151296875", "3491750", "1"]
    cert = res["certificate"]
    assert set(cert) == {"precision_bits", "error_bound_log2"}
    assert cert["precision_bits"] > 0 and cert["error_bound_log2"] <= -12


def test_classpoly_text_ends_with_the_certificate(capsys):
    assert cli.run(["classpoly", "-23"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "H_-23(x), degree 3:",
        "  coefficients (constant first): 12771880859375 -5151296875 3491750 1",
    ]
    assert len(lines) == 3
    assert re.fullmatch(r"  certified at \d+ bits, error < 2\^-\d+", lines[2]), lines[2]


def test_classpoly_over_the_size_limit_is_usage_error(capsys):
    from singk3.modular import _MAX_CLASSPOLY_ABS_D

    err = assert_usage_error(capsys, ["classpoly", "-1000003"])
    assert str(_MAX_CLASSPOLY_ABS_D) in err and "-1000003" in err


def test_inputs_past_the_class_group_and_scan_limits_are_usage_errors(capsys):
    from singk3.classgroup import _MAX_CLASS_GROUP_ABS_D, _MAX_SCAN_BOUND

    # the smallest discriminant past each limit; refused before any enumeration
    for verb in ("classgroup", "genus"):
        start = time.perf_counter()
        err = assert_usage_error(capsys, [verb, str(-_MAX_CLASS_GROUP_ABS_D - 3)])
        assert "10^10" in err and time.perf_counter() - start < 1
    start = time.perf_counter()
    err = assert_usage_error(capsys, ["scan", "--bound", str(_MAX_SCAN_BOUND + 1)])
    assert str(_MAX_SCAN_BOUND) in err and time.perf_counter() - start < 1


def test_scan_verb(capsys):
    env = run_json(capsys, ["scan", "--bound", "100"])
    res = env["result"]
    assert res["count"] == len(res["records"])
    assert res["records"][0] == {"d": -3, "h": 1, "d_K": -3, "f": 1}
    assert all(set(r) == {"d", "h", "d_K", "f"} for r in res["records"])
    assert all(classes_per_genus(r["d"]) == 1 for r in res["records"])
    assert res["field_count"] == len(set(r["d_K"] for r in res["records"]))
    assert any("cutoff" in w for w in env["warnings"])


def test_scan_at_the_largest_bound_finds_no_further_records(capsys):
    small = run_json(capsys, ["scan", "--bound", "10000"])["result"]
    large = run_json(capsys, ["scan", "--bound", "4000000"])["result"]
    assert large["records"] == small["records"] and len(small["records"]) == 101


def test_deterministic_output(capsys):
    cli.run(["scan", "--bound", "200", "--json"])
    first = capsys.readouterr().out
    cli.run(["scan", "--bound", "200", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_usage_errors_exit_2(capsys):
    assert cli.run(["classgroup", "5"]) == 2
    assert cli.run(["bounds", "--form", "1,0,-1"]) == 2
    assert cli.run(["bounds", "--form", "nonsense"]) == 2
    assert cli.run(["scan", "--bound", "3"]) == 2
    assert cli.run(["classgroup", "-23", "--precision", "64"]) == 2  # only bounds, equation
    assert cli.run(["no-such-verb"]) == 2
    capsys.readouterr()


def assert_usage_error(capsys, argv) -> str:
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error:" in err and "Traceback" not in err
    return err


# text that int() reads and the one integer reader refuses, and text too long
# to quote whole in an error line
NOT_DECIMAL = (
    "２３",  # full-width digits
    "٢٣",  # Arabic-Indic digits
    "2_3",  # a _ separator
    "9" * 5000,  # past int()'s default limit of 4300 digits
    "x" * 5000,
)


def number_inputs(text):
    # (argv, environment) for every number the command line reads, set to text
    for verb in ("classgroup", "genus", "classpoly"):
        # -text is an option to argparse unless a digit follows the minus or it follows --
        yield [verb, *([] if text[:1].isdigit() else ["--"]), f"-{text}"], {}
    for verb in ("bounds", "factors", "equation"):
        yield [verb, "--form", f"2,1,{text}"], {}
        yield [verb, "--form", f"{text},1,3"], {}
    yield ["scan", "--bound", text], {}
    for verb in ("bounds", "equation"):
        yield [verb, "--form", "2,1,3", "--precision", text], {}
        yield [verb, "--form", "2,1,3"], {"SINGK3_PRECISION": text}
    yield ["scan"], {"SINGK3_BOUND": text}


def test_every_verb_and_variable_refuses_what_int_alone_would_read(capsys, monkeypatch):
    for text in NOT_DECIMAL:
        for argv, env in number_inputs(text):
            monkeypatch.delenv("SINGK3_PRECISION", raising=False)
            monkeypatch.delenv("SINGK3_BOUND", raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            err = assert_usage_error(capsys, argv)
            assert "argument " in err, (argv, env, err[:200])
            assert len(err) < 200 and "set_int_max_str_digits" not in err, (argv, env, err[:200])


LONG = "7" * 4000  # inside the 4300 digits that the integer reader takes


def test_long_integers_in_error_lines_are_quoted_short(capsys):
    for argv in (
        ["classgroup", LONG],
        ["classpoly", f"-{LONG}"],
        ["bounds", "--form", f"-{LONG},1,1"],
        ["factors", "--form", f"{LONG},{LONG},1"],
        ["equation", "--form", f"1,{LONG},1"],
    ):
        err = assert_usage_error(capsys, argv)
        assert len(err) < 200 and "(4000 digits)" in err, (argv[0], err[:200])


PADDED = (
    (["classgroup", " -23 "], ["classgroup", "-23"]),
    (["genus", " -56 "], ["genus", "-56"]),
    (["classpoly", "\t-23 "], ["classpoly", "-23"]),
    (["bounds", "--form", " 2, 1 ,3 "], ["bounds", "--form", "2,1,3"]),
    (["factors", "--form", " 2, 1 ,3 "], ["factors", "--form", "2,1,3"]),
    (["equation", "--form", " 2, 1 ,3 "], ["equation", "--form", "2,1,3"]),
    (["equation", "--form", "+2,+1,+3", "--precision", " +30 "],
     ["equation", "--form", "2,1,3", "--precision", "30"]),
    (["scan", "--bound", "+1000"], ["scan", "--bound", "1000"]),
)


def test_padded_ascii_input_keeps_its_output(capsys):
    for padded, plain in PADDED:
        outputs = []
        for argv in (padded, plain):
            assert cli.run(argv) == 0, argv
            text = capsys.readouterr().out
            outputs.append((text, run_json(capsys, argv)["result"]))
        assert outputs[0] == outputs[1], padded


def test_values_that_start_with_a_minus_get_their_arguments_error_line(capsys):
    err = assert_usage_error(capsys, ["classgroup", "-23_0"])
    assert "argument d: " in err and "'-23_0'" in err
    for argv in (["equation", "--form", "-1,0,-1"], ["equation", "--form=-1,0,-1"]):
        err = assert_usage_error(capsys, argv)
        assert "argument --form: " in err and "(-1,0,-1)" in err
    err = assert_usage_error(capsys, ["bounds", "--form", "2,1,3", "--precision", "-1_0"])
    assert "argument --precision: " in err and "'-1_0'" in err


def test_precision_must_be_positive(capsys):
    assert_usage_error(capsys, ["equation", "--form", "2,1,3", "--precision", "-5"])
    assert_usage_error(capsys, ["equation", "--form", "2,1,3", "--precision", "0"])
    assert_usage_error(capsys, ["bounds", "--form", "2,1,3", "--precision", "0"])


def test_bad_precision_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SINGK3_PRECISION", "abc")
    assert_usage_error(capsys, ["equation", "--form", "2,1,3"])
    monkeypatch.setenv("SINGK3_PRECISION", "0")
    assert_usage_error(capsys, ["bounds", "--form", "2,1,3"])


def test_bad_bound_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SINGK3_BOUND", "abc")
    assert_usage_error(capsys, ["scan"])


def test_bad_precision_env_names_the_variable(capsys, monkeypatch):
    for bad in ("abc", "-1"):
        monkeypatch.setenv("SINGK3_PRECISION", bad)
        err = assert_usage_error(capsys, ["equation", "--form", "2,1,3"])
        assert "SINGK3_PRECISION" in err and repr(bad) in err
    err = assert_usage_error(capsys, ["bounds", "--form", "2,1,3", "--precision", "x"])
    assert "SINGK3_PRECISION" not in err  # the bad value was typed, not inherited


def test_oversized_precision_is_a_usage_error_naming_the_limit(capsys, monkeypatch):
    from mpmath.libmp import dps_to_prec

    limit = cli.precision_digits("9632")
    assert dps_to_prec(limit) <= modular._MAX_PRECISION_BITS < dps_to_prec(limit + 1)
    for verb in (["bounds"], ["equation"], ["equation", "--kummer"]):
        start = time.perf_counter()
        err = assert_usage_error(capsys, [*verb, "--form", "1,1,6", "--precision", "30000"])
        assert time.perf_counter() - start < 5
        assert "limited to 9632 digits, got 30000" in err and "SINGK3_PRECISION" not in err
    monkeypatch.setenv("SINGK3_PRECISION", "9633")
    err = assert_usage_error(capsys, ["bounds", "--form", "1,1,6"])
    assert "limited to 9632 digits, got 9633 from SINGK3_PRECISION" in err


def test_bad_bound_env_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("SINGK3_BOUND", "1e4")
    err = assert_usage_error(capsys, ["scan"])
    assert "SINGK3_BOUND" in err and "'1e4'" in err


def test_complex_values_render_a_negative_imaginary_part_with_minus(capsys):
    assert cli.run(["equation", "--form", "2,1,3", "--precision", "30"]) == 0
    out = capsys.readouterr().out
    assert "+ -" not in out
    assert "A = -863.19" in out and " - 2063.68" in out
    res = run_json(capsys, ["equation", "--form", "2,1,3", "--precision", "30"])["result"]
    assert res["A"]["im"].startswith("-2063.68")  # JSON keeps the signed part


def test_closed_stdout_pipe_exits_without_traceback():
    code = "import sys; from singk3.cli import main; sys.argv[0] = 'singk3'; main()"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before any output is written
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, "genus", "-4043912", "--json"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr, proc.stderr


def test_cli_import_loads_no_process_pool():
    code = (
        "import sys, singk3.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


NUMERIC_LAYERS = (
    "mpmath", "singk3._numeric_verbs", "singk3.k3", "singk3.lattices", "singk3.modular"
)
# dataclasses and what it imports, about 10 ms of start-up
INTROSPECTION = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def modules_left_loaded(argv, modules=NUMERIC_LAYERS, flags=(), imports=()) -> str:
    # which of `modules` a fresh interpreter, started with `flags`, holds after
    # importing `imports` and running the command argv (None: no command)
    command = "" if argv is None else "from singk3.cli import run; run(sys.argv[1:]); "
    code = (
        f"import {', '.join(('sys', *imports))}; {command}"
        f"print(sorted(m for m in {modules!r} if m in sys.modules), file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *(argv or ())],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return proc.stderr.strip().splitlines()[-1]


def test_class_group_verbs_load_no_numeric_layer():
    for argv in (["classgroup", "-23"], ["genus", "-56"], ["scan", "--bound", "100"], ["--version"]):
        assert modules_left_loaded(argv) == "[]", argv


def test_classpoly_loads_neither_k3_nor_lattices():
    assert modules_left_loaded(["classpoly", "-23"]) == "['singk3.modular']"


def test_only_a_computed_value_loads_mpmath():
    # modular imports mpmath when it computes or prints a value, and no other
    # module imports it: factors and the surface layer's import run without it
    factors = modules_left_loaded(["factors", "--form", "4,0,4", "--kummer"])
    assert factors == "['singk3._numeric_verbs', 'singk3.k3', 'singk3.lattices', 'singk3.modular']"
    assert modules_left_loaded(None, ("mpmath",), imports=("singk3.k3",)) == "[]"
    assert modules_left_loaded(["bounds", "--form", "1,1,1"], ("mpmath",)) == "['mpmath']"


COLD_VERBS = (
    ["classgroup", "-23"],
    ["genus", "-56"],
    ["scan", "--bound", "100"],
    ["classpoly", "-23"],
    ["--version"],
)


def test_cold_verbs_load_no_dataclasses():
    for argv in COLD_VERBS:
        assert modules_left_loaded(argv, INTROSPECTION) == "[]", argv


def test_numeric_verbs_load_no_dataclasses():
    # their records are named tuples too; mpmath itself loads none of these
    for argv in (
        ["bounds", "--form", "1,1,1"],
        ["factors", "--form", "4,0,4", "--kummer"],
        ["equation", "--form", "2,1,3", "--kummer"],
    ):
        assert modules_left_loaded(argv, INTROSPECTION) == "[]", argv


def test_cold_verbs_load_no_typing():
    # -S: no site hooks, which may load typing before singk3 runs
    for argv in COLD_VERBS:
        assert modules_left_loaded(argv, ("typing",), flags=("-S",)) == "[]", argv


def test_computation_errors_exit_3(capsys, monkeypatch):
    def boom(d):
        raise PrecisionExhausted("not enough bits")

    monkeypatch.setattr(modular, "class_polynomial", boom)
    assert cli.run(["classpoly", "-23"]) == 3
    err = capsys.readouterr().err
    assert "not enough bits" in err


def test_value_error_in_a_computation_exits_3(capsys, monkeypatch):
    def boom(d):
        raise ValueError("internal arithmetic went wrong")

    monkeypatch.setattr(modular, "class_polynomial", boom)
    assert cli.run(["classpoly", "-23"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["computation failed: internal arithmetic went wrong"]


def test_small_scan_bound_and_oversized_coefficient_are_usage_errors(capsys):
    assert_usage_error(capsys, ["scan", "--bound", "3"])
    assert_usage_error(capsys, ["bounds", "--form", "1,1," + "1" * 5000])


def test_factors_refuses_what_trial_division_cannot_prove(capsys):
    # 318665857834031151167461 is a strong pseudoprime to the bases 2..37
    err = assert_usage_error(capsys, ["factors", "--form", "1,0,318665857834031151167461"])
    assert "10^12" in err


def test_factoring_refusal_of_a_number_too_long_to_print(capsys):
    # d has about 6000 digits, past Python's 4300-digit limit on str(int)
    sevens = "7" * 3000
    err = assert_usage_error(capsys, ["factors", "--form", f"{sevens},1,{sevens}"])
    assert "10^12" in err


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("SINGK3_PRECISION", "64")
    env = run_json(capsys, ["bounds", "--form", "1,0,1"])
    assert env["command"]["arguments"]["precision"] == 64
    monkeypatch.setenv("SINGK3_KUMMER", "1")
    res = run_json(capsys, ["factors", "--form", "4,0,4"])["result"]
    assert "kummer" in res


def test_false_spellings_leave_a_flag_off(capsys, monkeypatch):
    argv = ["factors", "--form", "4,0,4"]
    for text in ("", "0", " 0 ", "false", "False", "FALSE", "no", "NO", "off", "Off"):
        monkeypatch.setenv("SINGK3_JSON", text)
        monkeypatch.setenv("SINGK3_KUMMER", text)
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("d = -64") and "Kummer" not in out, text
    for text in ("1", "yes", "true", "on"):
        monkeypatch.setenv("SINGK3_JSON", text)
        monkeypatch.setenv("SINGK3_KUMMER", text)
        assert "kummer" in run_json(capsys, argv)["result"], text


def test_the_parser_is_built_once_per_process(capsys):
    cli.run(["classgroup", "-23"])
    before = cli._build_parser.cache_info().misses
    for argv in (["classgroup", "-23", "--json"], ["scan", "--bound", "100"], ["genus", "-56"]):
        assert cli.run(argv) == 0
    assert cli._build_parser.cache_info().misses == before <= 1


def test_variables_are_read_when_a_command_runs(capsys, monkeypatch):
    argv = ["bounds", "--form", "1,0,1"]
    for digits in ("64", "30"):
        monkeypatch.setenv("SINGK3_PRECISION", digits)
        assert run_json(capsys, argv)["command"]["arguments"]["precision"] == int(digits)
    monkeypatch.delenv("SINGK3_PRECISION")
    assert run_json(capsys, argv)["command"]["arguments"]["precision"] == 128
    argv = ["factors", "--form", "4,0,4"]
    monkeypatch.setenv("SINGK3_KUMMER", "1")
    assert "kummer" in run_json(capsys, argv)["result"]
    monkeypatch.setenv("SINGK3_KUMMER", "0")
    assert "kummer" not in run_json(capsys, argv)["result"]


def test_a_typed_flag_beats_its_variable(capsys, monkeypatch):
    for text in ("64", "abc"):  # a bad value is not read when the flag is typed
        monkeypatch.setenv("SINGK3_PRECISION", text)
        env = run_json(capsys, ["bounds", "--form", "1,0,1", "--precision", "30"])
        assert env["command"]["arguments"]["precision"] == 30
    monkeypatch.setenv("SINGK3_BOUND", "abc")
    assert run_json(capsys, ["scan", "--bound", "100"])["result"]["bound"] == 100
    monkeypatch.setenv("SINGK3_KUMMER", "0")
    assert "kummer" in run_json(capsys, ["factors", "--form", "4,0,4", "--kummer"])["result"]
    monkeypatch.setenv("SINGK3_JSON", "0")
    run_json(capsys, ["classgroup", "-23"])  # run_json types --json


def test_one_default_precision(capsys, monkeypatch):
    from mpmath.libmp import dps_to_prec

    from singk3 import _numeric_verbs
    from singk3.k3 import analyze

    digits = modular._DEFAULT_DIGITS
    assert modular.DEFAULT_PRECISION_BITS == dps_to_prec(128) == dps_to_prec(digits) == 429
    assert cli.run(["bounds", "--help"]) == 0
    assert f"(default {digits})" in " ".join(capsys.readouterr().out.split())
    # an unset --precision computes at the library's default bits ...
    bits = []
    monkeypatch.delenv("SINGK3_PRECISION", raising=False)
    monkeypatch.setattr(_numeric_verbs, "analyze", lambda q, b: bits.append(b) or analyze(q, b))
    for q in (Form(2, 1, 3), Form(4, 0, 4), Form(3, 2, 7)):
        env = run_json(capsys, ["bounds", "--form", str(q)])
        assert env["command"]["arguments"]["precision"] == digits
        # ... so the library's default report prints as the command's
        report = analyze(q)
        assert env["result"]["model_field"] == {
            "j_tau1_normalized": _numeric_verbs._value_json(report.j_tau1_normalized, digits),
            "j_tau2_normalized": _numeric_verbs._value_json(report.j_tau2_normalized, digits),
        }, q
    assert bits == [modular.DEFAULT_PRECISION_BITS] * 3


def test_digits_and_bits_convert_as_mpmath_does():
    from mpmath.libmp import dps_to_prec, prec_to_dps

    limit = modular._bits_to_digits(modular._MAX_PRECISION_BITS)
    assert all(modular._digits_to_bits(n) == dps_to_prec(n) for n in range(1, limit + 2))
    assert all(
        modular._bits_to_digits(n) == prec_to_dps(n)
        for n in range(1, modular._MAX_PRECISION_BITS + 2)
    )


def test_usage_errors_share_one_base_class(capsys, monkeypatch):
    from singk3 import errors

    usage = {"ParseError", "NotPositiveDefinite", "NotNegativeDiscriminant",
             "InvalidDiscriminant", "InputTooLarge"}
    for name, value in vars(errors).items():
        if isinstance(value, type) and issubclass(value, errors.SingK3Error):
            assert issubclass(value, errors.InputError) == (name in usage | {"InputError"}), name

    def boom(d):  # the command line exits 2 on the base class itself
        raise errors.InputError("bad input")

    monkeypatch.setattr(cli, "class_group", boom)
    assert cli.run(["classgroup", "-23"]) == 2
    assert capsys.readouterr().err == "error: bad input\n"


def test_version_flag(capsys):
    assert cli.run(["--version"]) == 0
    assert "singk3" in capsys.readouterr().out
