"""Self-tests of the benchmark: python3 -m pytest perfbench -q  (about two minutes)."""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
from singk3 import cli  # noqa: E402
from singk3.forms import Form  # noqa: E402
from workloads import POOLS, cold_ops, session_forms, session_queries  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def bench(workload: str, trace: int, seconds: float = 1, seed: int = 7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_result(argv: list[str]) -> dict:
    buf = io.StringIO()
    assert cli.run(argv + ["--json"], out=buf) == 0
    return json.loads(buf.getvalue())["result"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_timed_run_prints_the_declared_metrics(workload):
    res = result_of(bench(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1 and res["correct"] is True and res["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", ["classpoly", "session"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(bench(workload, 1, seconds=3)) for _ in range(2))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    assert first["correct"] and first["attempted"] == second["attempted"]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    spans = (HERE / "out" / f"spans-{workload}-s7.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["format"] == "singk3-spans/1"


def test_classpoly_traced_run_sees_the_second_certification_pass():
    m = result_of(bench("classpoly", 1, seconds=3))["metrics"]
    assert m["modular.j_useful_ratio"]["value"] == 0.5
    assert m["k3.pencil_defect_ratio"]["value"] == 0
    layers = sum(m[f"{x}.self_s"]["value"] for x in ("forms", "classgroup", "lattices",
                                                     "modular", "k3", "cli"))
    wall = m["trace.wall_s"]["value"]
    assert abs(wall - layers - m["trace.uncovered_s"]["value"]) < 1e-9 * wall + 1e-12


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("classpoly", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_follow_the_seed():
    first = [next(cold_ops("structure", 3)) for _ in range(8)]
    assert first == [next(cold_ops("structure", 3)) for _ in range(8)]
    forms = session_forms()
    assert len(set(forms)) == len(forms) > 9000
    assert forms == session_forms()
    assert list(islice(session_queries(3), 50)) == list(islice(session_queries(3), 50))
    assert list(islice(session_queries(3), 50)) != list(islice(session_queries(4), 50))


def test_classpoly_check_rejects_corruption():
    d = next(e["d"] for e in POOLS["classpoly"] if e["d"] % 3)
    good = cli_result(["classpoly", str(d)])
    assert checks.check_classpoly(d, good) is None
    for corrupt in (
        lambda r: r["coefficients"].__setitem__(0, str(int(r["coefficients"][0]) + 1)),
        lambda r: r["coefficients"].__setitem__(-1, "2"),
        lambda r: r["coefficients"].pop(1),
    ):
        bad = copy.deepcopy(good)
        corrupt(bad)
        assert checks.check_classpoly(d, bad) is not None


def test_structure_checks_reject_corruption():
    entry = next(e for e in POOLS["structure"]
                 if len(e["orders"]) > 1 and e["orders"][0] != e["orders"][1])
    d = entry["d"]
    good = cli_result(["classgroup", str(d)])
    assert checks.check_classgroup(d, good) is None
    bad = copy.deepcopy(good)
    first = bad["cyclic_decomposition"][0]
    first["generator"], bad["cyclic_decomposition"][1]["generator"] = (
        bad["cyclic_decomposition"][1]["generator"], first["generator"])
    assert "exact order" in checks.check_classgroup(d, bad)
    bad = copy.deepcopy(good)
    bad["forms"].pop()
    assert checks.check_classgroup(d, bad) is not None

    genus = cli_result(["genus", str(d)])
    assert checks.check_genus(d, genus) is None
    bad = copy.deepcopy(genus)
    bad["g"], bad["n"] = bad["g"] * 2, bad["n"] // 2
    assert checks.check_genus(d, bad) is not None


def test_session_checks_reject_corruption():
    from singk3 import k3, lattices

    q = Form(2, 0, 2)  # d = -16: A and B are exact at every precision
    pencil = k3.inose_pencil(q)
    assert checks.check_session("inose_pencil", q, pencil) is None
    wrong = k3.WeierstrassModel(pencil.kind, pencil.A + 1, pencil.B, False, pencil.precision_bits)
    reason = checks.check_session("inose_pencil", q, wrong)
    assert reason is not None and not reason.startswith(checks.PENCIL_DEFECT)

    known_bad = Form(1, 0, 400)  # prints a wrong "exact" A at 428 bits
    assert known_bad in checks.PENCIL_DEFECTS
    pencil = k3.kummer_equation(known_bad)
    reason = checks.check_session("kummer_equation", known_bad, pencil)
    assert reason.startswith(checks.PENCIL_DEFECT)
    # on a listed form, a wrong value that is not claimed exact is no known defect
    ref = k3.kummer_equation(known_bad, 4 * pencil.precision_bits)
    drift = k3.WeierstrassModel(pencil.kind, ref.A * (1 + 1e-9), ref.B, False,
                                pencil.precision_bits)
    reason = checks.check_session("kummer_equation", known_bad, drift)
    assert reason is not None and not reason.startswith(checks.PENCIL_DEFECT)

    # a surface query reports an unexpected failure before the known defect
    shm_reason = checks.check_session("shm", known_bad, False)
    assert checks.check_surface(known_bad, {"inose_pencil": pencil, "shm": False}) == shm_reason

    q = Form(4, 2, 10)
    genus = k3.genus_of_transcendental_lattice(q)
    assert checks.check_session("genus", q, genus) is None
    assert checks.check_session("genus", q, genus - {next(iter(genus))}) is not None
    factors = (lattices.sm_factors(q), k3.kummer_reduction(q))
    assert checks.check_session("factors", q, factors) is None
    assert checks.check_session("factors", q, (factors[0], None)) is not None
    assert checks.check_session("shm", q, False) is not None
    report = k3.analyze(q)
    assert checks.check_session("analyze", q, report) is None
    assert checks.check_session("analyze", Form(1, 0, 16), report) is not None


def test_traced_classgroup_splits_its_time():
    from run import layer_metrics
    from tracer import Tracer, clear_caches

    tracer = Tracer()
    clear_caches(tracer.caches)
    tracer.attach()
    try:
        with tracer.op(argv="classgroup -1049892"):
            assert cli.run(["classgroup", "-1049892", "--json"], out=io.StringIO()) == 0
    finally:
        tracer.detach()
    m = layer_metrics(tracer, 1.0, 1.0)
    assert m["forms.compose.calls"] > 0 and m["classgroup.compose_per_class"] > 0
    assert 0 < m["classgroup.enumerate.busy_s"] < m["classgroup.self_s"] + m["forms.self_s"]
    assert m["modular.j_of_form.calls"] == 0 and m["cli.output_bytes"] > 0


def test_check_helpers():
    for n in (0, 1, 7, 8, 26, 27, 10**30, 10**30 + 1, 2**3001):
        r = checks.icbrt(n)
        assert r**3 <= n < (r + 1) ** 3
    assert [checks.prime_factors(n) for n in (1, 12, 97, 360)] == [[], [2, 3], [97], [2, 3, 5]]
