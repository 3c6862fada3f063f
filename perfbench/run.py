"""singk3 benchmark: one closed-loop client, one operation in flight.

    python3 perfbench/run.py --workload classpoly --seed 1 --seconds 35 --trace 0

Workloads (inputs in workloads.py, checks in checks.py, more in README.md):
  classpoly  cold `singk3 classpoly d --json`, h 15-48
  structure  cold `singk3 classgroup|genus d --json`, |d| in 10^6-10^7
  session    one long-lived library process answering surface queries

--trace 0 times the workload for --seconds and prints the end-to-end metrics:
each cold operation is a fresh CLI subprocess started by launcher.py, start-up
and import included.  --trace 1 runs a fixed number of operations
in-process, after a warm-up pass both untraced and traced (tracer.py), and
prints the per-layer metrics and a self-time table; its spans go to
perfbench/out/.
Outputs are checked after the timed loop.  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCHER = HERE / "launcher.py"
OUT = HERE / "out"

WORKLOADS = ("classpoly", "structure", "session")
# setup_s samples: one `--version` spawn before the first operation and then
# one whenever SETUP_EVERY_S of the run has passed, so that they spread over
# the whole run and not over one moment of it
SETUP_EVERY_S = 2.5
OP_TIMEOUT_S = 60
# traced runs do a fixed amount of work, so that their counts repeat exactly:
# operations per second of --seconds
TRACE_RATE = {"classpoly": 1.28, "structure": 0.32, "session": 60}
PENCILS = ("inose_pencil", "kummer_equation")


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def machine() -> dict:
    import mpmath

    return {
        "interpreter": sys.executable,
        "PYTHONPATH": child_env()["PYTHONPATH"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def spawn(argv) -> tuple[float, int, bytes]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(LAUNCHER), *argv],
        capture_output=True, env=child_env(), cwd=ROOT, timeout=OP_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout


class Setup:
    """Wall times of `singk3 --version` as a fresh process, spread over a run."""

    def __init__(self):
        self.times: list[float] = []

    def due(self, start: float) -> None:
        """Spawn one `--version` if the run has reached the next sample time."""
        if time.perf_counter() - start >= len(self.times) * SETUP_EVERY_S:
            dt, rc, out = spawn(["--version"])
            if rc != 0 or not out.startswith(b"singk3 "):
                raise RuntimeError(f"singk3 --version failed: exit {rc}")
            self.times.append(dt)

    def spent(self) -> float:
        return sum(self.times)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    That is the sample with ten samples above it, but never more than p99:
    with more than 1000 samples the sample with 1% above it is taken, because
    the few rarest operations of a long run repeat poorly from run to run.
    With fewer than 21 samples the sample with ten above would lie below the
    median, and the (lower) median is reported instead, so that the value
    does not jump as the sample count changes.
    """
    s = sorted(latencies)
    above = max(10, -(-len(s) // 100))
    k = max(len(s) - 1 - above, (len(s) - 1) // 2)
    return s[k], 100.0 * (k + 1) / len(s)


# -- timed runs -----------------------------------------------------------------


def timed_cold(workload: str, seed: int, seconds: float, setup: Setup):
    from checks import check_cold
    from workloads import cold_ops

    ops = cold_ops(workload, seed)
    done = []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        setup.due(start)
        op = next(ops)
        try:
            dt, rc, out = spawn(op.argv)
        except subprocess.TimeoutExpired:
            done.append((op.argv, OP_TIMEOUT_S, -9, b""))
            break
        done.append((op.argv, dt, rc, out))
    elapsed = time.perf_counter() - start - setup.spent()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    latencies = [dt for _, dt, _, _ in done]
    reasons = [check_cold(argv, rc, out) for argv, _, rc, out in done]
    inputs = [" ".join(argv) for argv, _, _, _ in done]
    return latencies, elapsed, peak_rss_mb, reasons, inputs


def session_call(q):
    """One surface query: each of the five questions about the form q.

    The functions are looked up through the module namespaces at call time.
    """
    import singk3.k3 as k3
    import singk3.lattices as lattices

    pair = lattices.sm_factors(q)
    lat = lattices.QuadLattice.from_tau
    return {
        "analyze": k3.analyze(q),
        "factors": (pair, k3.kummer_reduction(q)),
        "genus": k3.genus_of_transcendental_lattice(q),
        "inose_pencil": k3.inose_pencil(q),
        "kummer_equation": k3.kummer_equation(q),
        "shm": lattices.shioda_mitani_check(lat(pair.tau1), lat(pair.tau2), q),
    }


def _summary(result):
    # the hashable part of a result that its checks read; WeierstrassModel
    # compares by identity, so pencils are keyed by their values
    if isinstance(result, Exception):
        return repr(result)
    return tuple((kind, (r.A, r.B, r.degenerate_rule_applied, r.precision_bits)
                  if kind in PENCILS else r) for kind, r in result.items())


def run_session(queries, on_op=None, between=None):
    """Answer queries in order; returns (latencies, results, elapsed).

    between(), if given, runs before each query; its time is not counted.

    results maps (form, summary) to [first result, count]: repeated queries
    mostly return equal results, and keeping one of each keeps the session
    process's memory that of the program, not of this loop.
    """
    from singk3.forms import Form

    latencies, results = [], {}
    call = session_call if on_op is None else on_op
    start = time.perf_counter()
    aside = 0.0
    for triple in queries:
        if between is not None:
            t0 = time.perf_counter()
            between()
            aside += time.perf_counter() - t0
        q = Form(*triple)
        t0 = time.perf_counter()
        try:
            result = call(q)
        except Exception as exc:  # an operation that raises is a failed operation
            result = exc
        latencies.append(time.perf_counter() - t0)
        entry = results.setdefault((q, _summary(result)), [result, 0])
        entry[1] += 1
    return latencies, results, time.perf_counter() - start - aside


def check_session_results(results) -> list[str | None]:
    """One check reason per operation."""
    from checks import check_surface, prefetch_pencil_references

    prefetch_pencil_references((q, result[kind].precision_bits)
                               for (q, _), (result, _) in results.items()
                               if not isinstance(result, Exception) for kind in PENCILS)
    reasons = []
    for (q, _), (result, n) in results.items():
        if isinstance(result, Exception):
            reasons += [f"raised {result!r}"] * n
        else:
            reasons += [check_surface(q, result)] * n
    return reasons


def timed_session(seed: int, seconds: float, setup: Setup):
    import singk3.k3  # noqa: F401  imported before the clock starts
    import singk3.lattices  # noqa: F401
    from workloads import session_queries

    stream = session_queries(seed)
    start = time.perf_counter()

    def until_deadline():
        for query in stream:
            yield query
            if time.perf_counter() - start >= seconds:
                return

    latencies, results, elapsed = run_session(until_deadline(), between=lambda: setup.due(start))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reasons = check_session_results(results)
    inputs = [f"{q} x{n}" for (q, _), (_, n) in results.items()]
    return latencies, elapsed, peak_rss_mb, reasons, inputs


# -- traced runs -----------------------------------------------------------------


def traced(workload: str, seed: int, seconds: float):
    """The same fixed inputs in-process: a warm-up pass, then untraced and traced.

    The warm-up pass is discarded: it pays the one-time costs (mpmath's
    constants at each working precision, first calls) that would otherwise
    fall on whichever measured pass comes first.  Cold operations then run
    each input untraced and traced back to back, in alternating order, so
    that the machine's drift falls on both sides of trace.overhead_ratio;
    the session, whose caches carry over from query to query, runs an
    untraced and then a traced pass.
    """
    import singk3.cli as cli

    from checks import check_cold
    from tracer import Tracer, clear_caches
    from workloads import cold_ops, session_queries

    amount = max(1, round(seconds * TRACE_RATE[workload]))
    tracer = Tracer()
    if workload == "session":
        queries = list(islice(session_queries(seed), amount))
        for _ in range(2):
            clear_caches(tracer.caches)
            _, _, untraced_wall = run_session(queries)

        def traced_call(q):
            with tracer.op(form=str(q)):
                return session_call(q)

        clear_caches(tracer.caches)
        tracer.attach()
        try:
            _, results, wall = run_session(queries, traced_call)
        finally:
            tracer.detach()
        reasons = check_session_results(results)
    else:
        ops = list(islice(cold_ops(workload, seed), amount))

        def one(op, record: bool) -> tuple[float, int, bytes]:
            clear_caches(tracer.caches)
            buf = io.StringIO()
            t0 = time.perf_counter()
            if record:
                tracer.attach()
                try:
                    with tracer.op(argv=" ".join(op.argv)):
                        rc = cli.run(list(op.argv), out=buf)
                finally:
                    tracer.detach()
            else:
                rc = cli.run(list(op.argv), out=buf)
            dt = time.perf_counter() - t0
            clear_caches(tracer.caches, tracer.cache_totals if record else None)
            return dt, rc, buf.getvalue().encode()

        for op in ops:
            one(op, False)
        wall = untraced_wall = 0.0
        outputs = []
        for i, op in enumerate(ops):
            for record in (False, True) if i % 2 == 0 else (True, False):
                dt, rc, out = one(op, record)
                if record:
                    wall += dt
                    outputs.append((op.argv, rc, out))
                else:
                    untraced_wall += dt
        reasons = [check_cold(argv, rc, out) for argv, rc, out in outputs]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-s{seed}.jsonl",
                 {"workload": workload, "seed": seed, "machine": machine()})
    return layer_metrics(tracer, wall, untraced_wall), reasons


def layer_metrics(tracer, wall: float, untraced_wall: float) -> dict:
    from tracer import LAYERS

    tot = tracer.totals()
    spans = tracer.spans

    def stat(name, i):
        return tot[name][i] if name in tot else 0

    layer_self = {layer: sum(v[2] for n, v in tot.items() if n.split(".")[0] == layer)
                  for layer in LAYERS}
    layer_calls = {layer: sum(v[0] for n, v in tot.items() if n.split(".")[0] == layer)
                   for layer in LAYERS}
    groups = [s for s in spans
              if s.name == "classgroup.class_group" and s.attrs and s.attrs["computed"]]
    class_sum = sum(s.attrs["h"] for s in groups)
    compose_in_groups = sum(s.leaf.get("forms.compose", [0])[0] for s in groups)
    polys = [s for s in spans if s.name == "modular.class_polynomial" and s.attrs]
    j_in_polys = sum(1 for s in spans if s.name == "modular.j_of_form" and s.parent is not None
                     and spans[s.parent].name == "modular.class_polynomial")
    m = {
        "forms.compose.calls": stat("forms.compose", 0),
        "forms.compose.busy_s": stat("forms.compose", 1),
        "forms.power.calls": stat("forms.power", 0),
        "classgroup.class_group.self_s": stat("classgroup.class_group", 2),
        "classgroup.compose_per_class": compose_in_groups / class_sum if class_sum else 0.0,
        "classgroup.genus.busy_s": tracer.group_busy["classgroup.genus"],
        "classgroup.enumerate.busy_s": tracer.group_busy["classgroup.enumerate"],
        "classgroup.cache_hit_ratio": tracer.cache_hit_ratio(),
        "modular.j_of_form.calls": stat("modular.j_of_form", 0),
        "modular.j_of_form.busy_s": stat("modular.j_of_form", 1),
        "modular.class_polynomial.self_s": stat("modular.class_polynomial", 2),
        "modular.coeff_bits_max": max((s.attrs["coeff_bits"] for s in polys), default=0),
        "modular.j_useful_ratio": (sum(s.attrs["degree"] for s in polys) / j_in_polys
                                   if j_in_polys else 0.0),
        "modular.recognize_rational.calls": stat("modular.recognize_rational", 0),
        "modular.recognize_rational.busy_s": stat("modular.recognize_rational", 1),
        "lattices.calls": layer_calls["lattices"],
        "k3.calls": layer_calls["k3"],
        "cli.output_bytes": sum(s.attrs["output_bytes"] for s in spans if s.name == "cli.run"),
        "trace.overhead_ratio": wall / untraced_wall,
        "trace.wall_s": wall,
        "trace.uncovered_s": wall - sum(layer_self.values()),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.errors"] = tracer.errors[layer]
    return m


# -- report ------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "singk3" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no singk3 checkout (src/singk3, tests/oracles.py)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    units = declared_metrics(bool(args.trace))
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine()}

    if args.trace:
        values, reasons = traced(args.workload, args.seed, args.seconds)
    else:
        setup = Setup()
        if args.workload == "session":
            lat, elapsed, rss, reasons, inputs = timed_session(args.seed, args.seconds, setup)
        else:
            lat, elapsed, rss, reasons, inputs = timed_cold(args.workload, args.seed,
                                                            args.seconds, setup)
        tail_s, tail_pct = tail(lat)
        values = {
            "setup_s": statistics.median(setup.times),
            "throughput_ops_per_s": len(lat) / elapsed,
            "latency_p50_s": statistics.median_low(lat),
            "latency_tail_s": tail_s,
            "peak_rss_mb": rss,
        }
        info.update(latency_tail_percentile=tail_pct, latency_samples=len(lat),
                    elapsed_s=elapsed, setup_samples_s=setup.times, inputs=inputs,
                    latencies_s=lat)

    from checks import PENCIL_DEFECT

    failures = [r for r in reasons if r is not None]
    # the known defect occurs only on the forms pools.json lists for it, so a
    # run can never count more of it than the seed commit does on its seed.
    # It is counted apart from the result's "failed", which holds every other
    # failure: fail_ratio (printed) and, traced, k3.pencil_defect_ratio show it
    known = [r for r in failures if r.startswith(PENCIL_DEFECT)]
    failed = len(failures) - len(known)
    if args.trace:
        values["k3.pencil_defect_ratio"] = len(known) / len(reasons)
    info.update(attempted=len(reasons), failed=failed, known_defect=len(known),
                fail_ratio=len(failures) / len(reasons), failures=sorted(set(failures))[:20])
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} not as in BENCHMARK.json")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in info["machine"].items()))
    for name in units:
        print(f"  {name:36s} {values[name]:.6g} {units[name]}")
    if args.trace:
        print_self_table(values)
    else:
        print(f"  latency_tail_s is p{info['latency_tail_percentile']:.3f} "
              f"of {info['latency_samples']} samples; setup_s is the median of "
              f"{len(setup.times)} spawns")
    print(f"  {'fail_ratio':36s} {info['fail_ratio']:.6g} ratio ({len(failures)} of "
          f"{info['attempted']} failed; {len(known)} of them are the pencil-exactness "
          f"defect of ROADMAP.md, left out of the result's \"failed\")")
    for reason in info["failures"]:
        print(f"  failure: {reason}")
    OUT.mkdir(exist_ok=True)
    info["metrics"] = values
    report = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    report.write_text(json.dumps(info, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reasons),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def print_self_table(values: dict) -> None:
    from tracer import LAYERS

    wall = values["trace.wall_s"]
    print(f"  {'layer':12s} {'self_s':>10s} {'share':>7s}")
    for layer in LAYERS:
        v = values[f"{layer}.self_s"]
        print(f"  {layer:12s} {v:10.4f} {v / wall:7.1%}")
    v = values["trace.uncovered_s"]
    print(f"  {'uncovered':12s} {v:10.4f} {v / wall:7.1%}")
    print(f"  {'traced wall':12s} {wall:10.4f}   overhead x{values['trace.overhead_ratio']:.3f}")


if __name__ == "__main__":
    sys.exit(main())
