"""Run every workload, timed and traced, and print one table of all metrics.

    python3 perfbench/report.py --seed 1 --seconds 35

Each run is `perfbench/run.py` in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(title: str, names: list[str], units: dict, results: dict) -> None:
    workloads = list(results)
    print(f"\n{title:40s}" + "".join(f"{w:>14s}" for w in workloads))
    for name in names:
        row = (f"{results[w][name]:14.6g}" if name in results[w] else f"{'':14s}"
               for w in workloads)
        print(f"{name + ' [' + units[name] + ']':40s}" + "".join(row))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = p.parse_args()
    workloads = [w["name"] for w in SPEC["workloads"]]
    timed, traced = {}, {}
    for w in workloads:
        res = run(w, args.seed, args.seconds, 0)
        timed[w] = {k: v["value"] for k, v in res["metrics"].items()}
        # fail_ratio counts the known pencil defect too, which "failed" leaves out
        info = json.loads((HERE / "out" / f"{w}-s{args.seed}-t0.json").read_text())
        timed[w]["fail_ratio"] = info["fail_ratio"]
        res = run(w, args.seed, args.seconds, 1)
        traced[w] = {k: v["value"] for k, v in res["metrics"].items()}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    units["fail_ratio"] = "ratio"
    table("end to end", [m["name"] for m in SPEC["end_to_end"]] + ["fail_ratio"], units, timed)
    table("per layer (traced run)", [m["name"] for m in SPEC["per_layer"]], units, traced)


if __name__ == "__main__":
    main()
