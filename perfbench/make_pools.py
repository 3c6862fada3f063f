"""Regenerate perfbench/pools.json, the fixed input pools the workloads draw from.

    python3 perfbench/make_pools.py [section ...]

With section names (classpoly, structure, pencil_defects) only
those are rewritten and the rest of the file is kept.

The seeded workloads pick their inputs from these pools.  Each entry carries
its best-of-three time on the machine that wrote the file, used only to sort
the pool into cost strata (see workloads.py), and the values the output
checks compare against that are too slow to recompute in every run: the
class numbers of the `structure` discriminants come from
tests/oracles.class_number_oracle, an O(|d|) character sum that takes about
3 s at |d| = 10^6; and the session forms whose pencil shows ROADMAP.md's
known defect.  Takes about 20 minutes on one core.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import class_number_oracle  # noqa: E402

from singk3 import (  # noqa: E402
    class_group,
    class_polynomial,
    fundamental_data,
    inose_pencil,
)

CLASSPOLY_FUNDAMENTAL = 40
CLASSPOLY_NON_MAXIMAL = 8
STRUCTURE_SIZE = 40


def cost_seconds(fn, d: int) -> float:
    """Best of three timings of fn(d) with cold class group caches."""
    best = float("inf")
    for _ in range(3):
        class_group.cache_clear()
        t0 = time.perf_counter()
        fn(d)
        best = min(best, time.perf_counter() - t0)
    return round(best, 4)


def classpoly_pool(rng: random.Random) -> list[dict]:
    fundamental, non_maximal = [], []
    for n in range(3, 2001):
        d = -n
        if d % 4 not in (0, 1):
            continue
        h = class_number_oracle(d)
        if 15 <= h <= 50:
            (fundamental if fundamental_data(d).conductor == 1 else non_maximal).append((d, h))
    picks = rng.sample(fundamental, CLASSPOLY_FUNDAMENTAL) + rng.sample(
        non_maximal, CLASSPOLY_NON_MAXIMAL
    )
    pool = []
    for d, h in sorted(picks, reverse=True):
        assert class_polynomial(d).degree == h, d
        cost = cost_seconds(class_polynomial, d)
        fundamental = fundamental_data(d).conductor == 1
        pool.append({"d": d, "h": h, "fundamental": fundamental, "cost_s": cost})
        print(f"classpoly d={d} h={h} {cost:.2f} s", flush=True)
    return pool


def structure_pool(rng: random.Random) -> list[dict]:
    pool, seen = [], set()
    while len(pool) < STRUCTURE_SIZE:
        d = -int(10 ** rng.uniform(6, 7))
        if d % 4 not in (0, 1) or d in seen:
            continue
        seen.add(d)
        g = class_group(d)
        class_group.cache_clear()
        if 150 <= g.order <= 700:
            pool.append({"d": d, "h": g.order, "orders": list(g.cyclic_orders())})
            print(f"structure d={d} h={g.order} {g.cyclic_orders()}", flush=True)
    for entry in pool:
        entry["cost_s"] = cost_seconds(class_group, entry["d"])
        t0 = time.perf_counter()
        h = class_number_oracle(entry["d"])
        assert h == entry["h"], (entry, h)
        print(f"oracle d={entry['d']} h={h} {time.perf_counter() - t0:.1f} s", flush=True)
    return sorted(pool, key=lambda e: e["d"], reverse=True)


def pencil_defects() -> list[list[int]]:
    """Session forms whose pencil has a claimed-exact A or B that is wrong.

    Wrong means: a Fraction that differs from the 4x precision rerun, the
    open defect named first in ROADMAP.md.  The session check counts a
    mismatch as that known defect only on these forms.
    """
    from checks import pencil_mismatches
    from singk3.forms import Form
    from workloads import session_forms

    out = []
    for triple in sorted(session_forms()):
        q = Form(*triple)
        pencil = inose_pencil(q)
        if any(isinstance(mine, Fraction) for _, mine, _ in pencil_mismatches(q, pencil)):
            out.append(list(triple))
    print(f"pencil_defects: {len(out)} forms", flush=True)
    return out


SECTIONS = {
    "classpoly": lambda: classpoly_pool(random.Random(1)),
    "structure": lambda: structure_pool(random.Random(2)),
    "pencil_defects": pencil_defects,
}


def main(names: list[str]) -> None:
    path = HERE / "pools.json"
    pools = json.loads(path.read_text()) if names else {}
    for name in names or SECTIONS:
        pools[name] = SECTIONS[name]()
        path.write_text(json.dumps(pools, indent=1) + "\n")
    print("wrote", path)


if __name__ == "__main__":
    main(sys.argv[1:])
