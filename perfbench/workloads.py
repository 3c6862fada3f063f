"""Seeded inputs for the three workloads.

The cold workloads draw from fixed pools (pools.json, written by
make_pools.py), sorted by cost and cut into strata.  A round takes one input
from every stratum, visiting the strata in an interleaved order, so that
runs with different seeds do about the same work and any prefix of a run has
about the same mix.  The seed decides which input of each stratum is used.
Nothing here calls the program: forms for `session` are enumerated by this
module's own loop.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate, count
from math import isqrt
from pathlib import Path
from typing import Iterator

POOLS = json.loads(Path(__file__).with_name("pools.json").read_text())

POOL_STRATA = 16

# session: the population is every reduced form (a, b, c) with b >= 0 and
# |d| <= 2000, the set ROADMAP.md counts the pencil defect over, imprimitive
# and 2-divisible forms included.  No record of real query traffic exists, so
# popularity follows the classic Zipf law (exponent 1) over a fixed shuffle
# of the population.  Each query asks all five surface questions about its
# form, as demos 03 and 05 between them do for a form.
SESSION_MAX_ABS_D = 2000
SESSION_ZIPF = 1.0


@dataclass(frozen=True)
class ColdOp:
    argv: tuple[str, ...]
    key: int  # d


def interleaved(k: int) -> list[int]:
    """0..k-1 in bit-reversed order: every prefix spreads over the whole range."""
    bits = max(1, (k - 1).bit_length())
    rev = sorted(range(1 << bits), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    return [i for i in rev if i < k]


def strata(entries: list[dict], k: int) -> list[list[dict]]:
    ranked = sorted(entries, key=lambda e: (e["cost_s"], e["d"]))
    return [ranked[i * len(ranked) // k : (i + 1) * len(ranked) // k] for i in range(k)]


def cold_ops(workload: str, seed: int) -> Iterator[ColdOp]:
    """Endless stream of CLI calls for a cold workload."""
    rng = random.Random(f"{workload}:{seed}")
    bins = strata(POOLS[workload], POOL_STRATA)
    for rnd in count():
        for pos, i in enumerate(interleaved(POOL_STRATA)):
            d = rng.choice(bins[i])["d"]
            if workload == "classpoly":
                verb = "classpoly"
            else:
                verb = ("classgroup", "genus")[(rnd + pos) % 2]
            yield ColdOp((verb, str(d), "--json"), d)


def session_forms() -> list[tuple[int, int, int]]:
    """The session's forms, most popular first.

    Enumerated by this module's own loop, not by the program.  The order is
    the same for every seed, so every run meets the same popular forms; the
    seed draws the query stream.
    """
    forms = []
    for n in range(3, SESSION_MAX_ABS_D + 1):
        if n % 4 not in (0, 3):
            continue
        for a in range(1, isqrt(n // 3) + 1):
            for b in range(a + 1):
                if (b * b + n) % (4 * a) == 0 and (b * b + n) // (4 * a) >= a:
                    forms.append((a, b, (b * b + n) // (4 * a)))
    random.Random("session-forms").shuffle(forms)
    return forms


def session_queries(seed: int) -> Iterator[tuple[int, int, int]]:
    """Endless stream of forms, following a Zipf law over session_forms."""
    forms = session_forms()
    cum = list(accumulate(1 / (r + 1) ** SESSION_ZIPF for r in range(len(forms))))
    rng = random.Random(f"session-stream:{seed}")
    while True:
        yield rng.choices(forms, cum_weights=cum)[0]
