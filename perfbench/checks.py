"""Output checks, each through a route independent of the one being timed.

Every check takes one operation's output and returns None when it holds, or
a one-line reason.  They run after the timed loop.  Slow references are
cached per input, so repeated inputs are compared, not recomputed.

A pencil value that the program claims exact (a Fraction) but that differs
from a 4x precision rerun is the open defect named first in ROADMAP.md ("Make
'exact' pencil coefficients actually exact").  pools.json lists every session
form that shows it at the seed commit; on those forms the reason starts with
PENCIL_DEFECT, so the report can count them apart.  Any other pencil mismatch,
or this one on a form not listed, is an ordinary failure.  Both kinds count as
failed operations.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache
from math import prod

from mpmath import mp
from oracles import class_number_oracle

import singk3.k3 as k3
from singk3.classgroup import genus_characters
from singk3.forms import Form, compose, power, principal_form
from singk3.lattices import galois_orbit_classes
from workloads import POOLS

PENCIL_DEFECT = "claimed-exact pencil value differs from the 4x precision rerun"

PENCIL_DEFECTS = frozenset(Form(*f) for f in POOLS.get("pencil_defects", ()))
STRUCTURE_H = {e["d"]: e["h"] for e in POOLS["structure"]}  # oracle values


def icbrt(n: int) -> int:
    """Integer cube root of n >= 0, rounded down."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


oracle_h = lru_cache(maxsize=None)(class_number_oracle)


def _is_reduced(f: Form) -> bool:
    return -f.a < f.b <= f.a <= f.c and (f.a != f.c or f.b >= 0)


# -- cold workloads: one CLI call each ----------------------------------------


def check_cold(argv: tuple[str, ...], returncode: int, stdout: bytes) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        res = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return "unparsable JSON"
    verb = argv[0]
    try:
        if verb == "classpoly":
            return check_classpoly(int(argv[1]), res)
        if verb == "classgroup":
            return check_classgroup(int(argv[1]), res)
        if verb == "genus":
            return check_genus(int(argv[1]), res)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed result: {exc!r}"
    raise ValueError(f"no check for verb {verb}")


def check_classpoly(d: int, res: dict) -> str | None:
    h = oracle_h(d)
    coeffs = [int(c) for c in res["coefficients"]]
    if res["d"] != d or res["degree"] != h or len(coeffs) != h + 1:
        return f"degree {res['degree']} ({len(coeffs)} coefficients), oracle h = {h}"
    if coeffs[-1] != 1:
        return "not monic"
    if d % 3 and icbrt(abs(coeffs[0])) ** 3 != abs(coeffs[0]):
        return "constant term is not +- a cube"
    return None


def check_classgroup(d: int, res: dict) -> str | None:
    h = STRUCTURE_H[d]
    forms = [Form.from_json(f) for f in res["forms"]]
    if res["d"] != d or res["h"] != h or len(set(forms)) != h or len(forms) != h:
        return f"h = {res['h']} with {len(set(forms))} distinct forms, oracle h = {h}"
    if any(f.discriminant() != d or not _is_reduced(f) for f in forms):
        return "a listed form is not reduced of discriminant d"
    orders = [c["order"] for c in res["cyclic_decomposition"]]
    if prod(orders) != h or any(a % b for a, b in zip(orders, orders[1:])):
        return f"orders {orders} are not invariant factors of h = {h}"
    one = principal_form(d)
    for c in res["cyclic_decomposition"]:
        g, k = Form.from_json(c["generator"]), c["order"]
        if power(g, k) != one or any(power(g, k // p) == one for p in prime_factors(k)):
            return f"generator {g} does not have exact order {k}"
    return None


def check_genus(d: int, res: dict) -> str | None:
    h = STRUCTURE_H[d]
    g, n = res["g"], res["n"]
    characters = len(genus_characters(principal_form(d)))
    if res["h"] != h or g * n != h or g != 2 ** (characters - 1):
        return f"h = {res['h']}, g = {g}, n = {n}; oracle h = {h}, {characters} characters"
    cosets = [frozenset(map(Form.from_json, c)) for c in res["cosets"]]
    covered = frozenset().union(*cosets)
    if len(cosets) != g or any(len(c) != n for c in cosets) or len(covered) != h:
        return "cosets do not partition the class group into g classes of n"
    return None


# -- session: library results --------------------------------------------------

orbit = lru_cache(maxsize=None)(galois_orbit_classes)


def _rerun(key: tuple[Form, int]):
    # the Kummer fibration is the pencil's base change t -> t^2 and keeps its
    # A and B (acceptance criterion 10), so one rerun serves both kinds
    q, precision_bits = key
    return k3.inose_pencil(q, 4 * precision_bits)


_references: dict[tuple[Form, int], object] = {}


def _pencil_reference(q: Form, precision_bits: int):
    key = (q, precision_bits)
    if key not in _references:
        _references[key] = _rerun(key)
    return _references[key]


def prefetch_pencil_references(keys) -> None:
    """Compute the 4x reruns of these (form, precision_bits) in two processes.

    The reruns are most of a session run's checking time; this runs after
    the timed loop, so the second core shortens the run, not the measurement.
    """
    todo = list(set(keys) - _references.keys())
    if len(todo) < 64:  # starting the pool would cost more than it saves
        return
    with ProcessPoolExecutor(max_workers=2) as pool:
        _references.update(zip(todo, pool.map(_rerun, todo, chunksize=32)))


def _same_value(x, y, precision_bits: int) -> bool:
    if isinstance(x, Fraction) or isinstance(y, Fraction):
        return isinstance(x, Fraction) and isinstance(y, Fraction) and x == y
    with mp.workprec(4 * precision_bits):
        return abs(x - y) <= mp.mpf(2) ** -(precision_bits // 2) * max(1, abs(y))


def pencil_mismatches(q: Form, result) -> list[tuple[str, object, object]]:
    """(name, value, rerun value) of each of A, B that differs from the 4x rerun."""
    ref = _pencil_reference(q, result.precision_bits)
    return [(name, getattr(result, name), getattr(ref, name)) for name in ("A", "B")
            if not _same_value(getattr(result, name), getattr(ref, name), result.precision_bits)]


def check_surface(q: Form, results: dict) -> str | None:
    """Check every answer of one surface query; the first failure, known defect last."""
    reasons = [check_session(kind, q, result) for kind, result in results.items()]
    failed = sorted((r for r in reasons if r), key=lambda r: r.startswith(PENCIL_DEFECT))
    return failed[0] if failed else None


def check_session(kind: str, q: Form, result) -> str | None:
    if kind == "analyze":
        qp = q.primitive_part().reduced()
        d = q.discriminant()
        if result.classes_per_genus != len(orbit(q)):
            return f"n = {result.classes_per_genus}, Galois orbit has {len(orbit(q))}"
        if result.class_number_upper != oracle_h(d):
            return f"h_upper = {result.class_number_upper}, oracle h = {oracle_h(d)}"
        if result.parity_forced != (compose(qp, qp) != principal_form(qp.discriminant())):
            return "parity_forced disagrees with squaring"
        return None
    if kind == "factors":
        pair, reduction = result
        d = q.discriminant()
        t1, t2 = pair.tau1, pair.tau2
        if pair.discriminant != d or t1.x != Fraction(-q.b, 2 * q.a) or t2.x != Fraction(q.b, 2):
            return "tau real parts"
        d_K = t1.field_discriminant
        if t1.y**2 * d_K * 4 * q.a**2 != d or t2.y**2 * t2.field_discriminant * 4 != d:
            return "tau imaginary parts"
        if (reduction is None) != (q.content() % 2 == 1):
            return "Kummer reduction present iff 2-divisible fails"
        if reduction is not None:
            half, halved = reduction
            if half.scaled(2) != q or halved.tau1 != t1 or halved.tau2 * 2 != t2:
                return "Kummer reduction"
        return None
    if kind == "genus":
        return None if result == orbit(q) else "genus differs from the Galois orbit"
    if kind == "shm":
        return None if result is True else "shioda_mitani_check rejects the sm_factors lattices"
    for name, mine, theirs in pencil_mismatches(q, result):
        kinds = f"{name} is {type(mine).__name__}, rerun {type(theirs).__name__}"
        if isinstance(mine, Fraction) and q in PENCIL_DEFECTS:
            return f"{PENCIL_DEFECT}: {kinds}"
        return f"pencil value differs from the 4x precision rerun: {kinds}"
    ref = _pencil_reference(q, result.precision_bits)
    if result.degenerate_rule_applied != ref.degenerate_rule_applied:
        return "degenerate rule differs from the rerun"
    return None
