"""Independent oracles used to freeze expected values.

Nothing here calls the reduction, composition, or genus code paths it is
meant to check: equivalence is decided by searching over unimodular words,
class numbers by the classical conductor formula, symbols by exponentiation.
Four exceptions build on production routes and so check only what sits on
top of them: reference_decomposition composes forms to check the
group-structure decomposition, reference_genus_partition composes forms to
check the genera that singk3 groups by assigned characters as the cosets of
the squares, reference_class_polynomial evaluates j
with singk3.modular.j_of_form to check the certified product and rounding,
and pencil_conjugates moves classes with singk3's composition and lattice
multiplication and evaluates j_of_form to check which pencil coefficients
singk3.k3 emits as exact rationals.  printed_digit_faults reruns the numeric
verbs at twice the digits, so it checks the digits they print, not the values.
The fraction_* lattice functions and minimal_form are the route
singk3.lattices ran on Fractions; they share its records, Form.reduced and its
Hermite normal form, and check the integer coordinates, norms and traces that
replaced them.
"""

from __future__ import annotations

import heapq
import io
import json
import random
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, isqrt, lcm

from singk3.forms import Form


def apply_word(f: Form, word) -> Form:
    """Apply a sequence of 'S', 'T', 'U' (= T^-1) moves to a form."""
    for move in word:
        if move == "S":
            f = f.transformed(0, -1, 1, 0)
        elif move == "T":
            f = f.transformed(1, 1, 0, 1)
        elif move == "U":
            f = f.transformed(1, -1, 0, 1)
        else:
            raise ValueError(move)
    return f


def sl2_reduced_equivalent(f: Form, max_nodes: int = 200000) -> Form:
    """Reduced form equivalent to f, found by best-first search over S/T moves.

    Independent of Form.reduced(): only the (declarative) reducedness
    predicate is shared.
    """
    seen = set()
    heap = [(f.a + abs(f.b) + f.c, 0, (f.a, f.b, f.c))]
    counter = 0
    while heap and len(seen) < max_nodes:
        _, _, triple = heapq.heappop(heap)
        if triple in seen:
            continue
        seen.add(triple)
        g = Form(*triple)
        if g.is_reduced():
            return g
        for move in ("S", "T", "U"):
            nxt = apply_word(g, move)
            t = (nxt.a, nxt.b, nxt.c)
            if t not in seen:
                counter += 1
                heapq.heappush(heap, (nxt.a + abs(nxt.b) + nxt.c, counter, t))
    raise RuntimeError(f"no reduced equivalent found for {f}")


def random_unimodular_word(rng: random.Random, max_len: int = 8):
    return [rng.choice("STU") for _ in range(rng.randint(0, max_len))]


def random_form(rng: random.Random, max_a: int = 50, max_disc: int = 10**6) -> Form:
    while True:
        a = rng.randint(1, max_a)
        b = rng.randint(-max_a, max_a)
        cmin = (b * b + 4 * a - 1) // (4 * a) + 1  # smallest c with negative disc
        c = rng.randint(cmin, cmin + max_a)
        f = Form(a, b, c)
        if -f.discriminant() <= max_disc:
            return f


def random_primitive_form(rng: random.Random, max_a: int = 40) -> Form:
    while True:
        f = random_form(rng, max_a)
        if f.is_primitive():
            return f


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 1 (binary algorithm, no factoring)."""
    if n <= 0:
        raise ValueError("lower argument must be positive here")
    result = 1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def class_number_fundamental(d: int) -> int:
    """h(d) for fundamental d via the Dirichlet character sum."""
    if d in (-3, -4):
        return 1
    total = sum(kronecker(d, a) * a for a in range(1, -d))
    assert total % d == 0
    return total // d  # total = d * h < 0 twice negated


def class_number_by_conductor_formula(d_K: int, f: int, h_K: int) -> int:
    """h(f^2 d_K) from h(d_K) by the classical conductor formula."""
    from singk3._factor import factorize

    h = h_K * f
    for p in factorize(f):
        h = h * (p - kronecker(d_K, p)) // p
    if f > 1:
        if d_K == -3:
            assert h % 3 == 0
            h //= 3
        elif d_K == -4:
            assert h % 2 == 0
            h //= 2
    return h


def class_number_oracle(d: int) -> int:
    """Independent h(d) for any discriminant: character sum + conductor formula."""
    from singk3._factor import squarefree_decomposition

    core, s = squarefree_decomposition(-d)
    d_K, f = (-core, s) if (-core) % 4 == 1 else (-4 * core, s // 2)
    return class_number_by_conductor_formula(d_K, f, class_number_fundamental(d_K))


# Class numbers of small fundamental discriminants, from the standard tables.
KNOWN_CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2, -23: 3,
    -24: 2, -31: 3, -35: 2, -39: 4, -40: 2, -43: 1, -47: 5, -51: 2, -52: 2,
    -55: 4, -56: 4, -59: 3, -67: 1, -71: 7, -84: 4, -88: 2, -95: 8,
    -103: 5, -120: 4, -163: 1, -187: 2, -231: 12, -311: 19, -479: 25,
    -5460: 16, -7392: 16,
}


def reference_decomposition(elements, identity):
    """Greedy invariant-factor basis of a class group, recomputed naively.

    Unlike the oracles above, this one does compose (with singk3.forms), so
    it checks only the decomposition: each round walks every element outside
    the span until it reaches the span, picks the first element of maximal
    quotient order, and adjusts it to have exactly that order.  Quadratic in
    the class number.
    """
    from singk3.forms import compose, power

    h = len(elements)
    gens = []
    span = {identity: ()}
    while len(span) < h:
        best, best_k = None, 0
        for x in elements:
            if x in span:
                continue
            k, p = 1, x
            while p not in span:
                p = compose(p, x)
                k += 1
            if k > best_k:
                best, best_k = x, k
        x, k = best, best_k
        exps = span[power(x, k)]
        for (g, _), e in zip(gens, exps):
            assert e % k == 0
            x = compose(x, power(g, -(e // k)))
        new_span = {}
        for elem, vec in span.items():
            p = elem
            for t in range(k):
                new_span[p] = vec + (t,)
                p = compose(p, x)
        span = new_span
        gens.append((x, k))
    return tuple(gens)


def reference_genus_partition(group):
    """The genera of a class group as the cosets of its subgroup of squares.

    Composes (with singk3.forms) 2h times, so it checks the assigned-character
    route of singk3.classgroup.genus_partition against the definition of a
    genus as a coset of Cl^2(d), cosets in the order of their first element.
    """
    from singk3.classgroup import GenusPartition
    from singk3.forms import compose

    squares = frozenset(compose(f, f) for f in group.elements)
    cosets = []
    assigned = set()
    for f in group.elements:  # elements are sorted, so cosets come out ordered
        if f in assigned:
            continue
        coset = frozenset(compose(f, s) for s in squares)
        assigned |= coset
        cosets.append(coset)
    g = len(cosets)
    assert g & (g - 1) == 0, "number of genera must be a power of 2"
    return GenusPartition(tuple(cosets), squares)


def reference_class_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of H_d, constant term first, by the earlier two-pass route.

    Expands prod (x - j_F) over every class in complex arithmetic and accepts
    the rounding once all coefficients lie within 0.01 of integers and agree
    at two successive doubled precisions, a heuristic rather than a proof.
    Several times slower than singk3.modular.class_polynomial.
    """
    from mpmath import mp

    from singk3.classgroup import class_group
    from singk3.modular import j_of_form

    forms = class_group(d).elements
    inv_a = sum(Fraction(1, f.a) for f in forms)
    wp = ceil(3.1415926536 * (-d) ** 0.5 * float(inv_a) / 0.6931471806) + 64

    def rounded(wp):
        with mp.workprec(wp):
            coeffs = [mp.mpc(1)]
            for f in forms:
                r = j_of_form(f, wp)
                nxt = [mp.mpc(0)] * (len(coeffs) + 1)
                for i, ci in enumerate(coeffs):
                    nxt[i] -= ci * r
                    nxt[i + 1] += ci
                coeffs = nxt
            out = []
            for c in coeffs:
                n = mp.nint(mp.re(c))
                if abs(mp.im(c)) > mp.mpf("0.01") or abs(mp.re(c) - n) > mp.mpf("0.01"):
                    return None
                out.append(int(n))
        return tuple(out)

    prev = None
    for _ in range(5):
        cur = rounded(wp)
        if cur is not None and cur == prev:
            return cur
        prev = cur
        wp *= 2
    raise RuntimeError(f"reference class polynomial for d={d} did not stabilize")


def reference_forms(d: int):
    """Every reduced form (a, b, c) of discriminant d, primitive or not, by a, then by b.

    Tests every b of the parity of d with |b| <= a <= sqrt(|d|/3), about |d|/6
    divisibility tests, where singk3.classgroup solves b^2 = d (mod 4a).
    """
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1 + (a + 1 + d) % 2, a + 1, 2):
            c, rem = divmod(b * b - d, 4 * a)
            if rem == 0 and c >= a and (a != c or b >= 0):
                yield Form(a, b, c)


def reduced_forms(max_abs_d: int):
    """Every reduced form (a, b, c), primitive or not, with 3 <= |d| <= max_abs_d."""
    for n in range(3, max_abs_d + 1):
        if n % 4 in (0, 3):
            yield from reference_forms(-n)


PENCIL_ORACLE_BITS = 300


@lru_cache(maxsize=None)
def _normalized_j(f: Form):
    from mpmath import mp

    from singk3.modular import j_of_form

    with mp.workprec(PENCIL_ORACLE_BITS):
        return j_of_form(f, PENCIL_ORACLE_BITS) / 1728


def pencil_conjugates(q: Form) -> tuple[list, list]:
    """The K-conjugates of the pencil coefficients A and B of q, K = Q(sqrt(d)).

    A = j_n(tau1) j_n(tau2) and B = (1 - j_n(tau1)) (1 - j_n(tau2)), where
    tau1 is the CM point of the primitive part q' (discriminant d') and tau2
    that of the principal form of d.  The automorphism of the ring class
    field of d attached to c in Cl(d) sends j(tau2) to j(c) and j(tau1) to
    j(q' pi(c)), with pi: Cl(d) -> Cl(d') the extension of ideals to the
    larger order, read off lattice multiplication by the order of d'.  The
    first entry of each list (c principal) is A, respectively B, itself.
    Values are computed at PENCIL_ORACLE_BITS bits.
    """
    from mpmath import mp

    from singk3.classgroup import class_group
    from singk3.forms import compose, principal_form
    from singk3.lattices import lattice_from_form, multiply

    qp = q.primitive_part().reduced()
    d = q.discriminant()
    order = lattice_from_form(principal_form(qp.discriminant()))
    classes = sorted(class_group(d).elements, key=lambda c: c != principal_form(d))
    a_values, b_values = [], []
    with mp.workprec(PENCIL_ORACLE_BITS):
        for c in classes:
            image = multiply(lattice_from_form(c), order).canonical_form
            j1, j2 = _normalized_j(compose(qp, image)), _normalized_j(c)
            a_values.append(j1 * j2)
            b_values.append((1 - j1) * (1 - j2))
    return a_values, b_values


def pencil_values_agree(x, y) -> bool:
    """Equality of two values at the oracle's precision: within 2^-150 relative."""
    from mpmath import mp

    with mp.workprec(PENCIL_ORACLE_BITS):
        x, y = mp.mpmathify(x), mp.mpmathify(y)
        return abs(x - y) <= mp.mpf(2) ** -150 * max(1, abs(x), abs(y))


def rational_by_conjugates(conjugates) -> bool:
    """Whether the number with these K-conjugates is rational: its conjugates
    over Q, the K-conjugates and their complex conjugates, all agree."""
    from mpmath import mp

    first = conjugates[0]
    return pencil_values_agree(first, mp.conj(first)) and all(
        pencil_values_agree(v, first) for v in conjugates
    )


# Lattices on Fractions: the route singk3.lattices ran before it moved to
# integer coordinates.  tau = w2/w1 is a QuadElement quotient and its minimal
# polynomial is read off Fractions; only the records, QuadElement arithmetic,
# Form.reduced, tau_from_form, sm_factors and the two-column HNF are shared.


def minimal_form(tau) -> Form:
    """The primitive integral (A, B, C), A > 0, with A*tau^2 + B*tau + C = 0.

    tau is a QuadElement with y != 0; its trace and norm are read on Fractions.
    """
    two_x = -2 * tau.x
    nrm = tau.norm()
    den = lcm(two_x.denominator, nrm.denominator)
    b = two_x.numerator * (den // two_x.denominator)
    c = nrm.numerator * (den // nrm.denominator)
    g = gcd(den, b, c)
    return Form(den // g, b // g, c // g)


def fraction_from_basis(w1, w2):
    """QuadLattice.from_basis through tau = w2 / w1 on Fractions."""
    from singk3.lattices import QuadLattice

    w1._same_field(w2)
    d_K = w1.field_discriminant
    if w1.x * w2.y - w1.y * w2.x == 0:
        raise ValueError("basis is linearly dependent over R")
    tau = w2 / w1
    if tau.y < 0:
        tau = -tau
    form = minimal_form(tau)
    f2, rem = divmod(form.discriminant(), d_K)
    f = isqrt(f2)
    assert rem == 0 and f * f == f2
    return QuadLattice(d_K, (w1, w2), form.reduced(), f)


def fraction_from_tau(tau):
    from singk3.lattices import QuadElement

    return fraction_from_basis(QuadElement(tau.field_discriminant, 1, 0), tau)


def fraction_lattice_from_form(f: Form):
    from singk3.lattices import tau_from_form

    lat = fraction_from_tau(tau_from_form(f))
    assert lat.canonical_form == f.primitive_part().reduced()
    return lat


def fraction_multiply(l1, l2):
    """multiply with each basis scaled to integers by Fraction products."""
    from singk3.lattices import QuadElement, _hnf_two_columns

    assert l1.field_discriminant == l2.field_discriminant
    D = l1.field_discriminant
    coordinates = []
    for lat in (l1, l2):
        den = lcm(*(lcm(w.x.denominator, w.y.denominator) for w in lat.basis))
        coordinates.append([(int(w.x * den), int(w.y * den)) for w in lat.basis])
    b1, b2 = coordinates
    rows = [(x1 * x2 + y1 * y2 * D, x1 * y2 + y1 * x2) for x1, y1 in b1 for x2, y2 in b2]
    (p, q), r = _hnf_two_columns(rows)
    return fraction_from_basis(QuadElement(D, p, q), QuadElement(D, 0, r))


def fraction_shioda_mitani_check(l1, l2, q: Form) -> bool:
    """shioda_mitani_check with the product and Z + tau1*Z built on Fractions."""
    from singk3.classgroup import fundamental_data

    fd = fundamental_data(q.discriminant())
    assert l1.field_discriminant == l2.field_discriminant == fd.field_discriminant
    f_prime = fundamental_data(q.primitive_part().discriminant()).conductor
    if l1.conductor * l2.conductor != fd.conductor * f_prime:
        return False
    product, target = fraction_multiply(l1, l2), fraction_lattice_from_form(q)
    return (product.canonical_form, product.conductor) == (target.canonical_form, target.conductor)


# The verbs whose --json output prints numeric values, and the digit counts
# that the printed-digit oracle checks them at.
NUMERIC_VERBS = (("bounds",), ("equation",), ("equation", "--kummer"))
PRINTED_DIGITS = (20, 128, 300)


def _printed_result(verb, form: Form, digits: int) -> dict:
    from singk3 import cli

    out = io.StringIO()
    argv = [*verb, "--form", str(form), "--precision", str(digits), "--json"]
    assert cli.run(argv, out=out) == 0, argv
    return json.loads(out.getvalue())["result"]


def _digit_faults(printed, reference, path: str):
    # the paths of the components of `printed` that `reference` refutes
    if isinstance(printed, dict) and printed.get("type") == "complex":
        for part in ("re", "im"):
            text = printed[part]
            unit = Fraction(10) ** Decimal(text).as_tuple().exponent
            if abs(Fraction(Decimal(text)) - Fraction(Decimal(reference[part]))) > unit:
                yield f"{path}.{part} = {text}, rerun {reference[part]}"
    elif isinstance(printed, dict):
        assert printed.keys() == reference.keys(), path
        for key, value in printed.items():
            yield from _digit_faults(value, reference[key], f"{path}.{key}")
    elif printed != reference:  # a rational, an integer or a string: exact
        yield f"{path} = {printed!r}, rerun {reference!r}"


def printed_digit_faults(form: Form, digits: int) -> list[str]:
    """Every number that bounds, equation and equation --kummer print for the
    form with --json at `digits` digits, checked against a rerun at twice the
    digits.  A complex component must lie within one unit in its last printed
    digit of the rerun's value (so one that prints fewer digits is held to
    fewer); everything else must print the same.  Returns the faults found.
    """
    faults = []
    for verb in NUMERIC_VERBS:
        printed = _printed_result(verb, form, digits)
        reference = _printed_result(verb, form, 2 * digits)
        path = f"{' '.join(verb)} {form} at {digits} digits"
        faults += _digit_faults(printed, reference, path)
    return faults
