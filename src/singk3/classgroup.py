"""Class groups Cl(d), genus theory, and one-class-per-genus scans.

Cl(d) is enumerated as the set of reduced primitive forms (a, b, c) of
discriminant d, a <= sqrt(|d|/3) and |b| <= a: the principal form for a = 1,
and for a >= 2 the roots b of b^2 = d (mod 4a).  One pass by increasing a
writes a = q * m, q the power of the smallest prime of a, and combines by CRT
the roots mod m, kept from the smaller a = m, with those mod q, solved when a
reaches q (Tonelli-Shanks and Hensel lifting, or a search where p = 2 or
p | d).  The pass is lazy, so a caller that stops early pays only for the a it
reached.  The elements are cached per d; h, the genera, the class polynomial
and the Galois orbits read them without decomposing the group.

The abelian group structure is found by greedy composition walks on plain
triples, with the unchecked core of forms.compose: h - 1 compositions when
Cl(d) is cyclic, a few per class otherwise.  The genus of a class is its vector
of assigned characters (Cox, Primes of the Form x^2 + ny^2, Sec. 3), read off
the coefficients without composing.  One class per genus is decided without
composing either: every reduced form must lie on the reduction boundary.  The
scan sieves out the |d| with such a form off it at small a before that test.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import compress, starmap
from math import gcd, isqrt, prod

from ._cache import cached
from ._factor import factorize, squarefree_decomposition
from .errors import ImprimitiveInput, InputTooLarge, NotReduced
from .forms import (
    Form,
    _compose_triples,
    check_discriminant,
    check_form,
    compose,
    form_sort_key,
    power,
    principal_form,
)

# Size limits, set so that the slowest accepted input takes well under 45 s:
# near |d| = 10^10, h reaches 236606 and `genus d --json` takes 9 s (260 MB);
# `scan --bound 4000000 --json` takes 0.5 s cold, most of it in the sieve.
_MAX_CLASS_GROUP_ABS_D = 10**10
_MAX_SCAN_BOUND = 4 * 10**6

# The largest a of the scan's sieve: at 64, 10 and 25 non-hits survive at bounds
# 10^6 and 4 * 10^6, and a larger limit sieves longer than they take to test.
_SIEVE_MAX_A = 64


def _sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo the odd prime p, p not dividing n; None if n is a non-residue."""
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # Tonelli-Shanks (Cohen, Alg. 1.5.1): p - 1 = 2^e * q with q odd
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    y, r = pow(z, q, p), e
    x, b = pow(n, (q + 1) // 2, p), pow(n, q, p)
    while b != 1:
        m, t = 0, b
        while t != 1:
            t = t * t % p
            m += 1
        t = pow(y, 1 << (r - m - 1), p)
        y = t * t % p
        r = m
        x = x * t % p
        b = b * y % p
    return x


def _k_roots(p: int, q: int, d: int) -> list[int]:
    """Roots k modulo q = p^e of k^2 + eps*k + (eps - d)/4, eps = d mod 2."""
    eps = d & 1
    if p != 2 and d % p:
        # k = (s - eps)/2 with s^2 = d: a root mod p, lifted by Newton's method
        s = _sqrt_mod_prime(d % p, p)
        if s is None:
            return []
        while (s * s - d) % q:
            s = (s - (s * s - d) * pow(2 * s, -1, q)) % q
        half = (q + 1) // 2
        return [(s - eps) * half % q, (-s - eps) * half % q]
    # p = 2 or p | d: lift the roots mod p^j to p^(j+1) by testing every lift
    m = (eps - d) // 4
    roots, pj = [0], 1
    while pj < q:
        nxt = pj * p
        roots = [x for r in roots for x in range(r, nxt, pj) if (x * x + eps * x + m) % nxt == 0]
        pj = nxt
    return roots


def _solved_b(d: int, amax: int) -> Iterator[tuple[int, list[int]]]:
    """(a, the sorted b in (-a, a] with b^2 = d (mod 4a)) for each such a in 2..amax.

    With b = 2k + eps, b^2 = d (mod 4a) is k^2 + eps*k + (eps - d)/4 = 0 (mod a),
    and b mod 2a runs over (-a, a] as k runs mod a.  One pass over a = q * m,
    q the full power of the smallest prime of a: if m > 1, the roots mod a are
    the CRT combinations (Cohen, Sec. 5.3) of the roots mod m and mod q, kept
    from the smaller a = m and a = q; if a = q, they are solved.  An a without
    roots is skipped, and nothing is solved above the a at which the caller
    stops.
    """
    eps = d & 1
    spf = list(range(amax + 1))  # smallest prime factors: p runs down, so the least writes last
    for p in range(isqrt(amax), 1, -1):
        spf[p * p :: p] = [p] * len(range(p * p, amax + 1, p))
    roots: list[list[int]] = [[], [0]]  # the k mod a; m and q are at most amax / 2
    for a in range(2, amax + 1):
        p = q = spf[a]
        m = a // p
        while m % p == 0:
            q *= p
            m //= p
        if m == 1:
            ks = _k_roots(p, q, d)
        elif roots[m] and roots[q]:
            inv = pow(m, -1, q)
            ks = [k + m * ((r - k) * inv % q) for k in roots[m] for r in roots[q]]
        else:
            ks = []
        if 2 * a <= amax:
            roots.append(ks)
        if ks:
            yield a, sorted(b - 2 * a if b > a else b for b in (2 * k + eps for k in ks))


def iter_reduced_primitive_forms(d: int) -> Iterator[tuple[int, int, int]]:
    """Yield (a, b, c) for every reduced primitive form of discriminant d, ordered by a, then by b.

    |d| above 10^10 raises InputTooLarge before anything is enumerated.
    """
    if check_discriminant(d) < -_MAX_CLASS_GROUP_ABS_D:
        raise InputTooLarge("class groups are limited to |d| <= 10^10")
    amax = isqrt(-d // 3)
    yield 1, d & 1, ((d & 1) - d) // 4  # the principal form
    for a, bs in _solved_b(d, amax):
        four_a = 4 * a
        for b in bs:
            c = (b * b - d) // four_a
            if c >= a and (a != c or b >= 0) and gcd(gcd(a, b), c) == 1:
                yield a, b, c


@cached
def reduced_primitive_forms(d: int) -> tuple[Form, ...]:
    """Cl(d) as its reduced primitive forms, sorted; |d| above 10^10 raises InputTooLarge."""
    return tuple(sorted(starmap(Form, iter_reduced_primitive_forms(d)), key=form_sort_key))


class ClassGroup(namedtuple("ClassGroup", "discriminant elements generators")):
    """Cl(d): reduced primitive forms of discriminant d with their group structure.

    discriminant is d, elements the tuple of reduced forms.  generators lists
    (form, order) pairs presenting the group as an internal direct product of
    cyclic subgroups; orders are non-increasing and each divides the previous
    one (invariant factors).
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Form:
        return principal_form(self.discriminant)

    def cyclic_orders(self) -> tuple[int, ...]:
        return tuple(k for _, k in self.generators)


def _decompose(elements: tuple[Form, ...], identity: Form) -> tuple[tuple[Form, int], ...]:
    # Greedy basis construction: repeatedly adjoin an element of maximal order
    # in the quotient G/S by the span S so far (the first such element in
    # `elements`), adjusted to have that exact order.  The maximality
    # guarantees the adjustment exponents divide out (the constructive proof
    # of the abelian basis theorem).
    #
    # Orders in G/S come from walks x, x^2, ... that stop at the first x^k in
    # S.  Each x^t on that walk (1 <= t < k) has order k/gcd(t, k) <= k in
    # G/S, and it is met in the scan after x was, when the best order is
    # already >= k; under the strict `>` it can never be picked, so no walk
    # starts from it.  The pick is therefore always a walk start, and x^k is
    # the end of its walk.  The first pick needs no adjustment, so its walk
    # is its span.
    #
    # order[y] is the order in G/S of the start of the walk that met y last,
    # for the S of that walk; the order of y in G/S divides it then, and
    # still as S grows.  The exponent of G/S divides |G/S| and the order of
    # the previous pick (the exponent of the previous quotient), so it
    # divides `most`.  A y whose bound gcd(order[y], most) is no better than
    # the best order so far is not walked, and an order equal to `most`
    # cannot be beaten, which ends the scan.  Neither changes the pick.
    #
    # The walks and spans compose plain triples with the unchecked core of
    # forms.compose: every element is a reduced primitive form of one
    # discriminant, and a triple hashes and compares like the Form it stands
    # for.  The adjustment composes Forms, once per generator.
    h = len(elements)
    gens: list[tuple[Form, int]] = []
    span: dict[tuple[int, int, int], tuple[int, ...]] = {identity: ()}
    order: dict[tuple[int, int, int], int] = {}
    most = h
    while len(span) < h:
        most = gcd(most, h // len(span))
        best, best_k, best_walk, best_end = None, 0, [], None
        for x in elements:
            if x in span or x in order and gcd(order[x], most) <= best_k:
                continue
            walk, p = [x], _compose_triples(x, x)
            while p not in span:
                walk.append(p)
                p = _compose_triples(p, x)
            k = len(walk) + 1
            order.update(dict.fromkeys(walk, k))
            if k > best_k:
                best, best_k, best_walk, best_end = x, k, walk, p
                if k == most:
                    break
        assert best is not None
        x, k = best, best_k
        if gens:
            exps = span[best_end]  # x^k in terms of current generators
            for (g, _), e in zip(gens, exps):
                assert e % k == 0, "maximal-order pick violated divisibility"
                x = compose(x, power(g, -(e // k)))
            new_span: dict[tuple[int, int, int], tuple[int, ...]] = {}
            for elem, vec in span.items():
                p = elem
                for t in range(k):
                    new_span[p] = vec + (t,)
                    if t + 1 < k:
                        p = _compose_triples(p, x)
            assert len(new_span) == len(span) * k
            span = new_span
        else:
            span = {p: (t,) for t, p in enumerate([identity, *best_walk])}
        gens.append((x, k))
        most = k
    assert prod(k for _, k in gens) == h
    for (_, k1), (_, k2) in zip(gens, gens[1:]):
        assert k1 % k2 == 0
    return tuple(gens)


@cached
def class_group(d: int) -> ClassGroup:
    """Enumerate Cl(d) and determine its decomposition into cyclic factors."""
    elements = reduced_primitive_forms(d)
    generators = _decompose(elements, principal_form(d))
    return ClassGroup(d, elements, generators)


def class_number(d: int) -> int:
    return len(reduced_primitive_forms(d))


class GenusPartition(namedtuple("GenusPartition", "cosets principal_genus")):
    """Partition of Cl(d) into genera: classes with the same assigned character vector.

    cosets is a tuple of frozensets of forms.  principal_genus is the genus of
    the all-+1 vector, the one holding the identity; by the principal genus
    theorem it is the subgroup of squares Cl^2(d) = {F*F : F in Cl(d)}, and the
    genera are its cosets.
    """

    __slots__ = ()

    @property
    def genus_count(self) -> int:
        return len(self.cosets)

    def coset_of(self, f: Form) -> frozenset[Form]:
        for coset in self.cosets:
            if f in coset:
                return coset
        raise KeyError(f"{f} not in this class group")


@cached
def genus_partition(d: int) -> GenusPartition:
    """Cl(d) grouped by assigned character vector, genera in the order of their first class.

    Read off the elements alone, without decomposing Cl(d), and cached per d.
    """
    elements = reduced_primitive_forms(d)
    odd_primes = sorted(p for p in factorize(-d) if p != 2)
    genera: dict[tuple[int, ...], list[Form]] = {}
    for f in elements:  # elements are sorted, so genera come out ordered
        genera.setdefault(_characters(f, d, odd_primes), []).append(f)
    principal = next(iter(genera))
    assert elements[0] == principal_form(d) and -1 not in principal, "principal genus first"
    assert len(genera) == 2 ** (len(principal) - 1), "Gauss: 2^(mu - 1) genera"
    cosets = tuple(map(frozenset, genera.values()))
    return GenusPartition(cosets, cosets[0])


def classes_per_genus(d: int) -> int:
    """n = h/g = #Cl^2(d)."""
    return len(genus_partition(d).principal_genus)


def _on_boundary(form: tuple[int, int, int]) -> bool:
    # a reduced form is 2-torsion iff one reduction inequality is an equality
    a, b, c = form
    return b == 0 or a == b or a == c


def is_two_torsion(f: Form) -> bool:
    """Reduced-form 2-torsion test: the class is its own inverse iff one of
    the reduction inequalities is an equality (b = 0, a = b, or a = c)."""
    if not check_form(f).is_reduced():
        raise NotReduced(f"{f} is not reduced")
    return _on_boundary((f.a, f.b, f.c))


def is_one_class_per_genus(d: int) -> bool:
    """True iff every class of Cl(d) is 2-torsion, i.e. n = h/g = 1.

    Decided form by form with the boundary test, stopping at the first
    form off the boundary; tests cross-check it against classes_per_genus.
    """
    return all(map(_on_boundary, iter_reduced_primitive_forms(d)))


def scan_one_class_per_genus(bound: int) -> list[int]:
    """All discriminants |d| <= bound with one class per genus, sorted by |d|.

    Completeness beyond the bound is not claimed (classically at most one
    further discriminant, of very large absolute value, could exist).  A
    bound above 4 * 10^6 raises InputTooLarge.
    """
    if bound < 4:
        raise ValueError("bound must be >= 4")
    if bound > _MAX_SCAN_BOUND:
        raise InputTooLarge(f"scan bounds are limited to {_MAX_SCAN_BOUND}")
    # n = 4ac - b^2 with 0 < b < a < c and gcd(a, b, c) = 1 has a reduced form off
    # the boundary, so a class of order above 2: sieve those n out, one strided
    # slice per residue of c mod g = gcd(a, b) prime to g.  Survivors are decided in full.
    survivors = (bytearray(b"\1\0\0\1") * (bound // 4 + 1))[: bound + 1]  # n = 0, 3 (mod 4)
    survivors[0] = 0
    zeros = memoryview(bytes(bound // 8 + 1))
    for a in range(2, _SIEVE_MAX_A + 1):
        for b in range(1, a):
            g = gcd(a, b)
            step = 4 * a * g
            for r in range(g):
                if gcd(r, g) == 1:
                    start = 4 * a * (a + 1 + (r - a - 1) % g) - b * b
                    survivors[start::step] = zeros[: len(range(start, bound + 1, step))]
    return [-n for n in compress(range(bound + 1), survivors) if is_one_class_per_genus(-n)]


class FundamentalData(namedtuple("FundamentalData", "field_discriminant conductor")):
    """d = f^2 * d_K with d_K (field_discriminant) the fundamental discriminant
    of Q(sqrt(d)) and f the conductor."""

    __slots__ = ()


@cached
def fundamental_data(d: int) -> FundamentalData:
    check_discriminant(d)
    core, s = squarefree_decomposition(-d)
    d0 = -core
    if d0 % 4 == 1:
        return FundamentalData(d0, s)
    assert s % 2 == 0, "non-fundamental 2-part must leave an even conductor"
    return FundamentalData(4 * d0, s // 2)


def distinct_fields(ds: Iterable[int]) -> frozenset[int]:
    """Set of fundamental discriminants of the fields Q(sqrt(d))."""
    return frozenset(fundamental_data(d).field_discriminant for d in ds)


def _characters(f: Form, d: int, odd_primes: Iterable[int]) -> tuple[int, ...]:
    # Each character is evaluated on a value f represents prime to its modulus:
    # a = f(1, 0), or else c = f(0, 1).  For p | d with p | a, c is prime to p,
    # since p | c would give p | b^2 = d + 4ac against primitivity.  When 4 | d,
    # b is even, so a and c are not both even.
    a, _, c = f
    chars = []
    for p in odd_primes:
        v = a if a % p else c
        chars.append(1 if pow(v, (p - 1) // 2, p) == 1 else -1)
    if d % 4 == 0:  # the characters mod 4 and 8 that n = -d/4 mod 8 prescribes
        v = a if a % 2 else c
        delta = 1 if v % 4 == 1 else -1
        eps = 1 if v % 8 in (1, 7) else -1
        n = -d // 4 % 8
        if n in (1, 4, 5):
            chars.append(delta)
        elif n == 2:
            chars.append(delta * eps)
        elif n == 6:
            chars.append(eps)
        elif n == 0:
            chars += (delta, eps)
    return tuple(chars)


def genus_characters(f: Form) -> tuple[int, ...]:
    """Assigned character vector of the class of f: the genus of f.

    Legendre symbols at the odd primes dividing d, plus the mod-4 / mod-8
    characters prescribed by -d/4 mod 8 when 4 | d (Cox, Sec. 3).  Classes
    lie in the same genus iff their vectors agree, and genus_partition groups
    Cl(d) by these vectors.  f need not be reduced.
    """
    if not check_form(f).is_primitive():
        raise ImprimitiveInput("genus characters require a primitive form")
    d = f.discriminant()
    return _characters(f, d, sorted(p for p in factorize(-d) if p != 2))
