import io
import json
import random
from math import gcd, prod

import pytest

from singk3 import _cache, classgroup, cli, forms
from singk3.classgroup import (
    class_group,
    class_number,
    classes_per_genus,
    distinct_fields,
    fundamental_data,
    genus_characters,
    genus_partition,
    is_one_class_per_genus,
    is_two_torsion,
    iter_reduced_primitive_forms,
    scan_one_class_per_genus,
)
from singk3._factor import factorize
from singk3.errors import ImprimitiveInput, InputTooLarge, InvalidDiscriminant, NotReduced
from singk3.forms import Form, compose, power, principal_form

from oracles import (
    KNOWN_CLASS_NUMBERS,
    apply_word,
    class_number_oracle,
    random_unimodular_word,
    reference_decomposition,
    reference_forms,
    reference_genus_partition,
)

VALID = [-n for n in range(3, 2001) if n % 4 in (0, 3)]


def test_enumerate_examples():
    assert set(class_group(-23).elements) == {Form(1, 1, 6), Form(2, 1, 3), Form(2, -1, 3)}
    assert class_group(-4).elements == (Form(1, 0, 1),)
    assert class_number(-92) == 3
    # frozen from hand enumeration of the (a, b) loop
    assert set(class_group(-64).elements) == {Form(1, 0, 16), Form(4, 4, 5)}
    assert set(class_group(-56).elements) == {
        Form(1, 0, 14), Form(2, 0, 7), Form(3, 2, 5), Form(3, -2, 5),
    }


# the structure workload's 40 discriminants, |d| in 10^6 - 10^7, h 170 - 680
POOLED_STRUCTURE = (
    -8900112, -8593188, -8323968, -7826571, -7507427, -6784603, -6262675, -5675499,
    -5189803, -5084003, -5006931, -4674448, -4043912, -3872083, -3237604, -2893388,
    -2890760, -2695688, -2474752, -2398915, -2114184, -2050427, -2032995, -1854559,
    -1801731, -1757243, -1685064, -1526647, -1485528, -1465783, -1449387, -1440067,
    -1277220, -1215827, -1210328, -1139072, -1104487, -1086236, -1056472, -1049892,
)
# high powers of 2, 3, 5 and 7 dividing d, where the roots mod p^e are lifted by search
PRIME_POWER_HEAVY = (-(2**21), -4 * 3**11, -(3**13), -4 * 7**6, -4 * 5**8 * 3)


def assert_enumeration_matches_reference(d):
    # the same forms in the same order: by a, then by b
    expected = [(f.a, f.b, f.c) for f in reference_forms(d) if f.is_primitive()]
    assert list(iter_reduced_primitive_forms(d)) == expected, d


def test_enumeration_matches_the_reference_loop():
    for n in range(3, 5001):
        if n % 4 in (0, 3):
            assert_enumeration_matches_reference(-n)
    for d in POOLED_STRUCTURE + PRIME_POWER_HEAVY + (-10000003,):
        assert_enumeration_matches_reference(d)


def test_enumeration_solves_no_prime_power_past_the_forms_read(monkeypatch):
    # the one-class-per-genus scan stops at the first form off the boundary,
    # so the solver may find roots only for prime powers up to the a it reached
    solved = []
    plain = classgroup._k_roots

    def counting(p, q, d):
        solved.append(q)
        return plain(p, q, d)

    monkeypatch.setattr(classgroup, "_k_roots", counting)
    for d in POOLED_STRUCTURE[:4] + (-100000007, -(2**21)):
        for stop in (2, 3, 8, 32, 33, 100, 500):
            solved.clear()
            for a, _, _ in iter_reduced_primitive_forms(d):
                if a >= stop:
                    break
            assert solved and max(solved) <= a, (d, stop, max(solved), a)


def test_square_roots_modulo_primes():
    # p = 3 mod 4, p = 5 mod 8, and p = 1 mod 8 with 2^e exactly dividing p - 1 for e <= 8
    for p in (3, 7, 5, 13, 17, 41, 97, 193, 1153, 257, 769):
        squares = {x * x % p for x in range(1, p)}
        for n in range(1, p):
            s = classgroup._sqrt_mod_prime(n, p)
            assert (s is not None) == (n in squares), (n, p)
            assert s is None or s * s % p == n, (n, p)


@pytest.mark.slow
def test_enumeration_matches_the_reference_loop_at_h_7253():
    assert_enumeration_matches_reference(-100000007)


def test_class_numbers_against_independent_oracle():
    for d, h in KNOWN_CLASS_NUMBERS.items():
        assert class_number(d) == h
    for d in VALID[:600]:
        assert class_number(d) == class_number_oracle(d)


def test_elements_are_reduced_primitive_distinct():
    for d in (-23, -56, -4000, -1999, -3299):
        els = class_group(d).elements
        assert len(set(els)) == len(els)
        for f in els:
            assert f.is_reduced() and f.is_primitive() and f.discriminant() == d


def test_group_structure_consistency():
    rng = random.Random(11)
    sample = rng.sample(VALID, 60) + [-3299, -3896, -5460]
    for d in sample:
        group = class_group(d)
        orders = group.cyclic_orders()
        assert prod(orders) == group.order
        for k1, k2 in zip(orders, orders[1:]):
            assert k1 % k2 == 0
        for g, k in group.generators:
            assert power(g, k) == group.identity
            for t in range(1, k):
                if power(g, t) == group.identity:
                    pytest.fail(f"generator order overstated for d={d}")
        # solution counts of x^k = e determined by the invariant factors
        for k in (2, 3, 4, 6):
            direct = sum(1 for f in group.elements if power(f, k) == group.identity)
            predicted = prod(gcd(k, o) for o in orders)
            assert direct == predicted


def assert_reference_generators(d):
    group = class_group(d)
    assert group.generators == reference_decomposition(group.elements, group.identity), d


def test_generators_match_reference_decomposition():
    for n in range(3, 5001):
        if n % 4 in (0, 3):
            assert_reference_generators(-n)


def test_generators_match_reference_on_large_non_cyclic_groups():
    # h = 352 (44x2x2x2), 288 (24x6x2), 640 (40x4x2x2)
    for d in (-1277220, -2474752, -8323968):
        assert_reference_generators(d)


def count_compositions(monkeypatch) -> list[int]:
    # every composition runs the unchecked core: the decomposition's walks
    # call it directly, compose and power through forms
    calls = [0]
    plain = forms._compose_triples

    def counting(f1, f2):
        calls[0] += 1
        return plain(f1, f2)

    monkeypatch.setattr(classgroup, "_compose_triples", counting)
    monkeypatch.setattr(forms, "_compose_triples", counting)
    return calls


def test_decomposition_composes_a_few_times_per_class(monkeypatch):
    calls = count_compositions(monkeypatch)
    # cyclic, h = 706: one walk of h - 1 steps is the whole span
    calls[0] = 0
    assert class_group.__wrapped__(-10000003).order == 706  # bypass the cache
    assert 0 < calls[0] <= 706, calls[0]
    # 40x4x2x2, h = 640, where no pick has order |G/S|
    calls[0] = 0
    assert class_group.__wrapped__(-8323968).order == 640
    assert 0 < calls[0] < 8 * 640, calls[0]


def test_elements_only_callers_do_not_decompose(monkeypatch):
    def refuse(elements, identity):
        raise AssertionError("Cl(d) was decomposed")

    monkeypatch.setattr(classgroup, "_decompose", refuse)
    # h and n; -1049892 has Cl = Z/134 x Z/2, so n = #Cl^2 = 67
    for d, h, n in ((-56, 4, 2), (-1049892, 268, 67)):
        _cache.clear()
        out = io.StringIO()
        assert cli.run(["genus", str(d), "--json"], out=out) == 0
        assert json.loads(out.getvalue())["result"]["n"] == n
        _cache.clear()
        assert (classes_per_genus(d), class_number(d)) == (n, h)
        _cache.clear()
        part = genus_partition(d)
        assert (len(part.principal_genus), part.genus_count) == (n, h // n)


@pytest.mark.slow
def test_decomposition_of_a_class_group_of_order_7253(monkeypatch):
    calls = count_compositions(monkeypatch)
    group = class_group.__wrapped__(-100000007)
    h = group.order
    assert calls[0] < 8 * h
    orders = group.cyclic_orders()
    assert prod(orders) == h
    for k1, k2 in zip(orders, orders[1:]):
        assert k1 % k2 == 0
    for g, k in group.generators:
        assert power(g, k) == group.identity
        for p in {k // q for q in factorize(k)}:
            assert power(g, p) != group.identity


def test_squares_subgroup_examples():
    def squares(d):
        return genus_partition(d).principal_genus

    assert squares(-23) == frozenset(class_group(-23).elements)
    assert squares(-4) == frozenset({Form(1, 0, 1)})
    assert squares(-56) == frozenset({Form(1, 0, 14), Form(2, 0, 7)})


def test_genus_partition_examples():
    p23 = genus_partition(-23)
    assert p23.genus_count == 1 and len(p23.cosets[0]) == 3
    p4 = genus_partition(-4)
    assert p4.genus_count == 1 and len(p4.cosets[0]) == 1
    p56 = genus_partition(-56)
    assert p56.genus_count == 2
    assert all(len(c) == 2 for c in p56.cosets)
    assert p56.principal_genus == frozenset({Form(1, 0, 14), Form(2, 0, 7)})


def assert_reference_genus_partition(d):
    # the same cosets in the same order, and the same principal genus
    assert genus_partition(d) == reference_genus_partition(class_group(d)), d


def test_genus_partition_matches_the_cosets_of_squares():
    for n in range(3, 5001):
        if n % 4 in (0, 3):
            assert_reference_genus_partition(-n)
    # -446185740 = -4 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23: h = 8064, 128 genera
    for d in POOLED_STRUCTURE + (-446185740,):
        assert_reference_genus_partition(d)


@pytest.mark.slow
def test_genus_partition_matches_the_cosets_of_squares_at_h_26629():
    assert_reference_genus_partition(-1000000007)


def test_records_are_immutable_value_tuples():
    group = class_group(-56)
    fresh = class_group.__wrapped__(-56)  # bypass the cache
    assert group._fields == ("discriminant", "elements", "generators")
    assert group == fresh and group is not fresh and hash(group) == hash(fresh)
    assert (group.order, group.identity, group.cyclic_orders()) == (4, Form(1, 0, 14), (4,))
    part = genus_partition(-56)
    assert part._fields == ("cosets", "principal_genus")
    assert part == reference_genus_partition(fresh) and part.genus_count == 2
    assert part.coset_of(Form(3, -2, 5)) == frozenset({Form(3, 2, 5), Form(3, -2, 5)})
    with pytest.raises(KeyError):
        part.coset_of(Form(1, 1, 6))
    fd = fundamental_data(-300)
    assert fd == (-3, 10) and (fd.field_discriminant, fd.conductor) == (-3, 10)
    assert repr(fd) == "FundamentalData(field_discriminant=-3, conductor=10)"
    for record, name in ((group, "discriminant"), (part, "cosets"), (fd, "conductor")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_genus_partition_composes_nothing(monkeypatch):
    calls = count_compositions(monkeypatch)
    for d in (-56, -5460, -8323968, -446185740):
        calls[0] = 0
        genus_partition.__wrapped__(d)  # bypass the cache
        assert calls[0] == 0, (d, calls[0])


def test_genus_partition_structure():
    for d in VALID[:300]:
        group = class_group(d)
        part = genus_partition(d)
        n = classes_per_genus(d)
        assert sorted(map(len, part.cosets)) == [n] * part.genus_count
        assert n * part.genus_count == group.order
        union = set()
        for c in part.cosets:
            union |= c
        assert union == set(group.elements)


def test_classes_per_genus_examples():
    assert classes_per_genus(-23) == 3
    assert classes_per_genus(-4) == 1
    assert classes_per_genus(-56) == 2


def test_is_two_torsion():
    assert not is_two_torsion(Form(2, 1, 3))
    assert is_two_torsion(Form(1, 0, 1))
    assert is_two_torsion(Form(4, 4, 5))
    with pytest.raises(NotReduced):
        is_two_torsion(Form(6, 5, 2))


def test_two_torsion_boundary_matches_composition_small():
    for d in VALID[:200]:
        e = principal_form(d)
        for f in class_group(d).elements:
            assert is_two_torsion(f) == (compose(f, f) == e)


def test_is_one_class_per_genus_examples():
    assert not is_one_class_per_genus(-23)
    assert is_one_class_per_genus(-4)
    assert not is_one_class_per_genus(-56)


def test_every_enumeration_refuses_oversized_d():
    # the size limit sits in the enumeration that every class-group route
    # reads, so it holds before the sieve of _solved_b is built
    assert not is_one_class_per_genus(-(10**10))
    routes = (
        is_one_class_per_genus,
        lambda d: next(iter_reduced_primitive_forms(d)),
        classgroup.reduced_primitive_forms,
        genus_partition,
    )
    for route in routes:
        with pytest.raises(InputTooLarge, match=r"\|d\| <= 10\^10"):
            route(-(10**10 + 4))


def test_scan_examples():
    assert scan_one_class_per_genus(20) == [-3, -4, -7, -8, -11, -12, -15, -16, -19, -20]
    assert scan_one_class_per_genus(4) == [-3, -4]
    with pytest.raises(ValueError):
        scan_one_class_per_genus(3)


def test_scan_sieve_leaves_only_the_hits(monkeypatch):
    # the sieve marks only n with a form off the boundary, so the scan equals
    # the plain filter; at 10^5 it leaves nothing else to test in full
    plain = [-n for n in range(3, 10**5 + 1) if n % 4 in (0, 3) and is_one_class_per_genus(-n)]
    tested = []

    def counting(d):
        tested.append(d)
        return is_one_class_per_genus(d)

    monkeypatch.setattr(classgroup, "is_one_class_per_genus", counting)
    assert scan_one_class_per_genus(10**5) == plain
    assert tested == plain


def test_scan_prefix_property():
    s1 = scan_one_class_per_genus(600)
    s2 = scan_one_class_per_genus(1500)
    assert s2[: len(s1)] == s1
    assert all(abs(a) < abs(b) for a, b in zip(s1, s1[1:]))


def test_scan_agrees_with_squares_route():
    hits = set(scan_one_class_per_genus(2000))
    for d in VALID:
        assert (d in hits) == (classes_per_genus(d) == 1)


def test_fundamental_data_examples():
    assert fundamental_data(-64) == fundamental_data(-64).__class__(-4, 4)
    fd = fundamental_data(-64)
    assert (fd.field_discriminant, fd.conductor) == (-4, 4)
    fd = fundamental_data(-23)
    assert (fd.field_discriminant, fd.conductor) == (-23, 1)
    fd = fundamental_data(-92)
    assert (fd.field_discriminant, fd.conductor) == (-23, 2)


def test_fundamental_data_reconstructs():
    for d in VALID:
        fd = fundamental_data(d)
        assert fd.conductor >= 1
        assert fd.conductor**2 * fd.field_discriminant == d
        k = fd.field_discriminant
        assert k % 4 in (0, 1)
        if k % 4 == 0:
            q = k // 4
            assert q % 4 in (2, 3)  # 4*squarefree with squarefree = 2, 3 mod 4
    with pytest.raises(InvalidDiscriminant):
        fundamental_data(-5)


def test_distinct_fields():
    assert distinct_fields([-4, -16, -64]) == frozenset({-4})
    assert distinct_fields([-23, -92]) == frozenset({-23})


def test_genus_characters_examples():
    assert genus_characters(Form(1, 1, 6)) == (1,)
    for d in (-23, -56, -84, -120):
        assert all(v == 1 for v in genus_characters(principal_form(d)))
    vecs = {genus_characters(f) for f in class_group(-56).elements}
    assert len(vecs) == 2
    with pytest.raises(ImprimitiveInput):
        genus_characters(Form(2, 0, 2))


def test_characters_define_the_genus_partition():
    # same coset of squares <-> same character vector, and g = 2^(mu - 1); a
    # non-reduced representative has another a and c to evaluate on
    rng = random.Random(7)
    for d in VALID + [-446185740]:
        group = class_group(d)
        part = reference_genus_partition(group)
        by_vec: dict[tuple[int, ...], set] = {}
        for f in group.elements:
            chars = genus_characters(f)
            g = apply_word(f, random_unimodular_word(rng))
            assert genus_characters(g) == chars, (f, g)
            by_vec.setdefault(chars, set()).add(f)
        assert set(map(frozenset, by_vec.values())) == set(part.cosets)
        mu = len(genus_characters(group.identity))
        assert part.genus_count == 2 ** (mu - 1)


def test_class_number_conductor_formula_consistency():
    for d in VALID:
        fd = fundamental_data(d)
        if fd.conductor == 1:
            continue
        assert class_number(d) == class_number_oracle(d)


def test_discriminant_caches_are_bounded():
    # a long-lived process asking about ever new discriminants must not grow
    # these caches without bound
    for n in range(3, 2301):
        if n % 4 in (0, 3):
            class_group(-n)
            genus_partition(-n)
            fundamental_data(-n)
    for cached in (
        class_group,
        classgroup.reduced_primitive_forms,
        genus_partition,
        fundamental_data,
    ):
        assert cached.cache_info().currsize <= 1024
