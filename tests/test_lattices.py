import pickle
import random
from fractions import Fraction

import pytest

from singk3.classgroup import class_group, genus_partition
from singk3.errors import FieldMismatch
from singk3.forms import Form, compose, principal_form
from singk3.lattices import (
    QuadElement,
    QuadLattice,
    TauPair,
    galois_orbit_classes,
    homothety_equal,
    lattice_from_form,
    multiply,
    shioda_mitani_check,
    sm_factors,
    tau_from_form,
)

from oracles import (
    fraction_from_basis,
    fraction_from_tau,
    fraction_lattice_from_form,
    fraction_multiply,
    fraction_shioda_mitani_check,
    minimal_form,
    reduced_forms,
)

I = QuadElement(-4, 0, Fraction(1, 2))  # the point i over d_K = -4


def gaussian(y_times: int) -> QuadLattice:
    """Z + (y_times * i) Z."""
    return QuadLattice.from_tau(QuadElement(-4, 0, Fraction(y_times, 2)))


def test_quad_element_arithmetic():
    a = QuadElement(-23, Fraction(1, 2), Fraction(1, 2))
    b = a * a
    assert (b.x, b.y) == (Fraction(-11, 2), Fraction(1, 2))
    assert (a / a).x == 1 and (a / a).y == 0
    assert a.conjugate().y == -a.y
    assert a.norm() == Fraction(1, 4) + Fraction(23, 4)
    with pytest.raises(FieldMismatch):
        a * I


def test_quad_element_operators_are_field_arithmetic():
    # QuadElement is a tuple: + and * must not concatenate or repeat it
    a = QuadElement(-23, Fraction(1, 2), Fraction(1, 2))
    b = QuadElement(-23, 3, -1)
    for value, expected in (
        (a + b, QuadElement(-23, Fraction(7, 2), Fraction(-1, 2))),
        (a - b, QuadElement(-23, Fraction(-5, 2), Fraction(3, 2))),
        (-a, QuadElement(-23, Fraction(-1, 2), Fraction(-1, 2))),
        (2 * a, QuadElement(-23, 1, 1)),
        (a * 2, QuadElement(-23, 1, 1)),
    ):
        assert type(value) is QuadElement and value == expected
    assert not bool(a - a) and not bool(QuadElement(-4, 0, 0))
    assert bool(a) and bool(QuadElement(-4, 1, 0)) and bool(QuadElement(-4, 0, 1))
    for op in (lambda u, v: u + v, lambda u, v: u - v):
        with pytest.raises(FieldMismatch):
            op(a, I)


def test_quad_element_str():
    assert str(QuadElement(-23, Fraction(1, 2), -3)) == "(1/2 + -3*sqrt(-23))"
    assert str(I) == "(0 + 1/2*sqrt(-4))"


def test_records_are_named_tuples():
    e = QuadElement(field_discriminant=-4, x=1, y=Fraction(1, 2))
    assert e == QuadElement(-4, Fraction(1), Fraction(1, 2)) == (-4, 1, Fraction(1, 2))
    assert type(e.x) is Fraction and type(e.y) is Fraction  # coerced when built
    assert pickle.loads(pickle.dumps(e)) == e
    pair = sm_factors(Form(1, 1, 6))
    tau1, tau2, d = pair
    assert TauPair(tau1=tau1, tau2=tau2, discriminant=d) == pair and d == -23
    lat = lattice_from_form(Form(2, 1, 3))
    assert QuadLattice(*lat) == lat and hash(QuadLattice(*lat)) == hash(lat)
    for record, fields in (
        (e, ("field_discriminant", "x", "y")),
        (pair, ("tau1", "tau2", "discriminant")),
        (lat, ("field_discriminant", "basis", "canonical_form", "conductor")),
    ):
        assert isinstance(record, tuple) and record._fields == fields
        assert type(record).__slots__ == ()
        with pytest.raises(AttributeError):
            setattr(record, fields[0], 0)


def test_lattices_compare_by_basis_and_class_by_homothety():
    twice = QuadLattice.from_basis(QuadElement(-4, 2, 0), QuadElement(-4, 0, 1))
    assert gaussian(1) == gaussian(1) and gaussian(1) is not gaussian(1)
    assert twice != gaussian(1) and homothety_equal(twice, gaussian(1))


def test_from_basis_moves_tau_to_the_upper_half_plane():
    for f in (Form(2, 1, 3), Form(3, 2, 5), Form(2, 0, 7), Form(1, 0, 16), Form(4, 4, 6)):
        tau = tau_from_form(f)
        one = QuadElement(tau.field_discriminant, 1, 0)
        assert (one / tau).y < 0  # w2/w1 below the real axis
        swapped = QuadLattice.from_basis(tau, one)
        assert swapped.basis == (tau, one)
        assert homothety_equal(swapped, QuadLattice.from_tau(tau))


def test_minimal_form_roundtrip():
    rng = random.Random(21)
    from oracles import random_primitive_form

    for _ in range(200):
        f = random_primitive_form(rng, max_a=25)
        assert minimal_form(tau_from_form(f)) == f


def test_lattice_from_form_examples():
    l1 = lattice_from_form(Form(1, 0, 1))
    l2 = lattice_from_form(Form(4, 0, 4))
    assert l1.canonical_form == Form(1, 0, 1) and l1.conductor == 1
    assert l2.canonical_form == Form(1, 0, 1) and l2.conductor == 1
    assert homothety_equal(l1, l2)
    l3 = lattice_from_form(Form(2, 1, 3))
    assert l3.canonical_form == Form(2, 1, 3) and l3.conductor == 1


def test_from_tau_conductors():
    assert gaussian(1).conductor == 1
    assert gaussian(2).conductor == 2
    assert gaussian(4).conductor == 4
    assert gaussian(4).canonical_form == Form(1, 0, 16)
    assert gaussian(4).multiplier_discriminant() == -64
    assert lattice_from_form(Form(2, 1, 3)).conductor == 1


def test_sm_factors_examples():
    pair = sm_factors(Form(4, 0, 4))
    assert pair.tau1 == I
    assert pair.tau2 == QuadElement(-4, 0, 2)
    pair = sm_factors(Form(1, 0, 1))
    assert pair.tau1 == pair.tau2 == I
    pair = sm_factors(Form(1, 1, 6))
    assert pair.tau1 == QuadElement(-23, Fraction(-1, 2), Fraction(1, 2))
    assert pair.tau2 == QuadElement(-23, Fraction(1, 2), Fraction(1, 2))
    assert pair.discriminant == -23


def test_tau_pair_upper_half_and_order():
    rng = random.Random(22)
    from oracles import random_form

    for _ in range(100):
        q = random_form(rng, max_a=15)
        pair = sm_factors(q)
        assert pair.tau1.y > 0 and pair.tau2.y > 0
        # Z + tau2 Z spans the order of discriminant d, in its principal class
        lat = QuadLattice.from_tau(pair.tau2)
        assert lat.multiplier_discriminant() == q.discriminant()
        assert lat.canonical_form == principal_form(q.discriminant())


def test_multiply_examples():
    ring = gaussian(1)
    assert homothety_equal(multiply(ring, ring), ring)
    la = lattice_from_form(Form(2, 1, 3))
    lb = lattice_from_form(Form(2, -1, 3))
    assert multiply(la, la).canonical_form == Form(2, -1, 3)
    assert multiply(la, lb).canonical_form == Form(1, 1, 6)
    with pytest.raises(FieldMismatch):
        multiply(ring, la)


def test_multiply_commutative_associative():
    rng = random.Random(23)
    ds = [-n for n in range(3, 1001) if n % 4 in (0, 3)]
    for _ in range(40):
        d = rng.choice(ds)
        els = class_group(d).elements
        f1, f2, f3 = (rng.choice(els) for _ in range(3))
        l1, l2, l3 = map(lattice_from_form, (f1, f2, f3))
        assert homothety_equal(multiply(l1, l2), multiply(l2, l1))
        assert homothety_equal(
            multiply(multiply(l1, l2), l3), multiply(l1, multiply(l2, l3))
        )


def test_ring_lattice_is_identity():
    for d in (-15, -56, -260, -47):
        ring = lattice_from_form(principal_form(d))
        for f in class_group(d).elements:
            lf = lattice_from_form(f)
            assert homothety_equal(multiply(ring, lf), lf)


def test_homothety_equal():
    twice = QuadLattice.from_basis(
        QuadElement(-4, 2, 0), QuadElement(-4, 0, 1)
    )  # 2Z + 2iZ scaled copy of Z + iZ
    assert homothety_equal(gaussian(1), twice)
    la = lattice_from_form(Form(2, 1, 3))
    lb = lattice_from_form(Form(2, -1, 3))
    assert not homothety_equal(la, lb)
    assert not homothety_equal(gaussian(2), gaussian(1))
    with pytest.raises(FieldMismatch):
        homothety_equal(gaussian(1), la)


def test_gauss_correspondence_small():
    for n in range(3, 301):
        d = -n
        if d % 4 not in (0, 1):
            continue
        els = class_group(d).elements
        lats = {f: lattice_from_form(f) for f in els}
        for f1 in els:
            for f2 in els:
                prod = multiply(lats[f1], lats[f2])
                assert prod.canonical_form == compose(f1, f2)
                assert prod.conductor == lats[f1].conductor


def test_product_conductor_drops_to_smaller():
    # class of conductor f1 times class of conductor f2 with f1 | f2 lands in
    # conductor f1, across |d| <= 500
    for d_K in (-3, -4, -7, -8, -11, -15, -20, -24):
        for f1, f2 in ((1, 2), (1, 3), (2, 2), (2, 4), (1, 4), (3, 3), (2, 6)):
            d1, d2 = f1 * f1 * d_K, f2 * f2 * d_K
            if f2 * f2 * (-d_K) > 500 or f2 % f1:
                continue
            for fa in class_group(d1).elements:
                for fb in class_group(d2).elements:
                    prod = multiply(lattice_from_form(fa), lattice_from_form(fb))
                    assert prod.conductor == f1


def test_shioda_mitani_check_examples():
    assert shm(gaussian(1), gaussian(4), Form(4, 0, 4))
    assert shm(gaussian(1), gaussian(1), Form(1, 0, 1))
    assert not shm(gaussian(1), gaussian(2), Form(4, 0, 4))


def shm(l1, l2, q):
    from singk3.lattices import shioda_mitani_check

    return shioda_mitani_check(l1, l2, q)


def test_shioda_mitani_check_field_mismatch():
    from singk3.lattices import shioda_mitani_check

    with pytest.raises(FieldMismatch):
        shioda_mitani_check(gaussian(1), gaussian(1), Form(1, 1, 6))


def test_shioda_mitani_enumerates_factorizations():
    # for d = -23 the factorizations of the principal surface are the
    # (class, inverse-class) pairs: check both directions of the criterion
    els = class_group(-23).elements
    q = Form(1, 1, 6)
    for f1 in els:
        for f2 in els:
            expected = compose(f1, f2) == q
            got = shm(lattice_from_form(f1), lattice_from_form(f2), q)
            assert got == expected


def test_galois_orbit_examples():
    assert galois_orbit_classes(Form(1, 1, 6)) == frozenset(class_group(-23).elements)
    assert galois_orbit_classes(Form(1, 0, 1)) == frozenset({Form(1, 0, 1)})
    assert galois_orbit_classes(Form(2, 0, 28)) == frozenset(
        {Form(2, 0, 28), Form(4, 0, 14)}
    )
    assert galois_orbit_classes(Form(30, 0, 30)) == frozenset({Form(30, 0, 30)})


def test_galois_orbit_is_rescaled_principal_genus_coset():
    rng = random.Random(24)
    ds = [-n for n in range(3, 501) if n % 4 in (0, 3)]
    for _ in range(60):
        d = rng.choice(ds)
        f = rng.choice(class_group(d).elements)
        m = rng.randint(1, 6)
        q = f.scaled(m)
        part = genus_partition(d)
        expected = frozenset(g.scaled(m) for g in part.coset_of(f))
        assert galois_orbit_classes(q) == expected


def test_lattice_json():
    lat = lattice_from_form(Form(2, 1, 3))
    obj = lat.as_json()
    assert obj["d_K"] == -23
    assert obj["canonical_form"] == {"a": "2", "b": "1", "c": "3"}
    assert obj["conductor"] == 1
    w1 = obj["basis"][0]
    assert Fraction(w1[0], w1[1]) == lat.basis[0].x


def _fraction_oracle_faults(max_abs_d: int) -> list[str]:
    # the lattice questions of a perfbench session query about every reduced
    # form, the basis (tau1, 1), whose quotient lies below the real axis, and
    # the criterion against the principal form (mostly False), on both routes
    faults = []
    for q in reduced_forms(max_abs_d):
        tau1, tau2, d = sm_factors(q)
        one = QuadElement(tau1.field_discriminant, 1, 0)
        l1, l2 = QuadLattice.from_tau(tau1), QuadLattice.from_tau(tau2)
        o1, o2 = fraction_from_tau(tau1), fraction_from_tau(tau2)
        mine = (
            l1,
            l2,
            QuadLattice.from_basis(tau1, one),
            lattice_from_form(q),
            multiply(l1, l2),
            multiply(l1, l1),
            shioda_mitani_check(l1, l2, q),
            shioda_mitani_check(l1, l2, principal_form(d)),
        )
        oracle = (
            o1,
            o2,
            fraction_from_basis(tau1, one),
            fraction_lattice_from_form(q),
            fraction_multiply(o1, o2),
            fraction_multiply(o1, o1),
            fraction_shioda_mitani_check(o1, o2, q),
            fraction_shioda_mitani_check(o1, o2, principal_form(d)),
        )
        faults += [f"{q}: entry {i}" for i, (x, y) in enumerate(zip(mine, oracle)) if x != y]
        assert type(mine[4].canonical_form) is Form and type(mine[4].basis[1].x) is Fraction
    return faults


def test_integer_route_matches_the_fraction_oracle_to_400():
    assert _fraction_oracle_faults(400) == []


@pytest.mark.slow
def test_integer_route_matches_the_fraction_oracle_to_2000():
    assert _fraction_oracle_faults(2000) == []
