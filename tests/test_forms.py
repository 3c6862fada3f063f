import random
from fractions import Fraction

import pytest

from singk3.errors import (
    ImprimitiveInput,
    InvalidDiscriminant,
    MismatchedDiscriminant,
    NotNegativeDiscriminant,
    NotPositiveDefinite,
    ParseError,
)
from singk3.forms import Form, compose, power, principal_form

from oracles import apply_word, random_form, random_primitive_form, random_unimodular_word, sl2_reduced_equivalent


def test_discriminant_examples():
    assert Form(1, 1, 6).discriminant() == -23
    assert Form(1, 0, 1).discriminant() == -4
    assert Form(4, 0, 4).discriminant() == -64


def test_validation():
    with pytest.raises(NotPositiveDefinite):
        Form(-1, 0, 1)
    with pytest.raises(NotPositiveDefinite):
        Form(1, 0, -1)
    with pytest.raises(NotNegativeDiscriminant):
        Form(1, 3, 1)  # discriminant 5


def test_content_and_primitive_part():
    assert Form(4, 0, 4).content() == 4
    assert Form(1, 1, 6).content() == 1
    assert Form(30, 0, 30).content() == 30
    assert Form(4, 0, 4).primitive_part() == Form(1, 0, 1)
    assert Form(2, 1, 3).primitive_part() == Form(2, 1, 3)
    assert Form(30, 0, 30).primitive_part() == Form(1, 0, 1)


def test_content_discriminant_relation():
    rng = random.Random(7)
    for _ in range(300):
        f = random_form(rng)
        m = f.content()
        assert f.discriminant() == m * m * f.primitive_part().discriminant()


def test_reduce_examples():
    # frozen from the unimodular-word search oracle
    assert sl2_reduced_equivalent(Form(6, 5, 2)) == Form(2, -1, 3)
    assert Form(6, 5, 2).reduced() == Form(2, -1, 3)
    assert Form(1, 1, 6).reduced() == Form(1, 1, 6)
    assert Form(2, -1, 2).reduced() == Form(2, 1, 2)


def test_is_reduced_examples():
    assert Form(2, 1, 3).is_reduced()
    assert not Form(6, 5, 2).is_reduced()
    assert not Form(2, -2, 3).is_reduced()
    assert not Form(2, -1, 2).is_reduced()  # a = c needs b >= 0


def test_reduce_idempotent_and_invariant():
    rng = random.Random(1)
    for _ in range(10000):
        f = random_form(rng, max_a=120)
        r = f.reduced()
        assert r.is_reduced()
        assert r.reduced() == r
        assert r.discriminant() == f.discriminant()
        assert r.content() == f.content()


def test_reduce_matches_search_oracle():
    rng = random.Random(2)
    for _ in range(60):
        f = random_form(rng, max_a=12, max_disc=4000)
        assert f.reduced() == sl2_reduced_equivalent(f)


def test_sl2_invariance():
    rng = random.Random(3)
    for _ in range(400):
        f = random_form(rng, max_a=30)
        word = random_unimodular_word(rng, 8)
        g = apply_word(f, word)
        assert g.discriminant() == f.discriminant()
        assert g.reduced() == f.reduced()


def test_compose_examples():
    assert compose(Form(2, 1, 3), Form(2, 1, 3)) == Form(2, -1, 3)
    assert compose(Form(1, 1, 6), Form(2, 1, 3)) == Form(2, 1, 3)
    assert compose(Form(2, 1, 3), Form(2, -1, 3)) == Form(1, 1, 6)


def test_compose_errors():
    with pytest.raises(MismatchedDiscriminant):
        compose(Form(1, 0, 1), Form(1, 1, 6))
    with pytest.raises(ImprimitiveInput):
        compose(Form(2, 0, 2), Form(2, 0, 2))


def test_compose_representative_independence():
    rng = random.Random(4)
    for _ in range(150):
        f = random_primitive_form(rng, max_a=20)
        d = f.discriminant()
        f2 = apply_word(f, random_unimodular_word(rng, 6))
        g2 = apply_word(f, random_unimodular_word(rng, 6))
        assert compose(f2, g2) == compose(f, f)
        inv = apply_word(Form(f.a, -f.b, f.c), random_unimodular_word(rng, 6))
        assert compose(f2, inv) == principal_form(d)


def test_inverse():
    assert Form(2, 1, 3).inverse() == Form(2, -1, 3)
    assert Form(1, 0, 1).inverse() == Form(1, 0, 1)
    assert Form(4, 1, 6).inverse() == Form(4, -1, 6)
    with pytest.raises(ImprimitiveInput):
        Form(2, 0, 2).inverse()


def test_principal_form():
    assert principal_form(-23) == Form(1, 1, 6)
    assert principal_form(-4) == Form(1, 0, 1)
    assert principal_form(-64) == Form(1, 0, 16)
    with pytest.raises(InvalidDiscriminant):
        principal_form(-5)
    with pytest.raises(NotNegativeDiscriminant):
        principal_form(4)


def test_power():
    g = Form(2, 1, 3)
    assert power(g, 3) == Form(1, 1, 6)
    assert power(g, 0) == Form(1, 1, 6)
    assert power(g, -1) == Form(2, -1, 3)
    assert power(g, 2) == compose(g, g)
    assert power(g, 7) == power(g, 7 % 3)  # order 3 class


def test_group_axioms_small_discriminants():
    from singk3.classgroup import class_group

    for n in range(3, 301):
        d = -n
        if d % 4 not in (0, 1):
            continue
        group = class_group(d)
        e = principal_form(d)
        for f in group.elements:
            assert compose(e, f) == f
            assert compose(f, f.inverse()) == e
        if group.order <= 6:
            for f1 in group.elements:
                for f2 in group.elements:
                    assert compose(f1, f2) == compose(f2, f1)
                    for f3 in group.elements:
                        assert compose(compose(f1, f2), f3) == compose(f1, compose(f2, f3))


def test_group_axioms_sampled_larger():
    from singk3.classgroup import class_group

    rng = random.Random(5)
    for n in range(301, 2001):
        d = -n
        if d % 4 not in (0, 1):
            continue
        group = class_group(d)
        e = principal_form(d)
        for f in group.elements:
            assert compose(e, f) == f
            assert compose(f, f.inverse()) == e
        els = group.elements
        for _ in range(6):
            f1, f2, f3 = rng.choice(els), rng.choice(els), rng.choice(els)
            assert compose(compose(f1, f2), f3) == compose(f1, compose(f2, f3))


@pytest.mark.slow
def test_group_axioms_exhaustive_2000():
    from singk3.classgroup import class_group

    for n in range(3, 2001):
        d = -n
        if d % 4 not in (0, 1):
            continue
        els = class_group(d).elements
        for f1 in els:
            for f2 in els:
                for f3 in els:
                    assert compose(compose(f1, f2), f3) == compose(f1, compose(f2, f3))


def test_text_serialization():
    f = Form(2, -1, 3)
    assert str(f) == "2,-1,3"
    assert Form.from_text("2,-1,3") == f
    assert Form.from_text(" 4 , 0 , 4 ") == Form(4, 0, 4)
    with pytest.raises(ParseError):
        Form.from_text("2,-1")
    with pytest.raises(ParseError):
        Form.from_text("a,b,c")
    with pytest.raises(NotPositiveDefinite):
        Form.from_text("1,0,-1")


def test_json_serialization():
    f = Form(10**30, 1, 10**30)  # survives as decimal strings
    obj = f.as_json()
    assert obj == {"a": str(10**30), "b": "1", "c": str(10**30)}
    assert Form.from_json(obj) == f
    with pytest.raises(ParseError):
        Form.from_json({"a": "1"})


def test_non_integer_coefficients_are_refused():
    # a float would survive into reduced() and break content() in gcd
    for coeffs in ((1.5, 0, 1), (2.0, 1, 3), (1, Fraction(1), 3)):
        with pytest.raises(TypeError):
            Form(*coeffs)


def test_integer_types_become_int():
    f = Form(True, 1, 1)
    assert str(f) == "1,1,1" and repr(f) == "Form(a=1, b=1, c=1)"
    assert all(type(x) is int for x in f)


def test_json_refuses_non_integral_coefficients():
    for value in (1.7, 2.0, None, [2]):
        with pytest.raises(ParseError):
            Form.from_json({"a": value, "b": 1, "c": 3})
    assert Form.from_json({"a": 2, "b": "1", "c": 3}) == Form(2, 1, 3)


def test_validation_messages():
    with pytest.raises(NotPositiveDefinite, match=r"^\(-1,0,1\) is not positive definite$"):
        Form(-1, 0, 1)
    with pytest.raises(NotPositiveDefinite, match=r"^\(1,0,0\) is not positive definite$"):
        Form(a=1, b=0, c=0)
    with pytest.raises(NotNegativeDiscriminant, match=r"^\(1,3,1\) has non-negative discriminant$"):
        Form(1, 3, 1)
    with pytest.raises(NotNegativeDiscriminant, match=r"^\(1,2,1\) has non-negative discriminant$"):
        Form(1, 2, 1)  # discriminant 0


def test_form_is_immutable():
    f = Form(2, 1, 3)
    for name in ("a", "b", "c", "d"):
        with pytest.raises(AttributeError):
            setattr(f, name, 5)
    assert f == Form(2, 1, 3)


def test_repr_str_hash_and_equality():
    f = Form(2, -1, 3)
    assert repr(f) == "Form(a=2, b=-1, c=3)"
    assert str(f) == "2,-1,3"
    assert (f.a, f.b, f.c) == (2, -1, 3)
    assert repr(Form(10**30, 1, 10**30)) == f"Form(a={10**30}, b=1, c={10**30})"
    # the hash and equality of the earlier frozen dataclass: by (a, b, c)
    assert hash(f) == hash((2, -1, 3)) and hash(f) == hash(Form(2, -1, 3))
    assert f == Form(2, -1, 3) and f != Form(2, 1, 3) and f != Form(3, 1, 2)
    assert {Form(1, 1, 6): 0, Form(2, 1, 3): 1}[Form(2, 1, 3)] == 1


def test_form_is_a_tuple():
    f = Form(2, 1, 3)
    a, b, c = f
    assert (a, b, c) == (2, 1, 3) and len(f) == 3
    assert f == (2, 1, 3) and (2, 1, 3) == f
    assert Form(1, 1, 6) < Form(2, -1, 3) < Form(2, 1, 3)
    assert f * f == Form(2, -1, 3) and f**3 == Form(1, 1, 6)  # composition, not repetition


def test_pickle_round_trip():
    import copy
    import pickle

    forms = [Form(1, 1, 6), Form(2, -1, 3), Form(4, 0, 4), Form(10**30, 1, 10**30)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for f in forms:
            g = pickle.loads(pickle.dumps(f, protocol))
            assert type(g) is Form and g == f and repr(g) == repr(f)
    assert copy.deepcopy(forms) == forms and type(copy.copy(forms[1])) is Form
    # unpickling goes through the validating constructor
    good = pickle.dumps(Form(1, 0, 1), 2)
    bad = good.replace(b"K\x01K\x00K\x01", b"K\x01K\x03K\x01")  # b = 0 -> 3
    assert bad != good
    with pytest.raises(NotNegativeDiscriminant):
        pickle.loads(bad)
