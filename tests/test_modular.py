import random
from fractions import Fraction

from mpmath import mp

from singk3.classgroup import class_group, class_number
from singk3.forms import Form
from singk3.modular import (
    _j_in_fundamental_domain,
    class_polynomial,
    j_of_form,
    recognize_rational,
)

from oracles import apply_word, random_primitive_form, random_unimodular_word


def test_j_at_i():
    j = j_of_form(Form(1, 0, 1), 300)
    assert abs(j - 1728) < mp.mpf(2) ** (-300 + 16)
    with mp.workprec(300):
        assert abs(j / 1728 - 1) < mp.mpf(2) ** (-300 + 16)


def test_j_at_2i():
    j = j_of_form(Form(1, 0, 4), 300)
    assert abs(j - 287496) < mp.mpf(2) ** (-260)
    with mp.workprec(300):
        assert recognize_rational(j / 1728, 2**64, 300) == Fraction(1331, 8)
    # 287496 = 66^3
    assert 66**3 == 287496


def test_j_zero_point():
    # tau(1,1,1) = (-1 + sqrt(-3))/2, a cube root of unity: j = 0
    j = j_of_form(Form(1, 1, 1), 300)
    assert abs(j) < mp.mpf(2) ** (-260)


def test_j_exact_route_matches_float_route():
    # exact route: j_of_form reduces the integer form, then sums the series.
    # float route: move tau(F) into the fundamental domain with floating T and
    # S steps, then sum the same series there.
    rng = random.Random(31)
    for _ in range(25):
        f = random_primitive_form(rng, max_a=12)
        exact = j_of_form(f, 220)
        with mp.workprec(260):
            t = mp.mpc(-f.b, mp.sqrt(-f.discriminant())) / (2 * f.a)
            while True:
                t -= mp.nint(mp.re(t))
                if abs(t) >= 1:
                    break
                t = -1 / t
            numeric = _j_in_fundamental_domain(t)
        assert abs(exact - numeric) < mp.mpf(2) ** (-160) * (1 + abs(exact))


def test_against_mpmath_kleinj():
    # independent route: mpmath's kleinj via theta functions, evaluated at
    # tau(F) itself, without reducing F first
    rng = random.Random(31)
    for _ in range(25):
        f = random_primitive_form(rng, max_a=12)
        with mp.workprec(260):
            tau = mp.mpc(-f.b, mp.sqrt(-f.discriminant())) / (2 * f.a)
            theirs = 1728 * mp.kleinj(tau)
            ours = j_of_form(f, 200)
            assert abs(ours - theirs) < mp.mpf(2) ** (-160) * abs(theirs)


def test_j_invariant_under_unimodular_moves():
    rng = random.Random(32)
    for _ in range(25):
        f = random_primitive_form(rng, max_a=12)
        g = apply_word(f, random_unimodular_word(rng))
        assert j_of_form(g, 200) == j_of_form(f, 200)


def test_class_polynomial_examples():
    assert class_polynomial(-4).coefficients == (-1728, 1)
    assert class_polynomial(-16).coefficients == (-287496, 1)
    # frozen after computing at two precisions; matches the classical tables
    assert class_polynomial(-23).coefficients == (
        12771880859375,
        -5151296875,
        3491750,
        1,
    )
    assert class_polynomial(-64).coefficients == (-7367066619912, -82226316240, 1)


def test_class_polynomial_structure():
    for d in (-15, -23, -31, -47, -56, -71):
        poly = class_polynomial(d)
        assert poly.degree == class_number(d)
        assert poly.coefficients[-1] == 1
        assert all(isinstance(c, int) for c in poly.coefficients)
        # residues at the q-series roots are tiny relative to the coefficient size
        scale = max(map(abs, poly.coefficients))
        for f in class_group(d).elements:
            root = j_of_form(f, 350)
            with mp.workprec(360):
                assert abs(poly.evaluate(root)) < mp.mpf(2) ** (-120) * scale


def test_class_polynomial_json():
    poly = class_polynomial(-23)
    arr = poly.as_json()
    assert arr[0] == "12771880859375" and arr[-1] == "1"
    assert [int(s) for s in arr] == list(poly.coefficients)


def test_recognize_rational():
    with mp.workprec(260):
        assert recognize_rational(j_of_form(Form(1, 0, 1), 260) / 1728, 2**64, 260) == 1
    # real but irrational: the principal j of discriminant -23
    assert recognize_rational(j_of_form(Form(1, 1, 6), 400), 2**64, 400) is None
    # genuinely complex input
    assert recognize_rational(j_of_form(Form(2, 1, 3), 400), 2**64, 400) is None
    assert recognize_rational(mp.mpf("0.5"), 2**64, 200) == Fraction(1, 2)


def test_j_real_iff_two_torsion():
    # j(tau_F) is real exactly when the class of F is its own inverse
    from singk3.classgroup import is_two_torsion

    for n in range(3, 200):
        d = -n
        if d % 4 not in (0, 1):
            continue
        for f in class_group(d).elements:
            im = abs(mp.im(j_of_form(f, 120)))
            if is_two_torsion(f):
                assert im < mp.mpf(2) ** (-80)
            else:
                assert im > mp.mpf("1e-6")
