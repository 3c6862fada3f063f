import random
from fractions import Fraction

import pytest
from mpmath import mp

from singk3.classgroup import class_group, class_number
from singk3.errors import NotUpperHalfPlane
from singk3.forms import Form
from singk3.lattices import QuadElement, tau_from_form
from singk3.modular import (
    class_polynomial,
    j_of_form,
    j_of_tau,
    recognize_rational,
)

def test_j_at_i():
    jv = j_of_form(Form(1, 0, 1), 300)
    assert abs(jv.j_raw - 1728) < mp.mpf(2) ** (-300 + 16)
    assert abs(jv.j_normalized - 1) < mp.mpf(2) ** (-300 + 16)


def test_j_at_2i():
    jv = j_of_form(Form(1, 0, 4), 300)
    assert abs(jv.j_raw - 287496) < mp.mpf(2) ** (-260)
    assert recognize_rational(jv.j_normalized, 2**64, 300) == Fraction(1331, 8)
    # 287496 = 66^3
    assert 66**3 == 287496


def test_j_zero_point():
    zeta = QuadElement(-3, Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt(-3))/2
    jv = j_of_tau(zeta, 300)
    assert abs(jv.j_raw) < mp.mpf(2) ** (-260)


def test_j_of_tau_errors():
    with pytest.raises(NotUpperHalfPlane):
        j_of_tau(QuadElement(-3, Fraction(1, 2), Fraction(-1, 2)))
    with pytest.raises(NotUpperHalfPlane):
        j_of_tau(complex(0.3, -1.0))
    with pytest.raises(NotUpperHalfPlane):
        j_of_tau(complex(0.3, 0.0))


def test_j_exact_route_matches_float_route():
    rng = random.Random(31)
    from oracles import random_primitive_form

    for _ in range(25):
        f = random_primitive_form(rng, max_a=12)
        tau = tau_from_form(f)
        exact = j_of_tau(tau, 220)
        with mp.workprec(260):
            t = mp.mpc(
                mp.mpf(tau.x.numerator) / tau.x.denominator,
                mp.mpf(tau.y.numerator) / tau.y.denominator * mp.sqrt(-tau.field_discriminant),
            )
        numeric = j_of_tau(t, 220)
        assert abs(exact.j_raw - numeric.j_raw) < mp.mpf(2) ** (-160) * (1 + abs(exact.j_raw))


def test_modular_invariance_numeric():
    rng = random.Random(32)
    prec = 220
    for _ in range(100):
        with mp.workprec(prec + 40):
            t = mp.mpc(rng.uniform(-2, 2), rng.uniform(0.2, 2.5))
            t_shift = t + 1
            t_inv = -1 / t
        a = j_of_tau(t, prec).j_raw
        b = j_of_tau(t_shift, prec).j_raw
        c = j_of_tau(t_inv, prec).j_raw
        scale = 1 + abs(a)
        assert abs(a - b) < mp.mpf(2) ** (-prec + 16) * scale
        assert abs(a - c) < mp.mpf(2) ** (-prec + 16) * scale


def test_against_mpmath_kleinj():
    # independent implementation: mpmath's kleinj via theta functions
    for tau_c in (complex(0.1, 1.3), complex(-0.4, 0.8), complex(0.49, 2.2)):
        with mp.workprec(160):
            ours = j_of_tau(mp.mpc(tau_c), 150).j_normalized
            theirs = mp.kleinj(mp.mpc(tau_c))
            assert abs(ours - theirs) < mp.mpf(2) ** (-120) * (1 + abs(ours))


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
            root = j_of_form(f, 350).j_raw
            with mp.workprec(360):
                assert abs(poly.evaluate(root)) < mp.mpf(2) ** (-120) * scale


def test_class_polynomial_json():
    poly = class_polynomial(-23)
    arr = poly.as_json()
    assert arr[0] == "12771880859375" and arr[-1] == "1"
    assert [int(s) for s in arr] == list(poly.coefficients)


def test_recognize_rational():
    jv = j_of_form(Form(1, 0, 1), 260)
    assert recognize_rational(jv.j_normalized, 2**64, 260) == 1
    # real but irrational: the principal j of discriminant -23
    j23 = j_of_form(Form(1, 1, 6), 400)
    assert recognize_rational(j23.j_raw, 2**64, 400) is None
    # genuinely complex input
    jc = j_of_form(Form(2, 1, 3), 400)
    assert recognize_rational(jc.j_raw, 2**64, 400) is None
    assert recognize_rational(mp.mpf("0.5"), 2**64, 200) == Fraction(1, 2)


def test_j_real_iff_two_torsion():
    # j(tau_F) is real exactly when the class of F is its own inverse
    from singk3.classgroup import is_two_torsion

    for n in range(3, 200):
        d = -n
        if d % 4 not in (0, 1):
            continue
        for f in class_group(d).elements:
            im = abs(mp.im(j_of_form(f, 120).j_raw))
            if is_two_torsion(f):
                assert im < mp.mpf(2) ** (-80)
            else:
                assert im > mp.mpf("1e-6")
