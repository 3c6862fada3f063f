import json
import random
import sys
import threading
from math import log, pi, sqrt
from pathlib import Path

import pytest
from mpmath import mp

from singk3 import modular
from singk3.classgroup import class_group, class_number
from singk3.errors import InputTooLarge, PrecisionExhausted
from singk3.forms import Form
from singk3.modular import (
    _GUARD_BITS,
    _approximate_coefficients,
    _fixed_j,
    _height_precision_bits,
    _j_in_fundamental_domain,
    _pentagonal_terms,
    _series_terms,
    class_polynomial,
    j_of_form,
)

from oracles import (
    apply_word,
    random_primitive_form,
    random_unimodular_word,
    reference_class_polynomial,
)

POOLED_D = [
    e["d"]
    for e in json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "pools.json").read_text()
    )["classpoly"]
]

H_MINUS_71 = (
    737707086760731113357714241006081263,
    -425319473946139603274605151187659,
    5138800366453976780323726329446,
    -823534263439730779968091389,
    98394038810047812049302,
    -3091990138604570,
    313645809715,
    1,
)


def test_j_at_i():
    j = j_of_form(Form(1, 0, 1), 300)
    assert abs(j - 1728) < mp.mpf(2) ** (-300 + 16)
    with mp.workprec(300):
        assert abs(j / 1728 - 1) < mp.mpf(2) ** (-300 + 16)


def test_j_at_2i():
    j = j_of_form(Form(1, 0, 4), 300)
    assert abs(j - 287496) < mp.mpf(2) ** (-260)
    # within the accuracy lemma's bound of j(2i) = -H_-16(0) = 287496 = 66^3
    assert class_polynomial(-16).coefficients == (-287496, 1)
    with mp.workprec(300):
        assert abs(j - 287496) <= mp.mpf(2) ** -300 * (1 + abs(j))
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
    # frozen from the certified pass; matches the classical tables
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


def test_class_polynomial_record():
    poly = class_polynomial(-23)
    assert poly._fields == ("discriminant", "coefficients", "precision_bits", "error_bound_log2")
    assert poly == modular.ClassPolynomial(-23, *poly[1:]) and hash(poly) == hash(tuple(poly))
    assert poly.degree == 3 and poly.evaluate(0) == 12771880859375
    assert poly.as_json() == ["12771880859375", "-5151296875", "3491750", "1"]
    with pytest.raises(AttributeError):
        poly.precision_bits = 2
    with pytest.raises(AttributeError):
        poly.extra = None


def _discriminants(max_abs_d: int):
    return [-n for n in range(3, max_abs_d + 1) if -n % 4 in (0, 1)]


def test_class_polynomial_matches_reference_to_500():
    for d in _discriminants(500):
        assert class_polynomial(d).coefficients == reference_class_polynomial(d), d


@pytest.mark.slow
def test_class_polynomial_matches_reference_to_2000():
    for d in _discriminants(2000):
        poly = class_polynomial(d)
        assert poly.coefficients == reference_class_polynomial(d), d
        assert poly.error_bound_log2 <= -12, d


def test_one_pass_certifies_with_room_to_spare_to_1200():
    # the height-bound precision leaves every coefficient within 2^-12 of its
    # integer (the end of the certificate comment in modular), far inside 1/2
    for d in _discriminants(1200):
        assert class_polynomial(d).error_bound_log2 <= -12, d


def record_passes(monkeypatch) -> list:
    # (wp, (coefficients at wp + _GUARD_BITS bits, e)) of every pass class_polynomial runs
    passes = []

    def recording(d, wp):
        passes.append((wp, _approximate_coefficients(d, wp)))
        return passes[-1][1]

    monkeypatch.setattr(modular, "_approximate_coefficients", recording)
    return passes


def assert_within_the_bound(approx, e, wp, exact):
    # |c_k' - c_k| <= 2^e, on the integers c_k' 2^bits
    bits = wp + _GUARD_BITS
    for c_hat, c in zip(approx, exact, strict=True):
        assert abs(c_hat - (c << bits)) <= 1 << (e + bits), wp


def test_class_polynomial_refuses_an_uncertified_pass(monkeypatch):
    # a pass too short to round still stays within its bound 2^e; the integer
    # rounding refuses it, and class_polynomial raises instead of retrying
    monkeypatch.setattr(modular, "_height_precision_bits", lambda d: 64)
    passes = record_passes(monkeypatch)
    with pytest.raises(PrecisionExhausted, match="not certified at 64 bits"):
        class_polynomial(-71)
    [(wp, (approx, e))] = passes
    assert wp == 64
    assert_within_the_bound(approx, e, wp, H_MINUS_71)
    assert modular._integer_coefficients(approx, e, wp + _GUARD_BITS) is None


def test_error_bound_covers_the_actual_error_on_pooled_d(monkeypatch):
    # E = 2^e bounds |c_k' - c_k| against the integers of the two-pass oracle,
    # and one pass at the starting precision always suffices
    passes = record_passes(monkeypatch)
    for d in POOLED_D:
        passes.clear()
        poly = class_polynomial(d)
        assert len(passes) == 1
        assert poly.precision_bits == _height_precision_bits(d)
        wp, (approx, e) = passes[0]
        assert e == poly.error_bound_log2
        exact = reference_class_polynomial(d)
        assert poly.coefficients == exact
        assert_within_the_bound(approx, e, wp, exact)


def test_series_terms_meet_the_tail_inequality():
    # lemma part 1: with N = _series_terms(log2 r, wp), both Eisenstein tails
    # 240 sum_{n>N} sigma_3(n) r^n and 504 sum_{n>N} sigma_5(n) r^n are <= 2^-wp
    # for every r <= e^(-pi sqrt 3), the largest |q| in the fundamental domain
    def sigma(k, n):
        return sum(t**k for t in range(1, n + 1) if n % t == 0)

    top = -pi * sqrt(3) / log(2)
    for log2_q in (top, -8.0, -9.5, -13.0, -31.4, -100.0, -777.7, -5000.0):
        for wp in (64, 65, 100, 333, 1000, 2048, 4099, 8192):
            n = _series_terms(log2_q, wp)
            with mp.workprec(80):
                r = mp.mpf(2) ** log2_q
                for k, weight in ((3, 240), (5, 504)):
                    head = mp.fsum(sigma(k, m) * r**m for m in range(n + 1, n + 41))
                    # beyond: sigma_k(m) <= zeta(k) m^k, and m^k r^m shrinks by
                    # at least 32 r < 0.14 per step
                    rest = mp.zeta(k) * (n + 41) ** k * r ** (n + 41) / 0.86
                    assert weight * (head + rest) <= mp.mpf(2) ** -wp, (log2_q, wp, k)


def test_pentagonal_terms_meet_the_tail_inequality():
    # lemma above _fixed_j, step 7: with K = _pentagonal_terms(log2 r, bits), the
    # terms of E(q) = prod (1 - q^n) past k = K, r^(k(3k-1)/2) + r^(k(3k+1)/2),
    # sum to at most 2^-bits for every r <= 2^log2_q
    def g(k):
        return k * (3 * k - 1) // 2

    top = -pi * sqrt(3) / log(2)  # the largest |q| in the fundamental domain
    for log2_q in (top, 2 * top, -8.0, -13.0, -31.4, -100.0, -777.7, -4532.9, -9065.8):
        for bits in (64, 65, 100, 333, 1000, 2048, 4099, 8192, 20000):
            k = _pentagonal_terms(log2_q, bits)
            with mp.workprec(80):
                r = mp.mpf(2) ** log2_q
                head = mp.fsum(r ** g(m) + r ** (g(m) + m) for m in range(k + 1, k + 41))
                rest = 2 * r ** g(k + 41) / (1 - r)  # g grows by more than 1 per step
                assert head + rest <= mp.mpf(2) ** -bits, (log2_q, bits)


def _fixed_j_error(f, wp):
    # |J - j| / (1 + |j|) in units of 2^-wp for J = _fixed_j(f, wp), against
    # j_of_form at wp + 64 bits, itself within 2^-(wp+64) (1 + |j|)
    re, im = _fixed_j(f, wp)
    ref = j_of_form(f, wp + 64)
    with mp.workprec(max(re.bit_length(), im.bit_length(), wp) + 64):
        got = mp.mpc(re, im) / mp.mpf(2) ** (wp + _GUARD_BITS)  # exact
        return abs(got - ref) / (1 + abs(ref)) * mp.mpf(2) ** wp


def assert_fixed_j_within_the_lemma(forms, precisions):
    # the lemma proves 2^-26; the oracle's own error costs at most a bit of it
    for f in forms:
        for wp in precisions:
            assert _fixed_j_error(f, wp) <= mp.mpf(2) ** -25, (f, wp)


def test_fixed_j_matches_j_of_form_on_random_forms():
    rng = random.Random(34)
    forms = [random_primitive_form(rng, max_a=40) for _ in range(40)]
    assert_fixed_j_within_the_lemma(forms, (64, 200, 428, 1000))


def test_fixed_j_keeps_its_precision_where_q_is_tiny():
    # a = 1: x ~ q is below 2^-700 at |d| near 25000 and 2^-4500 near 10^6, so
    # the floor(log2(1/|q|)) extra bits carry the whole relative precision of q
    forms = [Form(1, 0, 1), Form(1, 1, 1), Form(1, 1, 6228), Form(1, 0, 6250)]
    forms += [Form(1, 1, 249999), Form(1, 1, 250000), Form(1, 0, 250000)]
    assert_fixed_j_within_the_lemma(forms, (64, 428))


def test_fixed_j_at_the_size_limits():
    # |d| near 25000 (the classpoly limit) and 10^6 (the lemma's): the first
    # forms of the group, with a = 1 and small a, and its last, with the largest a
    for d in (-24911, -23999, -999999, -999996):
        elements = class_group(d).elements
        assert_fixed_j_within_the_lemma(elements[:3] + elements[-3:], (64, 428))


def test_fixed_j_from_64_bits_to_16_times_the_starting_precision():
    start = _height_precision_bits(-239)
    precisions = (64, start, 2 * start, 4 * start, 8 * start, 16 * start)
    elements = class_group(-239).elements
    assert_fixed_j_within_the_lemma(elements[:2] + elements[-2:], precisions)


def test_class_polynomials_and_j_of_form_run_side_by_side_in_threads():
    # class_polynomial never touches mpmath's process-wide precision, which
    # j_of_form sets: two threads build class polynomials while a third
    # evaluates j in a loop, with a short switch interval, and all of them get
    # their serial values
    ds = POOLED_D[:20]
    forms = [Form(2, 1, 3), Form(3, 2, 5), Form(4, 3, 7), Form(6, 5, 11)]
    serial_polys = {d: class_polynomial(d).coefficients for d in ds}
    serial_j = {f: j_of_form(f, 428) for f in forms}
    polys, wrong_j, j_calls = {}, [], [0]
    started, built = threading.Event(), [threading.Event(), threading.Event()]

    def build(part, done):
        started.wait(10)
        for d in part:
            polys[d] = class_polynomial(d).coefficients
        done.set()

    def evaluate():
        while not all(done.is_set() for done in built):
            for f in forms:
                if j_of_form(f, 428) != serial_j[f]:
                    wrong_j.append(f)
                j_calls[0] += 1
                started.set()

    threads = [threading.Thread(target=build, args=(ds[0::2], built[0])),
               threading.Thread(target=build, args=(ds[1::2], built[1])),
               threading.Thread(target=evaluate)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert j_calls[0] > len(forms)
    assert polys == serial_polys
    assert wrong_j == []


def test_inverse_class_gives_the_conjugate_j():
    # the pass evaluates j once per pair (a, +-b, c); the dropped value must be
    # exactly the conjugate, bit for bit
    rng = random.Random(33)
    checked = 0
    while checked < 25:
        d = -rng.randrange(20, 5000)
        if d % 4 not in (0, 1):
            continue
        pairs = [f for f in class_group(d).elements if 0 < f.b < f.a < f.c]
        if not pairs:
            continue
        f = rng.choice(pairs)
        p = rng.choice((64, 200, 428, 1000))
        with mp.workprec(p + 64):  # wide enough for conj not to round
            assert j_of_form(Form(f.a, -f.b, f.c), p) == mp.conj(j_of_form(f, p)), (f, p)
        checked += 1


def test_class_polynomial_refuses_oversized_d(monkeypatch):
    def no_enumeration(d):
        raise AssertionError("enumerated before the size check")

    monkeypatch.setattr(modular, "reduced_primitive_forms", no_enumeration)
    too_big = -(modular._MAX_CLASSPOLY_ABS_D + 1)
    with pytest.raises(InputTooLarge, match=str(modular._MAX_CLASSPOLY_ABS_D)):
        class_polynomial(too_big)
    with pytest.raises(InputTooLarge):
        class_polynomial(-1000003)


def test_class_polynomial_json():
    poly = class_polynomial(-23)
    arr = poly.as_json()
    assert arr[0] == "12771880859375" and arr[-1] == "1"
    assert [int(s) for s in arr] == list(poly.coefficients)


def test_j_of_form_refuses_discriminants_beyond_the_lemma():
    assert modular._MAX_J_ABS_D == 10**6
    j_of_form(Form(1, 1, 250000), 64)  # d = -999999
    # the lemma concerns the primitive part: here (1, 0, 1), though d = -16 * 10^6
    assert abs(j_of_form(Form(2000, 0, 2000), 64) - 1728) < 2**-40
    with pytest.raises(InputTooLarge, match=r"10\^6"):
        j_of_form(Form(1, 0, 250001), 64)
    huge = Form(1, 1, 10**5000)  # str() of this d would exceed Python's digit limit
    with pytest.raises(InputTooLarge, match="bit"):
        j_of_form(huge, 64)


def test_class_polynomial_evaluates_integers_exactly():
    poly = class_polynomial(-15)  # x^2 + 191025 x - 121287375
    assert poly.evaluate(0) == -121287375
    assert poly.evaluate(1728) == 1728**2 + 191025 * 1728 - 121287375
    assert isinstance(poly.evaluate(1728), int)


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
