import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

import singk3.k3 as k3
from singk3 import _cache
from singk3.classgroup import class_group, classes_per_genus
from singk3.errors import InconsistentPair, InputTooLarge
from singk3.forms import Form, principal_form
from singk3.k3 import (
    BoundsReport,
    SurfaceClass,
    WeierstrassModel,
    analyze,
    genus_of_transcendental_lattice,
    inose_pencil,
    kummer_equation,
    kummer_reduction,
    lem_bounds_applies,
    surface_class,
)
from singk3.lattices import QuadElement, galois_orbit_classes, sm_factors
from singk3.modular import j_of_form

from oracles import (
    pencil_conjugates,
    pencil_values_agree,
    random_form,
    rational_by_conjugates,
    reduced_forms,
)


def test_surface_class_invariants():
    rng = random.Random(41)
    for _ in range(200):
        q = random_form(rng, max_a=20)
        sc = surface_class(q)
        m = sc.content
        assert sc.discriminant == m * m * sc.primitive_discriminant
        assert sc.discriminant == sc.conductor**2 * sc.field_discriminant
        assert sc.primitive_discriminant == sc.primitive_conductor**2 * sc.field_discriminant
        assert sc.conductor * sc.primitive_conductor == m * sc.primitive_conductor**2


def test_analyze_examples():
    r = analyze(Form(1, 1, 6), 160)
    assert (r.classes_per_genus, r.class_number_upper) == (3, 3)
    assert not r.parity_forced
    assert r.exact_minimal_field == "Q(j(tau1))"
    assert len(genus_of_transcendental_lattice(Form(1, 1, 6))) == 3

    r = analyze(Form(2, 1, 3), 160)
    assert r.classes_per_genus == 3
    assert r.parity_forced
    assert r.exact_minimal_field == "K(j(tau1))"

    r = analyze(Form(1, 0, 1), 160)
    assert (r.classes_per_genus, r.class_number_upper) == (1, 1)
    assert not r.parity_forced
    assert r.exact_minimal_field == "Q(j(tau1))"


def test_analyze_minus_92_mirrors_minus_23():
    for q92 in class_group(-92).elements:
        r = analyze(q92, 160)
        assert r.classes_per_genus == 3
        assert r.class_number_upper == 3
        principal = q92 == principal_form(-92)
        assert r.exact_minimal_field == ("Q(j(tau1))" if principal else "K(j(tau1))")
        assert r.parity_forced == (not principal)


def test_analyze_divisibility_constraints():
    rng = random.Random(42)
    for _ in range(60):
        q = random_form(rng, max_a=12)
        r = analyze(q, 120)
        sc = r.surface
        from singk3.classgroup import class_number

        assert class_number(sc.primitive_discriminant) % r.classes_per_genus == 0
        assert r.class_number_upper == class_number(sc.discriminant)
        assert len(genus_of_transcendental_lattice(q)) == r.classes_per_genus


def test_genus_of_tx_examples():
    assert genus_of_transcendental_lattice(Form(1, 1, 6)) == frozenset(class_group(-23).elements)
    assert genus_of_transcendental_lattice(Form(1, 0, 1)) == frozenset({Form(1, 0, 1)})
    assert genus_of_transcendental_lattice(Form(30, 0, 30)) == frozenset({Form(30, 0, 30)})


def test_genus_of_tx_shares_the_cached_coset_when_primitive():
    from singk3.classgroup import genus_partition

    for q in (Form(1, 1, 6), Form(2, -1, 3), Form(3, 2, 5)):
        coset = genus_partition(q.discriminant()).coset_of(q.reduced())
        assert genus_of_transcendental_lattice(q) is coset
        assert genus_of_transcendental_lattice(q.scaled(3)) == frozenset(f.scaled(3) for f in coset)


def test_genus_of_tx_matches_galois_orbit_sampled():
    rng = random.Random(43)
    for _ in range(120):
        q = random_form(rng, max_a=15)
        assert genus_of_transcendental_lattice(q) == galois_orbit_classes(q)


def test_lem_bounds_table():
    assert lem_bounds_applies(-23, 1)
    assert lem_bounds_applies(-16, 2)
    assert not lem_bounds_applies(-56, 1)
    # direct rows
    assert lem_bounds_applies(-4, 1)
    assert lem_bounds_applies(-8, 1)
    assert lem_bounds_applies(-16, 1)
    assert lem_bounds_applies(-27, 1)  # -3^3
    assert lem_bounds_applies(-243, 1)  # -3^5
    assert lem_bounds_applies(-28, 1)  # -4*7
    assert lem_bounds_applies(-108, 1)  # -4*27
    assert lem_bounds_applies(-12, 2)
    assert lem_bounds_applies(-28, 2)  # -4*7, 7 = 7 mod 8
    assert lem_bounds_applies(-27, 3)
    # Kummer clause: (d/4, m/2) in the table
    assert lem_bounds_applies(-64, 2)  # (-16, 1)
    assert lem_bounds_applies(-48, 4)  # (-12, 2)
    assert lem_bounds_applies(-108, 6)  # (-27, 3)
    assert not lem_bounds_applies(-20, 1)
    assert not lem_bounds_applies(-96, 1)


def test_lem_bounds_minus_12():
    # -12 = -4 * 3^1 with 3 = 3 mod 4, so the m = 1 row does apply
    assert lem_bounds_applies(-12, 1)


def test_lem_bounds_inconsistent_pairs():
    with pytest.raises(InconsistentPair):
        lem_bounds_applies(-23, 2)
    with pytest.raises(InconsistentPair):
        lem_bounds_applies(-64, 3)
    with pytest.raises(InconsistentPair):
        lem_bounds_applies(-16, 3)


def test_kummer_reduction_examples():
    half, pair = kummer_reduction(Form(4, 0, 4))
    assert half == Form(2, 0, 2)
    assert pair.tau1 == QuadElement(-4, 0, Fraction(1, 2))  # i
    assert pair.tau2 == QuadElement(-4, 0, 1)  # 2i
    assert pair.discriminant == -16

    assert kummer_reduction(Form(1, 1, 6)) is None
    assert kummer_reduction(Form(2, 1, 2)) is None  # content 1 despite even a, c

    half, pair = kummer_reduction(Form(30, 0, 30))
    assert half == Form(15, 0, 15)
    assert pair.tau1 == QuadElement(-4, 0, Fraction(1, 2))
    assert pair.tau2 == QuadElement(-4, 0, Fraction(15, 2))  # 15i


def test_kummer_reduction_consistent_with_sm_factors():
    rng = random.Random(44)
    count = 0
    while count < 40:
        q = random_form(rng, max_a=10)
        red = kummer_reduction(q)
        if red is None:
            continue
        count += 1
        half, pair = red
        direct = sm_factors(half)
        assert direct.tau1 == pair.tau1
        assert direct.tau2 == pair.tau2
        assert direct.discriminant == pair.discriminant


def test_inose_pencil_degenerate_identity_form():
    model = inose_pencil(Form(1, 0, 1), 160)
    assert model.A == 1 and model.B == 0
    assert model.degenerate_rule_applied
    assert model.equation() == "y^2 = x^3 - 3*t^4*x + t^5*(t^2 + 1)"
    assert model.a4_polynomial() == {4: Fraction(-3)}
    assert model.a6_polynomial() == {7: Fraction(1), 5: Fraction(1)}


def test_inose_pencil_2_0_2():
    model = inose_pencil(Form(2, 0, 2), 300)
    assert model.A == Fraction(1331, 8)
    assert model.B == 0
    assert model.degenerate_rule_applied
    assert model.equation() == "y^2 = x^3 - (3993/8)*t^4*x + (1331/8)*t^5*(t^2 + 1)"


def test_inose_pencil_j_zero_degenerate():
    # content 2 with primitive discriminant -3: the A = 0 branch
    model = inose_pencil(Form(2, 2, 2), 160)
    assert model.A == 0
    assert isinstance(model.B, Fraction) or abs(mp.im(model.B)) < 1e-20
    assert model.degenerate_rule_applied
    assert model.a4_polynomial() == {}


def test_inose_pencil_principal_minus_23():
    model = inose_pencil(Form(1, 1, 6), 430)
    # A = j_n^2 and B = (1 - j_n)^2 for the real principal j; both real,
    # algebraic of degree dividing 3: check against the frozen cubic
    assert not isinstance(model.A, Fraction)
    assert abs(mp.im(model.A)) < mp.mpf(2) ** (-380)
    assert abs(mp.im(model.B)) < mp.mpf(2) ** (-380)
    from singk3.modular import class_polynomial

    coeffs = class_polynomial(-23).coefficients
    with mp.workprec(460):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(coeffs)], maxsteps=200, extraprec=120)
        real_root = min(roots, key=lambda r: abs(mp.im(r)))
        jn = mp.re(real_root) / 1728
        assert abs(model.A - jn**2) < mp.mpf(2) ** (-360) * (1 + abs(jn) ** 2)
        assert abs(model.B - (1 - jn) ** 2) < mp.mpf(2) ** (-360) * (1 + abs(jn) ** 2)


def test_inose_pencil_rational_recognition_norm_case():
    # h(-15) = 2: for the non-principal class, A and B are rational norms;
    # frozen from the Hilbert polynomial x^2 + 191025x - 121287375
    model = inose_pencil(Form(2, 1, 2), 430)
    assert model.A == Fraction(-121287375, 1728**2)
    assert model.B == 1 + Fraction(191025, 1728) + Fraction(-121287375, 1728**2)
    assert not model.degenerate_rule_applied


def _check_pencils_against_galois_oracle(forms) -> tuple[int, int]:
    # A and B are Fractions exactly where their Galois conjugates prove them
    # rational, at the default precision and at 128 bits (where large values
    # lie closest to fractions with small denominators), and every default
    # precision value, exact or numeric, equals the oracle's; returns how many
    # A and how many B were exact
    exact = [0, 0]
    for q in forms:
        model, coarse = inose_pencil(q), inose_pencil(q, 128)
        for i, conjugates in enumerate(pencil_conjugates(q)):
            rational = rational_by_conjugates(conjugates)
            value = (model.A, model.B)[i]
            assert isinstance(value, Fraction) == rational, (q, i)
            assert isinstance((coarse.A, coarse.B)[i], Fraction) == rational, (q, i)
            assert pencil_values_agree(value, conjugates[0]), (q, i)
            exact[i] += rational
    return exact[0], exact[1]


def test_pencil_exactness_matches_galois_oracle_to_300():
    exact_a, exact_b = _check_pencils_against_galois_oracle(reduced_forms(300))
    assert exact_a > 0 and exact_b > 0


@pytest.mark.slow
def test_pencil_exactness_matches_galois_oracle_to_2000():
    # every reduced form with |d| <= 2000; the 9348 with b >= 0 hold the 68
    # rational A and 66 rational B that the class-group rule predicts
    forms = list(reduced_forms(2000))
    upper = [q for q in forms if q.b >= 0]
    assert len(upper) == 9348
    assert _check_pencils_against_galois_oracle(upper) == (68, 66)
    _check_pencils_against_galois_oracle(q for q in forms if q.b < 0)


def test_generic_equation_is_symbolic_when_inexact():
    model = inose_pencil(Form(2, 1, 3), 160)
    assert model.equation() == "y^2 = x^3 - 3*A*B*t^4*x + A*B*t^5*(B*t^2 - 2*B*t + 1)"
    k = kummer_equation(Form(2, 1, 3), 160)
    assert k.equation() == "y^2 = x^3 - 3*A*B*t^4*x + A*B*t^4*(B*t^4 - 2*B*t^2 + 1)"


def _poly_sub_t_squared(poly: dict) -> dict:
    return {2 * k: v for k, v in poly.items()}


def _poly_shift_down(poly: dict, by: int) -> dict:
    assert all(k >= by for k in poly)
    return {k - by: v for k, v in poly.items()}


def _poly_close(p1: dict, p2: dict, tol) -> bool:
    keys = set(p1) | set(p2)
    for k in keys:
        v1 = p1.get(k, 0)
        v2 = p2.get(k, 0)
        if abs(mp.mpmathify(v1) - mp.mpmathify(v2)) > tol:
            return False
    return True


def test_kummer_is_base_change_of_pencil():
    rng = random.Random(45)
    prec = 180
    tol = mp.mpf(2) ** (-prec + 24)
    tested = 0
    while tested < 20:
        q = random_form(rng, max_a=8)
        tested += 1
        pencil = inose_pencil(q, prec)
        km = kummer_equation(q, prec)
        with mp.workprec(prec):
            a4 = _poly_shift_down(_poly_sub_t_squared(pencil.a4_polynomial()), 4)
            a6 = _poly_shift_down(_poly_sub_t_squared(pencil.a6_polynomial()), 6)
            assert _poly_close(a4, km.a4_polynomial(), tol)
            assert _poly_close(a6, km.a6_polynomial(), tol)


def test_a4_a6_coefficients_carry_the_model_precision():
    # each coefficient agrees with the same product at twice the precision
    for q in (Form(2, 1, 3), Form(9, 1, 9), Form(4, 2, 6)):
        for bits in (160, 428):
            for model in (inose_pencil(q, bits), kummer_equation(q, bits)):
                A, B = model.A, model.B
                assert isinstance(A, mp.mpc) and isinstance(B, mp.mpc), q
                top, mid, low = (7, 6, 5) if model.kind == "inose_pencil" else (8, 6, 4)
                got = {("a4", k): v for k, v in model.a4_polynomial().items()}
                got.update({("a6", k): v for k, v in model.a6_polynomial().items()})
                with mp.workprec(2 * bits):
                    ab = A * B
                    want = {("a4", 4): -3 * ab, ("a6", top): ab * B}
                    want.update({("a6", mid): -2 * ab * B, ("a6", low): ab})
                    assert got.keys() == want.keys(), (q, model.kind)
                    for k, v in got.items():
                        assert abs(v - want[k]) <= mp.ldexp(abs(want[k]), -bits), (q, bits, k)


def test_two_torsion_classes_have_exactly_real_j():
    # b = 0, a = b or a = c on the reduced primitive part: j, A and B are real
    checked = 0
    for q in reduced_forms(300):
        qp = q.primitive_part()
        if not (qp.b == 0 or qp.a == qp.b or qp.a == qp.c):
            continue
        assert analyze(q, 64).j_tau1_normalized.imag == 0, q
        model = inose_pencil(q, 64)
        for value in (model.A, model.B):
            if not isinstance(value, Fraction):
                assert value.imag == 0, q
                checked += 1
    assert checked > 0


def test_imprimitive_scaling():
    # tau1(m*Q) = tau1(Q) and tau2(m*Q) = m*tau2(Q) exactly, and the lower
    # bound (classes per genus of the primitive discriminant) is unchanged
    rng = random.Random(46)
    for _ in range(50):
        q = random_form(rng, max_a=12)
        m = rng.randint(1, 10)
        mq = q.scaled(m)
        base = sm_factors(q)
        scaled = sm_factors(mq)
        assert scaled.tau1 == base.tau1
        assert scaled.tau2 == base.tau2 * m
        assert (
            classes_per_genus(surface_class(mq).primitive_discriminant)
            == classes_per_genus(surface_class(q).primitive_discriminant)
        )
        assert analyze(mq, 80).classes_per_genus == analyze(q, 80).classes_per_genus


def test_weierstrass_model_immutable():
    model = inose_pencil(Form(1, 0, 1), 120)
    with pytest.raises(AttributeError):
        model.A = 2  # type: ignore[misc]
    assert isinstance(model, WeierstrassModel)


def test_surface_records_are_named_tuples_compared_by_value():
    q = Form(2, 1, 3)
    model = inose_pencil(q, 120)
    kind, A, B, degenerate, bits = model
    rebuilt = WeierstrassModel(
        kind=kind, A=A, B=B, degenerate_rule_applied=degenerate, precision_bits=bits
    )
    assert rebuilt == model == inose_pencil(q, 120) and hash(rebuilt) == hash(model)
    assert model != kummer_equation(q, 120) and model != inose_pencil(q, 121)
    report = analyze(q, 120)
    assert report == analyze(q, 120) and BoundsReport(*report) == report
    sc = report.surface
    assert sc == surface_class(q) and SurfaceClass(**sc._asdict()) == sc
    assert SurfaceClass._fields == (
        "form", "discriminant", "primitive_discriminant", "content", "conductor",
        "primitive_conductor", "field_discriminant",
    )
    assert BoundsReport._fields == (
        "surface", "classes_per_genus", "class_number_upper", "parity_forced",
        "exact_minimal_field", "j_tau1_normalized", "j_tau2_normalized",
    )
    assert model._fields == ("kind", "A", "B", "degenerate_rule_applied", "precision_bits")
    for record in (sc, report, model):
        assert isinstance(record, tuple) and type(record).__slots__ == ()


def test_oversized_precision_is_refused_before_any_work():
    from singk3.modular import _MAX_PRECISION_BITS

    refusals = [(_MAX_PRECISION_BITS + 1, InputTooLarge, f"limited to {_MAX_PRECISION_BITS} bits")]
    # below 1 bit mpmath loops forever (-40, -33) or returns garbage (-31, 0)
    refusals += [(bits, ValueError, "integer >= 1") for bits in (-40, -33, -31, 0, 428.0, True)]
    # (1, 0, 1) has exact pencil values, so the refusal cannot come from j
    for q in (Form(1, 0, 1), Form(2, 1, 3), Form(4, 0, 4)):
        for call in (analyze, inose_pencil, kummer_equation, j_of_form):
            for bits, error, message in refusals:
                start = time.perf_counter()
                with pytest.raises(error, match=message):
                    call(q, bits)
                assert time.perf_counter() - start < 1
    assert inose_pencil(Form(1, 0, 1), _MAX_PRECISION_BITS).precision_bits == _MAX_PRECISION_BITS


def test_kummer_equation_shares_the_pencil_values():
    # the base change t -> t^2 keeps A and B, so both models hold one pair
    q = Form(2, 1, 3)
    for bits in (428, 160):
        pencil, kummer = inose_pencil(q, bits), kummer_equation(q, bits)
        assert isinstance(pencil.A, mp.mpc) and kummer.kind == "kummer"
        assert kummer.A is pencil.A and kummer.B is pencil.B


def _j_calls(monkeypatch) -> list[Form]:
    # the forms k3 evaluates j at from now on, every k3 cache cleared first
    calls = []

    def counting(f, precision_bits):
        calls.append(f)
        return j_of_form(f, precision_bits)

    monkeypatch.setattr(k3, "j_of_form", counting)
    _cache.clear()
    return calls


def test_pencil_and_kummer_evaluate_two_j_values(monkeypatch):
    calls = _j_calls(monkeypatch)
    q = Form(2, 1, 3)
    inose_pencil(q)
    kummer_equation(q)
    assert len(calls) == 2


def test_j_of_the_order_is_evaluated_once_per_discriminant(monkeypatch):
    calls = _j_calls(monkeypatch)
    q, q2, principal = Form(2, 1, 3), Form(2, -1, 3), principal_form(-23)
    reports = []
    for f in (q, q2):
        reports.append(analyze(f))
        inose_pencil(f)
        kummer_equation(f)
    # j(tau1) once for analyze and once for the pencil values the pencils
    # share; j(tau2) = j(O_d) once for every form of discriminant d
    assert calls == [q, principal, q, q2, q2]
    assert reports[0].j_tau2_normalized is reports[1].j_tau2_normalized


def test_pencil_cache_is_bounded_and_checks_every_precision():
    # more distinct forms than the cache holds, at a low precision to stay fast
    forms = [Form(1, 1, c) for c in range(1, _cache.SIZE + 100)]
    for q in forms:
        inose_pencil(q, 64)
    assert k3._pencil_values.cache_info().currsize <= _cache.SIZE
    # a cached 64 or 1 bits must not answer 64.0 or True past the check
    inose_pencil(forms[-1], 1)
    for bits in (64.0, True):
        with pytest.raises(ValueError, match="integer >= 1"):
            kummer_equation(forms[-1], bits)
