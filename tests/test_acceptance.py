"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import random
import time
from fractions import Fraction

from mpmath import mp

from singk3.classgroup import (
    class_group,
    class_number,
    classes_per_genus,
    distinct_fields,
    genus_characters,
    genus_partition,
    is_two_torsion,
    scan_one_class_per_genus,
)
from singk3.forms import Form, compose, principal_form
from singk3.k3 import (
    analyze,
    genus_of_transcendental_lattice,
    inose_pencil,
    kummer_equation,
    kummer_reduction,
)
from singk3.lattices import (
    QuadElement,
    galois_orbit_classes,
    lattice_from_form,
    multiply,
    sm_factors,
)
from singk3.modular import class_polynomial, j_of_form

from oracles import random_form


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status} - {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def _best_time(fn, runs: int = 5) -> float:
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_class_group_minus_23():
    group = class_group(-23)
    ok = set(group.elements) == {Form(1, 1, 6), Form(2, 1, 3), Form(2, -1, 3)}
    ok &= group.cyclic_orders() == (3,)
    ok &= genus_partition(-23).genus_count == 1
    uncached = class_group.__wrapped__
    uncached(-23)  # warm up
    dt = _best_time(lambda: uncached(-23))
    ok &= dt < 1e-3
    _report(1, "Cl(-23) forms, cyclic order 3, one genus, < 1 ms", ok, f"{dt * 1e6:.0f} us")


def test_criterion_02_minus_92_mirrors_minus_23():
    ok = class_number(-92) == 3
    els = sorted(class_group(-92).elements, key=lambda f: f != principal_form(-92))
    ref = sorted(class_group(-23).elements, key=lambda f: f != principal_form(-23))
    for q92, q23 in zip(els, ref):
        r92 = analyze(q92, 160)
        r23 = analyze(q23, 160)
        ok &= (r92.classes_per_genus, r92.class_number_upper) == (3, 3)
        ok &= r92.classes_per_genus == r23.classes_per_genus
        ok &= r92.parity_forced == r23.parity_forced
        ok &= r92.exact_minimal_field == r23.exact_minimal_field
    uncached = class_group.__wrapped__
    uncached(-92)
    dt = _best_time(lambda: uncached(-92))
    ok &= dt < 1e-3
    _report(2, "h(-92) = 3 and reports mirror d = -23, < 1 ms", ok, f"{dt * 1e6:.0f} us")


def test_criterion_03_fermat_pipeline():
    q = Form(4, 0, 4)
    pair = sm_factors(q)
    i_pt = QuadElement(-4, 0, Fraction(1, 2))
    ok = pair.tau1 == i_pt
    ok &= pair.tau2 == QuadElement(-4, 0, 2)  # 4i
    reduction = kummer_reduction(q)
    ok &= reduction is not None
    half, halved = reduction
    ok &= half == Form(2, 0, 2)
    ok &= halved.tau1 == i_pt
    ok &= halved.tau2 == QuadElement(-4, 0, 1)  # 2i
    _report(3, "Fermat form: factors (i, 4i) and Kummer half ((2,0,2), i, 2i), exact", ok)


def test_criterion_04_scan_10000():
    t0 = time.perf_counter()
    hits = scan_one_class_per_genus(10000)
    dt = time.perf_counter() - t0
    fields = distinct_fields(hits)
    ok = len(hits) == 101 and len(fields) == 65 and dt < 60
    _report(
        4,
        "scan(10000): 101 discriminants over 65 fields in < 60 s",
        ok,
        f"{len(hits)} discs, {len(fields)} fields, {dt:.2f} s",
    )


def test_criterion_05_genus_equals_galois_orbit_to_2000():
    mismatches = 0
    checked = 0
    char_cache: dict[int, dict] = {}
    for n in range(3, 2001):
        d = -n
        if d % 4 not in (0, 1):
            continue
        m = 1
        while m * m <= n:
            if d % (m * m) == 0 and (d // (m * m)) % 4 in (0, 1):
                d_prime = d // (m * m)
                if d_prime not in char_cache:
                    char_cache[d_prime] = {
                        f: genus_characters(f) for f in class_group(d_prime).elements
                    }
                chars = char_cache[d_prime]
                for f in class_group(d_prime).elements:
                    q = f.scaled(m)
                    checked += 1
                    by_genus = genus_of_transcendental_lattice(q)
                    by_orbit = galois_orbit_classes(q)
                    by_chars = frozenset(
                        g.scaled(m) for g in chars if chars[g] == chars[f]
                    )
                    if not (by_genus == by_orbit == by_chars):
                        mismatches += 1
            m += 1
    _report(
        5,
        "genus of T_X = Galois orbit = character class for every even form, |d| <= 2000",
        mismatches == 0 and checked > 0,
        f"{checked} forms",
    )


def test_criterion_06_two_torsion_lemma_to_5000():
    mismatches = 0
    checked = 0
    for n in range(3, 5001):
        d = -n
        if d % 4 not in (0, 1):
            continue
        e = principal_form(d)
        for f in class_group(d).elements:
            checked += 1
            boundary = f.b == 0 or f.a == f.b or f.a == f.c
            if boundary != (compose(f, f) == e):
                mismatches += 1
    ok = mismatches == 0 and is_two_torsion(Form(4, 4, 5))
    _report(
        6,
        "reduced-form boundary test = composition 2-torsion test, |d| <= 5000",
        ok,
        f"{checked} forms",
    )


def test_criterion_07_gauss_correspondence_to_1000():
    mismatches = 0
    checked = 0
    for n in range(3, 1001):
        d = -n
        if d % 4 not in (0, 1):
            continue
        els = class_group(d).elements
        lats = {f: lattice_from_form(f) for f in els}
        for i, f1 in enumerate(els):
            for f2 in els[i:]:
                checked += 1
                if multiply(lats[f1], lats[f2]).canonical_form != compose(f1, f2):
                    mismatches += 1
    _report(
        7,
        "lattice multiplication matches Dirichlet composition, |d| <= 1000",
        mismatches == 0,
        f"{checked} pairs",
    )


def test_criterion_08_class_polynomials_to_200():
    from singk3.classgroup import fundamental_data

    failures = []
    count = 0
    for n in range(3, 201):
        d = -n
        if d % 4 not in (0, 1) or fundamental_data(d).conductor != 1:
            continue
        count += 1
        poly = class_polynomial(d)
        h = class_number(d)
        if not (poly.degree == h and poly.coefficients[-1] == 1):
            failures.append(d)
            continue
        with mp.workprec(max(4 * (abs(max(poly.coefficients, key=abs)).bit_length()), 400)):
            roots = mp.polyroots(
                [mp.mpf(c) for c in reversed(poly.coefficients)],
                maxsteps=200,
                extraprec=200,
            )
            for f in class_group(d).elements:
                jf = j_of_form(f, mp.prec)
                rel = min(abs(r - jf) / max(abs(jf), mp.mpf(1)) for r in roots)
                if rel > mp.mpf("1e-20"):
                    failures.append(d)
                    break
    _report(
        8,
        "class polynomials certified and roots match q-series j to 1e-20, fundamental |d| <= 200",
        not failures and count > 0,
        f"{count} discriminants",
    )


def test_criterion_09_j_normalization():
    # j_n = j / 1728 as the surface layer computes it: analyze's j_n(tau1)
    prec = 428
    jn_i = analyze(Form(1, 0, 1), prec).j_tau1_normalized
    ok = abs(jn_i - 1) <= mp.mpf(2) ** (-prec + 16)
    # j_n(2i) = 1331/8, at the default precision and at quadruple precision
    for bits in (prec, 4 * prec):
        jn_2i = analyze(Form(1, 0, 4), bits).j_tau1_normalized
        with mp.workprec(bits + 64):
            ok &= abs(jn_2i - mp.mpf(1331) / 8) <= mp.mpf(2) ** (-bits + 16)
    # and the pencil of (2,0,2), A = j_n(i) j_n(2i), takes it exactly
    ok &= inose_pencil(Form(2, 0, 2)).A == Fraction(1331, 8)
    j2i = j_of_form(Form(1, 0, 4), prec)
    j2i_hi = j_of_form(Form(1, 0, 4), 4 * prec)
    ok &= abs(j2i - j2i_hi) <= mp.mpf(2) ** (-prec + 20) * abs(j2i_hi)
    _report(9, "j_n(i) = 1, j_n(2i) = 1331/8 at 1x and 4x precision, exact in the pencil", ok)


def test_criterion_10_inose_degenerate_and_base_change():
    model = inose_pencil(Form(1, 0, 1), 180)
    ok = model.equation() == "y^2 = x^3 - 3*t^4*x + t^5*(t^2 + 1)"
    ok &= model.degenerate_rule_applied
    ok &= model.a4_polynomial() == {4: Fraction(-3)}
    ok &= model.a6_polynomial() == {7: Fraction(1), 5: Fraction(1)}

    prec = 180
    tol = mp.mpf(2) ** (-prec + 24)
    rng = random.Random(100)
    sample = [Form(1, 0, 1), Form(2, 2, 2), Form(2, 0, 2), Form(1, 1, 1)]
    while len(sample) < 20:
        sample.append(random_form(rng, max_a=8))
    for q in sample:
        pencil = inose_pencil(q, prec)
        km = kummer_equation(q, prec)
        with mp.workprec(prec):
            for shift, src, dst in ((4, pencil.a4_polynomial(), km.a4_polynomial()),
                                    (6, pencil.a6_polynomial(), km.a6_polynomial())):
                base_changed = {2 * k - shift: v for k, v in src.items()}
                keys = set(base_changed) | set(dst)
                for k in keys:
                    delta = abs(
                        mp.mpmathify(base_changed.get(k, 0)) - mp.mpmathify(dst.get(k, 0))
                    )
                    ok &= bool(delta <= tol)
    _report(10, "degenerate pencil for (1,0,1) and Kummer = pencil under t -> t^2, 20 forms", ok)


def test_criterion_11_imprimitive_scaling():
    rng = random.Random(101)
    ok = True
    for _ in range(50):
        q = random_form(rng, max_a=12)
        m = rng.randint(1, 10)
        mq = q.scaled(m)
        base = sm_factors(q)
        scaled = sm_factors(mq)
        ok &= scaled.tau1 == base.tau1
        ok &= scaled.tau2 == base.tau2 * m
        ok &= classes_per_genus(q.primitive_part().discriminant()) == classes_per_genus(
            mq.primitive_part().discriminant()
        )
    _report(11, "tau1(mQ) = tau1(Q), tau2(mQ) = m*tau2(Q) exactly; lower bound unchanged", ok)
