"""j-invariants and ring class polynomials at certified precision.

The j-value of a CM point is computed from the Eisenstein q-expansions; the
class polynomial collects the j-values of all classes of a discriminant, taken
on Python integers from the Weber f2 quotient, into a monic integer
polynomial.  Each coefficient is rounded to an integer only
when an explicit bound on its numerical error proves the rounding.
"""

from fractions import Fraction

from mpmath import mp

from singk3 import (
    Form,
    class_group,
    class_number,
    class_polynomial,
    j_of_form,
)

# Rational CM points first.  j is the classical invariant, j(i) = 1728; the
# surface equations use j_n = j / 1728, so that j_n(i) = 1.
for f, label in ((Form(1, 0, 1), "i"), (Form(1, 0, 4), "2i"), (Form(1, 1, 1), "zeta_3")):
    j = j_of_form(f, 200)
    print(f"j({label}) = {mp.nstr(j, 12)}, j_n({label}) = {mp.nstr(j / 1728, 12)}")
print()

# Exact values come from the class group, not from the digits: h(-16) = 1, so
# j(2i) is the one root of H_-16 and j_n(2i) = -H_-16(0)/1728 = 1331/8 = (11/2)^3.
print("j_n(2i) = -H_-16(0)/1728 =", Fraction(-class_polynomial(-16).coefficients[0], 1728))
print()

# Class polynomials.  Degree = class number = degree of the ring class field.
# class_polynomial returns only certified results and raises otherwise.
for d in (-4, -16, -23, -64, -71):
    poly = class_polynomial(d)
    print(f"d = {d}: degree {poly.degree} (= [H(O):K] = h(d) = {class_number(d)})")
    print("   coefficients (constant first):", list(poly.coefficients))
    print(f"   certified at {poly.precision_bits} bits, error < 2^{poly.error_bound_log2}")
print()

# The roots really are the j-values of the classes: evaluate and look at the
# residues, which sit far below the coefficient scale.
d = -23
poly = class_polynomial(d)
scale = max(abs(c) for c in poly.coefficients)
with mp.workprec(400):
    for f in class_group(d).elements:
        r = poly.evaluate(j_of_form(f, 400))
        print(f"  |H({d}) at j of ({f})| / scale = {mp.nstr(abs(r) / scale, 5)}")
