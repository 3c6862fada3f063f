"""Field-of-definition bounds for singular K3 surfaces.

For a surface with transcendental form Q, the Galois conjugates sweep out
exactly the genus of Q, so the number of classes per genus divides the
degree over the CM field; an explicit model lives over Q(j(tau1), j(tau2)),
inside the ring class field.  When the class of Q is not 2-torsion, complex
conjugation forces an even degree over Q.  For a table of special (d, m)
pairs the two bounds meet and the minimal field is known exactly.
"""

from singk3 import (
    Form,
    analyze,
    class_group,
    genus_of_transcendental_lattice,
    inose_pencil,
    kummer_reduction,
    lem_bounds_applies,
)


def show(q: Form) -> None:
    r = analyze(q, 160)
    sc = r.surface
    print(f"Q = ({q}):  d = {sc.discriminant} = {sc.content}^2*({sc.primitive_discriminant}), "
          f"K = Q(sqrt({sc.field_discriminant}))")
    orbit = sorted(str(f) for f in genus_of_transcendental_lattice(q))
    print(f"  Galois orbit of T_X ({r.classes_per_genus} classes): {orbit}")
    print(f"  degree over K: multiple of {r.classes_per_genus}, divisor of {r.class_number_upper}")
    print(f"  degree over Q forced even: {r.parity_forced}")
    if r.exact_minimal_field:
        print(f"  minimal field known exactly: {r.exact_minimal_field}")
    print()


# The d = -23 story: the principal class descends to Q(j(tau1)), the other
# two classes only to the Hilbert class field.
show(Form(1, 1, 6))
show(Form(2, 1, 3))

# Same picture for d = -92 (h = 3 again).
show(Form(3, 2, 8))

# A 2-divisible form with several genera.
show(Form(4, 0, 14))

# Large content: the form 30*diag(2, 2) belongs to a surface over Q even
# though the naive model field grows with the content; the lower bound stays
# at 1 because h(-4) = 1.
q = Form(30, 0, 30)
show(q)
half, halved = kummer_reduction(q)
print(f"Kummer reduction of ({q}): half form ({half}), tau2 drops to {halved.tau2}")
print()

# Exact-minimal-field table membership for a few (d, m) pairs.
for d, m in ((-23, 1), (-16, 2), (-64, 2), (-27, 3), (-56, 1)):
    print(f"minimal field known for (d={d}, m={m}):", lem_bounds_applies(d, m))
print()

# The pencil behind the principal -23 surface has real coefficients of
# degree 3 over Q (squares of the real principal j-value).
model = inose_pencil(Form(1, 1, 6))
print("pencil for (1,1,6):", model.equation())
print("h(-23) classes:", [str(f) for f in class_group(-23).elements])
