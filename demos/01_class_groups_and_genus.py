"""Class groups of binary quadratic forms, and their genus structure.

Walks the basic objects: reduced forms, composition, the group structure,
and the genus partition, which groups classes by their assigned characters;
its principal genus is the subgroup of squares.
"""

from singk3 import (
    Form,
    class_group,
    compose,
    genus_characters,
    genus_partition,
    principal_form,
)

# Discriminant -23: the smallest discriminant with class number 3.
G = class_group(-23)
print(f"Cl(-23) has order {G.order}:")
for f in G.elements:
    print(f"  ({f})  reduced={f.is_reduced()}")

gen, order = G.generators[0]
print(f"cyclic, generated by ({gen}) of order {order}")
print(f"({gen}) * ({gen}) = ({compose(gen, gen)})   <- the inverse class")
print(f"({gen})^3        = ({gen ** 3})   <- the principal form")
print()

# All three classes are squares, so there is a single genus.
print("squares subgroup:", sorted(str(f) for f in genus_partition(-23).principal_genus))
print("genera:", [sorted(map(str, c)) for c in genus_partition(-23).cosets])
print()

# Discriminant -56 splits into two genera of two classes each.  The genus of
# a class is its vector of assigned characters; the genera are the cosets of
# the squares.
G56 = class_group(-56)
part = genus_partition(-56)
print(f"Cl(-56): h = {G56.order}, invariant factors {G56.cyclic_orders()}")
for coset in part.cosets:
    tag = "principal" if coset == part.principal_genus else "other    "
    members = sorted(map(str, coset))
    vecs = {genus_characters(f) for f in coset}
    print(f"  {tag} genus: {members}, characters {vecs.pop()}")
print()

# The identity of any discriminant is one line away:
for d in (-23, -4, -64, -163):
    print(f"principal form of {d}: ({principal_form(d)})")
