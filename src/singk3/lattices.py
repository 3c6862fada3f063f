"""Z-lattices in an imaginary quadratic field, up to homothety.

A lattice is spanned by two elements of K = Q(sqrt(d_K)), each stored exactly
as x + y*sqrt(d_K) with rational x, y.  The homothety class is canonicalized
through tau = w2/w1: the primitive integral quadratic A*tau^2 + B*tau + C = 0
recovers the reduced form of the class and the conductor of the multiplier
order.  No floating point anywhere in this module.

Inside, a basis is read as integer coordinates over one common denominator (a
homothety, so the class is unchanged), and the class and conductor come from
integer norms and traces: from_basis, multiply and shioda_mitani_check run
no Fraction arithmetic between the records given and the records returned.
QuadElement, QuadLattice and TauPair keep their Fraction fields and are built
only where they are returned.

Lattice multiplication generates the Z-module spanned by the four pairwise
basis products and canonicalizes it by an integer Hermite normal form; under
the form <-> lattice dictionary this realizes Gauss composition, which the
test suite checks against Dirichlet composition class by class.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .classgroup import fundamental_data, reduced_primitive_forms
from .errors import FieldMismatch
from .forms import Form, _reduced, check_form, compose

Rational = int | Fraction

_ONE, _ZERO = Fraction(1), Fraction(0)


class QuadElement(namedtuple("QuadElement", "field_discriminant x y")):
    """Exact element x + y*sqrt(D), x and y Fractions, of the field of
    discriminant D < 0; + - * / are field arithmetic, not tuple operations."""

    __slots__ = ()

    def __new__(cls, field_discriminant: int, x: Rational, y: Rational) -> QuadElement:
        if type(x) is not Fraction:
            x = Fraction(x)
        if type(y) is not Fraction:
            y = Fraction(y)
        return tuple.__new__(cls, (field_discriminant, x, y))

    def __add__(self, other: QuadElement) -> QuadElement:
        self._same_field(other)
        return QuadElement(self.field_discriminant, self.x + other.x, self.y + other.y)

    def __sub__(self, other: QuadElement) -> QuadElement:
        self._same_field(other)
        return QuadElement(self.field_discriminant, self.x - other.x, self.y - other.y)

    def __mul__(self, other: QuadElement | Rational) -> QuadElement:
        if isinstance(other, (int, Fraction)):
            return QuadElement(self.field_discriminant, self.x * other, self.y * other)
        self._same_field(other)
        D = self.field_discriminant
        return QuadElement(
            D,
            self.x * other.x + self.y * other.y * D,
            self.x * other.y + self.y * other.x,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: QuadElement | Rational) -> QuadElement:
        if isinstance(other, (int, Fraction)):
            return QuadElement(self.field_discriminant, self.x / other, self.y / other)
        self._same_field(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero field element")
        return (self * other.conjugate()) / n

    def __neg__(self) -> QuadElement:
        return QuadElement(self.field_discriminant, -self.x, -self.y)

    def __bool__(self) -> bool:
        return bool(self.x or self.y)

    def conjugate(self) -> QuadElement:
        return QuadElement(self.field_discriminant, self.x, -self.y)

    def norm(self) -> Fraction:
        return self.x * self.x - self.y * self.y * self.field_discriminant

    def _same_field(self, other: QuadElement) -> None:
        if self.field_discriminant != other.field_discriminant:
            raise FieldMismatch(
                f"elements of Q(sqrt({self.field_discriminant})) and "
                f"Q(sqrt({other.field_discriminant}))"
            )

    def __str__(self) -> str:
        return f"({self.x} + {self.y}*sqrt({self.field_discriminant}))"


def _minimal_triple(n: int, u: int, m: int) -> tuple[tuple[int, int, int], int]:
    # the minimal polynomial (A, B, C) = (n, -2u, m)/g, g = gcd(n, 2u, m), of
    # the tau with trace 2u/n and norm m/n (n > 0), and its content g
    g = gcd(n, 2 * u, m)
    return (n // g, -2 * u // g, m // g), g


Coordinates = tuple[int, int]  # (x, y) for x + y*sqrt(D), integral


def _coordinates(w1: QuadElement, w2: QuadElement) -> tuple[Coordinates, Coordinates]:
    # the basis times the lcm of its denominators
    _, x1, y1 = w1
    _, x2, y2 = w2
    m1, n1, m2, n2 = x1.denominator, y1.denominator, x2.denominator, y2.denominator
    den = lcm(m1, n1, m2, n2)
    return (
        (x1.numerator * (den // m1), y1.numerator * (den // n1)),
        (x2.numerator * (den // m2), y2.numerator * (den // n2)),
    )


def _class(D: int, w1: Coordinates, w2: Coordinates) -> tuple[tuple[int, int, int], int]:
    # Reduced form and conductor of Z*w1 + Z*w2.  tau = w2/w1 = (u + v*sqrt(D))/n
    # with u + v*sqrt(D) = w2*conj(w1), n = N(w1) > 0 and N(tau) = N(w2)/n.
    # v < 0 puts tau below the real axis, and -tau spans the same lattice with
    # 1.  The minimal form has discriminant D*(2v/g)^2, g its content, so the
    # conductor is 2|v|/g.
    (x1, y1), (x2, y2) = w1, w2
    v = x1 * y2 - y1 * x2
    if v == 0:
        raise ValueError("basis is linearly dependent over R")
    u = x1 * x2 - D * y1 * y2
    form, g = _minimal_triple(x1 * x1 - D * y1 * y1, u if v > 0 else -u, x2 * x2 - D * y2 * y2)
    f, rem = divmod(2 * abs(v), g)
    assert rem == 0
    return _reduced(*form), f


class QuadLattice(namedtuple("QuadLattice", "field_discriminant basis canonical_form conductor")):
    """Homothety class of Z*w1 + Z*w2 in K; compare with homothety_equal, since
    == compares bases.  conductor is that of the multiplier order {x in K : x*L <= L}."""

    __slots__ = ()

    @classmethod
    def from_basis(cls, w1: QuadElement, w2: QuadElement) -> QuadLattice:
        w1._same_field(w2)
        d_K = w1.field_discriminant
        form, f = _class(d_K, *_coordinates(w1, w2))
        return cls(d_K, (w1, w2), Form(*form), f)

    @classmethod
    def from_tau(cls, tau: QuadElement) -> QuadLattice:
        """The lattice Z + tau*Z."""
        return cls.from_basis(QuadElement(tau.field_discriminant, _ONE, _ZERO), tau)

    def multiplier_discriminant(self) -> int:
        return self.conductor**2 * self.field_discriminant

    def as_json(self) -> dict:
        return {
            "d_K": self.field_discriminant,
            "basis": [
                [w.x.numerator, w.x.denominator, w.y.numerator, w.y.denominator]
                for w in self.basis
            ],
            "canonical_form": self.canonical_form.as_json(),
            "conductor": self.conductor,
        }


class TauPair(namedtuple("TauPair", "tau1 tau2 discriminant")):
    """The two CM points attached to a form: tau1 = (-b+sqrt(d))/(2a), tau2 = (b+sqrt(d))/2."""

    __slots__ = ()


def tau_from_form(f: Form) -> QuadElement:
    """tau = (-b + sqrt(d))/(2a) as an exact element of Q(sqrt(d_K))."""
    d = check_form(f).discriminant()
    fd = fundamental_data(d)
    two_a = 2 * f.a
    return QuadElement(
        fd.field_discriminant, Fraction(-f.b, two_a), Fraction(fd.conductor, two_a)
    )


def sm_factors(q: Form) -> TauPair:
    """The pair (tau1, tau2) whose elliptic product realizes the form q.

    The product E_{tau1} x E_{tau2} is a singular abelian surface whose
    transcendental lattice has intersection form q; tau2 spans the order of
    conductor f, so only tau1 moves within the class group.
    """
    d = check_form(q).discriminant()
    fd = fundamental_data(d)
    tau2 = QuadElement(fd.field_discriminant, Fraction(q.b, 2), Fraction(fd.conductor, 2))
    return TauPair(tau_from_form(q), tau2, d)


def lattice_from_form(f: Form) -> QuadLattice:
    """The lattice Z + tau*Z for tau = (-b + sqrt(d))/(2a); class of the primitive part."""
    lat = QuadLattice.from_tau(tau_from_form(f))
    assert lat.canonical_form == f.primitive_part().reduced()
    return lat


def _hnf_two_columns(rows: list[tuple[int, int]]) -> tuple[tuple[int, int], int]:
    # Hermite normal form of an n x 2 integer matrix of row rank 2:
    # returns ((p, q), r) for the basis (p, q), (0, r) with p, r > 0, 0 <= q < r.
    p = q = 0
    tail: list[int] = []
    for u, v in rows:
        if u == 0:
            tail.append(v)
            continue
        if p == 0:
            p, q = (u, v) if u > 0 else (-u, -v)
            continue
        g = gcd(p, u)  # s*p + t*u = g
        s = pow(p // g, -1, abs(u) // g)
        t = (g - s * p) // u
        tail.append((u * q - p * v) // g)
        p, q = g, s * q + t * v
    r = 0
    for v in tail:
        r = gcd(r, v)
    if p == 0 or r == 0:
        raise ValueError("generators do not span a rank-2 lattice")
    q %= r
    return (p, q), r


def _product(l1: QuadLattice, l2: QuadLattice) -> tuple[int, Coordinates, Coordinates]:
    # (D, (p, q), (0, r)): the Hermite basis of the module that the pairwise
    # products of the two integral bases span
    if l1.field_discriminant != l2.field_discriminant:
        raise FieldMismatch("lattices live in different fields")
    D = l1.field_discriminant
    basis2 = _coordinates(*l2.basis)
    rows = [
        (x1 * x2 + y1 * y2 * D, x1 * y2 + y1 * x2)
        for x1, y1 in _coordinates(*l1.basis)
        for x2, y2 in basis2
    ]
    (p, q), r = _hnf_two_columns(rows)
    return D, (p, q), (0, r)


def multiply(l1: QuadLattice, l2: QuadLattice) -> QuadLattice:
    """Homothety class of the module generated by the pairwise basis products."""
    D, w1, w2 = _product(l1, l2)
    form, f = _class(D, w1, w2)
    return QuadLattice(D, (QuadElement(D, *w1), QuadElement(D, *w2)), Form(*form), f)


def homothety_equal(l1: QuadLattice, l2: QuadLattice) -> bool:
    if l1.field_discriminant != l2.field_discriminant:
        raise FieldMismatch("lattices live in different fields")
    return l1.canonical_form == l2.canonical_form and l1.conductor == l2.conductor


def shioda_mitani_check(l1: QuadLattice, l2: QuadLattice, q: Form) -> bool:
    """Decide whether E_{L1} x E_{L2} realizes the form q.

    Two conditions: the product lattice must be homothetic to Z + tau1*Z, and
    the conductor product must equal f*f' = m*f'^2 (conductors of q and of its
    primitive part, m the content of q).
    """
    qp = check_form(q).primitive_part()
    fd = fundamental_data(qp.discriminant())
    if not (l1.field_discriminant == l2.field_discriminant == fd.field_discriminant):
        raise FieldMismatch("lattices and form live in different fields")
    f_prime = fd.conductor
    if l1.conductor * l2.conductor != q.content() * f_prime * f_prime:
        return False
    # Z + tau1*Z is in the class of q's primitive part, with conductor f'
    form, f = _class(*_product(l1, l2))
    return f == f_prime and form == _reduced(*qp)


def galois_orbit_classes(q: Form) -> frozenset[Form]:
    """Intersection forms of the Galois conjugates of the surface attached to q.

    The conjugation action multiplies the tau1-lattice by squares of classes
    of the primitive discriminant, so the orbit is the coset of the principal
    genus through the primitive part, rescaled by the content.  Not exported
    from singk3: k3.genus_of_transcendental_lattice is the production route,
    and this composing route is kept as a cross-check of it.
    """
    qp = q.primitive_part().reduced()
    m = q.content()
    orbit = set()
    for s in reduced_primitive_forms(qp.discriminant()):
        t = compose(compose(s, s), qp)
        orbit.add(t.scaled(m))
    return frozenset(orbit)
