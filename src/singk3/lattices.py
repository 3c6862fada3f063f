"""Z-lattices in an imaginary quadratic field, up to homothety.

A lattice is spanned by two elements of K = Q(sqrt(d_K)), each stored exactly
as x + y*sqrt(d_K) with rational x, y.  The homothety class is canonicalized
through tau = w2/w1: the primitive integral quadratic A*tau^2 + B*tau + C = 0
recovers the reduced form of the class and the conductor of the multiplier
order.  No floating point anywhere in this module.

Lattice multiplication generates the Z-module spanned by the four pairwise
basis products and canonicalizes it by an integer Hermite normal form; under
the form <-> lattice dictionary this realizes Gauss composition, which the
test suite checks against Dirichlet composition class by class.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm

from .classgroup import fundamental_data, reduced_primitive_forms
from .errors import FieldMismatch
from .forms import Form, compose

Rational = int | Fraction


class QuadElement(namedtuple("QuadElement", "field_discriminant x y")):
    """Exact element x + y*sqrt(D), x and y Fractions, of the field of
    discriminant D < 0; + - * / are field arithmetic, not tuple operations."""

    __slots__ = ()

    def __new__(cls, field_discriminant: int, x: Rational, y: Rational) -> QuadElement:
        return tuple.__new__(cls, (field_discriminant, Fraction(x), Fraction(y)))

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


def minimal_form(tau: QuadElement) -> Form:
    # primitive integral (A, B, C), A > 0, with A*tau^2 + B*tau + C = 0;
    # requires tau genuinely quadratic (y != 0)
    two_x = -2 * tau.x
    nrm = tau.norm()
    den = lcm(two_x.denominator, nrm.denominator)
    b = two_x.numerator * (den // two_x.denominator)
    c = nrm.numerator * (den // nrm.denominator)
    g = gcd(den, b, c)
    return Form(den // g, b // g, c // g)


class QuadLattice(namedtuple("QuadLattice", "field_discriminant basis canonical_form conductor")):
    """Homothety class of Z*w1 + Z*w2 in K; compare with homothety_equal, since
    == compares bases.  conductor is that of the multiplier order {x in K : x*L <= L}."""

    __slots__ = ()

    @classmethod
    def from_basis(cls, w1: QuadElement, w2: QuadElement) -> QuadLattice:
        w1._same_field(w2)
        d_K = w1.field_discriminant
        if w1.x * w2.y - w1.y * w2.x == 0:
            raise ValueError("basis is linearly dependent over R")
        tau = w2 / w1
        if tau.y < 0:
            tau = -tau  # Z + tau*Z = Z + (-tau)*Z; land in the upper half plane
        form = minimal_form(tau)
        d = form.discriminant()
        f2, rem = divmod(d, d_K)
        assert rem == 0
        f = isqrt(f2)
        assert f * f == f2
        return cls(d_K, (w1, w2), form.reduced(), f)

    @classmethod
    def from_tau(cls, tau: QuadElement) -> QuadLattice:
        """The lattice Z + tau*Z."""
        one = QuadElement(tau.field_discriminant, Fraction(1), Fraction(0))
        return cls.from_basis(one, tau)

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
    d = f.discriminant()
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
    d = q.discriminant()
    fd = fundamental_data(d)
    tau2 = QuadElement(fd.field_discriminant, Fraction(q.b, 2), Fraction(fd.conductor, 2))
    return TauPair(tau_from_form(q), tau2, d)


def lattice_from_form(f: Form) -> QuadLattice:
    """The lattice Z + tau*Z for tau = (-b + sqrt(d))/(2a); class of the primitive part."""
    lat = QuadLattice.from_tau(tau_from_form(f))
    assert lat.canonical_form == f.primitive_part().reduced()
    return lat


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    # returns (g, u, v) with u*x + v*y = g = gcd(x, y)
    g, u, v = x, 1, 0
    g2, u2, v2 = y, 0, 1
    while g2:
        q = g // g2
        g, g2 = g2, g - q * g2
        u, u2 = u2, u - q * u2
        v, v2 = v2, v - q * v2
    if g < 0:
        g, u, v = -g, -u, -v
    return g, u, v


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
        g, s, t = _xgcd(p, u)
        tail.append((u * q - p * v) // g)
        p, q = g, s * q + t * v
    r = 0
    for v in tail:
        r = gcd(r, v)
    if p == 0 or r == 0:
        raise ValueError("generators do not span a rank-2 lattice")
    q %= r
    return (p, q), r


def _integer_coordinates(lat: QuadLattice) -> list[tuple[int, int]]:
    # basis coordinates scaled to integers (a homothety, so class-preserving)
    den = lcm(*(lcm(w.x.denominator, w.y.denominator) for w in lat.basis))
    return [(int(w.x * den), int(w.y * den)) for w in lat.basis]


def multiply(l1: QuadLattice, l2: QuadLattice) -> QuadLattice:
    """Homothety class of the module generated by the pairwise basis products."""
    if l1.field_discriminant != l2.field_discriminant:
        raise FieldMismatch("lattices live in different fields")
    D = l1.field_discriminant
    b1 = _integer_coordinates(l1)
    b2 = _integer_coordinates(l2)
    rows = [
        (x1 * x2 + y1 * y2 * D, x1 * y2 + y1 * x2)
        for x1, y1 in b1
        for x2, y2 in b2
    ]
    (p, q), r = _hnf_two_columns(rows)
    w1 = QuadElement(D, Fraction(p), Fraction(q))
    w2 = QuadElement(D, Fraction(0), Fraction(r))
    return QuadLattice.from_basis(w1, w2)


def homothety_equal(l1: QuadLattice, l2: QuadLattice) -> bool:
    if l1.field_discriminant != l2.field_discriminant:
        raise FieldMismatch("lattices live in different fields")
    return l1.canonical_form == l2.canonical_form and l1.conductor == l2.conductor


def shioda_mitani_check(l1: QuadLattice, l2: QuadLattice, q: Form) -> bool:
    """Decide whether E_{L1} x E_{L2} realizes the form q.

    Two conditions: the product lattice must be homothetic to Z + tau1*Z, and
    the conductor product must equal f*f' (conductors of q and of its
    primitive part).
    """
    d = q.discriminant()
    fd = fundamental_data(d)
    if not (l1.field_discriminant == l2.field_discriminant == fd.field_discriminant):
        raise FieldMismatch("lattices and form live in different fields")
    f_prime = fundamental_data(q.primitive_part().discriminant()).conductor
    if l1.conductor * l2.conductor != fd.conductor * f_prime:
        return False
    return homothety_equal(multiply(l1, l2), lattice_from_form(q))


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
