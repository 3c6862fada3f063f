"""Singular K3 surfaces through their transcendental intersection forms.

Everything a form Q = (a, b, c) determines about the surface carrying it:
the invariant package (content, conductors, CM field), the set of Galois
conjugates of the transcendental lattice (a genus, rescaled by the content),
divisibility and parity constraints on the degree of the field of definition
and where they meet, and explicit Weierstrass models for the associated
elliptic fibration and its Kummer base change.

The fibration coefficients are A = j_n(tau1) * j_n(tau2) and
B = (1 - j_n(tau1)) * (1 - j_n(tau2)) in the normalization j_n(i) = 1:

    pencil:  y^2 = x^3 - 3*A*B*t^4*x + A*B*t^5*(B*t^2 - 2*B*t + 1)
    Kummer:  y^2 = x^3 - 3*A*B*t^4*x + A*B*t^4*(B*t^4 - 2*B*t^2 + 1)

The pencil and its Kummer base change share one (A, B) per (form,
precision): inose_pencil and kummer_equation read it from one cache, bounded
like every other singk3 cache, so the two j values are evaluated once for both.
tau2 spans the order O_d, so j_n(tau2) depends on d alone: analyze and the
pencil read it from one cache per (d, precision), and every form of
discriminant d shares one value.  j_n(tau1) is evaluated per call.

When A*B = 0 these specialize via the substitute-one rule (the zero slot of
the twisting substitution is replaced by 1), which keeps the fibration
non-degenerate; whether A or B vanishes is decided exactly from d' alone
(A = 0 iff d' = -3, B = 0 iff d' = -4; d = -3 or -4 forces m = 1).
Otherwise A and B are exact only where the class group proves them rational
(Bilu, Luca, Pizarro-Madariaga 2016): h(d) = 1, or h(d) = 2 with Q primitive
and not principal.  Every other value is numeric, an mpmath complex number
(mpc) from singk3.modular.  k3 leaves mpmath to modular and combines these
values through modular's helpers, which name the precision on each operation.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import prod

from ._cache import cached
from .classgroup import (
    class_number,
    classes_per_genus,
    fundamental_data,
    genus_characters,
    genus_partition,
    is_two_torsion,
)
from .errors import InconsistentPair
from .forms import Form, _shown_int, check_discriminant, check_form, principal_form
from .lattices import TauPair, sm_factors
from .modular import DEFAULT_PRECISION_BITS, _check_j_range, _check_precision, _div_at, _mul_at
from .modular import _sub_at, class_polynomial, j_of_form


class SurfaceClass(
    namedtuple(
        "SurfaceClass",
        "form discriminant primitive_discriminant content conductor primitive_conductor"
        " field_discriminant",
    )
):
    """Invariant package (Q, d, d', m, f, f', d_K) of the surface with
    intersection form Q: m is the degree of primitivity, d = m^2 d' = f^2 d_K,
    d' = f'^2 d_K, and d_K is the discriminant of K = Q(sqrt(d))."""

    __slots__ = ()


def surface_class(q: Form) -> SurfaceClass:
    d = check_form(q).discriminant()
    _check_j_range(d)  # before any factorization: the surface layer needs j at d
    m = q.content()
    d_prime = d // (m * m)
    fd = fundamental_data(d_prime)  # d = m^2 f'^2 d_K, so f = m f'
    return SurfaceClass(q, d, d_prime, m, m * fd.conductor, fd.conductor, fd.field_discriminant)


class BoundsReport(
    namedtuple(
        "BoundsReport",
        "surface classes_per_genus class_number_upper parity_forced"
        " exact_minimal_field j_tau1_normalized j_tau2_normalized",
    )
):
    """Constraints on the degree of the field of definition.

    classes_per_genus divides the degree over the CM field; that degree in
    turn divides class_number_upper (the explicit model lives inside the ring
    class field).  parity_forced means the degree over Q is even.  The exact
    minimal field is reported only where the bounds meet (lem_bounds_applies).
    The explicit model lives over Q(j(tau1), j(tau2)), inside K(j(tau2)); the
    two normalized j-values generate that field.
    """

    __slots__ = ()


def genus_of_transcendental_lattice(q: Form) -> frozenset[Form]:
    """Intersection forms in the genus of q: content-rescaled coset of the
    principal genus through the primitive part.  This is exactly the set of
    Galois-conjugate transcendental lattices.  For primitive q it is the
    cached coset of genus_partition, not a copy."""
    qp = check_form(q).primitive_part().reduced()
    m = q.content()
    coset = genus_partition(qp.discriminant()).coset_of(qp)
    return coset if m == 1 else frozenset(f.scaled(m) for f in coset)


def lem_bounds_applies(d: int, m: int) -> bool:
    """Whether the degree bounds meet for (d, m), giving the minimal field exactly.

    The lower bound n(d') = h(d')/g(d') meets the upper bound h(d), or, for
    even m, h(d/4) through the Kummer route.  Cl(d) maps onto Cl(d'), so
    h(d) >= h(d') >= n(d'): they meet iff Cl(d') is one genus and the order of
    conductor m (or m/2) over O_d' keeps h(d').  By the class number formula
    (Cox, Primes of the Form x^2 + ny^2, Thm. 7.24) conductor k keeps it only
    for k = 1, k = 2 with d' = 1 (mod 8) or d' in {-3, -4}, and k = 3 with
    d' = -3.  When 8 | d', a 2-adic character is assigned, so Cl(d') is one
    genus only for d' in {-8, -16}, where -d' has no odd prime.  So the answer
    takes at most one factorization of d', and no class group.
    """
    check_discriminant(d)
    if m < 1 or d % (m * m) != 0:
        raise InconsistentPair(
            f"m={_shown_int(m)} is not a degree of primitivity for d={_shown_int(d)}"
        )
    d_prime = d // (m * m)
    if d_prime % 4 not in (0, 1):
        raise InconsistentPair(f"d/m^2 = {_shown_int(d_prime)} is not a discriminant")
    keeps_h = m <= 2 or (m == 4 and (d_prime % 8 == 1 or d_prime in (-3, -4)))
    keeps_h = keeps_h or (m in (3, 6) and d_prime == -3)
    if d_prime % 8 == 0:
        return keeps_h and d_prime in (-8, -16)
    return keeps_h and len(genus_characters(principal_form(d_prime))) == 1


def kummer_reduction(q: Form) -> tuple[Form, TauPair] | None:
    """If q is 2-divisible, the half form and CM points (tau1, tau2/2) whose
    elliptic product has Kummer surface realizing q; None otherwise."""
    if check_form(q).content() % 2:
        return None
    half = Form(q.a // 2, q.b // 2, q.c // 2)
    pair = sm_factors(q)
    return half, TauPair(pair.tau1, pair.tau2 / 2, half.discriminant())


def analyze(q: Form, precision_bits: int = DEFAULT_PRECISION_BITS) -> BoundsReport:
    """Bounds report for the surface with intersection form q.

    precision_bits above _MAX_PRECISION_BITS raises InputTooLarge, and one
    that is not an integer >= 1 raises ValueError.
    """
    _check_precision(precision_bits)
    sc = surface_class(q)
    qp = q.primitive_part().reduced()
    n = classes_per_genus(sc.primitive_discriminant)
    h_upper = class_number(sc.discriminant)
    parity_forced = not is_two_torsion(qp)
    exact = None
    if lem_bounds_applies(sc.discriminant, sc.content):
        principal = qp == principal_form(sc.primitive_discriminant)
        exact = "Q(j(tau1))" if principal else "K(j(tau1))"
    j1, j2 = _normalized_j_pair(q, precision_bits)
    return BoundsReport(sc, n, h_upper, parity_forced, exact, j1, j2)


def _normalized_j(f: Form, precision_bits: int):
    # j_n = j/1728, so j_n(i) = 1
    return _div_at(j_of_form(f, precision_bits), 1728, precision_bits)


@cached
def _principal_j(d: int, precision_bits: int):
    # j_n(tau2): tau2 spans O_d, whose class is the principal form of d
    return _normalized_j(principal_form(d), precision_bits)


def _normalized_j_pair(q: Form, precision_bits: int) -> tuple:
    # j_n(tau1), j_n(tau2)
    j1 = _normalized_j(q.primitive_part(), precision_bits)
    return j1, _principal_j(q.discriminant(), precision_bits)


def _is_zero(v) -> bool:
    return isinstance(v, Fraction) and v == 0


class WeierstrassModel(
    namedtuple("WeierstrassModel", "kind A B degenerate_rule_applied precision_bits")
):
    """y^2 = x^3 + a4(t)*x + a6(t) in the layout of the pencil equations,
    where kind is "inose_pencil" or "kummer"."""

    __slots__ = ()

    def _mul(self, u, v):
        # exact on rationals; otherwise rounded at the model's precision
        if isinstance(u, (int, Fraction)) and isinstance(v, (int, Fraction)):
            return Fraction(u) * Fraction(v)
        return _mul_at(u, v, self.precision_bits)

    def _lead(self) -> tuple:
        # A*B and its symbol, 1 put for a vanishing A or B (the substitute-one rule)
        if _is_zero(self.B):
            return self.A, "A"
        if _is_zero(self.A):
            return self.B, "B"
        return self._mul(self.A, self.B), "A*B"

    def a4_polynomial(self) -> dict:
        return {} if _is_zero(self.A) else {4: self._mul(-3, self._lead()[0])}

    def a6_polynomial(self) -> dict:
        top, mid, low = (7, 6, 5) if self.kind == "inose_pencil" else (8, 6, 4)
        lead = self._lead()[0]
        if _is_zero(self.B):
            return {top: lead, low: lead}
        lead_b = self._mul(lead, self.B)
        return {top: lead_b, mid: self._mul(-2, lead_b), low: lead}

    def equation(self) -> str:
        """Human-readable equation in the factored layout; exact rational
        coefficients are substituted, otherwise A and B stay symbolic."""
        inose = self.kind == "inose_pencil"
        t_out, u2, u1 = ("t^5", "t^2", "t") if inose else ("t^4", "t^4", "t^2")
        A, B = self.A, self.B
        lead, symbol = self._lead()
        if isinstance(A, Fraction) and isinstance(B, Fraction):
            f3, fo, fb, f2b = _fmt(3 * lead), _fmt(lead), _fmt(B), _fmt(2 * B)
        else:
            f3, fo, fb, f2b = f"3*{symbol}*", f"{symbol}*", "B*", "2*B*"
        x_term = "" if _is_zero(A) else f" - {f3}t^4*x"
        inner = f"({u2} + 1)" if _is_zero(B) else f"({fb}{u2} - {f2b}{u1} + 1)"
        return f"y^2 = x^3{x_term} + {fo}{t_out}*{inner}"


def _fmt(v: Fraction) -> str:
    # multiplicative factor rendering: elide 1, parenthesize fractions/negatives
    if v == 1:
        return ""
    if v.denominator == 1 and v.numerator > 0:
        return f"{v.numerator}*"
    return f"({v})*"


@cached
def _pencil_values(q: Form, precision_bits: int):
    sc = surface_class(q)
    a_zero = sc.primitive_discriminant == -3
    b_zero = sc.primitive_discriminant == -4
    values = _rational_pencil_values(sc)
    if values is None:
        j1, j2 = _normalized_j_pair(q, precision_bits)
        one_minus = (_sub_at(1, j, precision_bits) for j in (j1, j2))
        values = _mul_at(j1, j2, precision_bits), _mul_at(*one_minus, precision_bits)
    A, B = values
    return (Fraction(0) if a_zero else A), (Fraction(0) if b_zero else B), a_zero or b_zero


def _rational_pencil_values(sc: SurfaceClass) -> tuple[Fraction, Fraction] | None:
    # (x - j(tau1)) (x - j(tau2)) is H_d' H_d if h(d) = 1 (Cl(d) maps onto
    # Cl(d'), so h(d') = 1) and H_d if h(d) = 2 and Q is primitive and not
    # principal; 1728^2 A and 1728^2 B are its values at 0 and 1728.
    d = sc.discriminant
    if class_number(d) == 1:
        polys = [class_polynomial(sc.primitive_discriminant), class_polynomial(d)]
    elif class_number(d) == 2 and sc.content == 1 and sc.form.reduced() != principal_form(d):
        polys = [class_polynomial(d)]
    else:
        return None
    return tuple(Fraction(prod(H.evaluate(x) for H in polys), 1728**2) for x in (0, 1728))


def inose_pencil(q: Form, precision_bits: int = DEFAULT_PRECISION_BITS) -> WeierstrassModel:
    """The elliptic fibration carrying the surface with intersection form q.

    precision_bits above _MAX_PRECISION_BITS raises InputTooLarge, and one
    that is not an integer >= 1 raises ValueError.
    """
    _check_precision(precision_bits)
    A, B, degenerate = _pencil_values(check_form(q), precision_bits)
    return WeierstrassModel("inose_pencil", A, B, degenerate, precision_bits)


def kummer_equation(q: Form, precision_bits: int = DEFAULT_PRECISION_BITS) -> WeierstrassModel:
    """The quadratic base change t -> t^2 of the pencil: the Kummer fibration.

    precision_bits above _MAX_PRECISION_BITS raises InputTooLarge, and one
    that is not an integer >= 1 raises ValueError.
    """
    _check_precision(precision_bits)
    A, B, degenerate = _pencil_values(check_form(q), precision_bits)
    return WeierstrassModel("kummer", A, B, degenerate, precision_bits)
