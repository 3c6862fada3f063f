"""Even positive-definite binary quadratic forms.

A form (a, b, c) stands for a*x^2 + b*x*y + c*y^2, equivalently for the even
Gram matrix ((2a, b), (b, 2c)).  All arithmetic is exact over Python ints;
forms are immutable and safe to share.

Form is a subclass of tuple whose constructor validates (a, b, c), so hashing
and equality run in C and a Form pickles as its three coefficients.  As a
tuple it compares equal to the plain tuple (a, b, c) and orders like one;
sorting Cl(d) for display still uses form_sort_key.

Reduction is classical Gauss reduction (Cohen, Alg. 5.4.2); composition is
Dirichlet composition of primitive forms (Cohen, Alg. 5.4.7) followed by
reduction.  The discriminants handled here are desk-scale, so no NUCOMP.
compose checks its inputs and runs _compose_triples, the unchecked core on
plain (a, b, c) triples, which the class-group decomposition calls directly
on forms it already knows to be reduced, primitive and of one discriminant.

All text input, on the command line and in Form.from_text and from_json,
becomes an int through one reader, integer, and the public functions that
read a form's methods refuse anything but a Form through one check,
check_form.  An error message quotes a bad text through _shown, which keeps
the line short however long the text.
"""

from __future__ import annotations

import re
import sys
from math import gcd
from operator import index, itemgetter

from .errors import (
    ImprimitiveInput,
    InvalidDiscriminant,
    MismatchedDiscriminant,
    NotNegativeDiscriminant,
    NotPositiveDefinite,
    ParseError,
)

# what int() reads, minus non-ASCII digits and whitespace and the _ separator
_INTEGER_RE = re.compile(r"\s*[+-]?([0-9]+)\s*", re.ASCII)
# int()'s default limit on the digits it reads, kept on every interpreter
_MAX_DIGITS = 4300
# the characters of a bad text that an error message quotes
_SHOWN_CHARS = 40


def _shown(text: str) -> str:
    # text quoted for a one-line error message; a long one only by its start
    if len(text) <= _SHOWN_CHARS:
        return repr(text)
    return f"{text[:_SHOWN_CHARS]!r}... ({len(text)} characters)"


def integer(text: str) -> int:
    """The int that text spells: ASCII digits, at most 4300 of them, an
    optional sign, and ASCII whitespace around them; anything else raises
    ParseError."""
    match = _INTEGER_RE.fullmatch(text)
    if match is None:
        raise ParseError(f"expected a decimal integer, got {_shown(text)}")
    digits = len(match[1])
    if digits > _MAX_DIGITS:
        raise ParseError(f"integers are limited to {_MAX_DIGITS} digits, got {digits}")
    try:
        return int(text)
    except ValueError:  # a lower limit set for this interpreter
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"integers are limited to {limit} digits, got {digits}") from None


def check_discriminant(d: int) -> int:
    """Validate d < 0 and d = 0, 1 (mod 4); returns d."""
    if d >= 0:
        raise NotNegativeDiscriminant(f"discriminant must be negative, got {d}")
    if d % 4 not in (0, 1):
        raise InvalidDiscriminant(f"{d} is not 0 or 1 mod 4")
    return d


def check_form(f: object) -> Form:
    """Validate that f is a Form; returns f.

    A plain tuple (a, b, c) hashes and compares equal to its Form, so a cache
    behind a public function would otherwise answer it with a Form's value.
    """
    if not isinstance(f, Form):
        raise TypeError(f"expected a Form, got {type(f).__name__}")
    return f


class Form(tuple):
    """Positive definite integral binary quadratic form a*x^2 + b*x*y + c*y^2.

    A Form is the tuple (a, b, c) of ints (a float raises TypeError), validated
    when built: it unpacks, hashes, compares equal to (a, b, c) and orders as
    that tuple.  f * g and f ** k are composition and powers, f and g Forms;
    tuple + and integer repetition stay tuple operations.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> Form:
        a, b, c = index(a), index(b), index(c)
        if a <= 0 or c <= 0:
            raise NotPositiveDefinite(f"({a},{b},{c}) is not positive definite")
        if b * b - 4 * a * c >= 0:
            raise NotNegativeDiscriminant(f"({a},{b},{c}) has non-negative discriminant")
        return tuple.__new__(cls, (a, b, c))

    a = property(itemgetter(0))
    b = property(itemgetter(1))
    c = property(itemgetter(2))

    def __getnewargs__(self) -> tuple[int, int, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Form(a={self[0]!r}, b={self[1]!r}, c={self[2]!r})"

    def __str__(self) -> str:
        a, b, c = self
        return f"{a},{b},{c}"

    def discriminant(self) -> int:
        a, b, c = self
        return b * b - 4 * a * c

    def content(self) -> int:
        """Degree of primitivity: the largest m with (1/m)*form still even integral."""
        return gcd(*self)

    def is_primitive(self) -> bool:
        return self.content() == 1

    def primitive_part(self) -> Form:
        m = self.content()
        if m == 1:
            return self
        a, b, c = self
        return Form(a // m, b // m, c // m)

    def scaled(self, m: int) -> Form:
        """The form m*(a, b, c); inverse of primitive_part up to content."""
        if m <= 0:
            raise ValueError("scale factor must be positive")
        a, b, c = self
        return Form(m * a, m * b, m * c)

    def is_reduced(self) -> bool:
        """Gauss-reduced: -a < b <= a <= c, with b >= 0 if a == c."""
        a, b, c = self
        return -a < b <= a <= c and (a != c or b >= 0)

    def reduced(self) -> Form:
        """The unique reduced representative of the SL2(Z)-class."""
        return Form(*_reduced(*self))

    def inverse(self) -> Form:
        """Reduced inverse class; corresponds to b -> -b."""
        if not self.is_primitive():
            raise ImprimitiveInput("inverse requires a primitive form")
        return Form(self.a, -self.b, self.c).reduced()

    def transformed(self, p: int, q: int, r: int, s: int) -> Form:
        """Apply the GL2(Z) substitution (x, y) -> (p*x + q*y, r*x + s*y)."""
        if p * s - q * r not in (1, -1):
            raise ValueError("matrix must be unimodular")
        a, b, c = self
        return Form(
            a * p * p + b * p * r + c * r * r,
            2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
            a * q * q + b * q * s + c * s * s,
        )

    def __mul__(self, other):
        if isinstance(other, Form):
            return compose(self, other)
        return tuple.__mul__(self, other)

    def __pow__(self, k: int) -> Form:
        return power(self, k)

    @classmethod
    def from_text(cls, text: str) -> Form:
        """Parse the canonical "a,b,c" serialization, each coefficient as integer reads it."""
        coeffs = text.split(",")
        if len(coeffs) != 3:
            raise ParseError(f"expected 'a,b,c' integers, got {_shown(text)}")
        return cls(*map(integer, coeffs))

    def as_json(self) -> dict[str, str]:
        # decimal strings so that consumers with 64-bit ints survive
        a, b, c = self
        return {"a": str(a), "b": str(b), "c": str(c)}

    @classmethod
    def from_json(cls, obj: dict) -> Form:
        """Read as_json's object; a coefficient may also be a JSON integer, not a boolean."""
        try:
            coeffs = obj["a"], obj["b"], obj["c"]
            if not all(type(v) in (str, int) for v in coeffs):
                raise TypeError("coefficients are decimal strings or integers")
            return cls(*(integer(v) if type(v) is str else v for v in coeffs))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad form object {obj!r}") from exc


def _reduced(a: int, b: int, c: int) -> tuple[int, int, int]:
    # Gauss reduction of a positive definite (a, b, c), on plain integers
    r = (a - b) // (2 * a)  # normalize b into (-a, a]
    b, c = b + 2 * r * a, a * r * r + b * r + c
    while not (-a < b <= a <= c and (a != c or b >= 0)):
        s = (c + b) // (2 * c)
        a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
    return a, b, c


def form_sort_key(f: Form) -> tuple[int, int, bool, int]:
    """Deterministic display order: identity first, +b before -b."""
    a, b, c = f
    return (a, abs(b), b < 0, c)


def _form_str(obj: dict) -> str:
    # as_json's object as the command line prints a form, "(a,b,c)"
    return f"({obj['a']},{obj['b']},{obj['c']})"


def principal_form(d: int) -> Form:
    """The reduced principal form: identity of Cl(d)."""
    check_discriminant(d)
    if d % 4 == 0:
        return Form(1, 0, -d // 4)
    return Form(1, 1, (1 - d) // 4)


def _compose_triples(f1: tuple[int, int, int], f2: tuple[int, int, int]) -> tuple[int, int, int]:
    # Cohen, Alg. 5.4.7 on primitive triples of one discriminant, unchecked;
    # the reduced triple.  The Bezout coefficients come from modular inverses.
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    if a1 > a2:
        a1, b1, c1, a2, b2, c2 = a2, b2, c2, a1, b1, c1
    s = (b1 + b2) // 2
    n = b2 - s
    d = gcd(a1, a2)
    y1 = pow(a2 // d, -1, a1 // d)  # y1*a2 = d (mod a1)
    d1 = gcd(s, d)
    x2 = pow(s // d1, -1, d // d1)  # x2*s - y2*d = d1
    y2 = (x2 * s - d1) // d
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    return _reduced(v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1)


def compose(f1: Form, f2: Form) -> Form:
    """Dirichlet composition of primitive forms of equal discriminant, reduced.

    Cohen, Alg. 5.4.7.  Inputs need not be reduced; the output class does not
    depend on the chosen representatives.
    """
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    disc1, disc2 = b1 * b1 - 4 * a1 * c1, b2 * b2 - 4 * a2 * c2
    if disc1 != disc2:
        raise MismatchedDiscriminant(f"discriminants differ: {disc1} vs {disc2}")
    if gcd(a1, b1, c1) != 1 or gcd(a2, b2, c2) != 1:
        raise ImprimitiveInput("composition requires primitive forms")
    return Form(*_compose_triples(f1, f2))


def power(f: Form, k: int) -> Form:
    """k-fold composition; k = 0 gives the principal form, k < 0 uses inverses."""
    if not check_form(f).is_primitive():
        raise ImprimitiveInput("power requires a primitive form")
    if k < 0:
        f, k = f.inverse(), -k
    result = principal_form(f.discriminant())
    base = f.reduced()
    while k:
        if k & 1:
            result = compose(result, base)
        k >>= 1
        if k:
            base = compose(base, base)
    return result
