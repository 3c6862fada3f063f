"""High-precision j-invariants and ring class polynomials.

j is evaluated from the Eisenstein q-expansions E4, E6 as
j = 1728 * E4^3 / (E4^3 - E6^2), truncated with an explicit tail bound after
the form has been reduced, which puts tau(F) in the fundamental domain.  The
value is the classical one, j(i) = 1728, integral on CM points of class
number one; the surface-equation layer divides by 1728 itself.

Class polynomials are assembled as products over Cl(d) and rounded to
integers only when the rounding margin holds at two successive working
precisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log2

from mpmath import mp, mpc, mpf

from .classgroup import class_group
from .errors import PrecisionExhausted
from .forms import Form

DEFAULT_PRECISION_BITS = 428  # ~128 decimal digits
_GUARD_BITS = 32


@dataclass(frozen=True)
class ClassPolynomial:
    """Monic integer polynomial with roots j(tau_F), F in Cl(d).

    coefficients are listed constant term first and include the leading 1.
    class_polynomial returns one only after certifying it, and raises otherwise.
    """

    discriminant: int
    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, z):
        acc = mp.mpc(0)
        for coeff in reversed(self.coefficients):
            acc = acc * z + coeff
        return acc

    def as_json(self) -> list[str]:
        return [str(c) for c in self.coefficients]


def _sigma_table(k: int, n: int) -> list[int]:
    # sigma_k(1..n) by sieving divisors
    table = [0] * (n + 1)
    for d in range(1, n + 1):
        dk = d**k
        for mult in range(d, n + 1, d):
            table[mult] += dk
    return table


def _series_terms(log2_q: float, wp: int) -> int:
    # smallest N (up to slack) with (N+6)^7 * |q|^(N+1) below 2^-wp;
    # (N+6)^7 generously dominates the sigma_5 tail growth
    n = 8
    while 7 * log2(n + 6) + (n + 1) * log2_q > -wp:
        n += 4
    return n


def _j_in_fundamental_domain(tau) -> mpc:
    # q-series evaluation; Im(tau) >= sqrt(3)/2.  j grows like 1/q, so the
    # working precision is raised by log2(1/|q|) bits to keep E4^3 - E6^2
    # resolvable; the caller rounds back down.
    extra = max(0, int(2 * mp.pi * mp.im(tau) / mp.ln(2)) + 16)
    with mp.workprec(mp.prec + extra):
        q = mp.expjpi(2 * tau)
        n_terms = _series_terms(float(mp.log(abs(q), 2)), mp.prec)
        s3 = _sigma_table(3, n_terms)
        s5 = _sigma_table(5, n_terms)
        acc4 = mp.mpc(0)
        acc6 = mp.mpc(0)
        for n in range(n_terms, 0, -1):  # Horner, small terms first
            acc4 = acc4 * q + s3[n]
            acc6 = acc6 * q + s5[n]
        e4 = 1 + 240 * q * acc4
        e6 = 1 - 504 * q * acc6
        num = e4**3
        return 1728 * num / (num - e6**2)


def j_of_form(f: Form, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpc:
    """j(tau(F)), tau(F) = (-b + sqrt(d))/(2a), with j(i) = 1728.

    The form is reduced exactly first; the value is rounded to
    precision_bits + _GUARD_BITS bits.
    """
    r = f.primitive_part().reduced()
    with mp.workprec(precision_bits + _GUARD_BITS):
        tau = mp.mpc(mpf(-r.b), mp.sqrt(-r.discriminant())) / (2 * r.a)
        return +_j_in_fundamental_domain(tau)


def _height_precision_bits(d: int) -> int:
    # pi*sqrt(|d|)*sum(1/a) bits for the coefficient height, plus guard
    inv_a = sum(Fraction(1, f.a) for f in class_group(d).elements)
    return ceil(3.1415926536 * (-d) ** 0.5 * float(inv_a) / 0.6931471806) + 64


def _integer_coefficients(d: int, wp: int) -> tuple[int, ...] | None:
    # expand prod (x - j_F) at working precision wp; None if margin violated
    with mp.workprec(wp):
        roots = [j_of_form(f, wp) for f in class_group(d).elements]
        coeffs = [mp.mpc(1)]
        for r in roots:
            nxt = [mp.mpc(0)] * (len(coeffs) + 1)
            for i, ci in enumerate(coeffs):
                nxt[i] -= ci * r
                nxt[i + 1] += ci
            coeffs = nxt
        out = []
        for c in coeffs:
            n = mp.nint(mp.re(c))
            if abs(mp.im(c)) > mp.mpf("0.01") or abs(mp.re(c) - n) > mp.mpf("0.01"):
                return None
            out.append(int(n))
    return tuple(out)  # ascending: constant term first, leading 1 last


def class_polynomial(d: int) -> ClassPolynomial:
    """Monic integer polynomial whose roots are the j values over Cl(d).

    The result is certified by recomputation: coefficients must round within
    a 0.01 margin and agree at two successive (doubled) precisions.
    """
    wp = _height_precision_bits(d)
    prev: tuple[int, ...] | None = None
    for _ in range(5):
        cur = _integer_coefficients(d, wp)
        if cur is not None and prev is not None and cur == prev:
            return ClassPolynomial(d, cur)
        prev = cur
        wp *= 2
    raise PrecisionExhausted(f"class polynomial for d={d} did not stabilize")


def _mpf_to_fraction(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    value = Fraction(man, 1)
    value = value * 2**exp if exp >= 0 else Fraction(man, 2**-exp)
    return -value if sign else value


def recognize_rational(z, max_denominator: int = 2**64, precision_bits: int | None = None):
    """Nearest rational p/q with q <= max_denominator, if z is that close.

    Returns a Fraction when |z - p/q| < 2^(-precision/2) and the imaginary
    part is below the same tolerance; otherwise None.
    """
    prec = precision_bits if precision_bits is not None else mp.prec
    with mp.workprec(max(prec, 53)):
        w = mp.mpmathify(z)
        tol = mp.mpf(2) ** -(prec // 2)
        if abs(mp.im(w)) > tol:
            return None
        x = mp.re(w)
        cand = _mpf_to_fraction(x).limit_denominator(max_denominator)
        if abs(x - mp.mpf(cand.numerator) / cand.denominator) < tol:
            return cand
    return None
