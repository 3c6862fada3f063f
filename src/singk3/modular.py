"""High-precision j-invariants and ring class polynomials.

j is evaluated from the Eisenstein q-expansions E4, E6 as
j = 1728 * E4^3 / (E4^3 - E6^2), truncated with an explicit tail bound after
the form has been reduced, which puts tau(F) in the fundamental domain.  The
value is the classical one, j(i) = 1728, integral on CM points of class
number one; the surface-equation layer divides by 1728 itself.

Class polynomials are assembled in one pass over Cl(d).  j is evaluated once
for each pair of inverse classes (a, +-b, c), whose values are complex
conjugates, and the product is taken over real linear and quadratic factors.
A coefficient is rounded to an integer only when an explicit bound on its
error proves the rounding (the lemma and certificate above
_approximate_coefficients);
otherwise the working precision is doubled and the pass repeated.

The values returned are immutable and safe to share between threads, but the
numeric functions here and in k3 set mpmath's process-wide working precision
(mp.workprec), so they must not run in two threads of one process at once.
Separate processes are fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, exp, log, log2, pi, sqrt

from mpmath import mp, mpc, mpf

from .classgroup import class_group, is_two_torsion
from .errors import InputTooLarge, PrecisionExhausted
from .forms import Form

DEFAULT_PRECISION_BITS = 428  # ~128 decimal digits
_GUARD_BITS = 32
# class_polynomial refuses larger |d|; the slowest d below it takes about a
# minute (see CHANGES.md for the measurement)
_MAX_CLASSPOLY_ABS_D = 25000


@dataclass(frozen=True)
class ClassPolynomial:
    """Monic integer polynomial with roots j(tau_F), F in Cl(d).

    coefficients are listed constant term first and include the leading 1.
    class_polynomial returns one only after certifying it, and raises otherwise:
    the accepted pass ran at precision_bits after `rounds` passes, and every
    coefficient's error before rounding was below 2^error_bound_log2.
    """

    discriminant: int
    coefficients: tuple[int, ...]
    precision_bits: int
    rounds: int
    error_bound_log2: int

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, z):
        # H(z), exact when z is an integer
        acc = 0
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
    # smallest N (up to steps of 4) with (N+6)^7 * |q|^(N+1) <= 2^-wp, which
    # puts both Eisenstein tails below 2^-wp (part 1 of the lemma below)
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
    precision_bits + _GUARD_BITS bits.  |d| > _MAX_J_ABS_D raises InputTooLarge.
    """
    r = f.primitive_part().reduced()
    _check_j_range(r.discriminant())
    with mp.workprec(precision_bits + _GUARD_BITS):
        tau = mp.mpc(mpf(-r.b), mp.sqrt(-r.discriminant())) / (2 * r.a)
        return +_j_in_fundamental_domain(tau)


def _height_precision_bits(d: int) -> int:
    # log2 of prod (1 + |j_F|) <= prod (2080 + e^x_F), x_F = pi sqrt|d| / a_F
    # (|j| <= 1/|q| + 2079, Enge 2009), which bounds every coefficient, plus
    # log2 h and guard bits
    forms = class_group(d).elements
    xs = [pi * sqrt(-d) / f.a for f in forms]
    log2_height = sum(x / log(2) + log2(1 + 2080 * exp(-x)) for x in xs)
    return ceil(log2_height + log2(len(forms))) + 16


_MAX_J_ABS_D = 10**6  # the lemma below is proven up to this |d|; j_of_form refuses more


def _check_j_range(d: int) -> None:
    if -d > _MAX_J_ABS_D:  # a bit length, since str() of a huge d fails
        raise InputTooLarge(f"j is proven only for |d| <= 10^6, got a {(-d).bit_length()}-bit |d|")


# Lemma (accuracy of j_of_form).  Let F be reduced with |d| <= 10^6, j = j(tau_F)
# and J = j_of_form(F, wp).  Then |J - j| <= delta (1 + |j|), delta = 2^-wp.
#
# Proof.  tau and J are rounded to P = wp + _GUARD_BITS bits, the series is
# summed at p = P + extra >= P + log2(1/r) + 15 bits, and r = |q| <=
# e^(-pi sqrt 3) < 0.00434 since tau lies in the fundamental domain.  There
# |E4| <= 2.09, |E6| <= 3.51, |E4^3 - E6^2| = 1728 |q| prod |1 - q^n|^24 >=
# 1555 r and |j - 1/q| <= 2079 (Enge 2009).
# 1. Series tail.  sigma_k(n) <= zeta(k) n^k, and the terms of sum_{n>N} n^5 r^n
#    shrink by at least ((N+2)/(N+1))^5 r <= 32 r < 0.14, so the E6 tail
#    504 sum_{n>N} sigma_5(n) r^n is below 607 (N+1)^5 r^(N+1) and the E4 tail
#    below 299 (N+1)^3 r^(N+1).  (N+6)^7 >= 1648 (N+1)^5 for every N >= 0, so
#    the N of _series_terms, with (N+6)^7 r^(N+1) <= 2^-p, leaves both tails
#    below 2^-p.
# 2. Horner rounding.  Each of the N steps is one complex product and one
#    addition; mpmath rounds the real and imaginary parts of each exact result
#    to nearest, a relative error <= 2^-p.  All coefficients are positive, so
#    E4 and E6 carry rounding errors below (2N + 4) 2^-p times 2.09 and 3.51;
#    with the tails both are within eps = (8N + 16) 2^-p.
# 3. Cancellation.  E4^3 and E4^3 - E6^2 are then within 16 eps and 24 eps,
#    their own roundings included, and dividing by |E4^3 - E6^2| >= 1555 r
#    moves j by at most 18 eps (1 + |j|) / r.  The extra bits make
#    2^-p / r <= 2^-(P+15), so this is below (144N + 288) 2^-(P+15) (1 + |j|),
#    which for N < 2^20 (p below 8 million bits) is 2^(12.2 - P) (1 + |j|).
# 4. Rounding tau.  |tau_hat - tau| <= 2^(1-P) |tau|, and q is computed to a few
#    units of 2^-p, which moves tau far less.  |dj/dtau| = 2 pi |E4^2 E6| /
#    |q prod (1 - q^n)^24| <= 110 / r.  If Im tau < 2, then |tau| < 2.1 and
#    1/r <= |j| + 2079, so j moves by at most 2^(19.9 - P) (1 + |j|).  If
#    Im tau >= 2, then 1/r <= 1.008 |j| and |tau| <= (sqrt|d| + 1)/2 <= 501,
#    so j moves by at most 2^(16.8 - P) |j|.
# 5. Rounding J to P bits adds at most 2^-P |J|.
# The sum is below 2^(20 - P) (1 + |j|) = 2^(-12 - wp) (1 + |j|).  QED, with 12
# bits to spare.
#
# Certificate.  The pass multiplies x - Re J_F for each ambiguous F (b = 0,
# a = b or a = c; j_F is real) and x^2 - 2 Re J_F x + |J_F|^2 for each pair
# F = (a, b, c), (a, -b, c) with 0 < b < a < c, in wp-bit arithmetic, u = 2^-wp.
# Every computed coefficient c_k' of prod (x - j_F) then satisfies
#   |c_k' - c_k| <= E = ((1 + delta)^h (1 + u)^(3h) - 1) prod (1 + |j_F|).
# Proof.  Replacing the roots by the computed ones (Re J_F is no farther from
# a real j_F than J_F; a pair keeps J_F and its conjugate) moves each
# coefficient, an elementary symmetric function of the roots, by at most
# prod (1 + |j_F| + delta (1 + |j_F|)) - prod (1 + |j_F|), by the lemma.  In
# the product, each monomial of a coefficient passes at most 3 roundings per
# linear factor (-Re J, one product, one addition) and 5 per quadratic one
# (|J|^2 takes 2 on any monomial, -2 Re J 1, one product, two additions), so
# at most 3h; the monomials' absolute values sum to at most
# prod (1 + |J_F|) <= (1 + delta)^h prod (1 + |j_F|).  Adding both parts
# gives E.
# E is evaluated as 2^e, e = ceil(log2(5h) + sum log2(1 + |J_F|)) - wp:
# prod (1 + |j_F|) <= prod (1 + |J_F|) / (1 - delta)^h and, for h u <= 2^-20,
# ((1 + delta)^h (1 + u)^(3h) - 1) / (1 - delta)^h <= 4.01 h u; the rest of
# the factor 5 covers the float rounding of the sum.  Coefficient k is
# accepted only if |c_k' - nint(c_k')| + 2^e < 1/2, compared exactly, which
# proves nint(c_k') = c_k.


def _approximate_coefficients(d: int, wp: int) -> tuple[list[mpf], int]:
    # prod (x - j_F) over Cl(d) at wp bits, constant term first, and e with
    # every coefficient within 2^e of the true integer (certificate above)
    forms = class_group(d).elements
    roots = 0
    log2_majorant = 0.0
    with mp.workprec(wp):
        coeffs = [mpf(1)]
        for f in forms:
            if f.b < 0:
                continue  # j of (a, -b, c) is the conjugate of j of (a, b, c)
            j = j_of_form(f, wp)
            re, im = mp.re(j), mp.im(j)
            if is_two_torsion(f):
                factor = (-re,)  # ambiguous form: j is real
            else:
                factor = (re * re + im * im, -2 * re)  # roots j and its conjugate
            roots += len(factor)
            log2_majorant += len(factor) * float(mp.log(1 + abs(j), 2))
            coeffs = _times_monic(coeffs, factor)
    h = len(forms)
    assert roots == h  # h = #real + 2 #pairs
    return coeffs, ceil(log2(5 * h) + log2_majorant) - wp


def _times_monic(p: list[mpf], low: tuple) -> list[mpf]:
    # p * (x^k + low[k-1] x^(k-1) + ... + low[0]), coefficients constant term first
    k = len(low)
    out = [mpf(0)] * k + p
    for i, a in enumerate(p):
        for t, b in enumerate(low):
            out[i + t] += a * b
    return out


def _integer_coefficients(coeffs: list[mpf], err_log2: int) -> tuple[int, ...] | None:
    # nint of every coefficient, or None unless each rounding is proven
    bound = Fraction(2) ** err_log2
    out = []
    for c in coeffs:
        x = _mpf_to_fraction(c)
        n = round(x)
        if abs(x - n) + bound >= Fraction(1, 2):
            return None
        out.append(n)
    return tuple(out)


def class_polynomial(d: int) -> ClassPolynomial:
    """Monic integer polynomial whose roots are the j values over Cl(d).

    One pass at a precision taken from the a-priori height bound evaluates j
    once per pair of inverse classes and multiplies real factors; each
    coefficient is rounded only under a proven error bound (the certificate
    above _approximate_coefficients), else the precision doubles, for at most
    5 passes.  |d| above _MAX_CLASSPOLY_ABS_D raises InputTooLarge.
    """
    if abs(d) > _MAX_CLASSPOLY_ABS_D:
        raise InputTooLarge(
            f"class polynomials are limited to |d| <= {_MAX_CLASSPOLY_ABS_D}, got d = {d}"
        )
    wp = _height_precision_bits(d)
    for rounds in range(1, 6):
        approx, err_log2 = _approximate_coefficients(d, wp)
        coeffs = _integer_coefficients(approx, err_log2)
        if coeffs is not None:
            return ClassPolynomial(d, coeffs, wp, rounds, err_log2)
        wp *= 2
    raise PrecisionExhausted(f"class polynomial for d={d} did not stabilize")


def _mpf_to_fraction(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    value = man * Fraction(2) ** exp
    return -value if sign else value

