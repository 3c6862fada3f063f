"""High-precision j-invariants and ring class polynomials.

j is evaluated on two routes.  j_of_form, which the surface-equation layer
uses, sums the Eisenstein q-expansions E4, E6 in mpmath as
j = 1728 * E4^3 / (E4^3 - E6^2), truncated with an explicit tail bound after
the form has been reduced, which puts tau(F) in the fundamental domain.
Class polynomials use a fixed-point route on Python integers: q from a Machin
pi and Taylor series, then the Weber f2 quotient of Yui and Zagier (Math. Comp.
66, 1997), x = q (E(q^2) / E(q))^24 with E(q) = prod (1 - q^n) summed as the
pentagonal series, and j = (256 x + 1)^3 / x, each with an explicit error
bound (the lemma above _fixed_j).  Both give the classical value, j(i) = 1728,
integral on CM points of class number one; the surface-equation layer divides
by 1728 itself.

Class polynomials are assembled in one pass over Cl(d).  j is evaluated once
for each pair of inverse classes (a, +-b, c), whose values are complex
conjugates, and the product is taken over real linear and quadratic factors
on the same fixed-point integers.  A coefficient is rounded to an integer only
when an explicit bound on its error proves the rounding (the certificate above
_approximate_coefficients), which one pass at the precision of an a-priori
height bound always meets; a pass that does not raises PrecisionExhausted.

This module is the one owner of how numeric values are represented.  mpmath
is imported here alone, inside the functions that compute, combine or print a
value, so importing singk3 loads it only when a value is computed.  The
surface layer in k3 and the command line reach it through the private helpers
below: arithmetic at a model's precision, with the guard bits added inside
(_mul_at, _sub_at, _div_at), the digit strings of a value (_digit_strings)
and decimal digits <-> bits (_digits_to_bits, _bits_to_digits).
DEFAULT_PRECISION_BITS is the bits of the command line's default digits.

The values returned are immutable and safe to share between threads.
class_polynomial works on integers alone and never touches mpmath, so it may
run in any thread.  j_of_form sets mpmath's process-wide working precision
(mp.workprec); the helpers name their precision on each operation and never
set it.  analyze, inose_pencil and kummer_equation call j_of_form, so no two
of these may run in two threads of one process at once.  Separate processes
are fine.
"""

from __future__ import annotations

from collections import namedtuple
from math import ceil, exp, isqrt, log, log2, pi, sqrt

from ._cache import cached
from .classgroup import is_two_torsion, reduced_primitive_forms
from .errors import InputTooLarge, PrecisionExhausted
from .forms import Form, _shown_int, check_form

# log2(10) as mpmath.libmp rounds it, so that the conversions below give the
# bits and digits that mpmath's dps_to_prec and prec_to_dps give
_BITS_PER_DIGIT = 3.3219280948873626


def _digits_to_bits(digits: int) -> int:
    # the working precision, in bits, that carries `digits` significant digits
    return max(1, round((digits + 1) * _BITS_PER_DIGIT))


def _bits_to_digits(bits: int) -> int:
    # the significant digits that `bits` bits of working precision carry
    return max(1, round(bits / _BITS_PER_DIGIT) - 1)


# the command line's default --precision, and its bits the library's default
_DEFAULT_DIGITS = 128
DEFAULT_PRECISION_BITS = _digits_to_bits(_DEFAULT_DIGITS)  # 429
_GUARD_BITS = 32
# class_polynomial refuses larger |d|; the slowest d below it (h = 234-242)
# takes about 10 s (see CHANGES.md for the measurement)
_MAX_CLASSPOLY_ABS_D = 25000


class ClassPolynomial(
    namedtuple(
        "ClassPolynomial", "discriminant coefficients precision_bits error_bound_log2"
    )
):
    """Monic integer polynomial with roots j(tau_F), F in Cl(d).

    coefficients are listed constant term first and include the leading 1.
    class_polynomial returns one only after certifying it, and raises otherwise:
    its one pass ran at precision_bits, and every coefficient's error before
    rounding was below 2^error_bound_log2.
    """

    __slots__ = ()

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


def _j_in_fundamental_domain(tau):
    # q-series evaluation, an mpc; Im(tau) >= sqrt(3)/2.  j grows like 1/q,
    # so the working precision is raised by log2(1/|q|) bits to keep
    # E4^3 - E6^2 resolvable; the caller rounds back down.
    from mpmath import mp

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


def j_of_form(f: Form, precision_bits: int = DEFAULT_PRECISION_BITS):
    """j(tau(F)) as an mpmath mpc, tau(F) = (-b + sqrt(d))/(2a), with j(i) = 1728.

    The form is reduced exactly first; the value is rounded to
    precision_bits + _GUARD_BITS bits, and its imaginary part is exactly 0 on a
    2-torsion class (b = 0, a = b or a = c), where j is real.  At d = -3, the
    one class where j vanishes, it is exactly 0.  |d| > _MAX_J_ABS_D or
    precision_bits > _MAX_PRECISION_BITS raises InputTooLarge, and a
    precision_bits that is not an integer >= 1 raises ValueError.
    """
    from mpmath import mp, mpf

    _check_precision(precision_bits)
    r = check_form(f).primitive_part().reduced()
    d = r.discriminant()
    _check_j_range(d)
    if d == -3:
        return mp.mpc(0)
    with mp.workprec(precision_bits + _GUARD_BITS):
        tau = mp.mpc(mpf(-r.b), mp.sqrt(-d)) / (2 * r.a)
        j = +_j_in_fundamental_domain(tau)
        return mp.mpc(j.real) if is_two_torsion(r) else j


def _mul_at(u, v, precision_bits: int):
    # u * v rounded at precision_bits plus the guard bits: at precision_bits
    # alone (or mpmath's 53-bit default) the last digits would be lost
    from mpmath import mp

    return mp.fmul(u, v, prec=precision_bits + _GUARD_BITS)


def _sub_at(u, v, precision_bits: int):
    # u - v, rounded like _mul_at
    from mpmath import mp

    return mp.fsub(u, v, prec=precision_bits + _GUARD_BITS)


def _div_at(u, v, precision_bits: int):
    # u / v, rounded like _mul_at
    from mpmath import mp

    return mp.fdiv(u, v, prec=precision_bits + _GUARD_BITS)


def _digit_strings(v, digits: int) -> tuple[str, str]:
    # the real and imaginary parts of v to `digits` significant digits, trailing
    # zeros kept; an exact zero prints as 0.0
    from mpmath import mp

    re, im = (mp.nstr(x, digits, strip_zeros=False) for x in (mp.re(v), mp.im(v)))
    return re, im


def _height_precision_bits(d: int) -> int:
    # log2 of prod (1 + |j_F|) <= prod (2080 + e^x_F), x_F = pi sqrt|d| / a_F
    # (|j| <= 1/|q| + 2079, Enge 2009), which bounds every coefficient, plus
    # log2 h and guard bits
    forms = reduced_primitive_forms(d)
    xs = [pi * sqrt(-d) / f.a for f in forms]
    log2_height = sum(x / log(2) + log2(1 + 2080 * exp(-x)) for x in xs)
    return ceil(log2_height + log2(len(forms))) + 16


_MAX_J_ABS_D = 10**6  # both j lemmas below are proven up to this |d|; both routes refuse more

# j_of_form, and the analyze and pencil calls built on it, refuse more working
# precision, so that the slowest accepted input takes well under 45 s.  The
# costly inputs are forms whose tau1 lies near rho, where |q| is largest (j at
# rho itself is exactly 0).  Cold, best of 3, on a 2-core Intel Xeon,
# `bounds --form F --precision 9632` (32000 bits) took 14.7 s for
# F = 20,19,20, 16.6 s for 577,576,577, 8.9 s for 2,1,2 and 6.3 s for 1,0,1.
# The same machine has run these inputs up to 2.0 times slower in a slow
# phase (at 15050 digits, 78 s against 47.6 s for 20,19,20 and 37 s against
# 18.4 s for 1,0,1), which puts the slowest near 33 s.  At 12040 digits
# (40000 bits) 20,19,20 took 25.1 s, about 50 s at that ratio.  The lemma
# below would hold up to about 8 million bits.
_MAX_PRECISION_BITS = 32000


def _check_j_range(d: int) -> None:
    if -d > _MAX_J_ABS_D:
        raise InputTooLarge(f"j is proven only for |d| <= 10^6, got d = {_shown_int(d)}")


def _check_precision(bits: int) -> None:
    # below 1 bit mpmath loops forever or returns garbage, so refuse it as bad input
    if isinstance(bits, bool) or not isinstance(bits, int) or bits < 1:
        shown = _shown_int(bits) if isinstance(bits, int) else repr(bits)
        raise ValueError(f"working precision must be an integer >= 1 bit, got {shown}")
    if bits > _MAX_PRECISION_BITS:
        raise InputTooLarge(
            f"working precision is limited to {_MAX_PRECISION_BITS} bits, got {_shown_int(bits)}"
        )


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


# Lemma (accuracy of _fixed_j).  Let F be reduced and primitive (_fixed_j
# reduces the primitive part of any form first) with n = |d| <= 10^6,
# j = j(tau_F), wp < 2^48 and J = (re + i im) 2^-(wp + 32) for
# (re, im) = _fixed_j(F, wp).  Then |J - j| <= 2^-26 delta (1 + |j|), with
# delta = 2^-wp.
#
# Setup.  q = e^(2 pi i tau) = e^-X e^(-i theta) with X = pi sqrt(n) / a and
# theta = pi b / a; r = |q| = 2^-l.  Reduced F has sqrt(n) / a >= sqrt 3, so
# r <= e^(-pi sqrt 3) < 0.00434 and 7.85 < l < 4533.  The float v is within
# relative 2^-49 of l (math.pi, log(2) and four operations, each within an
# ulp), so log2_q = -v (1 - 2^-45) >= log2 r and L = floor(v) > l - 1.001.
# Hence P = wp + 64 + L gives u = 2^-P with u / r < 2^(-wp-62.99),
# u <= 2^(-wp-71) and P < 2^49.  An integer Z at k bits stands for Z 2^-k.
# Every product or quotient is formed exactly and floored once per part (_cmul
# and _cdiv floor the exact real and imaginary parts), an error below one unit
# per part, below sqrt 2 units for a complex value.
# 1. Pi.  In _machin_pi at B = bits + g bits, each arctan(1/m) power is within
#    1/(1 - m^-2) <= 25/24 units, each term within 1.35, and the loop stops at
#    the first zero power, after K <= B / (2 log2 m) + 1 terms, leaving a tail
#    below 0.37.  So 16 arctan(1/5) - 4 arctan(1/239) is within 5.01 B + 55
#    units, below 0.05 units of 2^-bits once shifted by g = bitlen(bits) + 8,
#    for bits >= 64 (B <= 2 bits).  The shift floors, and _fixed_pi shifts a
#    wider value once more, so |pi_w - pi 2^w| < 2.05.
# 2. Arguments.  isqrt gives floor(sqrt(n) 2^w), so x_w is within
#    (2.05 sqrt(n) + 4.15) / a + 1 <= 2056 units of X 2^w, and theta_w within
#    3.05 units of |theta| 2^w.
# 3. Taylor.  s = isqrt(P) // 2 + 12 >= 16 halvings make the arguments
#    y = x_w 2^-(w+s) <= 3142 / 2^16 < 0.048 and, for the angle, below 0.0001.
#    The k-th term T_k of _taylor_terms is two floors after T_(k-1) y / k, so it
#    is within e_k < (y e_(k-1) + 1) / k + 1 <= 2 units of y^k / k! (e_0 = 0).
#    T_k <= 0.048 T_(k-1), so the loop stops at some k <= w/4 + 1 with T_k = 0,
#    where y^k / k! 2^w < 2 and the untaken tail is below 2.11 units.  Each sum
#    is then within w/2 + 3 units, a relative error rho_0 <= w 2^-w, of e^-y
#    (>= 0.953) and of e^(i y) (modulus 1).
# 4. Squaring back.  A squaring turns a relative error rho into 2 rho + rho^2,
#    and its floor adds 2^-w over the new value (sqrt 2 2^-w for the angle).
#    Every value e^(-y 2^t) exceeds m = e^(-x_w 2^-w) >= 0.999 r, and every rho
#    stays below 2^-60, so after s <= 2^47 squarings the modulus is within
#    relative 1.0001 2^s (w + 2^(l + 0.01)) 2^-w and the angle within
#    1.0001 2^s (w + 1.42) 2^-w.  With w = P + s + bitlen(P) + 8 <= 2P <
#    2^(bitlen(P) + 1) these are below 2^(-P-6.9) + 2^(l-P-14.9) and 2^(-P-6.9);
#    the arguments' own errors (step 2) add below 2^(-P-19) to each.
# 5. q.  Its modulus and angle are thus within relative 2^(-P-5.8) +
#    2^(l-P-14.8), which r turns into below 0.02 u, and the two floors to P bits
#    add sqrt 2 units: |q_hat - q| <= 1.44 u.
# 6. Powers.  Every power of q that _euler_function forms (from q or from
#    q_hat^2) is the floored exact product of two earlier ones, so by induction
#    it is within 1.5 u of its true value: 2 r 1.5 u + (1.5 u)^2 + sqrt 2 u < 1.43 u.
# 7. Pentagonal tail.  With g_k = k(3k - 1)/2, the K of _pentagonal_terms has
#    g_(K+1) log2_q <= -P - 2, so the omitted terms of E sum to at most
#    2 r^(g_(K+1)) / (1 - r) < 0.51 u (2 log2_q bounds log2 |q^2| alike).  K is
#    minimal, so g_K 7.8 < P + 2 and K <= sqrt(P).  E(q) and E(q^2) are then
#    within eta = (3K + 0.51) u <= 4 sqrt(P) u.
# 8. Division.  |E(q) - 1| and |E(q^2) - 1| are below 1.005 r < 0.0044, and
#    R = E(q^2) / E(q) = prod (1 + q^n) has 0.9956 <= |R| <= 1.00437 =: alpha.
#    R_hat is within (eta + alpha eta) / (0.9956 - eta) + sqrt 2 u <=
#    2.02 eta + 1.42 u =: eps.
# 9. 24th power, by R^2, R^3, R^6, R^12, R^24.  If R^i and R^k are within
#    alpha^i (i eps + c_i u) and alpha^k (k eps + c_k u), their floored product is
#    within alpha^(i+k) ((i + k) eps + (c_i + c_k + 1.42) u); c_1 = 0 gives
#    c_24 < 32.7, and alpha^24 < 1.111, while |R^24| > 0.9956^24 > 0.899.
# 10. x = q R^24 is within r 1.111 (24 eps + 32.7 u) + 1.111 1.44 u + 1.42 u,
#    and |x| >= 0.899 r, so its relative error is rho_x <= (240 sqrt(P) + 83) u
#    + 3.36 u / r < 2^(-wp-38.5), by the setup's bounds on u, u / r and P.
# 11. 256 x + 1.  y = 1 + 256 x is formed exactly from x_hat, so it is within
#    256 |x| rho_x, and |y| < 2.24.  y^3 = (y y) y is then within
#    3 2.24^2 256 |x| rho_x (1 + 2^-30) + 3.24 1.42 u < 3855 |x| rho_x + 4.6 u.
# 12. j = y^3 / x.  |y3_hat / x_hat - y^3 / x| <= |y3_hat - y^3| / |x_hat| +
#    |j| |x_hat - x| / |x_hat| <= 3856 (1 + |j|) rho_x + 5.2 u / r, and the
#    division floors add sqrt 2 u: at P bits J is within
#    2^(-wp-26.5) (1 + |j|) + 2^(-wp-60).
# 13. Dropping to wp + 32 bits floors each part, below 2^(-wp-31.5).
# The sum is below 2^-26 delta (1 + |j|).  QED.

@cached
def _machin_pi(bits: int) -> int:
    # pi = 16 arctan(1/5) - 4 arctan(1/239) at `bits` bits, to 1.05 units (step 1)
    guard = bits.bit_length() + 8
    b = bits + guard

    def arctan_inv(m: int) -> int:
        power = (1 << b) // m
        total, k, m2 = power, 1, m * m
        while power:
            power //= m2
            term = power // (2 * k + 1)
            total += -term if k % 2 else term
            k += 1
        return total

    return (16 * arctan_inv(5) - 4 * arctan_inv(239)) >> guard


def _fixed_pi(bits: int) -> int:
    # computed at the next power of two, so one class polynomial needs one or two
    have = 1 << (bits - 1).bit_length()
    return _machin_pi(have) >> (have - bits)


def _taylor_terms(x: int, w: int, halvings: int) -> list[int]:
    # y^k / k! at w bits for y = x 2^-(w + halvings), until a term floors to 0
    terms = [1 << w]
    shift = w + halvings
    k = 1
    while term := ((terms[-1] * x) >> shift) // k:
        terms.append(term)
        k += 1
    return terms


def _exp_neg(x: int, w: int, halvings: int) -> int:
    # e^(-x 2^-w) at w bits: Taylor series at a halved argument, squared back
    terms = _taylor_terms(x, w, halvings)
    value = sum(terms[0::2]) - sum(terms[1::2])
    for _ in range(halvings):
        value = (value * value) >> w
    return value


def _exp_i(theta: int, w: int, halvings: int) -> tuple[int, int]:
    # e^(i theta 2^-w) at w bits, like _exp_neg
    terms = _taylor_terms(theta, w, halvings)
    re = sum(terms[0::4]) - sum(terms[2::4])
    im = sum(terms[1::4]) - sum(terms[3::4])
    for _ in range(halvings):
        re, im = (re * re - im * im) >> w, (re * im) >> (w - 1)
    return re, im


def _cmul(u: tuple[int, int], v: tuple[int, int], p: int) -> tuple[int, int]:
    # product of two complex values at p bits, each part floored once
    t1, t2 = u[0] * v[0], u[1] * v[1]
    return (t1 - t2) >> p, ((u[0] + u[1]) * (v[0] + v[1]) - t1 - t2) >> p


def _cdiv(u: tuple[int, int], v: tuple[int, int], p: int) -> tuple[int, int]:
    # quotient u / v at p bits, each part of the exact quotient floored once
    norm = v[0] * v[0] + v[1] * v[1]
    re = u[0] * v[0] + u[1] * v[1]
    im = u[1] * v[0] - u[0] * v[1]
    return (re << p) // norm, (im << p) // norm


def _pentagonal_terms(log2_q: float, bits: int) -> int:
    # smallest K with r^(g_(K+1)) <= 2^(-bits-2), g_k = k(3k - 1)/2, for every
    # r <= 2^log2_q: the tail of E(q) beyond k = K is below 2^-bits (step 7)
    k = 1
    while (k + 1) * (3 * k + 2) // 2 * log2_q > -bits - 2:
        k += 1
    return k


def _euler_function(q: tuple[int, int], terms: int, p: int) -> tuple[int, int]:
    # E(q) = prod (1 - q^n) = 1 + sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)),
    # k <= terms: q^(k(3k-1)/2) advances by q^(3k+1), and q^(k(3k+1)/2) is it times q^k
    q3 = _cmul(_cmul(q, q, p), q, p)
    pentagonal, step, q_k = q, _cmul(q3, q, p), q
    re, im = 1 << p, 0
    for k in range(1, terms + 1):
        other = _cmul(pentagonal, q_k, p)
        sign = -1 if k % 2 else 1
        re += sign * (pentagonal[0] + other[0])
        im += sign * (pentagonal[1] + other[1])
        pentagonal = _cmul(pentagonal, step, p)
        step = _cmul(step, q3, p)
        q_k = _cmul(q_k, q, p)
    return re, im


def _fixed_j(f: Form, wp: int) -> tuple[int, int]:
    # j(tau(F)) as (Re, Im) at wp + _GUARD_BITS bits, within 2^-wp (1 + |j|) by
    # the lemma above; |d| > _MAX_J_ABS_D raises InputTooLarge
    r = f.primitive_part().reduced()
    d = r.discriminant()
    _check_j_range(d)
    a, b = r.a, r.b
    v = pi * sqrt(-d) / (a * log(2))  # log2(1/|q|)
    p = wp + 64 + int(v)
    halvings = isqrt(p) // 2 + 12
    w = p + halvings + p.bit_length() + 8
    pi_w = _fixed_pi(w)
    modulus = _exp_neg(((pi_w * isqrt(-d << 2 * w)) >> w) // a, w, halvings)
    re, im = _exp_i((pi_w * abs(b)) // a, w, halvings)  # e^(i pi |b| / a)
    shift = 2 * w - p
    q = (modulus * re) >> shift, (modulus * im) >> shift
    if b > 0:
        q = q[0], -q[1]
    log2_q = -v * (1 - 2.0**-45)
    ratio = _cdiv(
        _euler_function(_cmul(q, q, p), _pentagonal_terms(2 * log2_q, p), p),
        _euler_function(q, _pentagonal_terms(log2_q, p), p),
        p,
    )  # prod (1 + q^n)
    r3 = _cmul(_cmul(ratio, ratio, p), ratio, p)
    r6 = _cmul(r3, r3, p)
    r12 = _cmul(r6, r6, p)
    x = _cmul(q, _cmul(r12, r12, p), p)  # 2^-12 f2^24
    y = (x[0] << 8) + (1 << p), x[1] << 8
    j = _cdiv(_cmul(_cmul(y, y, p), y, p), x, p)
    drop = p - wp - _GUARD_BITS
    return j[0] >> drop, j[1] >> drop


# Certificate.  The pass multiplies x - Re J_F for each ambiguous F (b = 0,
# a = b or a = c; j_F is real) and x^2 - 2 Re J_F x + |J_F|^2 for each pair
# F = (a, b, c), (a, -b, c) with 0 < b < a < c, where J_F = _fixed_j(F, wp) and
# |J_F|^2 is floored to B = wp + 32 bits; every coefficient is an integer at B
# bits, and each product is floored once.  Every computed coefficient c_k' of
# prod (x - j_F) then satisfies, for h delta <= 2^-20 (the starting precision
# exceeds log2 h + 23 bits),
#   |c_k' - c_k| <= E = 1.00001 h delta prod (1 + |j_F|).
# Proof.  Let g_F be the exact factor and g_F' the computed one, and let |.| of
# a polynomial be the sum of its coefficients' absolute values.  By the lemma,
# with eps_F = |J_F - j_F| <= 2^-26 delta (1 + |j_F|): a linear factor has
# |g_F| <= 1 + |j_F| and |g_F' - g_F| <= eps_F <= delta (1 + |j_F|); a quadratic
# one has |g_F| <= (1 + |j_F|)^2 and |g_F' - g_F| <= 2 eps_F + eps_F (2 |j_F| +
# eps_F) + 2^-B <= (1 + |j_F| + eps_F + 2^-B)^2 - (1 + |j_F|)^2 <=
# ((1 + delta)^2 - 1) (1 + |j_F|)^2.  Expanding prod (g_F + (g_F' - g_F)) and
# replacing each |g_F| and |g_F' - g_F| by its bound, every coefficient of
# prod g_F' - prod g_F is at most ((1 + delta)^h - 1) prod (1 + |j_F|).  Each
# step of the pass floors at most 2 products into each coefficient, an error
# vector below 2^(1-B), which the later factors multiply by at most
# prod |g_F'| <= (1 + delta)^h prod (1 + |j_F|); there are at most h steps.
# Together, E <= ((1 + delta)^h - 1 + h 2^(1-B) (1 + delta)^h) prod (1 + |j_F|),
# where (1 + delta)^h - 1 <= 1.000001 h delta and the second term is below
# 2^-30 h delta.
# E is evaluated as 2^e, e = ceil(log2(5h) + sum log2(1 + |J_F|)) - wp, each
# term from an integer upper bound on |J_F| 2^B: 1 + |j_F| <= (1 + |J_F|) /
# (1 - delta), so E <= 1.0001 h delta prod (1 + |J_F|), and the rest of the
# factor 5 covers the float rounding of the sum (h B < 2^45).  Coefficient k is
# accepted only if |c_k' - nint(c_k')| + 2^e < 1/2, compared exactly on the
# integers, which proves nint(c_k') = c_k.
# One pass suffices: wp = ceil(L + log2 h) + 16 (_height_precision_bits) with
# L = sum_F log2(e^x_F + 2080) >= sum_F log2(1 + |j_F|), which sum_F log2(1 +
# |J_F|) exceeds by less than 2 h delta, so e <= ceil(log2 5) - 16 = -13 (-12
# where rounding moves a ceiling), and every c_k' within 2^e of c_k is accepted.


def _approximate_coefficients(d: int, wp: int) -> tuple[list[int], int]:
    # prod (x - j_F) over Cl(d) at wp + _GUARD_BITS bits, constant term first, and
    # e with every coefficient within 2^e of the true integer (certificate above)
    forms = reduced_primitive_forms(d)
    bits = wp + _GUARD_BITS
    coeffs = [1 << bits]
    roots = 0
    log2_majorant = 0.0
    for f in forms:
        if f.b < 0:
            continue  # j of (a, -b, c) is the conjugate of j of (a, b, c)
        re, im = _fixed_j(f, wp)
        norm = re * re + im * im
        if is_two_torsion(f):
            factor = (-re,)  # ambiguous form: j is real
        else:
            factor = (norm >> bits, -2 * re)  # roots j and its conjugate
        roots += len(factor)
        log2_majorant += len(factor) * (log2((1 << bits) + isqrt(norm) + 1) - bits)
        coeffs = _times_monic(coeffs, factor, bits)
    h = len(forms)
    assert roots == h  # h = #real + 2 #pairs
    return coeffs, ceil(log2(5 * h) + log2_majorant) - wp


def _times_monic(p: list[int], low: tuple[int, ...], bits: int) -> list[int]:
    # p * (x^k + low[k-1] x^(k-1) + ... + low[0]), coefficients constant term
    # first, all at `bits` bits, each product floored
    out = [0] * len(low) + p
    for t, b in enumerate(low):
        for i, a in enumerate(p):
            out[i + t] += (a * b) >> bits
    return out


def _integer_coefficients(coeffs: list[int], err_log2: int, bits: int) -> tuple[int, ...] | None:
    # nint of every coefficient (at `bits` bits), or None unless each rounding is
    # proven: 2 |c - n 2^bits| + 2^(err_log2 + bits + 1) < 2^bits
    out = []
    for c in coeffs:
        n = (c + (1 << (bits - 1))) >> bits
        if 2 * abs(c - (n << bits)) + (1 << (err_log2 + bits + 1)) >= 1 << bits:
            return None
        out.append(n)
    return tuple(out)


def class_polynomial(d: int) -> ClassPolynomial:
    """Monic integer polynomial whose roots are the j values over Cl(d).

    One pass at a precision taken from the a-priori height bound evaluates j
    once per pair of inverse classes on fixed-point integers and multiplies
    real factors; each coefficient is rounded only under a proven error bound
    (the certificate above _approximate_coefficients), and a pass that does not
    prove every rounding raises PrecisionExhausted.  |d| above
    _MAX_CLASSPOLY_ABS_D raises InputTooLarge.
    """
    if abs(d) > _MAX_CLASSPOLY_ABS_D:
        raise InputTooLarge(
            f"class polynomials are limited to |d| <= {_MAX_CLASSPOLY_ABS_D},"
            f" got d = {_shown_int(d)}"
        )
    wp = _height_precision_bits(d)
    approx, err_log2 = _approximate_coefficients(d, wp)
    coeffs = _integer_coefficients(approx, err_log2, wp + _GUARD_BITS)
    if coeffs is None:
        raise PrecisionExhausted(f"class polynomial for d={d} is not certified at {wp} bits")
    return ClassPolynomial(d, coeffs, wp, err_log2)
