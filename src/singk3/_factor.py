"""Integer factorization by trial division, proven or refused.

Trial division by every candidate up to 10^6 proves that a leftover cofactor
below 10^12 is prime.  A cofactor of 10^12 or more is neither proven prime
nor split this way, so factorize raises InputTooLarge rather than guess or
run unbounded.  The class groups and j-values built on a factorization stop
being practical long before |d| reaches that size.
"""

from __future__ import annotations

from math import isqrt

from .errors import InputTooLarge

_TRIAL_LIMIT = 10**6


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as a {prime: exponent} dict.

    Raises InputTooLarge when the part of n without prime factors below
    10^6 is 10^12 or more.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    original = n
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    limit = min(_TRIAL_LIMIT, isqrt(n))
    while p <= limit:
        if n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
            limit = min(_TRIAL_LIMIT, isqrt(n))
        else:
            p += 2
    if n >= _TRIAL_LIMIT * _TRIAL_LIMIT:
        raise InputTooLarge(
            f"cannot factor a {original.bit_length()}-bit number: its {n.bit_length()}-bit part "
            f"without prime factors below 10^6 is 10^12 or more, past what trial division proves"
        )
    if n > 1:
        # No divisor up to min(10^6, sqrt(n)) and n < 10^12, hence n is prime.
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_decomposition(n: int) -> tuple[int, int]:
    """Write n >= 1 as s^2 * k with k squarefree; returns (k, s)."""
    k = s = 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            k *= p
    return k, s
