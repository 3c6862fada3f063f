import random
from math import isqrt, prod

import pytest

from singk3._factor import factorize
from singk3.errors import InputTooLarge


def smallest_prime_factors(limit: int) -> list[int]:
    # spf[m] for m < limit; descending p leaves each m marked by its least prime
    spf = list(range(limit))
    for p in range(isqrt(limit - 1), 1, -1):
        spf[p * p :: p] = [p] * len(range(p * p, limit, p))
    return spf


def test_factorize_agrees_with_a_sieve_up_to_10_5():
    spf = smallest_prime_factors(10**5 + 1)
    for n in range(1, 10**5 + 1):
        expected: dict[int, int] = {}
        m = n
        while m > 1:
            expected[spf[m]] = expected.get(spf[m], 0) + 1
            m //= spf[m]
        assert factorize(n) == expected, n


def test_factorize_rebuilds_random_products_of_sieved_primes():
    spf = smallest_prime_factors(10**6)
    primes = [p for p in range(2, 10**6) if spf[p] == p]
    rng = random.Random(7)
    for _ in range(500):
        expected: dict[int, int] = {}
        while True:
            # shifting the index spreads the primes' sizes over all scales
            p = primes[rng.randrange(len(primes)) >> rng.randrange(17)]
            if prod(q**e for q, e in expected.items()) * p >= 10**12:
                break
            expected[p] = expected.get(p, 0) + 1
            if rng.random() < 0.2:
                break
        n = prod(q**e for q, e in expected.items())
        assert factorize(n) == expected, n


def test_factorize_proves_the_largest_prime_below_10_12():
    assert factorize(4 * 999999999989) == {2: 2, 999999999989: 1}


@pytest.mark.parametrize(
    "n",
    [
        1000000000039,  # the smallest prime above 10^12
        1000003 * 1000033,
        # 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37
        318665857834031151167461,
    ],
)
def test_factorize_refuses_an_unproven_cofactor(n):
    with pytest.raises(InputTooLarge, match=r"10\^12"):
        factorize(n)
