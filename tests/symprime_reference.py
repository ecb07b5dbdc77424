"""`symprime._smooth_sum` as it ran before the block sieve: one Python loop over
n in [X, 2X], each n factored by a smallest-prime-factor table and its H_k read
from the tables' `good` dicts.  Kept unchanged as an independent oracle for the
smooth sums."""

import math

from ellgal.arith import primes_up_to
from ellgal.symprime import CoefficientGap, _max_exponent, _sym2_numerators


def smallest_prime_factors(bound: int) -> list[int]:
    """spf[n] = least prime factor of n for 2 <= n <= bound (spf[0] = 0, spf[1] = 1)."""
    spf = list(range(bound + 1))
    for p in reversed(primes_up_to(math.isqrt(bound))):  # the least prime writes last
        spf[p * p :: p] = [p] * len(range(p * p, bound + 1, p))
    return spf


def smooth_sum(table1, table2, X, psi, coprime_to):
    """fsum over n in [X, 2X] coprime to coprime_to of lambda_1(n) lambda_2(n) psi(n/X)."""
    top = int(math.floor(2 * X))
    spf = smallest_prime_factors(top)
    local = {}  # (p, a_p) -> [H_0, ..., H_kmax]

    def numerator(table, p, k):
        if p not in table.good:
            raise CoefficientGap(f"no trace available at p={p}")
        key = (p, table.good[p])
        if key not in local:
            local[key] = _sym2_numerators(key[1], p, _max_exponent(p, top))
        return local[key][k]

    terms = []
    for n in range(max(1, int(math.ceil(X))), top + 1):
        if math.gcd(n, coprime_to) != 1:
            continue
        w = psi(n / X)
        if w == 0.0:
            continue
        N1 = N2 = 1
        m = n
        while m > 1:
            p = spf[m]
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            N1 *= numerator(table1, p, k)
            N2 *= numerator(table2, p, k)
        terms.append((N1 / n) * (N2 / n) * w)
    return math.fsum(terms)
