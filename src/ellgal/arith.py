"""Exact integer arithmetic: Kronecker symbols, sieves, factorization, class numbers."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass


class IncompleteFactorization(Exception):
    """Raised when a cofactor resists the trial-division + rho pipeline."""

    def __init__(self, n, cofactor, partial):
        super().__init__(f"could not fully factor {n}; unfactored cofactor {cofactor}")
        self.n = n
        self.cofactor = cofactor
        self.partial = partial


class InvariantViolation(Exception):
    """An exact invariant failed: a conductor-exponent bound (f >= 1 at every bad
    prime, f <= 8, 5, 2 at 2, 3, p >= 5), the additive radical against the conductor,
    an impossible valuation pair at p >= 5, Tate's step 11 on a p-minimal model, the
    b- and c-invariant relations or the Hasse-Weil bound. The CLI maps it to exit 2."""


def valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, for |p| >= 2."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined (treat separately)")
    if abs(p) < 2:
        raise ValueError(f"valuation at {p} is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), fully extended to all integers.

    Agrees with the Legendre symbol for odd prime n and is completely
    multiplicative in both arguments.  (a|0) is 1 for a = +-1 and 0 otherwise.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        e = valuation(n, 2)
        n >>= e
        if e % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def primes_up_to(bound: int) -> list[int]:
    """Ascending list of primes <= bound (simple sieve of Eratosthenes)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return list(itertools.compress(range(bound + 1), sieve))


def least_nonresidue(p: int) -> int:
    """Least g >= 2 with (g|p) = -1, for an odd prime p."""
    g = 2
    while kronecker(g, p) != -1:
        g += 1
    return g


# Miller-Rabin to the first twelve prime bases proves primality below
# 318665857834031151167461, the least strong pseudoprime to all of them
# (Sorenson-Webster); above it, is_prime adds a strong Lucas test (BPSW).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BELOW = 318665857834031151167461


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, for odd n > 37."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D|n) = -1 exists
    D = 5
    while kronecker(D, n) != -1:
        if math.gcd(D, n) > 1:
            return False
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    s = valuation(n + 1, 2)
    d = (n + 1) >> s

    def half(v):
        return (v + n if v & 1 else v) // 2 % n

    # U_k, V_k and Q^k mod n, from k = 1 along the bits of d
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(P * U + V), half(D * U + P * V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = valuation(d, 2)
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_PROVEN_BELOW or _strong_lucas(n)


# Brent's rounds double r up to this; a cycle with tail and period both <= 2^20
# is found, which covers every cycle Floyd's method finds within 10^6 steps
_RHO_MAX_ROUND = 1 << 20
_RHO_BATCH = 128


def _pollard_rho(n: int) -> int | None:
    """Brent's rho (BIT 20, 1980) over a few polynomial offsets; None on failure.

    The differences x - y are multiplied 128 at a time before each gcd; a batch
    whose gcd is n is replayed one step at a time from its start.
    """
    if n % 2 == 0:
        return 2
    for c in (1, 3, 5, 7, 11):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1 and r <= _RHO_MAX_ROUND:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


@dataclass(frozen=True)
class Factorization:
    """Signed factorization: sign * prod p^e, primes distinct and ascending."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out

    def radical(self) -> int:
        out = 1
        for p, _ in self.factors:
            out *= p
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


# trial division stops here; Brent's rho splits anything larger faster
_TRIAL_BOUND = 1000


def factorize(n: int) -> Factorization:
    """Factor n by trial division below _TRIAL_BOUND, then BPSW and Pollard rho.

    Raises IncompleteFactorization (carrying the cofactor) if a composite
    cofactor survives both stages.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    factors: dict[int, int] = {}

    def take(p):
        nonlocal m
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors[p] = factors.get(p, 0) + e

    take(2)
    take(3)
    p = 5
    while p * p <= m and p <= _TRIAL_BOUND:
        take(p)
        take(p + 2)
        p += 6
    if m > 1 and m <= _TRIAL_BOUND * _TRIAL_BOUND:
        # cofactor below the trial-division square is necessarily prime
        factors[m] = factors.get(m, 0) + 1
        m = 1
    stack = [m] if m > 1 else []
    while stack:
        c = stack.pop()
        if is_prime(c):
            take(c)
            continue
        d = _pollard_rho(c)
        if d is None:
            partial = Factorization(sign, tuple(sorted(factors.items())))
            raise IncompleteFactorization(n, c, partial)
        stack.append(d)
        stack.append(c // d)
    return Factorization(sign, tuple(sorted(factors.items())))


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for _, e in factorize(abs(n)).factors)


def class_number(D: int) -> int:
    """Class number of discriminant D < 0: count of reduced primitive forms.

    Enumerates ax^2+bxy+cy^2 with b^2-4ac = D, |b| <= a <= c, and b >= 0
    whenever |b| = a or a = c.  a is bounded by sqrt(|D|/3).
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant")
    count = 0
    a_max = math.isqrt(abs(D) // 3)
    for a in range(1, a_max + 1):
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            count += 1
    return count


def class_number_one_discriminants(floor: int = -200) -> list[int]:
    """All discriminants D with floor <= D < 0 and class number 1."""
    out = []
    for D in range(floor, 0):
        if D % 4 in (0, 1) and class_number(D) == 1:
            out.append(D)
    return out
