"""Benchmark-side integer arithmetic, written independently of the program.

Input generation and the output checks use these helpers, so neither depends
on the code being measured.
"""

from __future__ import annotations

import math

# Deterministic Miller-Rabin bases for every n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= 3 * 10**24:
        raise ValueError("Miller-Rabin bases are only proven below 3.3e24")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
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
    return True


def primes_below(bound: int) -> list[int]:
    sieve = bytearray([1]) * max(bound, 2)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def discriminant(a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def frobenius_trace(ainvs, p: int) -> int:
    """a_p = p + 1 - #E(F_p) for an odd prime p, by Euler's criterion over x.

    Completing the square turns y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6
    into w^2 = 4 f(x) + (a1 x + a3)^2, so each x contributes 1 + (disc | p).
    """
    a1, a2, a3, a4, a6 = (a % p for a in ainvs)
    half = (p - 1) // 2
    total = 0
    for x in range(p):
        rhs = (4 * (((x + a2) * x + a4) * x + a6) + (a1 * x + a3) ** 2) % p
        if rhs:
            total += 1 if pow(rhs, half, p) == 1 else -1
    return -total


def random_prime(rng, lo: int, hi: int) -> int:
    """A uniformly drawn prime in [lo, hi)."""
    while True:
        n = rng.randrange(lo, hi)
        if is_prime(n):
            return n


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _add(P, Q, A, p):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def annihilates(ainvs, p: int, n: int, rng, points: int = 2) -> bool:
    """Whether n kills `points` random points of E(F_p), for a prime p >= 5.

    A wrong group order n fails this with overwhelming probability.  The
    curve is taken in the short form y^2 = x^3 - 27 c4 x - 54 c6.
    """
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    c4, c6 = b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6
    A, B = -27 * c4 % p, -54 * c6 % p
    for _ in range(points):
        while True:
            x = rng.randrange(p)
            rhs = (x * x * x + A * x + B) % p
            if rhs == 0 or pow(rhs, (p - 1) // 2, p) == 1:
                break
        P, R, k = (x, _sqrt_mod(rhs, p)), None, n
        while k:
            if k & 1:
                R = _add(R, P, A, p)
            P = _add(P, P, A, p)
            k >>= 1
        if R is not None:
            return False
    return True
