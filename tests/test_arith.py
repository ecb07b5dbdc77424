import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgal import arith
from ellgal.arith import (
    IncompleteFactorization,
    _pollard_rho,
    class_number,
    class_number_one_discriminants,
    factorize,
    is_prime,
    is_squarefree,
    kronecker,
    primes_up_to,
    valuation,
)


def test_kronecker_small_values():
    assert kronecker(3, 7) == -1
    assert kronecker(2, 7) == 1
    assert kronecker(1, 7) == 1
    assert kronecker(0, 7) == 0
    assert kronecker(7, 7) == 0


def test_kronecker_matches_legendre_by_enumeration():
    # Legendre symbol via quadratic-residue enumeration at every odd prime < 200
    for p in primes_up_to(200):
        if p == 2:
            continue
        residues = {x * x % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in residues else -1)
            assert kronecker(a, p) == expected, (a, p)


def test_kronecker_even_and_negative_lower_argument():
    # (a/2) is the standard extension: 0 for even a, (-1)^((a^2-1)/8) for odd a
    assert kronecker(2, 2) == 0
    assert kronecker(3, 2) == -1
    assert kronecker(7, 2) == 1
    assert kronecker(5, -3) == kronecker(5, 3)
    assert kronecker(-5, -3) == -kronecker(-5, 3)
    # n = 0 convention: nonzero only at a = +-1
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0


@given(
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=1, max_value=300).filter(lambda n: n % 2 == 1),
)
@settings(max_examples=200)
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@given(
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=200),
)
@settings(max_examples=200)
def test_kronecker_multiplicative_in_bottom(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_valuation(time_limit):
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(-27, 3) == 3
    assert valuation(7, 5) == 0
    for p in (-1, 0, 1):  # 48 % +-1 == 0 forever
        with pytest.raises(ValueError):
            valuation(48, p)


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []


def test_is_prime_deterministic_on_range():
    sieve = set(primes_up_to(2000))
    for n in range(2, 2000):
        assert is_prime(n) == (n in sieve), n


def test_is_prime_larger():
    assert is_prime(10**9 + 7)
    assert not is_prime(10**9 + 8)
    assert is_prime(2**61 - 1)


# strong pseudoprimes to the first 9, 12 and 13 prime bases
STRONG_PSEUDOPRIMES = (3825123056546413051, 318665857834031151167461, 3317044064679887385961981)


def test_is_prime_and_factorize_match_sympy():
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(4)
    # Chernick's (6k+1)(12k+1)(18k+1) is a Carmichael number when all three are prime
    carmichael = []
    for k in (1, 6, 35, 45, 51, 55, 56, 100, 121, 195):
        f = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        assert all(sympy.isprime(q) for q in f)
        carmichael.append(f[0] * f[1] * f[2])
    k = rnd.randrange(10**8, 2 * 10**8)
    while len(carmichael) < 14:
        f = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(q) for q in f):
            carmichael.append(f[0] * f[1] * f[2])  # 27 digits
        k += 1
    randoms = [rnd.randrange(10**24, 10**40) | 1 for _ in range(300)]
    primes = [sympy.nextprime(rnd.randrange(10**24, 10**40)) for _ in range(40)]
    semiprimes = [p * q for p, q in zip(primes[::2], primes[1::2])]
    for n in (*STRONG_PSEUDOPRIMES, *carmichael, *randoms, *primes, *semiprimes):
        assert is_prime(n) == sympy.isprime(n), n
    smooth = [math.prod(rnd.choice((2, 3, 5, 7, 101, 65537, 999983)) for _ in range(6))]
    smooth += [smooth[0] * rnd.randrange(2, 10**7) for _ in range(10)]
    hard = (STRONG_PSEUDOPRIMES[1], *carmichael[-2:], *primes[:2], smooth[0] * primes[2])
    # trial division stops below 1000, so rho splits every factor in [10^3, 10^6];
    # one n in four repeats a prime, as rho must also split prime powers
    band = []
    for i in range(300):
        ps = [sympy.nextprime(rnd.randrange(10**3, 10**6)) for _ in range(rnd.randint(1, 3))]
        if i % 4 == 0:
            ps[-1] = ps[0]
        band.append(math.prod(ps))  # below 10^18
    for n in (*hard, *carmichael[:-4], *smooth, *band):
        assert dict(factorize(n).factors) == sympy.factorint(n), n


@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0))
@settings(max_examples=200)
def test_factorize_round_trip(n):
    f = factorize(n)
    assert f.value() == n
    primes = [p for p, _ in f.factors]
    assert primes == sorted(primes)
    assert len(set(primes)) == len(primes)
    for p, e in f.factors:
        assert is_prime(p) and e >= 1


def test_factorize_sign_and_radical():
    f = factorize(-360)
    assert f.sign == -1
    assert f.factors == ((2, 3), (3, 2), (5, 1))
    assert f.radical() == 30


def test_factorize_large_semiprime():
    n = 1000003 * 1000033
    f = factorize(n)
    assert f.value() == n
    assert [p for p, _ in f.factors] == [1000003, 1000033]


def test_rho_splits_psi12_and_psi13():
    # psi12 and psi13 are products of two 12- and 13-digit primes: rho needs ~10^6 steps
    for p, q in ((399165290221, 798330580441), (1287836182261, 2575672364521)):
        assert factorize(p * q).factors == ((p, 1), (q, 1))
    # small odd composites: a batch of 128 differences often has gcd n, so the
    # one-step replay has to find the factor
    for n in range(9, 5000, 2):
        if not is_prime(n):
            d = _pollard_rho(n)
            assert d is not None and 1 < d < n and n % d == 0, n


def test_incomplete_factorization_carries_cofactor(monkeypatch):
    # with rho failing, the composite cofactor left after trial division is
    # reported along with the part already factored
    monkeypatch.setattr(arith, "_pollard_rho", lambda n: None)
    with pytest.raises(IncompleteFactorization) as info:
        factorize(8 * 1000003 * 1000033)
    assert info.value.cofactor == 1000003 * 1000033
    assert info.value.partial.factors == ((2, 3),)


def test_is_squarefree():
    assert is_squarefree(1) and is_squarefree(-1)
    assert is_squarefree(30) and is_squarefree(-30)
    assert not is_squarefree(12)
    assert not is_squarefree(0)


def test_class_numbers():
    assert class_number(-3) == 1
    assert class_number(-4) == 1
    assert class_number(-23) == 3
    assert class_number(-47) == 5
    assert class_number(-163) == 1
    with pytest.raises(ValueError):
        class_number(-5)  # not a discriminant (-5 % 4 == 3)


def test_class_number_one_list_is_the_thirteen():
    discs = class_number_one_discriminants()
    assert len(discs) == 13
    assert discs == sorted(discs)
    assert set(discs) == {-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163}
