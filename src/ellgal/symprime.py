"""Normalized eigenvalues, symmetric-power coefficients, smooth prime sums."""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import InvariantViolation, factorize, kronecker, primes_up_to
from .curve import TraceTable
from .galois import pair_witness


class RamanujanViolation(InvariantViolation):
    """a_p^2 > 4p: the Hasse-Weil bound fails."""


class CoefficientGap(Exception):
    pass


WORKING_CONSTANT = Fraction(1845, 2)  # the 922.5 used in the inequality chain
PRINTED_CONSTANT = Fraction(923)  # the constant as printed in the exponent formula


@dataclass(frozen=True)
class NormalizedEigenvalue:
    """t = a_p / sqrt(p), carried as the exact pair so t^2 stays rational."""

    p: int
    ap: int

    def __post_init__(self):
        if self.ap * self.ap > 4 * self.p:
            raise RamanujanViolation(f"a_p^2 > 4p at p={self.p}")

    @property
    def t_squared(self) -> Fraction:
        return Fraction(self.ap * self.ap, self.p)

    def to_float(self) -> float:
        return self.ap / math.sqrt(self.p)


@dataclass(frozen=True)
class SymCoefficients:
    p: int
    sym2: Fraction  # t^2 - 1
    sym4: Fraction  # t^4 - 3t^2 + 1


def sym_coeffs(ev: NormalizedEigenvalue) -> SymCoefficients:
    # t^2 = a_p^2 / p: each value is one Fraction of an integer numerator over a power of p
    p, a2 = ev.p, ev.ap * ev.ap
    return SymCoefficients(p, Fraction(a2 - p, p), Fraction(a2 * (a2 - 3 * p) + p * p, p * p))


def rankin_coeff(ev1: NormalizedEigenvalue, ev2: NormalizedEigenvalue) -> Fraction:
    """lambda_{Sym^2 f x Sym^2 g}(p) = (t1^2 - 1)(t2^2 - 1)."""
    if ev1.p != ev2.p:
        raise ValueError("eigenvalues at different primes")
    p = ev1.p
    return Fraction((ev1.ap * ev1.ap - p) * (ev2.ap * ev2.ap - p), p * p)


def _satake_numerators(ap, p, kmax):
    """Q_k = p^(k/2) (alpha^k + beta^k) for the Satake pair with alpha + beta = a_p / sqrt(p),
    alpha beta = 1: integers, from Q_0 = 2, Q_1 = a_p, Q_k = a_p Q_(k-1) - p Q_(k-2)."""
    Q = [2, ap]
    for _ in range(2, kmax + 1):
        Q.append(ap * Q[-1] - p * Q[-2])
    return Q


def _max_exponent(p, X):
    """Largest k with p^k <= X, for a prime p <= X."""
    k = 1
    while p ** (k + 1) <= X:
        k += 1
    return k


@dataclass(frozen=True)
class VonMangoldtSeries:
    bound: int
    entries: dict  # (p, k) -> float value of Lambda(p^k)
    ramified: tuple  # primes <= bound omitted


def von_mangoldt(t1: TraceTable, t2: TraceTable, X: int) -> VonMangoldtSeries:
    """Lambda_{pi1 x pi2}(p^k) = log p * P_k(t1) P_k(t2) at unramified p^k <= X."""
    n = min(t1.upto(X), t2.upto(X))
    entries = {}
    ram = sorted(p for p in t1.bad | t2.bad if p <= X)
    for p, a1, a2 in zip(t1.primes[:n], t1.aps, t2.aps):
        if p in t1.bad or p in t2.bad:
            continue
        kmax = _max_exponent(p, X)
        Q1 = _satake_numerators(a1, p, kmax)
        Q2 = _satake_numerators(a2, p, kmax)
        logp = math.log(p)
        for k in range(1, kmax + 1):
            # P_k(t1) P_k(t2) is the rational Q1_k Q2_k / p^k, rounded once
            entries[(p, k)] = logp * (Q1[k] * Q2[k] / p**k)
    return VonMangoldtSeries(X, entries, tuple(ram))


def c_delta(delta, constant=PRINTED_CONSTANT) -> Fraction:
    """The exponent constant 2(4 + 923/delta)/(1 - 1/(2 delta)), exactly."""
    delta = Fraction(delta)
    if delta <= Fraction(1, 2):
        raise ValueError("delta must exceed 1/2")
    return 2 * (4 + Fraction(constant) / delta) / (1 - 1 / (2 * delta))


class SmoothTestFunction:
    """C-infinity bump exp(-1/((u-a)(b-u))) on (a, b), scaled so its integral is 1.

    Its mass is a trapezoid sum, the step halved until sums on >= 16 intervals agree to
    1e-13; with all derivatives 0 at a and b the error falls faster than any power of the
    step (Trefethen & Weideman 2014). The first sum, at the peak, is 0 only on underflow."""

    def __init__(self, a, b):
        self.a, self.b = float(a), float(b)
        n, values, raw = 1, [], math.inf
        while raw > 0 and n < 2**20:
            n *= 2
            h = (self.b - self.a) / n
            values += [self._raw(self.a + i * h) for i in range(1, n, 2)]
            last, raw = raw, math.fsum(values) * h
            if n > 16 and abs(raw - last) <= 1e-13 * raw:
                self.norm = 1.0 / raw
                return
        raise RuntimeError("bump normalization did not converge")

    def _raw(self, u):
        if u <= self.a or u >= self.b:
            return 0.0
        return math.exp(-1.0 / ((u - self.a) * (self.b - u)))

    def __call__(self, u):
        return self.norm * self._raw(u)


def bump_phi() -> SmoothTestFunction:
    return SmoothTestFunction(0.5, 1.0)


def bump_psi() -> SmoothTestFunction:
    return SmoothTestFunction(1.0, 2.0)


def _sym2_numerators(ap, p, kmax):
    """H_k = p^k lambda_Sym2(p^k) for k <= kmax, the coefficients of the local Euler
    factor 1 / ((1 - alpha^2 x)(1 - x)(1 - beta^2 x)) scaled to integers: with
    e = a_p^2 - p, H_k = e H_(k-1) - p e H_(k-2) + p^3 H_(k-3) and H_0 = 1."""
    e = ap * ap - p
    H = [0, 0, 1]
    for _ in range(kmax):
        H.append(e * H[-1] - p * e * H[-2] + p**3 * H[-3])
    return H[2:]


# n per block of the sieve: 2^14 ran 10% faster at X = 10^6, and at X = 10^4,
# one block, it raised the peak RSS by 0.5 MB
_BLOCK = 1 << 12
_EXACT = 2.0**53  # the integers up to here are exact in float64


def _trace_columns(table, top):
    """The primes q <= top of a table with a sentinel above top, H_1(q) = a_q^2 - q
    at each, and whether q has a trace (it is good), as int64 and bool columns."""
    cut = bisect_right(table.primes, top)
    primes = np.array(table.primes[:cut] + (top + 1,), dtype=np.int64)
    aps = np.array(table.aps[:cut] + (0,), dtype=np.int64)
    good = np.ones(cut + 1, dtype=bool)
    good[cut] = False
    for p in table.bad:
        if p <= top:
            good[bisect_left(table.primes, p)] = False
    return primes, aps * aps - primes, good


def _smooth_sum(table1: TraceTable, table2: TraceTable, X, psi, coprime_to: int) -> float:
    """fsum over n in [X, 2X] coprime to coprime_to of lambda_1(n) lambda_2(n) psi(n/X).

    lambda_i(n) is N_i / n, with N_i the product of the local H_k over p^k || n.
    The N_i come from a sieve over blocks of at most _BLOCK consecutive n, in
    int64: each prime p <= sqrt(2X) is peeled off its multiples and its H_k
    gathered by exponent, and what is left of n is 1 or one prime q, which
    gives H_1(q) = a_q^2 - q, read off the table's columns.  By Hasse,
    |H_k(p)| <= p^k (k+1)(k+2)/2, so |N_i| <= n tau_3(n), and every partial
    product too; the sieve counts tau_3(n) and raises OverflowError unless
    n tau_3(n) < 2^53.  Then N_i and n are exact floats and N_i / n is one
    correctly rounded division, float() of the exact rational, as for Python
    ints.  Each term is (N_1/n)(N_2/n)psi(n/X) in that order, and fsum rounds
    the sum of all of them once.  Memory is O(pi(2X) + _BLOCK).
    """
    top = int(math.floor(2 * X))
    tables = (table1,) if table2 is table1 else (table1, table2)
    columns = [_trace_columns(t, top) for t in tables]
    small = []  # (p, p^k, tau_3(p^k), [H_k of each table, or None where p has no trace])
    for p in primes_up_to(math.isqrt(top)):
        k = np.arange(_max_exponent(p, top) + 1, dtype=np.int64)
        rows = []
        for t in tables:
            i = bisect_left(t.primes, p)
            has = i < len(t.primes) and t.primes[i] == p and p not in t.bad
            rows.append(np.array(_sym2_numerators(t.aps[i], p, k[-1])) if has else None)
        small.append((p, p**k, (k + 1) * (k + 2) // 2, rows))

    def block(lo, hi):
        keep, weight = [], []
        for n in range(lo, hi):
            if math.gcd(n, coprime_to) != 1:
                continue
            w = psi(n / X)
            if w == 0.0:
                continue
            keep.append(n - lo)
            weight.append(w)
        if not keep:
            return []
        n = np.arange(lo, hi, dtype=np.int64)
        rest, tau = n.copy(), np.ones_like(n)
        N = [np.ones_like(n) for _ in tables]
        gap = np.zeros(len(n), dtype=bool)
        for p, pw, t3, rows in small:
            j = -lo % p  # n[j] is the block's first multiple of p
            if j >= len(n):
                continue
            k = np.ones(len(range(j, len(n), p)), dtype=np.int64)
            c, pe = (lo + j) // p, p
            while pe * p < hi:  # n = (c + s)p is a multiple of p pe when pe | c + s
                k[-c % pe :: pe] += 1
                pe *= p
            rest[j::p] //= pw[k]
            tau[j::p] *= t3[k]
            for Ni, H in zip(N, rows):
                if H is None:
                    gap[j::p] = True
                else:
                    Ni[j::p] *= H[k]
        big = np.flatnonzero(rest > 1)
        q = rest[big]
        tau[big] *= 3
        for Ni, (primes, H1, good) in zip(N, columns):
            i = np.searchsorted(primes, q)
            found = (primes[i] == q) & good[i]
            Ni[big] *= np.where(found, H1[i], 0)
            gap[big[~found]] = True
        if (n * tau.astype(np.float64)).max() >= _EXACT:
            raise OverflowError(f"n tau_3(n) reaches 2^53 in [{lo}, {hi}): the sums are not exact")
        keep = np.array(keep)
        if gap[keep].any():
            first = lo + int(keep[np.argmax(gap[keep])])
            # name the least prime of that n that lacks a trace in either table
            factors = factorize(first).factors
            missing = (p for p, _ in factors for t in tables if p > t.bound or p in t.bad)
            raise CoefficientGap(f"no trace available at p={next(missing)}")
        n = n[keep].astype(np.float64)
        return ((N[0][keep] / n) * (N[-1][keep] / n) * np.array(weight)).tolist()

    first = max(1, int(math.ceil(X)))
    blocks = (block(lo, min(lo + _BLOCK, top + 1)) for lo in range(first, top + 1, _BLOCK))
    return math.fsum(itertools.chain.from_iterable(blocks))


def smooth_sum_S(table: TraceTable, X, psi: SmoothTestFunction, coprime_to: int) -> float:
    """sum over n in [X, 2X] coprime to coprime_to of lambda_Sym2(n)^2 psi(n/X)."""
    return _smooth_sum(table, table, X, psi, coprime_to)


def smooth_sum_H(table1: TraceTable, table2: TraceTable, X, psi, coprime_to: int) -> float:
    """Same shape as smooth_sum_S but with the cross product lambda_1(n) lambda_2(n)."""
    return _smooth_sum(table1, table2, X, psi, coprime_to)


def linnik_scan(table1: TraceTable, table2: TraceTable = None, chi: int = None, bound: int = None):
    """Least good prime violating |lambda_1(p)| = |lambda_2(p)| (pair form) or
    lambda(p) = chi(p) lambda(p) (character form); None when no violation is found."""
    if bound is None:
        bound = table1.bound
    n = table1.upto(bound)
    if table2 is not None:
        w = pair_witness(table1, table2, bound)
        return None if w is None else w.p
    if chi is None:
        raise ValueError("need a second curve or a character modulus")
    for p, ap in zip(table1.primes[:n], table1.aps):
        if ap != 0 and p not in table1.bad and kronecker(chi, p) == -1:
            return p
    return None
