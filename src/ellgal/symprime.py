"""Normalized eigenvalues, symmetric-power coefficients, smooth prime sums."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from scipy.integrate import quad

from .arith import kronecker, smallest_prime_factors
from .curve import TraceTable
from .galois import pair_witness


class RamanujanViolation(Exception):
    pass


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
    t2 = ev.t_squared
    return SymCoefficients(ev.p, t2 - 1, t2 * t2 - 3 * t2 + 1)


def rankin_coeff(ev1: NormalizedEigenvalue, ev2: NormalizedEigenvalue) -> Fraction:
    """lambda_{Sym^2 f x Sym^2 g}(p) = (t1^2 - 1)(t2^2 - 1)."""
    if ev1.p != ev2.p:
        raise ValueError("eigenvalues at different primes")
    return (ev1.t_squared - 1) * (ev2.t_squared - 1)


@dataclass(frozen=True)
class QuadExt:
    """Exact element a + b sqrt(d) of Q(sqrt(d))."""

    a: Fraction
    b: Fraction
    d: int

    def __add__(self, o):
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, o):
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __mul__(self, o):
        if isinstance(o, QuadExt):
            return QuadExt(
                self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d
            )
        return QuadExt(self.a * o, self.b * o, self.d)

    def to_float(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)


def _power_sums(ap, p, kmax):
    """P_k = alpha^k + beta^k for the Satake pair with alpha+beta = t, alpha beta = 1."""
    t = QuadExt(Fraction(0), Fraction(ap, p), p)
    out = [QuadExt(Fraction(2), Fraction(0), p), t]
    for _ in range(2, kmax + 1):
        out.append(t * out[-1] - out[-2])
    return out


@dataclass(frozen=True)
class VonMangoldtSeries:
    bound: int
    entries: dict  # (p, k) -> float value of Lambda(p^k)
    ramified: tuple  # primes <= bound omitted


def von_mangoldt(t1: TraceTable, t2: TraceTable, X: int) -> VonMangoldtSeries:
    """Lambda_{pi1 x pi2}(p^k) = log p * P_k(t1) P_k(t2) at unramified p^k <= X."""
    entries = {}
    ram = sorted(
        p for p in set(t1.ramified) | set(t2.ramified) if p <= X
    )
    for p in t1.good_primes():
        if p > X or p not in t2.good:
            continue
        kmax = 1
        while p ** (kmax + 1) <= X:
            kmax += 1
        P1 = _power_sums(t1.good[p], p, kmax)
        P2 = _power_sums(t2.good[p], p, kmax)
        logp = math.log(p)
        for k in range(1, kmax + 1):
            if p**k <= X:
                entries[(p, k)] = logp * (P1[k] * P2[k]).to_float()
    return VonMangoldtSeries(X, entries, tuple(ram))


def c_delta(delta, constant=PRINTED_CONSTANT) -> Fraction:
    """The exponent constant 2(4 + 923/delta)/(1 - 1/(2 delta)), exactly."""
    delta = Fraction(delta)
    if delta <= Fraction(1, 2):
        raise ValueError("delta must exceed 1/2")
    return 2 * (4 + Fraction(constant) / delta) / (1 - 1 / (2 * delta))


class SmoothTestFunction:
    """C-infinity bump exp(-1/((u-a)(b-u))) on (a, b), scaled so its integral is 1."""

    def __init__(self, a, b):
        self.a = float(a)
        self.b = float(b)
        raw, err = quad(self._raw, self.a, self.b, epsabs=0.0, epsrel=1e-12, limit=200)
        if raw <= 0 or err > 1e-10 * raw:
            raise RuntimeError("bump normalization did not converge")
        self.norm = 1.0 / raw

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


def _sym2_prime_powers(ap, p, kmax):
    """Dirichlet coefficients of the local Sym^2 Euler factor, exact rationals."""
    t2 = Fraction(ap * ap, p)
    e1 = e2 = t2 - 1
    h = [Fraction(1)]
    for k in range(1, kmax + 1):
        val = e1 * h[k - 1]
        if k >= 2:
            val -= e2 * h[k - 2]
        if k >= 3:
            val += h[k - 3]
        h.append(val)
    return h


class _Sym2Coefficients:
    """Multiplicative lambda_{Sym^2}(n) built from a trace table."""

    def __init__(self, table: TraceTable, bound: int):
        self.table = table
        self.bound = bound
        self.cache = {}

    def prime_power(self, p, k):
        key = (p, k)
        if key not in self.cache:
            if p not in self.table.good:
                raise CoefficientGap(f"no trace available at p={p}")
            self.cache[key] = _sym2_prime_powers(self.table.good[p], p, k)[k]
        return self.cache[key]

    def value(self, n, spf):
        out = Fraction(1)
        while n > 1:
            p = spf[n]
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out *= self.prime_power(p, k)
        return out


def smooth_sum_S(table: TraceTable, X, psi: SmoothTestFunction, coprime_to: int) -> float:
    """sum over n in [X, 2X] coprime to coprime_to of lambda_Sym2(n)^2 psi(n/X)."""
    top = int(math.floor(2 * X))
    spf = smallest_prime_factors(top)
    coeffs = _Sym2Coefficients(table, top)
    terms = []
    for n in range(max(1, int(math.ceil(X))), top + 1):
        if math.gcd(n, coprime_to) != 1:
            continue
        w = psi(n / X)
        if w == 0.0:
            continue
        lam = float(coeffs.value(n, spf))
        terms.append(lam * lam * w)
    return math.fsum(terms)


def smooth_sum_H(table1: TraceTable, table2: TraceTable, X, psi, coprime_to: int) -> float:
    """Same shape as smooth_sum_S but with the cross product lambda_1(n) lambda_2(n)."""
    top = int(math.floor(2 * X))
    spf = smallest_prime_factors(top)
    c1 = _Sym2Coefficients(table1, top)
    c2 = _Sym2Coefficients(table2, top)
    terms = []
    for n in range(max(1, int(math.ceil(X))), top + 1):
        if math.gcd(n, coprime_to) != 1:
            continue
        w = psi(n / X)
        if w == 0.0:
            continue
        terms.append(float(c1.value(n, spf)) * float(c2.value(n, spf)) * w)
    return math.fsum(terms)


def linnik_scan(table1: TraceTable, table2: TraceTable = None, chi: int = None, bound: int = None):
    """Least good prime violating |lambda_1(p)| = |lambda_2(p)| (pair form) or
    lambda(p) = chi(p) lambda(p) (character form); None when no violation is found."""
    if bound is None:
        bound = table1.bound
    if table2 is not None:
        w = pair_witness(table1, table2, 1, 1, bound)
        return None if w is None else w.p
    if chi is None:
        raise ValueError("need a second curve or a character modulus")
    for p in table1.good_primes():
        if p > bound:
            break
        if kronecker(chi, p) == -1 and table1.good[p] != 0:
            return p
    return None
