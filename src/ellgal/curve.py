"""Weierstrass models over Q: invariants, twists, and Frobenius trace computation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import kronecker, primes_up_to


class SingularModel(Exception):
    pass


class BadReduction(Exception):
    pass


# naive char-sum counting below this, baby-step/giant-step above; on one curve
# BSGS overtakes the numpy square count between 5120 and 6144 and is faster on
# nearly every prime above 6144
NAIVE_CROSSOVER = 6144


@dataclass(frozen=True)
class WeierstrassModel:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        if self.discriminant() == 0:
            raise SingularModel(f"discriminant vanishes for {self.ainvs()}")

    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.ainvs()
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def c_invariants(self):
        b2, b4, b6, _ = self.b_invariants()
        c4 = b2 * b2 - 24 * b4
        c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
        return c4, c6

    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def j_invariant(self) -> Fraction:
        c4, _ = self.c_invariants()
        return Fraction(c4**3, self.discriminant())

    def transform(self, u=1, r=0, s=0, t=0) -> "WeierstrassModel":
        """Change of variables (x, y) -> (u^2 x + r, u^3 y + u^2 s x + t)."""
        a1, a2, a3, a4, a6 = self.ainvs()
        A1 = a1 + 2 * s
        A2 = a2 - s * a1 + 3 * r - s * s
        A3 = a3 + r * a1 + 2 * t
        A4 = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
        A6 = a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1
        for k, A in ((1, A1), (2, A2), (3, A3), (4, A4), (6, A6)):
            q, rem = divmod(A, u**k)
            if rem:
                raise ValueError(f"non-integral transform: a{k}")
        return WeierstrassModel(
            A1 // u, A2 // u**2, A3 // u**3, A4 // u**4, A6 // u**6
        )


def invariants(model: WeierstrassModel):
    """(b2, b4, b6, b8, c4, c6, Delta, j) with the standard relations asserted."""
    b2, b4, b6, b8 = model.b_invariants()
    c4, c6 = model.c_invariants()
    disc = model.discriminant()
    assert 4 * b8 == b2 * b6 - b4 * b4
    assert c4**3 - c6 * c6 == 1728 * disc
    return b2, b4, b6, b8, c4, c6, disc, Fraction(c4**3, disc)


def _count_naive_23(model, p):
    n = 1
    a1, a2, a3, a4, a6 = [a % p for a in model.ainvs()]
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p == 0:
                n += 1
    return n


def _count_naive_short(A, B, p):
    """#E(F_p) for y^2 = x^3 + Ax + B, p >= 5, via quadratic-character sums."""
    A %= p
    B %= p
    x = np.arange(p, dtype=np.int64)
    sq = x * x % p
    counts = np.bincount(sq, minlength=p)  # counts[z] = #{y in F_p : y^2 = z}
    return int(counts[((sq + A) * x + B) % p].sum()) + 1


# ---------------------------------------------------------------------------
# baby-step/giant-step order finding


def _ec_add(P, Q, A, p):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(n, P, A, p):
    R = None
    while n:
        if n & 1:
            R = _ec_add(R, P, A, p)
        P = _ec_add(P, P, A, p)
        n >>= 1
    return R


def _random_point(A, B, p, state):
    """A point on y^2 = x^3 + A r^2 x + B r^3 for a random r = x^3 + Ax + B != 0.

    (r x, r^2) lies on that curve, so no square root is taken; the curve is E
    when (r|p) = 1 and its quadratic twist when (r|p) = -1.  Returns the point,
    r, (r|p) and the generator's next state.
    """
    while True:
        state = (state * 1103515245 + 12345) % (1 << 31)
        x = state % p
        r = (x * x % p * x + A * x + B) % p
        if r:
            return (r * x % p, r * r % p), r, kronecker(r, p), state


def _point_order(P, A, p, lo, hi):
    """A multiple of ord(P) that divides #E(F_p), given that #E(F_p) lies in [lo, hi].

    Baby-step/giant-step finds every n in [lo, hi] with nP = 0.  These are the
    multiples of ord(P) in [lo, hi], and #E(F_p) is one of them, so two hits
    give ord(P) as their spacing and a single hit is #E(F_p) itself.  An order
    up to the baby-step count is found, exactly, among the baby steps.
    """
    m = math.isqrt(hi - lo + 1) + 1
    baby = {}  # iP -> i for 0 <= i < m, all distinct once ord(P) > m
    Q = None
    for i in range(m):
        baby[Q] = i
        Q = _ec_add(Q, P, A, p)
        if Q is None:
            return i + 1
    # lo + j*m + i annihilates P iff (lo + j*m)P = -(iP); Q is now mP
    R = _ec_mul(lo, P, A, p)
    hits = []
    for j in range(m + 1):
        i = baby.get(None if R is None else (R[0], -R[1] % p))
        if i is not None and lo + j * m + i <= hi:
            hits.append(lo + j * m + i)
            if len(hits) == 2:
                return hits[1] - hits[0]
        R = _ec_add(R, Q, A, p)
    if not hits:
        raise RuntimeError("no annihilator found in Hasse interval")
    return hits[0]


def _cartier_manin(A, B, p):
    """a_p mod p as the x^(p-1) coefficient of (x^3+Ax+B)^((p-1)/2)."""
    # polynomial power mod p, tracked as coefficient dict (degrees up to 3(p-1)/2)
    half = (p - 1) // 2
    base = {0: B % p, 1: A % p, 3: 1}
    result = {0: 1}

    def polmul(f, g):
        h = {}
        for d1, c1 in f.items():
            if not c1:
                continue
            for d2, c2 in g.items():
                d = d1 + d2
                h[d] = (h.get(d, 0) + c1 * c2) % p
        return h

    e = half
    while e:
        if e & 1:
            result = polmul(result, base)
        e >>= 1
        if e:
            base = polmul(base, base)
    return result.get(p - 1, 0) % p


def _count_bsgs(A, B, p):
    """Group order via random point orders on the curve and its twist (Mestre),
    with a Cartier-Manin congruence to settle small-p ambiguity."""
    s = math.isqrt(4 * p) + 1
    lo, hi = p + 1 - s, p + 1 + s
    l_curve, l_twist = 1, 1
    state = (A * 2654435761 + B * 40503 + p) % (1 << 31) or 1
    for rounds in range(40):
        P, r, side, state = _random_point(A, B, p, state)
        d = _point_order(P, A * r * r % p, p, lo, hi)
        if side == 1:
            l_curve = math.lcm(l_curve, d)
        else:
            l_twist = math.lcm(l_twist, d)
        # #E = n needs l_curve | n and l_twist | 2p + 2 - n: step the larger modulus
        step, residue = (l_curve, 0) if l_curve >= l_twist else (l_twist, 2 * p + 2)
        cands = [
            n
            for n in range(lo + (residue - lo) % step, hi + 1, step)
            if n % l_curve == 0 and (2 * p + 2 - n) % l_twist == 0
        ]
        if len(cands) == 1:
            return cands[0]
        if len(cands) == 0:
            raise RuntimeError("order constraints inconsistent")
        if rounds >= 3 and p < 700:
            # below ~457 the exponent of curve+twist need not pin the order; from
            # the fourth point on, the Cartier-Manin congruence a_p mod p settles it
            # (cheap for tiny p)
            apm = _cartier_manin(A, B, p)
            cands = [n for n in cands if (p + 1 - n) % p == apm]
            if len(cands) == 1:
                return cands[0]
    raise RuntimeError(f"group order not pinned down at p={p}")


def _trace_good(model, A, B, p, strategy):
    """a_p of `model` at a prime p of good reduction for it; at p >= 5 the count
    is made on y^2 = x^3 + Ax + B, a model isomorphic to it over Z_(p)."""
    if p < 5:
        n = _count_naive_23(model, p)
    elif strategy == "naive" or (strategy == "auto" and p < NAIVE_CROSSOVER):
        n = _count_naive_short(A, B, p)
    else:
        n = _count_bsgs(A % p, B % p, p)
    ap = p + 1 - n
    assert ap * ap <= 4 * p, f"Hasse-Weil violated at p={p}"
    return ap


def count_points(model: WeierstrassModel, p: int, strategy: str = "auto") -> int:
    """Frobenius trace a_p = p + 1 - #E(F_p) at a prime of good reduction."""
    from . import localdata

    if strategy not in ("auto", "naive", "bsgs"):
        raise ValueError(f"unknown strategy {strategy!r}; expected auto, naive or bsgs")
    loc = localdata.tate(model, p)
    if loc.f != 0:
        raise BadReduction(f"p={p} divides the minimal discriminant")
    E = loc.minimal_model  # a short model at p >= 5
    return _trace_good(E, E.a4, E.a6, p, strategy)


@dataclass(frozen=True)
class TraceTable:
    model: WeierstrassModel
    bound: int
    good: dict  # p -> a_p
    ramified: dict  # p -> local a_p in {-1, 0, 1}

    def trace(self, p):
        if p in self.good:
            return self.good[p]
        if p in self.ramified:
            return self.ramified[p]
        raise KeyError(p)

    def good_primes(self):
        return sorted(self.good)


def trace_table(curve, X: int) -> TraceTable:
    """a_p for all primes p <= X; ramified primes carry the local coefficient.

    `curve` is a WeierstrassModel, which is reduced here, or the
    GlobalReduction of one, which is used as it is; the table's model is then
    the reduction's minimal model.
    """
    if isinstance(curve, WeierstrassModel):
        from . import localdata

        model, red = curve, localdata.global_reduce(curve)
    else:
        model, red = curve.minimal_model, curve
    ram = {}
    for p, loc in red.locals.items():
        if p <= X:
            ram[p] = {"multSplit": 1, "multNonsplit": -1, "additive": 0}[loc.red_type]
    E = red.minimal_model
    c4, c6 = E.c_invariants()
    A, B = -27 * c4, -54 * c6
    good = {p: _trace_good(E, A, B, p, "auto") for p in primes_up_to(X) if p not in ram}
    return TraceTable(model, X, good, ram)


def quadratic_twist(model: WeierstrassModel, d: int) -> WeierstrassModel:
    """Model of the quadratic twist by squarefree d: same j, a_p scaled by (d|p)."""
    from .arith import is_squarefree

    if d == 0 or not is_squarefree(d):
        raise ValueError(f"twisting discriminant {d} is not squarefree")
    c4, c6 = model.c_invariants()
    return WeierstrassModel(0, 0, 0, -27 * c4 * d * d, -54 * c6 * d**3)


def quartic_twist_model(d: int) -> WeierstrassModel:
    """y^2 = x^3 + d x (j = 1728 family); d must be fourth-power-free."""
    from .arith import factorize

    if d == 0 or any(e >= 4 for _, e in factorize(d).factors):
        raise ValueError(f"{d} is not fourth-power-free")
    return WeierstrassModel(0, 0, 0, d, 0)


def sextic_twist_model(d: int) -> WeierstrassModel:
    """y^2 = x^3 + d (j = 0 family); d must be sixth-power-free."""
    from .arith import factorize

    if d == 0 or any(e >= 6 for _, e in factorize(d).factors):
        raise ValueError(f"{d} is not sixth-power-free")
    return WeierstrassModel(0, 0, 0, 0, d)
