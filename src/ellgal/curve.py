"""Weierstrass models over Q: invariants, twists, and Frobenius trace computation."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arith import InvariantViolation, factorize, is_prime, is_squarefree, kronecker, primes_up_to


class SingularModel(Exception):
    pass


class BadReduction(Exception):
    pass


# Trace tables count naively below a crossover and in BSGS lanes from it on.
#
# A table's naive primes are counted for all its curves at once.  Microseconds
# per (curve, prime), naive batch / BSGS batch (lanes of all the batch's
# curves, both passes), medians of five, two runs on 2 vCPU.
# The 24 corpus-scan curves of seed 1 in one batch:
#   [1024, 2048) 11.2/14.9  12.4/17.1   [2048, 3072) 17.5/10.6  20.6/18.0
#   [3072, 4096) 16.8/10.4  26.6/17.9   [4096, 5120) 23.5/10.8  34.0/11.5
#   [5120, 6144) 46.3/18.6  52.3/13.0   [6144, 8192) 67.5/11.8  72.9/17.2
# Four curves (37a, 389a, 11a, [1,-1,1,-1,-14]), each in a batch of its own:
#   [1024, 2048) 25.6/24.5  44.6/47.8   [2048, 3072) 32.8/27.6  54.5/52.7
#   [3072, 4096) 40.4/28.5  64.4/42.3   [4096, 5120) 50.8/27.1  65.1/44.8
# The lanes are ahead from 2048 for a batch of 24 and for a batch of one, and
# about even with the naive batch over [1024, 2048).
TABLE_CROSSOVER = 2048


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
    """(b2, b4, b6, b8, c4, c6, Delta, j), checked against the standard relations."""
    b2, b4, b6, b8 = model.b_invariants()
    c4, c6 = model.c_invariants()
    disc = model.discriminant()
    if 4 * b8 != b2 * b6 - b4 * b4 or c4**3 - c6 * c6 != 1728 * disc:
        raise InvariantViolation(f"the b- and c-invariant relations fail for {model.ainvs()}")
    return b2, b4, b6, b8, c4, c6, disc, Fraction(c4**3, disc)


def _count_naive_23(model, p):
    n = 1
    a1, a2, a3, a4, a6 = [a % p for a in model.ainvs()]
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p == 0:
                n += 1
    return n


# (curve, x) pairs a naive kernel call evaluates at most: each int64 temporary
# then stays within 128 KB, glibc's default mmap threshold, past which fresh
# buffers are mapped and faulted in on every call (`u -= u // p * p` took 7.4
# ns per residue on 24 x 997 residues, 1.8-2.4 ns on 24 x 498)
_RESIDUES = 1 << 14


def _affine_counts(A, B, p):
    """#{(x, y) in F_p^2 : y^2 = x^3 + A[k]x + B[k]} for each row k, at a prime
    p >= 5; #E(F_p) is one more, the point at infinity.

    A and B are residues mod p: int64 columns (shape (rows, 1)), which give a
    list of counts, or ints for a single row, which give one count.  Only
    x = 0..(p-1)/2 is evaluated: x and -x share u = x(x^2 + A) mod p, with
    f(+-x) = B +- u.  (x^2 mod p + A)x < p^2 fits int64 for every p < 2^31,
    and is reduced by floor division, which numpy does with a multiply for one
    divisor.  One square-count table, doubled to length 2p, serves every row
    and takes B + u and B + p - u as they are.
    """
    x = np.arange(p // 2 + 1, dtype=np.int64)
    xx = x * x % p
    sq = np.zeros(2 * p, dtype=np.int64)  # sq[z] = #{y in F_p : y^2 = z mod p}
    sq[xx] = 2  # x = 1..(p-1)/2 meets each nonzero square once
    sq[0] = 1
    sq[p:] = sq[:p]
    u = xx + A
    u *= x
    u -= u // p * p
    v = (B + p) - u
    u += B
    n = sq[u]
    n += sq[v]
    n[..., 0] //= 2  # x = 0 is its own negative, so it was counted twice
    return np.add.reduce(n, axis=-1).tolist()


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


def _seed(A, B, p):
    """The generator state `_count_bsgs` starts from, for A and B reduced mod p."""
    return (A * 2654435761 + B * 40503 + p) % (1 << 31) or 1


def _next_state(state):
    return (state * 1103515245 + 12345) % (1 << 31)


def _random_point(A, B, p, state):
    """A point on y^2 = x^3 + A r^2 x + B r^3 for a random r = x^3 + Ax + B != 0.

    (r x, r^2) lies on that curve, so no square root is taken; the curve is E
    when (r|p) = 1 and its quadratic twist when (r|p) = -1.  Returns the point,
    r, (r|p) and the generator's next state.
    """
    while True:
        state = _next_state(state)
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
    """a_p mod p at p >= 5 as -sum_x f(x)^((p-1)/2), f = x^3 + Ax + B (Euler's criterion),
    which is the x^(p-1) coefficient of f^((p-1)/2): the Cartier-Manin congruence."""
    return -sum(pow(x * x * x + A * x + B, (p - 1) // 2, p) for x in range(p)) % p


def _count_bsgs(A, B, p):
    """#E(F_p) of y^2 = x^3 + Ax + B, A and B reduced mod p >= 5, from random point
    orders on the curve and its twist (Mestre); below p = 700, where they need
    not pin it, from the fourth point on also by a_p mod p (`_cartier_manin`)."""
    s = math.isqrt(4 * p) + 1
    lo, hi = p + 1 - s, p + 1 + s
    l_curve, l_twist = 1, 1
    state = _seed(A, B, p)
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
            # below ~457 the exponents of curve and twist need not pin the order
            apm = _cartier_manin(A, B, p)
            cands = [n for n in cands if (p + 1 - n) % p == apm]
            if len(cands) == 1:
                return cands[0]
    raise RuntimeError(f"group order not pinned down at p={p}")


# ---------------------------------------------------------------------------
# x-only baby-step/giant-step over many primes at once, one prime per int64 lane
#
# Points are x-coordinates (X:Z) on y^2 = x^3 + ax + b, so no lane takes an
# inverse until one simultaneous inversion per lane at the end.  Every array
# below holds residues in [0, p) of its lane's prime, and every product of two
# of them must stay below 2^63.

LANE_LIMIT = 3_030_000_000  # (LANE_LIMIT - 1)^2 < 2^63
_LANES = 512  # lanes per pass; its tables hold ~3 p^(1/4) residues per lane


def _xdbl(X, Z, a, b4, b8, p):
    """x(2Q) from x(Q) = (X:Z) (Brier-Joye, PKC 2002)."""
    xx, zz, xz = X * X % p, Z * Z % p, X * Z % p
    azz = a * zz % p
    e = xx - azz  # in (-p, p)
    X2 = (e * e - b8 * xz % p * zz % p) % p
    Z2 = (4 * ((xx + azz) % p * xz % p) + b4 * (zz * zz % p) % p) % p  # 4Z(X^3 + aXZ^2 + bZ^3)
    return X2, Z2


def _xadd(X1, Z1, X2, Z2, Xd, Zd, a, b4, p):
    """x(Q1 + Q2) from x(Q1), x(Q2) and x(Q1 - Q2) = (Xd:Zd) (Brier-Joye).

    Exact unless Xd or Zd is 0: x(Q1 - Q2) = 0 gives a false point at infinity
    and Q1 = Q2 gives (0:0), so callers keep such differences out.
    """
    u = Z1 * Z2 % p
    s, v = X1 * Z2 % p, X2 * Z1 % p
    e = X1 * X2 % p - a * u % p  # x1 x2 - a, in (-p, p)
    d = s - v
    f = b4 * u % p * ((s + v) % p) % p
    return (e * e - f) % p * Zd % p, d * d % p * Xd % p


def _ladder(k, X, Z, a, b4, b8, p):
    """x(kQ) for Q = (X:Z) with X, Z != 0, by the Montgomery ladder; also x((k+1)Q).

    The two running points always differ by Q, so every addition is exact.
    """
    X0, Z0 = np.ones_like(X), np.zeros_like(Z)  # the point at infinity
    X1, Z1 = X.copy(), Z.copy()
    for bit in reversed(range(int(k.max(initial=0)).bit_length())):
        up = (k >> bit) & 1 == 1
        Xs, Zs = _xadd(X0, Z0, X1, Z1, X, Z, a, b4, p)
        Xt, Zt = _xdbl(np.where(up, X1, X0), np.where(up, Z1, Z0), a, b4, b8, p)
        X0, Z0, X1, Z1 = (
            np.where(up, Xs, Xt), np.where(up, Zs, Zt), np.where(up, Xt, Xs), np.where(up, Zt, Zs)
        )
    return X0, Z0, X1, Z1


def _lane_pow(base, e, p):
    """base^e mod p, lane by lane."""
    result = np.ones_like(base)
    for bit in reversed(range(int(e.max()).bit_length())):
        result *= result
        result %= p
        result = np.where((e >> bit) & 1 == 1, result * base % p, result)
    return result


def _y_tilde(xQ, xK, xKQ, a, b2, p):
    """2 y_Q y_K mod p from the affine x of Q, K and K + Q on y^2 = x^3 + ax + b,
    b2 = 2b (Okeya-Sakurai); exact when K + Q is finite and x_K != x_Q or K = Q."""
    e = (xQ * xK % p + a) % p * ((xQ + xK) % p) % p
    d = (xQ - xK) % p
    return (e + b2 - xKQ * (d * d % p) % p) % p


def _count_bsgs_lanes(A, B, primes, states):
    """#E(F_p) of y^2 = x^3 + A[k]x + B[k] over F_p, p = primes[k], for each lane
    k of one pass, or None where the lane does not pin it.

    A and B are residues mod p.  A pass holds at most _LANES lanes, each p >= 5
    and below LANE_LIMIT, and may mix curves and bit lengths; its step counts
    come from its largest p.  Lane k draws x = states[k] mod p, as
    `_random_point` does from the state it has just stepped to, and takes
    P = (rx, r^2) on y^2 = x^3 + ar x + br, with ar = A r^2 and br = B r^3.  It
    finds every n in the Hasse interval with nP = 0: baby steps x(iP) for
    i <= m + 1, giant steps x(jG) for G = (2m+1)P, all normalised by one
    inversion per lane and matched on sorted (lane, x) keys.  A match
    x(jG) = x(iP) puts jG = e iP, so n = j(2m+1) - e i.  The sign e is read off
    by y-recovery (Okeya-Sakurai, CHES 2001), not by a ladder:
        Y(K; Q) = (x_Q x_K + a)(x_Q + x_K) + 2b - x_(K+Q) (x_Q - x_K)^2
    is 2 y_Q y_K, and y_P = r^2, so Y(jG; G) 2r^4 = e Y(iP; P) Y(G; P).  The sums
    K + Q are rows too: (i+1)P, (2m+2)P = G + P and (j+1)G, for which there is
    one giant row more than the matches use.  A lane counts only when exactly
    one n is found; then #E is n or 2p + 2 - n as (r|p) = 1 or -1.  A lane is
    left out when it cannot be run exactly (r = 0, a difference with x = 0, an
    order up to 2m + 2) or when the sign of one of its matches does not follow:
    neither or both signs hold (y = 0 gives both), x(jG) = x(G), or (j+1)G is
    at infinity.
    """
    lanes = len(primes)
    p = np.array(primes, dtype=np.int64)
    Ap, Bp = np.array(A, dtype=np.int64), np.array(B, dtype=np.int64)
    x = np.array(states, dtype=np.int64) % p
    r = (x * x % p * x % p + Ap * x % p + Bp) % p
    ok = r != 0
    r[~ok] = 1
    rr = r * r % p
    a, b = Ap * rr % p, Bp * (rr * r % p) % p
    b4, b8 = 4 * b % p, 8 * b % p
    curve = (a, b4, b8, p)
    xP, one = r * x % p, np.ones_like(p)
    side = _lane_pow(r, (p - 1) // 2, p) == 1

    s = np.array([math.isqrt(4 * q) + 1 for q in primes], dtype=np.int64)
    lo, hi = p + 1 - s, p + 1 + s
    m = math.isqrt(int(s.max())) + 1
    w = 2 * m + 1
    j_lo = (lo + m) // w
    J = max(2, int(((hi + m) // w - j_lo).max()) + 1)

    # rows 0..m hold x(iP) for i = 1..m+1, row m+1 is G, row m+2 is (2m+2)P,
    # rows g..g+J hold x((j_lo + t)G): the last one only as the (j+1)G of row J-1
    g = m + 3
    X = np.empty((g + J + 1, lanes), dtype=np.int64)
    Z = np.empty_like(X)
    X[0], Z[0] = xP, one
    X[1], Z[1] = _xdbl(xP, one, *curve)
    for i in range(2, m + 1):
        X[i], Z[i] = _xadd(X[i - 1], Z[i - 1], xP, one, X[i - 2], Z[i - 2], a, b4, p)
    X[m + 1], Z[m + 1] = GX, GZ = _xadd(X[m], Z[m], X[m - 1], Z[m - 1], xP, one, a, b4, p)
    X[m + 2], Z[m + 2] = _xdbl(X[m], Z[m], *curve)
    ok &= (Z[:g] != 0).all(axis=0) & (X[: m + 2] != 0).all(axis=0)  # X[0] is x(P)

    X[g], Z[g], X[g + 1], Z[g + 1] = _ladder(j_lo, GX, GZ, *curve)
    for t in range(g + 1, g + J):
        # the difference is row t - 1: at infinity, row t is G and t + 1 is 2G
        X[t + 1], Z[t + 1] = _xadd(X[t], Z[t], GX, GZ, X[t - 1], Z[t - 1], a, b4, p)
        at_inf = Z[t - 1] == 0
        if at_inf.any():
            k = np.flatnonzero(at_inf)
            X[t + 1, k], Z[t + 1, k] = _xdbl(X[t, k], Z[t, k], *(v[k] for v in curve))
        ok &= X[t - 1] != 0  # infinity is (X:0) with X != 0

    # Montgomery's simultaneous inversion along each lane; infinity keeps Z = 1.
    # Forward, X[k] picks up Z[0]..Z[k-1]; backward, inv runs over 1/(Z[0]..Z[k]).
    inf = Z[g:] == 0
    Z[g:][inf] = 1
    run = Z[0].copy()
    for k in range(1, len(Z)):
        X[k] *= run
        X[k] %= p
        run *= Z[k]
        run %= p
    inv = _lane_pow(run, p - 2, p)
    for k in range(len(Z) - 1, -1, -1):
        X[k] *= inv
        X[k] %= p
        inv *= Z[k]
        inv %= p
    del Z

    # a giant x equal to a baby x(iP) puts jG = +-iP; x < 2^32, so a key is (lane, x)
    lane = np.arange(lanes, dtype=np.int64)
    keys = (X[:m] + (lane << 32)).ravel()  # i = 1..m: windows of width w do not overlap
    order = np.argsort(keys)
    keys = keys[order]
    ok[keys[1:][keys[1:] == keys[:-1]] >> 32] = False  # x(iP) = x(i'P): small order
    giant = X[g : g + J] + (lane << 32)
    giant[inf[:J]] = -1
    giant = giant.ravel()
    pos = np.minimum(np.searchsorted(keys, giant), len(keys) - 1)
    hit = np.flatnonzero(keys[pos] == giant)
    i = order[pos[hit]] // lanes + 1
    t, ln = np.divmod(hit, lanes)

    aa, pp = a[ln], p[ln]
    b2 = 2 * b % p
    yG = _y_tilde(xP, X[m + 1], X[m + 2], a, b2, p)  # Y(G; P), (2m+2)P = G + P
    xG = X[m + 1, ln]
    rhs = _y_tilde(xP[ln], X[i - 1, ln], X[i, ln], aa, b2[ln], pp) * yG[ln] % pp
    lhs = _y_tilde(xG, X[g + t, ln], X[g + t + 1, ln], aa, b2[ln], pp)
    lhs = lhs * (2 * (rr * rr % p) % p)[ln] % pp
    plus, minus = lhs == rhs, (lhs + rhs) % pp == 0
    ok[ln[(plus == minus) | inf[t + 1, ln] | (X[g + t, ln] == xG)]] = False

    t_inf, ln_inf = np.divmod(np.flatnonzero(inf[:J]), lanes)
    c = (j_lo[ln] + t) * w
    n = np.concatenate([np.where(plus, c - i, c + i), (j_lo[ln_inf] + t_inf) * w])
    ln = np.concatenate([ln, ln_inf])
    keep = ok[ln] & (lo[ln] <= n) & (n <= hi[ln])
    n, ln = n[keep], ln[keep]
    pinned = ok & (np.bincount(ln, minlength=lanes) == 1)
    count = np.zeros(lanes, dtype=np.int64)
    count[ln] = n
    count = np.where(side, count, 2 * p + 2 - count)
    return [n if ok else None for n, ok in zip(count.tolist(), pinned.tolist())]


def _count_bsgs_batch(A, B, primes):
    """#E(F_p) of y^2 = x^3 + A[k]x + B[k] over F_p, p = primes[k], for each k,
    or None where the lanes leave it to the scalar route; primes ascend, all >= 5.

    A prime at or above LANE_LIMIT is never sent to a lane.  Every lane first
    takes the point `_count_bsgs` draws first, and the lanes that leave their
    count open take the generator's next point.  Both draws pack consecutive
    lanes into passes of at most _LANES, which bounds their memory; a pass may
    mix curves and bit lengths, and takes its step counts from its largest p.
    """
    counts = [None] * len(primes)
    lanes = range(bisect_left(primes, LANE_LIMIT))
    for draw in (1, 2):
        left = []
        for start in range(0, len(lanes), _LANES):
            ks = lanes[start : start + _LANES]
            P = [primes[k] for k in ks]
            Ap = [A[k] % q for k, q in zip(ks, P)]
            Bp = [B[k] % q for k, q in zip(ks, P)]
            states = [_seed(a, b, q) for a, b, q in zip(Ap, Bp, P)]
            for _ in range(draw):
                states = [_next_state(state) for state in states]
            for k, n in zip(ks, _count_bsgs_lanes(Ap, Bp, P, states)):
                counts[k] = n
                if n is None:
                    left.append(k)
        lanes = left
    return counts


def _checked_trace(p, n):
    ap = p + 1 - n
    if ap * ap > 4 * p:
        raise InvariantViolation(f"Hasse-Weil violated at p={p}: a_p = {ap}")
    return ap


def count_points(model: WeierstrassModel, p: int, strategy: str = "auto") -> int:
    """Frobenius trace a_p = p + 1 - #E(F_p) at a prime of good reduction: from
    p = 5 on by the scalar BSGS `_count_bsgs` ("auto" and "bsgs" both name it) or,
    with strategy="naive", the naive kernel; at p = 2 and 3 by a naive count."""
    from . import localdata

    if strategy not in ("auto", "naive", "bsgs"):
        raise ValueError(f"unknown strategy {strategy!r}; expected auto, naive or bsgs")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    loc = localdata.tate(model, p)
    if loc.f != 0:
        raise BadReduction(f"p={p} divides the minimal discriminant")
    E = loc.minimal_model  # a short model at p >= 5
    if p < 5:
        n = _count_naive_23(E, p)
    elif strategy == "naive":
        n = _affine_counts(E.a4 % p, E.a6 % p, p) + 1
    else:
        n = _count_bsgs(E.a4 % p, E.a6 % p, p)
    return _checked_trace(p, n)


@dataclass(frozen=True, repr=False)
class TraceTable:
    """a_p at every prime up to `bound`, as two aligned tuples.

    `aps[i]` is a_p at `primes[i]`: the Frobenius trace at a good prime, the
    local coefficient in {-1, 0, 1} at a prime in `bad`, the primes <= bound
    that divide the conductor.  Any two tables are aligned by index up to
    the smaller bound, and the tables of one request share one `primes`.  The
    dict views `good` and `ramified` are built on first use.
    """

    model: WeierstrassModel
    bound: int
    primes: tuple  # every prime <= bound, ascending
    aps: tuple
    bad: frozenset

    def __repr__(self):
        return (
            f"TraceTable({self.model!r}, bound={self.bound}, "
            f"{len(self.primes)} primes, bad={sorted(self.bad)})"
        )

    @cached_property
    def good(self) -> dict:
        """p -> a_p at the good primes, ascending."""
        return {p: a for p, a in zip(self.primes, self.aps) if p not in self.bad}

    @cached_property
    def ramified(self) -> dict:
        """p -> the local a_p in {-1, 0, 1} at the bad primes, ascending."""
        return {p: self.trace(p) for p in sorted(self.bad)}

    def good_primes(self):
        """The good primes <= bound, ascending."""
        return tuple(self.good)

    def upto(self, X):
        """The number of primes <= X, which a scan to X reads of each column;
        ValueError when X exceeds the bound, past which the table knows nothing."""
        if X > self.bound:
            raise ValueError(f"X = {X} exceeds the trace table's bound {self.bound}")
        return bisect_right(self.primes, X)

    def trace(self, p):
        i = bisect_left(self.primes, p)
        if i == len(self.primes) or self.primes[i] != p:
            raise KeyError(p)
        return self.aps[i]


_LOCAL_TRACE = {"multSplit": 1, "multNonsplit": -1, "additive": 0}


def _traces(reductions, primes):
    """a_p of each reduction's minimal model at the given ascending primes.

    Returns one list per reduction, aligned with `primes`: the count at a good
    prime, the local coefficient at a bad one.  The curves are counted
    together.  Below TABLE_CROSSOVER each `_affine_counts` call takes one prime
    for as many curves as _RESIDUES allows, their coefficients reduced mod
    every prime of the band up front; from there on all their good primes
    share the BSGS passes, in lanes that mix curves, and a (curve, prime) pair
    the lanes leave is counted by the scalar `_count_bsgs`.  Cells above the
    band start as None, so one that no route fills fails when the store packs
    the row.
    """
    models = [red.minimal_model for red in reductions]
    shorts = [(-27 * c4, -54 * c6) for c4, c6 in (E.c_invariants() for E in models)]
    lo, hi = bisect_left(primes, 5), bisect_left(primes, TABLE_CROSSOVER)
    band = primes[lo:hi]
    P = np.array(band, dtype=np.int64)[:, None]
    step = max(1, _RESIDUES // (max(band, default=2) // 2 + 1))  # (p + 1)/2 values of x a row
    rows = []
    for start in range(0, len(reductions), step):
        # a curve is counted at its bad primes too, on a singular cubic, and overwritten below
        batch = shorts[start : start + step]
        A = [[a % p for p in band] for a, _ in batch]
        B = [[b % p for p in band] for _, b in batch]
        if len(batch) > 1:  # columns to broadcast over the rows; numpy is fastest on ints
            A = np.array(A, dtype=np.int64).T[:, :, None]
            B = np.array(B, dtype=np.int64).T[:, :, None]
        else:
            A, B = A[0], B[0]
        affine = [_affine_counts(a, b, p) for p, a, b in zip(band, A, B)]
        aps = P - np.array(affine, dtype=np.int64).reshape(len(band), len(batch))
        over = np.argwhere(aps * aps > 4 * P)
        if len(over):
            i, k = over[0]
            raise InvariantViolation(f"Hasse-Weil violated at p={band[i]}: a_p = {aps[i, k]}")
        for row in aps.T.tolist():
            rows.append([None] * lo + row + [None] * (len(primes) - hi))

    K, Q = [], []  # the good (curve, p) pairs above the band, in ascending order of p
    for i in range(hi, len(primes)):
        for k, red in enumerate(reductions):
            if primes[i] not in red.locals:
                K.append(k)
                Q.append(primes[i])
    A = [shorts[k][0] for k in K]
    B = [shorts[k][1] for k in K]
    i = hi  # the index of p in primes, which only moves up
    for k, n, a, b, p in zip(K, _count_bsgs_batch(A, B, Q), A, B, Q):
        while primes[i] < p:
            i += 1
        rows[k][i] = _checked_trace(p, _count_bsgs(a % p, b % p, p) if n is None else n)
    for k, red in enumerate(reductions):
        for i in range(lo):
            if primes[i] not in red.locals:
                rows[k][i] = _checked_trace(primes[i], _count_naive_23(models[k], primes[i]))
        for p, loc in red.locals.items():
            i = bisect_left(primes, p)
            if i < len(primes) and primes[i] == p:
                rows[k][i] = _LOCAL_TRACE[loc.red_type]
    return rows


class _TraceStore:
    """Trace tables by minimal model, at most `capacity` a_p in all.

    It keeps each curve's largest table as its a_p (the local coefficient at a
    bad prime) in ascending order of p, serves a smaller bound by slicing it,
    and extends it by counting only the new primes, for all the curves of one
    request at once.  The least recently requested curves go first.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.size = 0  # a_p stored
        self._rows = OrderedDict()  # minimal a-invariants -> (bound, a_p array)

    def clear(self):
        self._rows.clear()
        self.size = 0

    def tables(self, curves, X):
        """trace_table(curve, X) of each curve, all sharing one tuple of primes."""
        from . import localdata

        pairs = [
            (c, localdata.global_reduce(c)) if isinstance(c, WeierstrassModel)
            else (c.minimal_model, c)
            for c in curves
        ]
        keys = [red.minimal_model.ainvs() for _, red in pairs]
        short = {}  # stored bound (-inf: none) -> {key: reduction} of the tables to extend
        for key, (_, red) in zip(keys, pairs):
            bound = self._rows[key][0] if key in self._rows else -math.inf
            if bound < X:
                short.setdefault(bound, {})[key] = red
        primes = tuple(primes_up_to(X))
        for after, group in short.items():
            rows = _traces(list(group.values()), primes[bisect_right(primes, after) :])
            for key, row in zip(group, rows):
                _, old = self._rows.pop(key, (0, _NO_TRACES))
                self._rows[key] = (X, np.concatenate([old, np.array(row, dtype=np.int32)]))
                self.size += len(row)
        tables = []
        for key, (model, red) in zip(keys, pairs):
            self._rows.move_to_end(key)
            aps = tuple(self._rows[key][1][: len(primes)].tolist())
            bad = frozenset(p for p in red.locals if p <= X)
            tables.append(TraceTable(model, X, primes, aps, bad))
        while self.size > self.capacity:
            self.size -= len(self._rows.popitem(last=False)[1][1])
        return tables


_NO_TRACES = np.zeros(0, dtype=np.int32)
# a_p kept at most: the 2,472 tables of criterion 2 at X = 1000 hold 415,296
_STORE = _TraceStore(1 << 20)


def trace_tables(curves, X: int) -> list:
    """trace_table of each curve, all counted together.

    Each curve is a WeierstrassModel, which is reduced here, or the
    GlobalReduction of one, as for trace_table.
    """
    return _STORE.tables(curves, X)


def trace_table(curve, X: int) -> TraceTable:
    """a_p for all primes p <= X; ramified primes carry the local coefficient.

    `curve` is a WeierstrassModel, which is reduced here, or the
    GlobalReduction of one, which is used as it is; the table's model is then
    the reduction's minimal model.  This is the batch of one of trace_tables.
    Both are served by the trace store, which slices a table it holds to a
    smaller bound and extends it to a larger one over the new primes only.
    Neither public entry calls the other, so a per-function timer charges the
    work to the one called.
    """
    return _STORE.tables([curve], X)[0]


def quadratic_twist(model: WeierstrassModel, d: int) -> WeierstrassModel:
    """Model of the quadratic twist by squarefree d: same j, a_p scaled by (d|p)."""
    if d == 0 or not is_squarefree(d):
        raise ValueError(f"twisting discriminant {d} is not squarefree")
    c4, c6 = model.c_invariants()
    return WeierstrassModel(0, 0, 0, -27 * c4 * d * d, -54 * c6 * d**3)


def quartic_twist_model(d: int) -> WeierstrassModel:
    """y^2 = x^3 + d x (j = 1728 family); d must be fourth-power-free."""
    if d == 0 or any(e >= 4 for _, e in factorize(d).factors):
        raise ValueError(f"{d} is not fourth-power-free")
    return WeierstrassModel(0, 0, 0, d, 0)


def sextic_twist_model(d: int) -> WeierstrassModel:
    """y^2 = x^3 + d (j = 0 family); d must be sixth-power-free."""
    if d == 0 or any(e >= 6 for _, e in factorize(d).factors):
        raise ValueError(f"{d} is not sixth-power-free")
    return WeierstrassModel(0, 0, 0, 0, d)
