"""Tate's algorithm: minimal models, Kodaira symbols, conductor exponents, Phi_p."""

from __future__ import annotations

from dataclasses import dataclass

from .arith import InvariantViolation, factorize, kronecker, valuation
from .curve import WeierstrassModel


class NotAdditivePotGood(Exception):
    pass


class PreconditionFailed(Exception):
    pass


_BIG = 10**9


def _vv(n, p):
    return _BIG if n == 0 else valuation(n, p)


def _exact_div(n, d):
    q, r = divmod(n, d)
    if r:
        raise RuntimeError(f"expected {d} | {n}")
    return q


@dataclass(frozen=True)
class LocalReduction:
    p: int
    kodaira: str
    f: int
    v_delta_min: int
    red_type: str  # good | multSplit | multNonsplit | additive
    pot_good: bool
    minimal_model: WeierstrassModel


@dataclass(frozen=True)
class GlobalReduction:
    minimal_model: WeierstrassModel
    conductor: int
    locals: dict  # p -> LocalReduction, bad primes only
    semistable: bool
    satisfies_cond12: bool
    n_add: int  # product of the additive bad primes (radical)


# v_p(Delta_min) -> (Kodaira symbol, |Phi_p|) at an additive p >= 5 other than
# I_n*; |Phi_p| is read only where the reduction is potentially good
_ADDITIVE = {
    2: ("II", 6), 3: ("III", 4), 4: ("IV", 3), 6: ("I0*", 2),
    8: ("IV*", 3), 9: ("III*", 4), 10: ("II*", 6),
}


def _check_f_bound(p, f):
    limit = 8 if p == 2 else 5 if p == 3 else 2
    if f > limit:
        raise InvariantViolation(f"conductor exponent {f} at p={p} exceeds {limit}")


def _kraus(c4, c6, p):
    """Kraus's condition at p for c4, c6 to be the invariants of an integral model
    (Manuscripta Math. 63, 1989); it always holds at p >= 5."""
    if p == 2:
        return c6 % 4 == 3 or (c4 % 16 == 0 and c6 % 32 in (0, 8))
    return p > 3 or c6 % 27 not in (9, 18)


def _minimal_scaling(c4, c6, vdelta, p):
    """The d for which c4 / p^(4d) and c6 / p^(6d) are the invariants of a p-minimal
    model: the largest d with p^(4d) | c4, p^(6d) | c6, 12d <= v_p(Delta) = vdelta
    and Kraus's condition at p. This is the one rule that decides minimality."""
    d = vdelta // 12
    if c4:
        d = min(d, valuation(c4, p) // 4)
    if c6:
        d = min(d, valuation(c6, p) // 6)
    while d and not _kraus(c4 // p ** (4 * d), c6 // p ** (6 * d), p):
        d -= 1
    return d


def _connell(c4, c6):
    """The reduced model (a1, a3 in {0, 1}, a2 in {-1, 0, 1}) with invariants c4, c6,
    integral when Kraus's condition holds at 2 and 3 (Connell; Cremona, Algorithms
    for Modular Elliptic Curves, 3.2)."""
    b2 = (5 - c6) % 12 - 5  # -c6 mod 12, in [-5, 6]
    b4 = _exact_div(b2 * b2 - c4, 24)
    b6 = _exact_div(-(b2**3) + 36 * b2 * b4 - c6, 216)
    a1, a3 = b2 % 2, b6 % 2
    return WeierstrassModel(a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4)


def _tate_table(c4, c6, vd, p):
    """Reduction data at p >= 5 from the (v(c4), v(Delta)) valuation table, given the
    invariants c4, c6 of a p-minimal model and vd = v_p(Delta); the model attached
    is y^2 = x^3 - 27 c4 x - 54 c6, minimal at p."""
    vc4 = _vv(c4, p)
    mmodel = WeierstrassModel(0, 0, 0, -27 * c4, -54 * c6)
    if vd == 0:
        return LocalReduction(p, "I0", 0, 0, "good", True, mmodel)
    if vc4 == 0:
        split = kronecker(-c6, p) == 1
        red = "multSplit" if split else "multNonsplit"
        return LocalReduction(p, f"I{vd}", 1, vd, red, False, mmodel)
    if vc4 == 2 and vd >= 7:
        kod = f"I{vd - 6}*"
    elif vd in _ADDITIVE:
        kod = _ADDITIVE[vd][0]
    else:
        raise InvariantViolation(f"impossible valuation pair v(c4)={vc4}, v(D)={vd} at p={p}")
    return LocalReduction(p, kod, 2, vd, "additive", 3 * vc4 >= vd, mmodel)


def _deepest_root(c2, c1, c0, p):
    """The largest (k, t) over t in F_p, k the multiplicity of t as a root of
    T^3 + c2 T^2 + c1 T + c0 mod p: the index of the first Taylor coefficient at t,
    f(t), (3t + 2 c2) t + c1, 3t + c2 and 1, that p does not divide. They are exact
    integers, so this holds at p = 2 too; a cubic has at most one repeated root."""
    def mult(t):
        taylor = (((t + c2) * t + c1) * t + c0, (3 * t + 2 * c2) * t + c1, 3 * t + c2, 1)
        return next(k for k, a in enumerate(taylor) if a % p)

    return max((mult(t), t) for t in range(p))


def _singular_point(E, p):
    """(r, t) that move the singular point of E mod p to (0, 0), in closed form
    (Cremona 3.2; Cohen, GTM 138, Alg. 7.5.1)."""
    a1, a2, a3, a4, a6 = E.ainvs()
    b2, b4, b6, _ = E.b_invariants()
    if p == 2:
        if b2 % 2 == 0:
            return a4 % 2, (a4 * (1 + a2 + a4) + a6) % 2
        return a3 % 2, (a3 + a4) % 2
    if p == 3:
        r = -b6 if b2 % 3 == 0 else -b2 * b4
        return r % 3, (a1 * r + a3) % 3
    c4, c6 = E.c_invariants()  # p >= 5, reached only by the tests' oracle
    r = -b2 * pow(12, -1, p) if c4 % p == 0 else -(c6 + b2 * c4) * pow(12 * c4, -1, p)
    return r % p, -(a1 * r + a3) * pow(2, -1, p) % p


def _tate_steps(base, c4, vd, p):
    """Step-by-step Tate algorithm on a p-minimal model `base` with invariant c4 and
    vd = v_p(Delta); valid at any p, used in production for p = 2, 3.

    Every coordinate move is read off the a-invariants, so the steps only classify:
    reaching step 11 is an invariant violation.
    """
    if vd == 0:
        return LocalReduction(p, "I0", 0, 0, "good", True, base)
    pot_good = 3 * _vv(c4, p) >= vd

    r, t = _singular_point(base, p)
    E = base.transform(r=r, t=t)
    b2, b4, b6, b8 = E.b_invariants()
    if b2 % p != 0:
        # multiplicative: node with tangent directions T^2 + a1 T - a2, of discriminant b2
        red = "multSplit" if kronecker(b2, p) == 1 else "multNonsplit"
        return LocalReduction(p, f"I{vd}", 1, vd, red, False, base)
    if _vv(E.a6, p) < 2:
        return LocalReduction(p, "II", vd, vd, "additive", pot_good, base)
    if _vv(b8, p) < 3:
        return LocalReduction(p, "III", vd - 1, vd, "additive", pot_good, base)
    if _vv(b6, p) < 3:
        return LocalReduction(p, "IV", vd - 2, vd, "additive", pot_good, base)
    # p | a1, a2; p^2 | a3, a4; p^3 | a6
    if p == 2:
        E = E.transform(s=E.a2 % 2, t=2 * (E.a6 // 4 % 2))
    else:
        E = E.transform(s=-E.a1 * pow(2, -1, p) % p, t=-E.a3 * pow(2, -1, p * p) % (p * p))
    # cubic P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + a6/p^3 over F_p
    c2 = _exact_div(E.a2, p)
    c1 = _exact_div(E.a4, p * p)
    c0 = _exact_div(E.a6, p**3)
    k, root = _deepest_root(c2, c1, c0, p)
    if k <= 1:
        return LocalReduction(p, "I0*", vd - 4, vd, "additive", pot_good, base)
    E = E.transform(r=p * root)  # shift the repeated root to T = 0
    if k == 2:
        # type I_n* sub-procedure
        n = 1
        mx = my = p * p
        while True:
            a3t = _exact_div(E.a3, my)
            a6t = _exact_div(E.a6, mx * my)
            if (a3t * a3t + 4 * a6t) % p != 0:
                break
            y0 = a6t % 2 if p == 2 else -a3t * pow(2, -1, p) % p
            E = E.transform(t=my * y0)
            my *= p
            n += 1
            a2t = _exact_div(E.a2, p)
            a4t = _exact_div(E.a4, p * mx)
            a6t = _exact_div(E.a6, mx * my)
            if (a4t * a4t - 4 * a2t * a6t) % p != 0:
                break
            x0 = a6t * pow(a2t, -1, 2) % 2 if p == 2 else -a4t * pow(2 * a2t, -1, p) % p
            E = E.transform(r=mx * x0)
            mx *= p
            n += 1
        return LocalReduction(p, f"I{n}*", vd - 4 - n, vd, "additive", pot_good, base)
    # triple root: steps 8-10
    a3t = _exact_div(E.a3, p * p)
    a6t = _exact_div(E.a6, p**4)
    if (a3t * a3t + 4 * a6t) % p != 0:
        return LocalReduction(p, "IV*", vd - 6, vd, "additive", pot_good, base)
    y0 = a6t % 2 if p == 2 else -a3t * pow(2, -1, p) % p
    E = E.transform(t=p * p * y0)
    if _vv(E.a4, p) < 4:
        return LocalReduction(p, "III*", vd - 7, vd, "additive", pot_good, base)
    if _vv(E.a6, p) < 6:
        return LocalReduction(p, "II*", vd - 8, vd, "additive", pot_good, base)
    raise InvariantViolation(f"Tate's algorithm reached step 11 at p={p} on a p-minimal model")


def _classify(E, c4, c6, vd, p):
    """Reduction data at p of E, p-minimal with invariants c4, c6 and vd = v_p(Delta):
    the valuation table at p >= 5, Tate's steps at 2 and 3. Neither decides minimality."""
    loc = _tate_table(c4, c6, vd, p) if p >= 5 else _tate_steps(E, c4, vd, p)
    _check_f_bound(p, loc.f)
    if vd and loc.f < 1:
        raise InvariantViolation(f"conductor exponent {loc.f} at p={p}, which divides Delta_min")
    return loc


def tate(model: WeierstrassModel, p: int) -> LocalReduction:
    """Local reduction data at p, with a p-minimal model attached."""
    c4, c6 = model.c_invariants()
    vd = valuation(model.discriminant(), p)
    d = _minimal_scaling(c4, c6, vd, p)
    if d:
        c4, c6, vd = c4 // p ** (4 * d), c6 // p ** (6 * d), vd - 12 * d
        model = _connell(c4, c6)
    return _classify(model, c4, c6, vd, p)


def phi_order(local: LocalReduction):
    """|Phi_p| for p >= 5 (read off v_p(Delta_min)); opaque tag at p = 2, 3.

    At 2 and 3 several group shapes occur and the valuation data does not
    single one out, so no guess is made.
    """
    if local.red_type != "additive" or not local.pot_good:
        raise NotAdditivePotGood(f"p={local.p} is not additive potentially good")
    if local.p >= 5:
        return _ADDITIVE[local.v_delta_min][1]
    return "undetermined23"


def inertial_type(local: LocalReduction) -> str:
    """Inertial Weil-Deligne class at an additive potentially good p >= 5 with |Phi_p| = 4."""
    if local.p < 5:
        raise PreconditionFailed("defined only for p >= 5")
    order = phi_order(local)  # raises NotAdditivePotGood when inapplicable
    if order != 4:
        raise PreconditionFailed(f"|Phi_p| = {order}, need 4")
    if local.p % 4 == 1:
        return "principalSeries_tps114"
    return "supercuspidal_tsc_u24"


def potential_goodness(local: LocalReduction) -> bool:
    return local.pot_good


def global_reduce(model: WeierstrassModel) -> GlobalReduction:
    """Globally minimal model, conductor, and the per-prime reduction map."""
    c4, c6 = model.c_invariants()
    u, vmin = 1, {}
    for p, v in factorize(abs(model.discriminant())).factors:
        d = _minimal_scaling(c4, c6, v, p)
        u *= p**d
        vmin[p] = v - 12 * d  # v_p(Delta_min); Delta_min divides Delta
    c4, c6 = c4 // u**4, c6 // u**6
    E = _connell(c4, c6)

    locs = {p: _classify(E, c4, c6, v, p) for p, v in vmin.items() if v}
    conductor = 1
    n_add = 1
    cond12 = True
    for p, loc in sorted(locs.items()):
        conductor *= p**loc.f
        if loc.red_type == "additive":
            n_add *= p
            if p >= 5 and loc.pot_good and phi_order(loc) == 4:
                cond12 = False
    if n_add * n_add > conductor:
        raise InvariantViolation("additive radical exceeds sqrt of conductor")
    semistable = all(loc.f <= 1 for loc in locs.values())
    return GlobalReduction(E, conductor, locs, semistable, cond12, n_add)
