"""The step-by-step Tate algorithm as it ran at p = 2 and 3 before Kraus's
minimality rule and the closed-form coordinate moves: it searches (r, s, t) for
the singular point and the step-6 normal form, and rescales by u = p and starts
over when it reaches step 11.  Kept unchanged as an independent oracle for
`ellgal.localdata.tate`.  It keeps its own root count for the step-6 cubic,
synthetic division at every t in F_p, so it shares no root-finding code with
`ellgal.localdata`, which reads the repeated root off Taylor coefficients."""

from ellgal.arith import valuation
from ellgal.localdata import LocalReduction, _exact_div, _vv


def _cubic_root_mults(coeffs, p):
    """Multiplicity of each root in F_p of a monic cubic, given [1, c2, c1, c0]."""
    mults = {}
    for t in range(p):
        c = [x % p for x in coeffs]
        k = 0
        while len(c) > 1:
            # synthetic division by (T - t)
            q = []
            acc = 0
            for coef in c:
                acc = (acc * t + coef) % p
                q.append(acc)
            if q[-1] != 0:
                break
            c = q[:-1]
            k += 1
        if k:
            mults[t] = k
    return mults


def _quad_has_root(b, c, p):
    """Whether T^2 + bT + c has a root in F_p (brute force, p tiny)."""
    return any((t * t + b * t + c) % p == 0 for t in range(p))


def _move_singular_point(E, p):
    for r in range(p):
        for t in range(p):
            F = E.transform(r=r, t=t)
            if F.a3 % p == 0 and F.a4 % p == 0 and F.a6 % p == 0:
                return F
    raise RuntimeError(f"no rational singular point found mod {p}")


def _step6_normalize(E, p):
    for s in range(p):
        for rk in range(p):
            for t in range(p * p):
                F = E.transform(r=rk * p, s=s, t=t)
                if (
                    F.a1 % p == 0
                    and F.a2 % p == 0
                    and F.a3 % (p * p) == 0
                    and F.a4 % (p * p) == 0
                    and F.a6 % (p**3) == 0
                ):
                    return F
    raise RuntimeError(f"Tate step-6 normalization failed at p={p}")


def _tate_steps(model, p):
    """Full step-by-step Tate algorithm; valid at any p, used in production for p = 2, 3.

    Each rescaling by u = p lowers v_p(Delta) by 12, so the loop ends at a p-minimal model.
    """
    base = model
    while True:
        disc = base.discriminant()
        if disc % p != 0:
            return LocalReduction(p, "I0", 0, 0, "good", True, base)
        vd = valuation(disc, p)
        c4, _ = base.c_invariants()
        pot_good = 3 * _vv(c4, p) >= vd

        E = _move_singular_point(base, p)
        b2, b4, b6, b8 = E.b_invariants()
        if b2 % p != 0:
            # multiplicative: node with tangent directions T^2 + a1 T - a2
            split = _quad_has_root(E.a1 % p, (-E.a2) % p, p)
            red = "multSplit" if split else "multNonsplit"
            return LocalReduction(p, f"I{vd}", 1, vd, red, False, base)
        if _vv(E.a6, p) < 2:
            return LocalReduction(p, "II", vd, vd, "additive", pot_good, base)
        if _vv(b8, p) < 3:
            return LocalReduction(p, "III", vd - 1, vd, "additive", pot_good, base)
        if _vv(b6, p) < 3:
            return LocalReduction(p, "IV", vd - 2, vd, "additive", pot_good, base)
        E = _step6_normalize(E, p)
        # cubic P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + a6/p^3 over F_p
        c2 = _exact_div(E.a2, p)
        c1 = _exact_div(E.a4, p * p)
        c0 = _exact_div(E.a6, p**3)
        mults = _cubic_root_mults([1, c2, c1, c0], p)
        mmax = max(mults.values(), default=1)
        if mmax == 1:
            return LocalReduction(p, "I0*", vd - 4, vd, "additive", pot_good, base)
        root = max(t for t, k in mults.items() if k == mmax)
        if mmax == 2:
            # type I_n* sub-procedure: shift the double root to T = 0
            E = E.transform(r=p * root)
            n = 1
            mx = my = p * p
            while True:
                a3t = _exact_div(E.a3, my)
                a6t = _exact_div(E.a6, mx * my)
                if (a3t * a3t + 4 * a6t) % p != 0:
                    break
                if p == 2:
                    y0 = a6t % 2
                else:
                    y0 = (-a3t * pow(2, -1, p)) % p
                E = E.transform(t=my * y0)
                my *= p
                n += 1
                a2t = _exact_div(E.a2, p)
                a4t = _exact_div(E.a4, p * mx)
                a6t = _exact_div(E.a6, mx * my)
                if (a4t * a4t - 4 * a2t * a6t) % p != 0:
                    break
                if p == 2:
                    x0 = (a6t * pow(a2t, -1, 2)) % 2
                else:
                    x0 = (-a4t * pow(2 * a2t, -1, p)) % p
                E = E.transform(r=mx * x0)
                mx *= p
                n += 1
            return LocalReduction(p, f"I{n}*", vd - 4 - n, vd, "additive", pot_good, base)
        # triple root: shift to T = 0, then steps 8-10
        E = E.transform(r=p * root)
        a3t = _exact_div(E.a3, p * p)
        a6t = _exact_div(E.a6, p**4)
        if (a3t * a3t + 4 * a6t) % p != 0:
            return LocalReduction(p, "IV*", vd - 6, vd, "additive", pot_good, base)
        if p == 2:
            y0 = a6t % 2
        else:
            y0 = (-a3t * pow(2, -1, p)) % p
        E = E.transform(t=p * p * y0)
        if _vv(E.a4, p) < 4:
            return LocalReduction(p, "III*", vd - 7, vd, "additive", pot_good, base)
        if _vv(E.a6, p) < 6:
            return LocalReduction(p, "II*", vd - 8, vd, "additive", pot_good, base)
        # non-minimal: rescale by u = p and start over
        base = E.transform(u=p)
