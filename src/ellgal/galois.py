"""Mod-ell image diagnostics, joint surjectivity, and quadratic character candidates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arith import factorize, is_prime, kronecker, primes_up_to
from .curve import TraceTable
from .localdata import GlobalReduction, phi_order


class InsufficientSamples(Exception):
    pass


class NoCommonWitness(Exception):
    pass


class NoWitnessBelow(Exception):
    def __init__(self, X):
        super().__init__(f"no trace-distinguishing prime below {X}")
        self.X = X


@dataclass(frozen=True)
class ImageReport:
    ell: int
    verdict: str  # surjective | nonsurjectiveWitnessed | undetermined
    bound: int
    certificates: dict  # name -> witness prime (or bool for det)
    obstruction: str | None
    samples: int


@dataclass(frozen=True)
class PairWitness:
    p: int
    a1: int
    a2: int


@dataclass(frozen=True)
class EpsilonCandidateSet:
    ell: int
    support: int  # the product D over additive potentially good primes with |Phi_p| = 4
    candidates: tuple  # signed moduli 2^v2 * 3^v3 * ell^vl * D
    tested: dict = field(default_factory=dict)  # modulus -> count of chi = -1 primes checked


@dataclass(frozen=True)
class JointResult:
    status: str  # jointlySurjective | failed | undetermined
    reason: str | None
    witness: int | None


@dataclass(frozen=True)
class ComparisonResult:
    bound: int
    witness: PairWitness
    spot_checks: tuple  # ((ell, status), ...) over primes in (bound, bound + 50]


@dataclass(frozen=True)
class ScriptLReport:
    ells: tuple
    witness: int | None
    trace: int | None
    product: int
    consistent: bool


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def _integer_roots_monic_cubic(c2, c1, c0):
    """Whether x^3 + c2 x^2 + c1 x + c0 has an integer root, without factoring: it
    lies within the Cauchy bound 1 + max |c_i|, and bisection finds it on the stretch
    where the cubic is monotone, cut at (-c2 -+ sqrt(D))/3, D = c2^2 - 3 c1."""

    def f(x):
        return ((x + c2) * x + c1) * x + c0

    bound = 1 + max(abs(c2), abs(c1), abs(c0))
    D = c2 * c2 - 3 * c1
    root = math.isqrt(max(D, 0))  # D < 0: f increases, and the middle stretch is one point or none
    t1 = (-c2 - root - (root * root != D)) // 3  # floor((-c2 - sqrt(D))/3)
    t2 = (-c2 + root) // 3  # floor((-c2 + sqrt(D))/3)
    for lo, hi, sign in ((-bound, t1, 1), (t1 + 1, t2, -1), (t2 + 1, bound, 1)):  # sign * f rises
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * f(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        if lo == hi and f(lo) == 0:
            return True
    return False


def _image_test_mod2(red: GlobalReduction, X: int) -> ImageReport:
    """Exact verdict at ell = 2 from the 2-division cubic and the discriminant."""
    b2, b4, b6, _ = red.minimal_model.b_invariants()
    # roots of 4x^3 + b2 x^2 + 2 b4 x + b6; X = 4x gives a monic integer cubic
    reducible = _integer_roots_monic_cubic(b2, 8 * b4, 16 * b6)
    disc = red.minimal_model.discriminant()
    if reducible:
        return ImageReport(2, "nonsurjectiveWitnessed", X, {}, "reducible", 0)
    if _is_square(disc):
        return ImageReport(2, "nonsurjectiveWitnessed", X, {}, "cyclicCubic", 0)
    return ImageReport(2, "surjective", X, {"irreducibleNonsquareDisc": True}, None, 0)


def _det_surjective(residues, ell):
    """Whether the residues generate (Z/ell)^*: for each prime q | ell - 1, some
    residue must not be a q-th power, i.e. r^((ell-1)/q) != 1 mod ell."""
    return all(
        any(pow(r, (ell - 1) // q, ell) != 1 for r in residues)
        for q in factorize(ell - 1).primes()
    )


def image_test(red: GlobalReduction, table: TraceTable, ell: int, X: int | None = None) -> ImageReport:
    """Certificate-based surjectivity scan of the mod-ell image over primes <= X.

    Supported for ell = 2 (exact, via the 2-division cubic) and ell >= 5; the
    certificate method degenerates at ell = 3.
    """
    if X is None:
        X = table.bound
    n = table.upto(X)
    if ell == 2:
        return _image_test_mod2(red, X)
    if ell == 3 or not is_prime(ell):
        raise ValueError(f"unsupported ell = {ell}")

    # The scan stops once every certificate holds: the three witnesses are the
    # least primes with their property, and residues only ever add generators.
    cert_a = cert_b = cert_c = None  # witness primes
    dets = set()
    checked = 0  # len(dets) when the determinant was last decided
    det_ok = False
    nonzero_traces = 0
    for p, ap in zip(table.primes[:n], table.aps):
        if p == ell or p in table.bad:
            continue
        ap %= ell
        dets.add(p % ell)
        disc = (ap * ap - 4 * p) % ell
        disc_symbol = kronecker(disc, ell)
        if ap != 0:
            nonzero_traces += 1
            if disc_symbol == -1 and cert_a is None:
                cert_a = p
            if disc_symbol == 1 and cert_b is None:
                cert_b = p
            u = ap * ap * pow(p, -1, ell) % ell
            if u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % ell != 0 and cert_c is None:
                cert_c = p
        if cert_a and cert_b and cert_c and len(dets) > checked:
            checked = len(dets)
            det_ok = _det_surjective(dets, ell)
            if det_ok:
                break
    if len(dets) > checked:
        det_ok = _det_surjective(dets, ell)
    # the good primes <= X other than ell, whether or not the scan stopped early
    samples = n - sum(q <= X for q in table.bad | {ell})
    certs = {
        "nonsquareDisc": cert_a,
        "squareDisc": cert_b,
        "exceptionalExcluded": cert_c,
        "detSurjective": det_ok,
    }
    if cert_a and cert_b and cert_c and det_ok:
        return ImageReport(ell, "surjective", X, certs, None, samples)
    if samples < 10:
        raise InsufficientSamples(f"only {samples} good primes below {X}")
    obstruction = None
    if nonzero_traces == 0:
        obstruction = "traceZero"
    elif cert_a is None:
        obstruction = "reducible"
    elif cert_b is None:
        obstruction = "nonsplitCartanNormalizer"
    elif cert_c is None:
        obstruction = "exceptional"
    if samples >= 30 and obstruction is not None:
        return ImageReport(ell, "nonsurjectiveWitnessed", X, certs, obstruction, samples)
    return ImageReport(ell, "undetermined", X, certs, obstruction, samples)


def pair_witness(t1: TraceTable, t2: TraceTable, X: int) -> PairWitness | None:
    """Least p <= X, good for both curves, with |a_p(E1)| != |a_p(E2)|; None if absent.

    A table's good primes leave out every prime that divides its conductor.
    """
    n = min(t1.upto(X), t2.upto(X))
    for p, a1, a2 in zip(t1.primes[:n], t1.aps, t2.aps):
        if abs(a1) != abs(a2) and p not in t1.bad and p not in t2.bad:
            return PairWitness(p, a1, a2)
    return None


def joint_surjectivity_test(red1, t1, red2, t2, ell, X=None) -> JointResult:
    if X is None:
        X = min(t1.bound, t2.bound)
    for red, tab in ((red1, t1), (red2, t2)):
        rep = image_test(red, tab, ell, X)
        if rep.verdict != "surjective":
            return JointResult("failed", "single-curve-image", None)
    same_abs = True
    n = min(t1.upto(X), t2.upto(X))
    for p, a1, a2 in zip(t1.primes[:n], t1.aps, t2.aps):
        if p == ell or p in t1.bad or p in t2.bad:
            continue
        if abs(a1) != abs(a2):
            same_abs = False
        if (a1 - a2) % ell != 0 and (a1 + a2) % ell != 0:
            return JointResult("jointlySurjective", None, p)
    if same_abs:
        return JointResult("failed", "condition-iii", None)
    return JointResult("undetermined", "no witness in range", None)


def pair_bound(red1: GlobalReduction, red2: GlobalReduction, p: int) -> int:
    """max{c(E1), c(E2), ceil(4 sqrt(p))} for a trace-distinguishing prime p, with
    c(E) = 7 for a semistable curve and 37 otherwise; the ceiling is exact."""
    c = 7 if red1.semistable and red2.semistable else 37
    root = math.isqrt(16 * p)
    return max(c, root if root * root == 16 * p else root + 1)


def comparison_bound(red1, t1, red2, t2, X=None) -> ComparisonResult:
    """pair_bound at the least witness, with each prime in (bound, bound + 50]
    spot-checked for joint surjectivity."""
    if X is None:
        X = min(t1.bound, t2.bound)
    w = pair_witness(t1, t2, X)
    if w is None:
        raise NoWitnessBelow(X)
    bound = pair_bound(red1, red2, w.p)
    checks = []
    for ell in range(bound + 1, bound + 51):
        if not is_prime(ell):
            continue
        try:
            res = joint_surjectivity_test(red1, t1, red2, t2, ell, X)
            checks.append((ell, res.status))
        except InsufficientSamples:
            checks.append((ell, "insufficientSamples"))
    return ComparisonResult(bound, w, tuple(checks))


def epsilon_candidates(red: GlobalReduction, ell: int) -> EpsilonCandidateSet:
    """All signed moduli 2^v2 3^v3 ell^vl D; pruning, not derivation, picks the character."""
    if ell <= 3:
        raise ValueError("epsilon machinery needs ell > 3")
    D = 1
    for p, loc in sorted(red.locals.items()):
        if p >= 5 and p != ell and loc.red_type == "additive" and loc.pot_good:
            if phi_order(loc) == 4:
                D *= p
    cands = []
    for sign in (1, -1):
        for v2 in range(4):
            for v3 in (0, 1):
                for vl in (0, 1):
                    m = sign * 2**v2 * 3**v3 * ell**vl * D
                    if m != 1:
                        cands.append(m)
    return EpsilonCandidateSet(ell, D, tuple(sorted(cands)))


def prune_epsilon(cands: EpsilonCandidateSet, table: TraceTable, ell: int) -> EpsilonCandidateSet:
    """Keep moduli m with: chi_m(p) = -1 implies ell | a_p, over every good p in the table."""
    good = [
        (p, ap % ell) for p, ap in zip(table.primes, table.aps) if p != ell and p not in table.bad
    ]
    survivors = []
    counts = {}
    for m in cands.candidates:
        if _is_square(m):
            continue  # square modulus: trivial character, can never be epsilon
        tested = 0
        alive = True
        for p, r in good:
            if kronecker(m, p) == -1:
                if r != 0:
                    alive = False
                    break
                tested += 1
        if alive:
            survivors.append(m)
            counts[m] = tested
    return EpsilonCandidateSet(cands.ell, cands.support, tuple(survivors), counts)


def script_l_scan(red: GlobalReduction, table: TraceTable, window: int, X=None) -> ScriptLReport:
    """Non-surjective ell = 1 (mod 4) among the primes up to `window`, with a joint
    divisibility witness."""
    if X is None:
        X = table.bound
    n = table.upto(X)
    apg = {p for p, loc in red.locals.items() if loc.red_type == "additive" and loc.pot_good}
    ells = []
    survivors = {}
    for ell in primes_up_to(window):
        if ell % 4 != 1 or ell < 5 or ell in apg:
            continue
        try:
            rep = image_test(red, table, ell, X)
        except InsufficientSamples:
            continue
        if rep.verdict == "nonsurjectiveWitnessed" and rep.obstruction in (
            "nonsplitCartanNormalizer",
            "traceZero",
        ):
            surv = prune_epsilon(epsilon_candidates(red, ell), table, ell)
            if surv.candidates:
                ells.append(ell)
                survivors[ell] = surv.candidates
    if not ells:
        return ScriptLReport((), None, None, 1, True)
    prod = math.prod(ells)
    for p, ap in zip(table.primes[:n], table.aps):
        if ap == 0 or p <= window or p in table.bad:
            continue
        if all(any(kronecker(m, p) == -1 for m in survivors[l]) for l in ells):
            consistent = ap % prod == 0 and prod * prod <= 4 * p
            return ScriptLReport(tuple(ells), p, ap, prod, consistent)
    raise NoCommonWitness(f"no common chi = -1 prime with a_p != 0 below {X}")
