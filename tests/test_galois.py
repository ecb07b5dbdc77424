import itertools
import random
from fractions import Fraction

import pytest

import galois_reference
from ellgal.arith import kronecker, primes_up_to
from ellgal.curve import WeierstrassModel, count_points, quadratic_twist, trace_table, trace_tables
from ellgal.family import CM_BASES
from ellgal.galois import (
    InsufficientSamples,
    JointResult,
    NoCommonWitness,
    NoWitnessBelow,
    ScriptLReport,
    _det_surjective,
    _integer_roots_monic_cubic,
    comparison_bound,
    epsilon_candidates,
    image_test,
    joint_surjectivity_test,
    pair_witness,
    prune_epsilon,
    script_l_scan,
)
from ellgal.localdata import global_reduce

E37 = WeierstrassModel(0, 0, 1, -1, 0)
E389 = WeierstrassModel(0, 1, 1, -2, 0)
E11 = WeierstrassModel(0, -1, 1, -10, -20)
E27 = WeierstrassModel(0, 0, 1, 0, 0)  # CM by the order of discriminant -27


def _red_and_table(model, X=1000):
    return global_reduce(model), trace_table(model, X)


# ---------------------------------------------------------------------------
# matrix-group oracle: the certificate predicates evaluated on actual subgroups
# of GL2(F5), where surjectivity is decidable by enumeration.


def _gl2(ell):
    for a, b, c, d in itertools.product(range(ell), repeat=4):
        if (a * d - b * c) % ell:
            yield (a, b, c, d)


def _closure(gens, ell):
    def mul(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return (
            (a * e + b * g) % ell,
            (a * f + b * h) % ell,
            (c * e + d * g) % ell,
            (c * f + d * h) % ell,
        )

    group = {(1, 0, 0, 1)}
    frontier = set(gens)
    while frontier:
        new = set()
        for x in frontier:
            for y in list(group | set(gens)):
                for z in (mul(x, y), mul(y, x)):
                    if z not in group:
                        new.add(z)
        group |= new
        frontier = new
    return group


def _certs_from_group(group, ell):
    """Evaluate the three trace/det certificates over a whole subgroup."""
    cert_a = cert_b = cert_c = False
    dets = set()
    for a, b, c, d in group:
        tr = (a + d) % ell
        det = (a * d - b * c) % ell
        dets.add(det)
        if tr == 0:
            continue
        disc = (tr * tr - 4 * det) % ell
        sym = kronecker(disc, ell)
        cert_a |= sym == -1
        cert_b |= sym == 1
        u = tr * tr * pow(det, -1, ell) % ell
        if u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % ell:
            cert_c = True
    det_full = len(dets) == ell - 1
    return cert_a, cert_b, cert_c, det_full


def test_certificates_vs_gl2_f5_subgroups():
    ell = 5
    full = set(_gl2(ell))
    order_full = len(full)
    assert order_full == (5**2 - 1) * (5**2 - 5)

    # full group: all certificates present
    assert _certs_from_group(full, ell) == (True, True, True, True)

    # Borel (upper triangular): no element has nonsquare discriminant
    borel = {
        (a, b, 0, d)
        for a, b, d in itertools.product(range(ell), repeat=3)
        if a % ell and d % ell
    }
    ca, cb, cc, dd = _certs_from_group(borel, ell)
    assert not ca  # disc = (a - d)^2 is always a square: certificate A impossible
    assert dd  # dets still cover F_5^*

    # nonsplit Cartan normalizer: x^2 = g generator with g a nonresidue
    g = 2  # nonresidue mod 5
    cartan = {
        (a, b * g % ell, b, a)
        for a, b in itertools.product(range(ell), repeat=2)
        if (a * a - g * b * b) % ell
    }
    w = (1, 0, 0, ell - 1)  # conjugation part of the normalizer
    normalizer = _closure(cartan | {w}, ell)
    assert len(normalizer) == 2 * len(cartan)
    ca, cb, cc, dd = _certs_from_group(normalizer, ell)
    # inside the Cartan: disc = 4 g b^2, nonsquare (or zero); outside: trace 0
    assert ca and not cb

    # any proper subgroup misses at least one certificate
    exceptional_like = _closure({(0, 1, ell - 1, 0), (2, 0, 0, 3)}, ell)
    if len(exceptional_like) < order_full:
        assert _certs_from_group(exceptional_like, ell) != (True, True, True, True)


# ---------------------------------------------------------------------------
# curve-level behavior


def test_surjective_generic_curve():
    red, table = _red_and_table(E37)
    for ell in (5, 7, 11, 13, 37):
        rep = image_test(red, table, ell)
        assert rep.verdict == "surjective", ell
        assert rep.obstruction is None


def test_reducible_at_5_for_isogenous_curve():
    # this curve admits a rational 5-isogeny; all discs (a_p^2 - 4p) are squares mod 5
    red, table = _red_and_table(E11)
    rep = image_test(red, table, 5)
    assert rep.verdict == "nonsurjectiveWitnessed"
    assert rep.obstruction == "reducible"
    assert rep.certificates["nonsquareDisc"] is None


def test_cm_curve_nonsplit_cartan_at_5():
    red, table = _red_and_table(E27, 2000)
    rep = image_test(red, table, 5)
    assert rep.verdict == "nonsurjectiveWitnessed"
    assert rep.obstruction == "nonsplitCartanNormalizer"


def test_image_mod2():
    # full 2-division field (S3): y^2 + y = x^3 - x
    rep = image_test(*_red_and_table(E37), 2)
    assert rep.verdict == "surjective"
    # rational 2-torsion point: y^2 = x^3 - x
    rep = image_test(*_red_and_table(WeierstrassModel(0, 0, 0, -1, 0)), 2)
    assert rep.verdict == "nonsurjectiveWitnessed" and rep.obstruction == "reducible"
    # irreducible cubic with square discriminant (cyclic cubic image): X^3 - 3X - 1
    # translates to the curve y^2 = x^3 - 48x - 64 with disc a perfect square
    m = WeierstrassModel(0, 0, 0, -48, -64)
    rep = image_test(global_reduce(m), trace_table(m, 100), 2)
    assert rep.obstruction == "cyclicCubic"


def _planted_cubic(rng, kind):
    """(c2, c1, c0) of (x - r)(x^2 + bx + c), coefficients up to about 10^40: r a
    triple, double or simple root, or r = 0; or three random coefficients."""
    if kind == "random":
        return tuple(rng.randint(-(10**40), 10**40) for _ in range(3))
    r, s = rng.randint(-(10**13), 10**13), rng.randint(-(10**13), 10**13)
    b, c = rng.randint(-(10**13), 10**13), rng.randint(-(10**26), 10**26)
    if kind == "triple":
        b, c = -2 * r, r * r
    elif kind == "double":  # x^2 + bx + c = (x - r)(x - s)
        b, c = -r - s, r * s
    elif kind == "zero":
        r = 0
    return b - r, c - r * b, -r * c


def test_integer_roots_of_monic_cubics_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(40)
    for kind in ("triple", "double", "simple", "zero", "random"):
        for _ in range(25):
            c2, c1, c0 = _planted_cubic(rng, kind)
            for shift in (0, 1, -1):  # a planted root, then most likely none
                ground = sympy.Poly([1, c2, c1, c0 + shift], x).ground_roots()
                assert _integer_roots_monic_cubic(c2, c1, c0 + shift) == bool(ground), (c2, c1, c0)
                if kind != "random" and shift == 0:
                    assert ground, (kind, c2, c1, c0)
    # the 2-division cubic of a curve whose 16 b6 (29 digits) factorize cannot split
    m = WeierstrassModel(0, 0, 0, 14, 3180895779350111737881287857)
    b2, b4, b6, _ = m.b_invariants()
    assert not sympy.Poly([1, b2, 8 * b4, 16 * b6], x).ground_roots()
    assert not _integer_roots_monic_cubic(b2, 8 * b4, 16 * b6)
    assert not sympy.sqrt(sympy.Integer(m.discriminant())).is_integer  # so it is surjective at 2


def test_image_mod3_unsupported():
    red, table = _red_and_table(E37)
    with pytest.raises(ValueError):
        image_test(red, table, 3)


def test_insufficient_samples():
    # three good primes cannot complete the certificates here, and three
    # samples is far below the evidence floor, so the scan refuses a verdict
    red, table = _red_and_table(E37, 6)
    with pytest.raises(InsufficientSamples):
        image_test(red, table, 11)


def test_pair_witness_and_bound():
    r1, t1 = _red_and_table(E37)
    r2, t2 = _red_and_table(E389)
    w = pair_witness(t1, t2, 1000)
    assert w is not None and w.p == 3 and abs(w.a1) != abs(w.a2)
    res = comparison_bound(r1, t1, r2, t2, 1000)
    assert res.bound == max(7, 7, 7)  # ceil(4 sqrt(3)) = 7
    for ell, status in res.spot_checks:
        assert status == "jointlySurjective", ell
    # 32a is additive at 2, so c(32a) = 37 sets the bound
    r3, t3 = _red_and_table(WeierstrassModel(0, 0, 0, -1, 0))
    assert comparison_bound(r1, t1, r3, t3, 1000).bound == 37


def test_pair_witness_none_for_twists():
    d = 5
    tw = quadratic_twist(E37, d)
    t1 = trace_table(E37, 500)
    t2 = trace_table(tw, 500)
    rtw = global_reduce(tw)
    assert pair_witness(t1, t2, 500) is None
    with pytest.raises(NoWitnessBelow):
        comparison_bound(global_reduce(E37), t1, rtw, t2, 500)


def test_scans_reject_bound_above_table():
    from ellgal.symprime import linnik_scan, von_mangoldt

    red, t = _red_and_table(E37, 100)
    tw = quadratic_twist(E37, 5)
    rtw, ttw = global_reduce(tw), trace_table(tw, 100)
    big = 10**6
    calls = [
        lambda: image_test(red, t, 5, big),
        lambda: image_test(red, t, 2, big),
        lambda: pair_witness(t, ttw, big),
        lambda: comparison_bound(red, t, rtw, ttw, big),
        lambda: joint_surjectivity_test(red, t, rtw, ttw, 7, big),
        lambda: script_l_scan(red, t, 50, big),
        lambda: von_mangoldt(t, t, big),
        lambda: linnik_scan(t, ttw, bound=big),
        lambda: linnik_scan(t, chi=12, bound=big),
        lambda: t.upto(101),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="exceeds the trace table's bound 100"):
            call()
    assert image_test(red, t, 5, 100).bound == 100  # the table's own bound is fine
    assert t.upto(100) == 25  # the primes <= 100, the reach of every scan above


def test_joint_surjectivity_failure_modes():
    r1, t1 = _red_and_table(E37)
    tw = quadratic_twist(E37, 5)
    rtw, ttw = global_reduce(tw), trace_table(tw, 1000)
    res = joint_surjectivity_test(r1, t1, rtw, ttw, 7)
    assert res.status == "failed" and res.reason == "condition-iii"
    r11, t11 = _red_and_table(E11)
    res = joint_surjectivity_test(r1, t1, r11, t11, 5)
    assert res.status == "failed" and res.reason == "single-curve-image"


def test_epsilon_candidate_shape():
    red, _ = _red_and_table(E27, 100)
    cands = epsilon_candidates(red, 5)
    assert cands.support == 1
    assert len(cands.candidates) == 31  # 2 * 4 * 2 * 2 - 1 (the +1 modulus excluded)
    assert 1 not in cands.candidates
    assert all(m != 0 for m in cands.candidates)
    with pytest.raises(ValueError):
        epsilon_candidates(red, 3)


def test_epsilon_support_from_phi4_prime():
    # additive potentially good at 7 with v(delta) = 3 -> |Phi_7| = 4 -> support 7
    m = WeierstrassModel(0, 0, 0, 7, 0)
    red = global_reduce(m)
    cands = epsilon_candidates(red, 5)
    assert cands.support == 7
    assert all(c % 7 == 0 for c in cands.candidates)


def test_prune_epsilon_keeps_true_character():
    # the CM curve's epsilon is the quadratic character of discriminant -3:
    # chi_{-3}(p) = -1 forces a_p = 0, so -3 survives any amount of pruning
    red, table = _red_and_table(E27, 10**4)
    pruned = prune_epsilon(epsilon_candidates(red, 5), table, 5)
    assert -3 in pruned.candidates
    # soundness: every survivor really satisfies the divisibility at its (-1)-primes
    for m in pruned.candidates:
        for p in table.good_primes():
            if p == 5 or kronecker(m, p) != -1:
                continue
            assert table.good[p] % 5 == 0, (m, p)
    assert pruned.tested[-3] > 100


def test_prune_epsilon_empties_on_surjective_curve():
    red, table = _red_and_table(E37, 10**4)
    pruned = prune_epsilon(epsilon_candidates(red, 5), table, 5)
    assert pruned.candidates == ()


def test_script_l_scan_empty_window():
    red, table = _red_and_table(E37, 2000)
    rep = script_l_scan(red, table, 50)
    assert rep.ells == () and rep.product == 1 and rep.consistent


def test_script_l_scan_cm_has_no_common_witness():
    # chi_{-3}(p) = -1 at every (-1)-prime of a survivor forces a_p = 0 here,
    # so no witness with a_p != 0 can exist: the honest outcome is the error
    red, table = _red_and_table(E27, 2000)
    with pytest.raises(NoCommonWitness):
        script_l_scan(red, table, 50, 2000)


def test_script_l_scan_witness_on_a_nonsplit_cartan_normalizer_curve():
    # j = 8000 t^3 (t + 1)(t^2 - 5t + 10)^3 / (t^2 - 5)^5 is the j-map of X_ns^+(5)
    # (Zywina); at t = 7, twisted by 10 to reduce well at 5, it is this curve of
    # conductor 2^2 7^2 11^2 43^2, with 43 of type III (|Phi| = 4)
    E = WeierstrassModel(0, 0, 0, -8923145, -2532388551)
    t = Fraction(7)
    assert E.j_invariant() == 8000 * t**3 * (t + 1) * (t * t - 5 * t + 10) ** 3 / (t * t - 5) ** 5
    red, table = _red_and_table(E, 3000)
    assert red.conductor == 2**2 * 7**2 * 11**2 * 43**2
    assert image_test(red, table, 5).obstruction == "nonsplitCartanNormalizer"
    assert prune_epsilon(epsilon_candidates(red, 5), table, 5).candidates == (-172, -43)
    # past the window (p <= 50), chi_-43 is +1 at 53 and 59 and -1 at 61, where the
    # naive count gives a_61 = -5: divisible by 5, and 5^2 <= 4 * 61
    assert [kronecker(-43, p) for p in (53, 59, 61)] == [1, 1, -1]
    assert count_points(E, 61, strategy="naive") == -5
    assert script_l_scan(red, table, 50) == ScriptLReport((5,), 61, -5, 5, True)
    # six good primes below 29 leave ell = 5 undecided, so the scan passes over it
    with pytest.raises(InsufficientSamples):
        image_test(red, table, 5, 29)
    assert script_l_scan(red, table, 50, 29) == ScriptLReport((), None, None, 1, True)


def test_joint_surjectivity_undetermined_below_its_first_witness():
    # both curves are surjective mod 5 by X = 40, and below 41 every shared good
    # a_p agrees with the other up to sign mod 5 (a_11: 0 and -5, a_37: -2 and 7),
    # though not up to sign; 41 (a_p = -3 and -4) is the first witness
    r1, t1 = _red_and_table(WeierstrassModel(0, 0, 0, -11, -2), 100)  # N = 5216
    r2, t2 = _red_and_table(WeierstrassModel(0, 0, 0, -5, 5), 100)  # N = 700
    assert t1.good[11] == 0 and t2.good[11] == -5 and (t1.good[41], t2.good[41]) == (-3, -4)
    undetermined = JointResult("undetermined", "no witness in range", None)
    assert joint_surjectivity_test(r1, t1, r2, t2, 5, 40) == undetermined
    assert joint_surjectivity_test(r1, t1, r2, t2, 5, 41) == JointResult("jointlySurjective", None, 41)


def _outcome(scan, *args):
    try:
        return scan(*args)
    except InsufficientSamples as exc:
        return str(exc)


# conductor 128: its witnesses at 11 are p = 3, 5, whose residues are squares mod 11,
# so the determinant is decided only at p = 7; a scan that stopped at the
# witnesses alone would report detSurjective False
WITNESSES_FIRST = WeierstrassModel(0, -1, 0, -9, -7)


def test_scans_match_the_full_scan_reference(corpus):
    # corpus curves, CM curves (a_p = 0 at half the primes), 11a (reducible at 5)
    # and 37a, at the table's bound and below it, with ell both below and above X
    models = [r.reduction.minimal_model for r in corpus.records[::25]]
    models += [WeierstrassModel(*a) for a, _ in CM_BASES.values()]
    models += [E27, E11, E37, WITNESSES_FIRST]
    reds = [global_reduce(m) for m in models]
    tables = trace_tables(reds, 1000)
    verdicts = set()
    for red, table in zip(reds, tables):
        for ell in (5, 7, 11, 13, 17, 1000003):
            for X in (1000, 300, 40):
                got = _outcome(image_test, red, table, ell, X)
                assert got == _outcome(galois_reference.image_test, red, table, ell, X), (
                    red.minimal_model.ainvs(),
                    ell,
                    X,
                )
                verdicts.add(getattr(got, "verdict", "insufficient"))
            if ell < 1000:
                cands = epsilon_candidates(red, ell)
                assert prune_epsilon(cands, table, ell) == galois_reference.prune_epsilon(
                    cands, table, ell
                )
    assert verdicts == {"surjective", "nonsurjectiveWitnessed", "undetermined", "insufficient"}
    rep = image_test(reds[-1], tables[-1], 11)
    assert rep.verdict == "surjective" and rep.certificates["exceptionalExcluded"] == 5
    assert _det_surjective({3, 5}, 11) is False


def test_det_surjectivity_checked():
    red, table = _red_and_table(E37)
    rep = image_test(red, table, 5)
    assert rep.certificates["detSurjective"] is True


def _closure_generates(residues, ell):
    """Whether the residues generate (Z/ell)^*, by closing {1} under multiplication."""
    seen = {1}
    frontier = set(residues)
    while frontier:
        new = set()
        for r in frontier:
            for s in list(seen):
                t = r * s % ell
                if t not in seen:
                    new.add(t)
        seen |= new
        frontier = new
    return len(seen) == ell - 1


def test_det_surjective_matches_subgroup_closure():
    rnd = random.Random(20261018)
    outcomes = set()
    for ell in primes_up_to(299):
        if ell < 5:
            continue
        squares = {x * x % ell for x in range(1, ell)}
        sets = [set(), squares, squares | {rnd.randrange(1, ell)}]
        sets += [set(rnd.sample(range(1, ell), k)) for k in (1, 1, 2, 2, 3, 4)]
        for residues in sets:
            got = _det_surjective(residues, ell)
            assert got == _closure_generates(residues, ell), (ell, sorted(residues))
            outcomes.add(got)
    assert outcomes == {True, False}
