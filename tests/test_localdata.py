import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellgal.family as family
import ellgal.localdata as localdata
from ellgal.arith import factorize, valuation
from ellgal.curve import SingularModel, WeierstrassModel, quadratic_twist
from ellgal.localdata import (
    InvariantViolation,
    NotAdditivePotGood,
    PreconditionFailed,
    _check_f_bound,
    _connell,
    _deepest_root,
    _tate_steps,
    global_reduce,
    inertial_type,
    phi_order,
    potential_goodness,
    tate,
)
from tate_reference import _cubic_root_mults
from tate_reference import _tate_steps as reference_tate_steps

# reduced minimal a-invariants -> (conductor, {p: (kodaira, f)})
KNOWN = {
    (0, -1, 1, -10, -20): (11, {11: ("I5", 1)}),
    (1, 0, 1, 4, -6): (14, {2: ("I6", 1), 7: ("I3", 1)}),
    (1, 1, 1, -10, -10): (15, {3: ("I4", 1), 5: ("I4", 1)}),
    (1, -1, 1, -1, -14): (17, {17: ("I4", 1)}),
    (0, 1, 1, -9, -15): (19, {19: ("I3", 1)}),
    (0, 1, 0, 4, 4): (20, {2: ("IV*", 2), 5: ("I2", 1)}),
    (1, 0, 0, -4, -1): (21, {3: ("I4", 1), 7: ("I2", 1)}),
    (0, -1, 0, -4, 4): (24, {2: ("I1*", 3), 3: ("I2", 1)}),
    (1, 0, 1, -5, -8): (26, {2: ("I3", 1), 13: ("I3", 1)}),
    (0, 0, 1, 0, 0): (27, {3: ("II", 3)}),
    (0, 0, 0, 4, 0): (32, {2: ("I3*", 5)}),
    (0, 0, 0, -1, 0): (32, {2: ("III", 5)}),
    (0, 0, 0, 0, 1): (36, {2: ("IV", 2), 3: ("III", 2)}),
    (0, 0, 1, -1, 0): (37, {37: ("I1", 1)}),
    (1, -1, 0, -2, -1): (49, {7: ("III", 2)}),
    (0, 0, 0, 2, 0): (256, {2: ("III", 8)}),
    (0, 1, 1, -2, 0): (389, {389: ("I1", 1)}),
    (0, 0, 1, -7, 6): (5077, {5077: ("I1", 1)}),
}


def test_known_conductors_and_kodaira():
    for ainvs, (N, locs) in KNOWN.items():
        red = global_reduce(WeierstrassModel(*ainvs))
        assert red.conductor == N, ainvs
        got = {p: (loc.kodaira, loc.f) for p, loc in red.locals.items()}
        assert got == locs, ainvs


def test_global_reduce_minimizes_and_reduces():
    # feed a wildly non-minimal model of 37a (u = 6 inflation)
    m = WeierstrassModel(0, 0, 1, -1, 0)
    big = WeierstrassModel(0, 0, 6**3, -(6**4), 0)  # (x,y) -> (36x, 216y)
    red = global_reduce(big)
    assert red.conductor == 37
    assert red.minimal_model.ainvs() == (0, 0, 1, -1, 0)
    assert red.minimal_model.discriminant() == m.discriminant()


def test_global_reduce_factors_discriminant_once(monkeypatch):
    calls = []
    original = localdata.factorize

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(localdata, "factorize", counting)
    red = global_reduce(WeierstrassModel(0, 1, 1, -2, 0))  # 389a, already minimal
    assert red.conductor == 389
    assert len(calls) == 1


def test_global_reduce_idempotent(corpus):
    for rec in corpus.records[::97]:
        again = global_reduce(rec.reduction.minimal_model)
        assert again.minimal_model.ainvs() == rec.reduction.minimal_model.ainvs()
        assert again.conductor == rec.reduction.conductor


def test_global_reduce_makes_no_rescaling_round(corpus, monkeypatch):
    # the minimal model is one scaling of (c4, c6) away, built by Connell's
    # construction: no change of variables with u != 1 anywhere; global_reduce
    # decides minimality once per prime of the discriminant and classifies its own
    # minimal model without going through tate
    counts = {"rescale": 0, "scaling": 0, "tate": 0, "steps": 0}
    transform, scaling = WeierstrassModel.transform, localdata._minimal_scaling
    tate_fn, steps = localdata.tate, localdata._tate_steps

    def counting_transform(self, u=1, r=0, s=0, t=0):
        counts["rescale"] += u != 1
        return transform(self, u, r, s, t)

    def counter(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(WeierstrassModel, "transform", counting_transform)
    monkeypatch.setattr(localdata, "_minimal_scaling", counter("scaling", scaling))
    monkeypatch.setattr(localdata, "tate", counter("tate", tate_fn))
    monkeypatch.setattr(localdata, "_tate_steps", counter("steps", steps))

    def reduce_once(model):
        before = counts["scaling"], counts["tate"]
        red = global_reduce(model)
        primes = len(factorize(abs(model.discriminant())).factors)
        assert (counts["scaling"], counts["tate"]) == (before[0] + primes, before[1])
        return red

    for rec in corpus.records:
        assert reduce_once(rec.model).conductor == rec.reduction.conductor
    big = WeierstrassModel(0, 0, 6**3, -(6**4), 0)  # 37a with u = 6
    assert reduce_once(big).minimal_model.ainvs() == (0, 0, 1, -1, 0)
    for D in family.CM_BASES:
        power, build, _ = family._family(D)
        for sign, a, b in itertools.product((1, -1), range(power), range(power)):
            reduce_once(build(sign * 2**a * 3**b * 35))
    family.cm_census(10**5)
    assert counts["steps"] > 0  # the counters saw the classifying runs
    assert counts["rescale"] == 0


def test_connell_gives_back_c4_c6_as_a_reduced_model(corpus):
    # integral c-invariants that pass Kraus's test, non-minimal ones included
    for rec in corpus.records[::11]:
        c4, c6 = rec.reduction.minimal_model.c_invariants()
        assert _connell(c4, c6) == rec.reduction.minimal_model  # the one reduced model
        for k in (2, 3, 6, 10):
            E = _connell(k**4 * c4, k**6 * c6)
            assert E.c_invariants() == (k**4 * c4, k**6 * c6), (rec.label, k)
            assert E.a1 in (0, 1) and E.a3 in (0, 1) and E.a2 in (-1, 0, 1)


def test_reduced_form_normalization(corpus):
    for rec in corpus.records[::37]:
        a1, a2, a3, _, _ = rec.reduction.minimal_model.ainvs()
        assert a1 in (0, 1) and a3 in (0, 1) and a2 in (-1, 0, 1)


def test_semistable_and_flags(corpus):
    for rec in corpus.records[::53]:
        red = rec.reduction
        prod = 1
        for p, loc in red.locals.items():
            prod *= p**loc.f
        assert prod == red.conductor
        squarefree = all(loc.f <= 1 for loc in red.locals.values())
        assert red.semistable == squarefree
        assert red.n_add**2 <= red.conductor
        for p, loc in red.locals.items():
            if loc.red_type == "additive":
                assert red.n_add % p == 0


def test_phi_order_table():
    # y^2 = x^3 + p^k and y^2 = x^3 + p^k x sweep the additive potentially good fibers
    expect = {2: 6, 3: 4, 4: 3, 6: 2, 8: 3, 9: 4, 10: 6}
    for p in (5, 7, 11, 13):
        seen = {}
        for k in range(1, 6):
            for m in (
                WeierstrassModel(0, 0, 0, 0, p**k),
                WeierstrassModel(0, 0, 0, p**k, 0),
            ):
                loc = tate(m, p)
                if loc.red_type == "additive" and loc.pot_good:
                    seen[loc.v_delta_min] = phi_order(loc)
        assert seen == {v: expect[v] for v in seen}
        assert set(seen) == {2, 3, 4, 6, 8, 9, 10}


# the additive rows of the valuation table at p >= 5: v(Delta) -> the Kodaira
# symbol for v(c4) = 1, 2, 3, None where the pair raises; |Phi_p| by v(Delta)
ADDITIVE_AT_5 = {
    1: (None, None, None),
    2: ("II", "II", "II"),
    3: ("III", "III", "III"),
    4: ("IV", "IV", "IV"),
    5: (None, None, None),
    6: ("I0*", "I0*", "I0*"),
    7: (None, "I1*", None),
    8: ("IV*", "I2*", "IV*"),
    9: ("III*", "I3*", "III*"),
    10: ("II*", "I4*", "II*"),
    11: (None, "I5*", None),
    12: (None, "I6*", None),
}
PHI_AT_5 = {2: 6, 3: 4, 4: 3, 6: 2, 8: 3, 9: 4, 10: 6}


@pytest.mark.parametrize("vc4", [1, 2, 3])
@pytest.mark.parametrize("vd", range(1, 13))
def test_additive_valuation_table_at_5(vd, vc4):
    kodaira = ADDITIVE_AT_5[vd][vc4 - 1]
    c4, c6 = 2 * 5**vc4, 3  # c4^3 != c6^2, so the attached model is nonsingular
    if kodaira is None:
        with pytest.raises(InvariantViolation, match="impossible valuation pair"):
            localdata._tate_table(c4, c6, vd, 5)
        return
    loc = localdata._tate_table(c4, c6, vd, 5)
    assert (loc.kodaira, loc.f, loc.v_delta_min, loc.red_type) == (kodaira, 2, vd, "additive")
    assert loc.pot_good == (3 * vc4 >= vd)
    if loc.pot_good:
        assert phi_order(loc) == PHI_AT_5[vd]
    else:
        with pytest.raises(NotAdditivePotGood):
            phi_order(loc)


def test_phi_order_undetermined_at_2_3():
    loc = tate(WeierstrassModel(0, 0, 1, 0, 0), 3)  # additive at 3
    assert loc.red_type == "additive" and loc.pot_good
    assert phi_order(loc) == "undetermined23"
    loc2 = tate(WeierstrassModel(0, 0, 0, 2, 0), 2)
    assert loc2.red_type == "additive"
    assert phi_order(loc2) == "undetermined23"


def test_phi_order_rejects_non_additive():
    loc = tate(WeierstrassModel(0, 0, 1, -1, 0), 37)
    with pytest.raises(NotAdditivePotGood):
        phi_order(loc)


def test_inertial_type_split_by_residue():
    # phiOrder 4 arises at v(delta_min) in {3, 9}; y^2 = x^3 + px has v(delta) = 3
    for p in (5, 13):  # 1 mod 4
        loc = tate(WeierstrassModel(0, 0, 0, p, 0), p)
        assert phi_order(loc) == 4
        assert inertial_type(loc) == "principalSeries_tps114"
    for p in (7, 11):  # 3 mod 4
        loc = tate(WeierstrassModel(0, 0, 0, p, 0), p)
        assert phi_order(loc) == 4
        assert inertial_type(loc) == "supercuspidal_tsc_u24"


def test_inertial_type_preconditions():
    # y^2 = x^3 - x is additive potentially good at 2, where no class is given
    with pytest.raises(PreconditionFailed, match="defined only for p >= 5"):
        inertial_type(tate(WeierstrassModel(0, 0, 0, -1, 0), 2))
    # y^2 = x^3 + 25 is IV at 5, with |Phi_5| = 3
    loc = tate(WeierstrassModel(0, 0, 0, 0, 25), 5)
    assert loc.kodaira == "IV" and phi_order(loc) == 3
    with pytest.raises(PreconditionFailed, match="need 4"):
        inertial_type(loc)


def test_potential_goodness_criterion():
    assert potential_goodness(tate(WeierstrassModel(0, 0, 0, 0, 5**2), 5))
    mult = WeierstrassModel(0, -1, 1, -10, -20)
    assert not potential_goodness(tate(mult, 11))


def _steps(E, p):
    """Tate's steps on a model E that is minimal at p."""
    return _tate_steps(E, E.c_invariants()[0], valuation(E.discriminant(), p), p)


def test_table_and_steps_agree_at_small_primes(corpus):
    # the closed-form valuation table (p >= 5) against the step algorithm
    for rec in corpus.records[::61]:
        red = rec.reduction
        for p, loc in red.locals.items():
            if p < 5 or p > 13:
                continue  # the steps count the cubic's roots by brute force; keep p small
            steps = _steps(red.minimal_model, p)
            assert (steps.kodaira, steps.f, steps.v_delta_min) == (
                loc.kodaira,
                loc.f,
                loc.v_delta_min,
            ), (rec.label, p)


def test_ogg_saito_consistency(corpus):
    # f = v(delta_min) - (components - 1); component counts read off the symbol
    def components(kod):
        named = {
            "I0": 1, "II": 1, "III": 2, "IV": 3,
            "I0*": 5, "IV*": 7, "III*": 8, "II*": 9,
        }
        if kod in named:
            return named[kod]
        if kod.endswith("*"):
            return int(kod[1:-1]) + 5
        return int(kod[1:])

    for rec in corpus.records[::41]:
        for p, loc in rec.reduction.locals.items():
            m = components(loc.kodaira)
            assert loc.f == loc.v_delta_min - m + 1, (rec.label, p, loc)


def test_conductor_exponent_bounds(corpus):
    for rec in corpus.records:
        for p, loc in rec.reduction.locals.items():
            cap = 8 if p == 2 else (5 if p == 3 else 2)
            assert loc.f <= cap, (rec.label, p)


def test_f_bound_violation_raises():
    with pytest.raises(InvariantViolation):
        _check_f_bound(2, 9)
    with pytest.raises(InvariantViolation):
        _check_f_bound(3, 6)
    with pytest.raises(InvariantViolation):
        _check_f_bound(5, 3)


def test_twist_conductor_relation():
    # (d, 6N) = 1, d = 1 mod 4 squarefree: N(E^d) = N d^2
    base = global_reduce(WeierstrassModel(0, 0, 1, -1, 0))  # N = 37
    for d in (5, -7, 13, -11, 17):
        if d % 4 != 1:
            continue
        tw = global_reduce(quadratic_twist(base.minimal_model, d))
        assert tw.conductor == 37 * d * d, d


def test_twist_conductor_six_power_divisibility():
    # twisting by d supported on {2, 3} keeps N(E^d) | 6^100 N
    base = global_reduce(WeierstrassModel(0, 0, 1, -1, 0))
    for d in (-1, 2, -2, 3, -3, 6, -6):
        tw = global_reduce(quadratic_twist(base.minimal_model, d))
        assert (6**100 * base.conductor) % tw.conductor == 0, d


def test_additive_pot_good_vs_multiplicative_f():
    red = global_reduce(WeierstrassModel(0, 0, 0, 0, 25))  # additive at 5
    loc5 = red.locals[5]
    assert loc5.red_type == "additive" and loc5.f == 2
    red11 = global_reduce(WeierstrassModel(0, -1, 1, -10, -20))
    assert red11.locals[11].red_type in ("multSplit", "multNonsplit")
    assert red11.locals[11].f == 1


def test_cond12_flag():
    # |Phi_p| = 4 at p >= 5 additive potentially good => condition flag false
    red = global_reduce(WeierstrassModel(0, 0, 0, 5, 0))  # v(delta) = 3
    assert phi_order(red.locals[5]) == 4
    assert not red.satisfies_cond12
    red2 = global_reduce(WeierstrassModel(0, 0, 0, 0, 5))  # v(delta) = 2
    assert phi_order(red2.locals[5]) == 6
    assert red2.satisfies_cond12


def test_multiplicative_split_orientation():
    # direct nonsingular-point count at a multiplicative prime fixes the sign
    model = WeierstrassModel(0, 0, 1, -1, 0)  # nonsplit at 37 (counted: p+1 points)
    red = global_reduce(model)
    assert red.locals[37].red_type == "multNonsplit"
    red11 = global_reduce(WeierstrassModel(0, -1, 1, -10, -20))
    assert red11.locals[11].red_type == "multSplit"


def _scaled_up(model, k):
    """The model with (x, y) -> (x / k^2, y / k^3): a_i -> k^i a_i, the same curve."""
    a1, a2, a3, a4, a6 = model.ainvs()
    return WeierstrassModel(k * a1, k**2 * a2, k**3 * a3, k**4 * a4, k**6 * a6)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=15),
)
@settings(max_examples=60, deadline=None)
def test_reduction_data_invariant_under_integral_changes(corpus, index, r, s, t, k):
    # an integral (r, s, t) change and a scale-up by k give another model of the
    # same curve: each p keeps its Kodaira symbol and conductor exponent
    rec = corpus.records[index % len(corpus.records)]
    moved = _scaled_up(rec.model.transform(r=r, s=s, t=t), k)
    red = global_reduce(moved)
    assert red.conductor == rec.reduction.conductor
    got = {p: (loc.kodaira, loc.f) for p, loc in red.locals.items()}
    assert got == {p: (loc.kodaira, loc.f) for p, loc in rec.reduction.locals.items()}
    for p in set(rec.reduction.locals) | set(factorize(k).primes()):
        loc, ref = tate(moved, p), tate(rec.model, p)
        assert (loc.kodaira, loc.f) == (ref.kodaira, ref.f), p


def _classification(loc):
    return loc.kodaira, loc.f, loc.v_delta_min, loc.red_type, loc.pot_good


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_deepest_root_agrees_with_synthetic_division(p):
    # every monic cubic over F_p, its coefficients drawn from [-p, 2p) so that
    # negative ones and ones >= p are read as their residues
    for c2, c1, c0 in itertools.product(range(-p, 2 * p), repeat=3):
        mults = _cubic_root_mults([1, c2, c1, c0], p)
        k, t = _deepest_root(c2, c1, c0, p)
        assert 0 <= t < p
        if mults:
            assert (k, t) == max((k, t) for t, k in mults.items()), (p, c2, c1, c0)
        else:
            assert k == 0, (p, c2, c1, c0)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=15),
)
@settings(max_examples=60, deadline=None)
def test_tate_at_2_and_3_agrees_with_the_reference_search(corpus, index, r, s, t, k):
    # Kraus's minimality rule and the closed-form moves against the (r, s, t)
    # search with rescale-and-restart that they replaced, on moved and scaled models
    rec = corpus.records[index % len(corpus.records)]
    moved = _scaled_up(rec.model.transform(r=r, s=s, t=t), k)
    for p in (2, 3):
        loc, ref = tate(moved, p), reference_tate_steps(moved, p)
        assert _classification(loc) == _classification(ref), (rec.label, p)
        assert loc.minimal_model.c_invariants() == ref.minimal_model.c_invariants()


@given(
    st.sampled_from([5, 7, 11, 13]),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-30, max_value=30).filter(lambda n: n != 0),
    st.integers(min_value=-30, max_value=30).filter(lambda n: n != 0),
    st.tuples(*[st.integers(min_value=-20, max_value=20)] * 3),
)
@settings(max_examples=80, deadline=None)
def test_tate_table_and_steps_agree_at_p_ge_5(p, alpha, beta, A, B, rst):
    # y^2 = x^3 + p^alpha A x + p^beta B runs through every Kodaira type at p,
    # non-minimal models included; a random (r, s, t) change hides the short form
    try:
        model = WeierstrassModel(0, 0, 0, p**alpha * A, p**beta * B)
    except SingularModel:
        return
    r, s, t = rst
    model = model.transform(r=r, s=s, t=t)
    # the table on tate's p-minimal invariants, the steps on its p-minimal model
    table = tate(model, p)
    steps = _steps(table.minimal_model, p)
    assert _classification(table) == _classification(steps)
