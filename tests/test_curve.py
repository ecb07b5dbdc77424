import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgal.arith import kronecker, least_nonresidue, primes_up_to
from ellgal.curve import (
    NAIVE_CROSSOVER,
    BadReduction,
    SingularModel,
    WeierstrassModel,
    _count_naive_short,
    _ec_add,
    _ec_mul,
    _local_short_model,
    _point_order,
    _random_point,
    _sqrt_mod,
    count_points,
    quadratic_twist,
    quartic_twist_model,
    sextic_twist_model,
    trace_table,
)
from ellgal.localdata import global_reduce

E37 = WeierstrassModel(0, 0, 1, -1, 0)
E11 = WeierstrassModel(0, -1, 1, -10, -20)
E389 = WeierstrassModel(0, 1, 1, -2, 0)
# the j = 0 and j = 1728 curves often have non-cyclic groups mod p
ORACLE_CURVES = (
    E37,
    E11,
    E389,
    WeierstrassModel(1, -1, 1, -1, -14),
    WeierstrassModel(0, 0, 1, 0, 0),
    WeierstrassModel(0, 0, 0, -1, 0),
)


def test_invariants_examples():
    # y^2 = x^3 + 1: c4 = 0, c6 = -864, disc = -432
    m = WeierstrassModel(0, 0, 0, 0, 1)
    assert m.c_invariants() == (0, -864)
    assert m.discriminant() == -432
    assert m.j_invariant() == 0
    # y^2 = x^3 - x: disc = 64, j = 1728
    m = WeierstrassModel(0, 0, 0, -1, 0)
    assert m.discriminant() == 64
    assert m.j_invariant() == 1728


def test_invariant_relations():
    for m in (E37, E11, WeierstrassModel(1, -1, 1, -1, -14)):
        b2, b4, b6, b8 = m.b_invariants()
        c4, c6 = m.c_invariants()
        disc = m.discriminant()
        assert 4 * b8 == b2 * b6 - b4 * b4
        assert c4**3 - c6**2 == 1728 * disc


def test_singular_model_rejected():
    with pytest.raises(SingularModel):
        WeierstrassModel(0, 0, 0, 0, 0)
    with pytest.raises(SingularModel):
        WeierstrassModel(0, 0, 0, -3, 2)  # (x-1)^2 (x+2)


def test_transform_preserves_j_and_scales_disc():
    m = E37.transform(1, 2, 3, 4)
    assert m.j_invariant() == E37.j_invariant()
    assert m.discriminant() == E37.discriminant()
    with pytest.raises(ValueError):
        E37.transform(2, 0, 0, 0)  # u = 2 needs divisibility that fails here


def test_known_traces_37a():
    expected = {2: -2, 3: -3, 5: -2, 7: -1, 11: -5, 13: -2, 17: 0, 19: 0, 23: 2}
    for p, ap in expected.items():
        assert count_points(E37, p) == ap, p


def test_known_traces_11a():
    expected = {2: -2, 3: -1, 5: 1, 7: -2, 13: 4, 17: -2, 19: 0}
    for p, ap in expected.items():
        assert count_points(E11, p) == ap, p


def test_bad_prime_raises():
    with pytest.raises(BadReduction):
        count_points(E37, 37)
    with pytest.raises(BadReduction):
        count_points(E11, 11)


def test_naive_vs_bsgs_agree(corpus):
    rnd = random.Random(20240817)
    sample = rnd.sample(corpus.records, 12)
    primes = [p for p in primes_up_to(700) if p >= 5]
    for rec in sample:
        model = rec.reduction.minimal_model
        for p in primes:
            if rec.reduction.conductor % p == 0:
                continue
            assert count_points(model, p, strategy="naive") == count_points(
                model, p, strategy="bsgs"
            ), (rec.label, p)


def test_bsgs_matches_naive_below_3000():
    # covers the band below 700 where BSGS falls back on Cartier-Manin
    for model in ORACLE_CURVES:
        disc = model.discriminant()
        for p in primes_up_to(3000):
            if p < 5 or disc % p == 0:
                continue
            assert count_points(model, p, strategy="bsgs") == count_points(
                model, p, strategy="naive"
            ), (model.ainvs(), p)


def _curve_points(A, B, p):
    points = []
    for x in range(p):
        rhs = (x * x * x + A * x + B) % p
        if kronecker(rhs, p) != -1:
            y = _sqrt_mod(rhs, p)
            points += [(x, y), (x, -y % p)] if y else [(x, 0)]
    return points


def test_point_order_contract():
    # _point_order returns a divisor d of #E(F_p) whose multiples in the Hasse
    # window are exactly the n there with nP = 0; every point for p < 100,
    # random ones above, on each curve and its quadratic twist
    primes = [p for p in primes_up_to(100) if p >= 5] + [211, 1009, 2003, 4001, 10007, 65537]
    for model in ORACLE_CURVES:
        for p in primes:
            c4, c6, vdmin = _local_short_model(model, p)
            if vdmin:
                continue
            A, B = -27 * c4, -54 * c6
            g = least_nonresidue(p)
            s = math.isqrt(4 * p) + 1
            lo, hi = p + 1 - s, p + 1 + s
            for a, b in ((A % p, B % p), (A * g * g % p, B * g**3 % p)):
                order = _count_naive_short(a, b, p)
                if p < 100:
                    points = _curve_points(a, b, p)
                else:
                    points, state = [], p
                    for _ in range(6):
                        P, state = _random_point(a, b, p, state)
                        points.append(P)
                for P in points:
                    d = _point_order(P, a, p, lo, hi)
                    assert order % d == 0, (model.ainvs(), p, P)
                    killed = set()
                    R = _ec_mul(lo, P, a, p)
                    for n in range(lo, hi + 1):
                        if R is None:
                            killed.add(n)
                        R = _ec_add(R, P, a, p)
                    assert killed == set(range(lo + (-lo) % d, hi + 1, d)), (model.ainvs(), p, P)


def test_bsgs_pinned_large_primes():
    # a_p from the factoring BSGS that preceded the current one; the values at
    # 1000003 and 3000017 also agree with the naive count
    pinned = {
        E37: {
            1000003: -51,
            3000017: 386,
            10000019: 1638,
            40000003: -6178,
            100000007: 16008,
            300000007: 17697,
            1000000007: 43800,
            1234567891: -11468,
            1600000009: -48154,
            1999999003: 38981,
        },
        E389: {
            1000003: 1254,
            3000017: -1717,
            10000019: -189,
            40000003: -8340,
            100000007: -8245,
            300000007: -14720,
            1000000007: 28969,
            1234567891: -38664,
            1600000009: -3018,
            1999999003: 2076,
        },
    }
    for model, traces in pinned.items():
        for p, ap in traces.items():
            assert count_points(model, p) == ap, (model.ainvs(), p)


def test_routes_agree_around_naive_crossover(corpus):
    # auto switches from the naive count to BSGS inside this window
    primes = [p for p in primes_up_to(NAIVE_CROSSOVER + 500) if p >= NAIVE_CROSSOVER - 500]
    assert primes[0] < NAIVE_CROSSOVER < primes[-1]
    records = corpus.records
    for rec in (records[0], records[len(records) // 2], records[-1]):
        model = rec.reduction.minimal_model
        for p in primes:
            if rec.reduction.conductor % p == 0:
                continue
            auto = count_points(model, p)
            assert auto == count_points(model, p, strategy="naive"), (rec.label, p)
            assert auto == count_points(model, p, strategy="bsgs"), (rec.label, p)


def test_unknown_strategy_rejected():
    for strategy in ("nave", "", "BSGS"):
        with pytest.raises(ValueError, match="strategy"):
            count_points(E37, 101, strategy=strategy)
    with pytest.raises(ValueError, match="strategy"):
        count_points(E37, 2, strategy="nave")


def test_bsgs_large_prime_hasse():
    for p in (10**5 + 3, 10**6 + 3):
        ap = count_points(E37, p)
        assert ap * ap <= 4 * p


def test_supersingular_pattern_j0():
    # y^2 + y = x^3 has a_p = 0 exactly when p = 2 mod 3 (good p >= 5)
    m = WeierstrassModel(0, 0, 1, 0, 0)
    for p in primes_up_to(200):
        if p < 5:
            continue
        assert (count_points(m, p) == 0) == (p % 3 == 2), p


def test_quadratic_twist_trace_relation():
    for d in (-7, 5, -1, 13):
        tw = quadratic_twist(E37, d)
        for p in (5, 11, 13, 101, 499):
            if d % p == 0:
                continue
            assert count_points(tw, p) == kronecker(d, p) * count_points(E37, p), (d, p)


def test_quadratic_twist_rejects_nonsquarefree():
    with pytest.raises(ValueError):
        quadratic_twist(E37, 12)
    with pytest.raises(ValueError):
        quadratic_twist(E37, 0)


def test_power_twist_model_constructors():
    assert quartic_twist_model(5).ainvs() == (0, 0, 0, 5, 0)
    assert sextic_twist_model(-2).ainvs() == (0, 0, 0, 0, -2)
    with pytest.raises(ValueError):
        quartic_twist_model(16)
    with pytest.raises(ValueError):
        sextic_twist_model(64)


def test_trace_table_contents():
    t = trace_table(E37, 100)
    assert t.bound == 100
    assert t.ramified == {37: -1}  # nonsplit multiplicative
    assert set(t.good_primes()) == {p for p in primes_up_to(100) if p != 37}
    assert t.trace(2) == -2 and t.trace(37) == -1
    t11 = trace_table(E11, 50)
    assert t11.ramified == {11: 1}  # split multiplicative


def _legendre_sum_trace(model, p):
    """a_p = -sum_x ((4x^3 + b2 x^2 + 2 b4 x + b6) | p), Legendre symbols by Euler's
    criterion: the y-count of the completed square, independent of the short model."""
    b2, b4, b6, _ = model.b_invariants()
    total = 0
    for x in range(p):
        v = pow((((4 * x + b2) * x + 2 * b4) * x + b6) % p, (p - 1) // 2, p)
        total += -1 if v == p - 1 else v
    return -total


def test_naive_count_matches_legendre_oracle(corpus):
    for rec in corpus.records[::400]:
        model = rec.reduction.minimal_model
        disc = model.discriminant()
        for p in primes_up_to(599):
            if p < 5 or disc % p == 0:
                continue
            assert count_points(model, p, strategy="naive") == _legendre_sum_trace(
                model, p
            ), (rec.label, p)


def test_trace_table_from_reduction_matches_model():
    # 37a with its coordinates scaled by u = 1/2: a model that is not minimal at 2
    for m in (E37, E11, WeierstrassModel(0, 0, 8, -16, 0)):
        red = global_reduce(m)
        from_model, from_red = trace_table(m, 300), trace_table(red, 300)
        assert from_red.good == from_model.good and from_red.ramified == from_model.ramified
        assert from_model.model == m and from_red.model == red.minimal_model


@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8))
@settings(max_examples=60, deadline=None)
def test_hasse_bound_property(a4, a6):
    try:
        m = WeierstrassModel(0, 0, 0, a4, a6)
    except SingularModel:
        return
    for p in (5, 7, 11, 13, 101):
        try:
            ap = count_points(m, p)
        except BadReduction:
            continue
        assert ap * ap <= 4 * p
