import dataclasses
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ellgal.curve as curve
from ellgal.arith import InvariantViolation, is_prime, kronecker, least_nonresidue, primes_up_to
from ellgal.curve import (
    LANE_LIMIT,
    TABLE_CROSSOVER,
    BadReduction,
    SingularModel,
    WeierstrassModel,
    _count_bsgs,
    _count_bsgs_batch,
    _ec_add,
    _ec_mul,
    _point_order,
    _random_point,
    count_points,
    quadratic_twist,
    quartic_twist_model,
    sextic_twist_model,
    trace_table,
    trace_tables,
)
from ellgal.localdata import global_reduce, tate

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


def _naive_count(A, B, p):
    """#E(F_p) for y^2 = x^3 + Ax + B, p >= 5, from the naive kernel."""
    return curve._affine_counts(A % p, B % p, p) + 1


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
    # y^2 + y = x^3 - x: (b2, b4, b6, b8, c4, c6, Delta, j)
    assert curve.invariants(E37) == (0, -2, 1, -1, 48, -216, 37, Fraction(110592, 37))


def test_invariants_relations_raise_not_assert(monkeypatch):
    # a hard error under python -O too: the identity c4^3 - c6^2 = 1728 Delta fails
    monkeypatch.setattr(WeierstrassModel, "discriminant", lambda self: 1)
    with pytest.raises(InvariantViolation, match="relations fail"):
        curve.invariants(E37)


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


@pytest.mark.parametrize("p", [-7, -1, 0, 1, 4, 9, 15])
def test_count_points_rejects_a_p_that_is_not_prime(p, time_limit):
    with pytest.raises(ValueError, match="not prime"):
        count_points(E37, p)


def test_known_traces_11a():
    expected = {2: -2, 3: -1, 5: 1, 7: -2, 13: 4, 17: -2, 19: 0}
    for p, ap in expected.items():
        assert count_points(E11, p) == ap, p


def test_bad_prime_raises():
    with pytest.raises(BadReduction):
        count_points(E37, 37)
    with pytest.raises(BadReduction):
        count_points(E11, 11)


def test_count_points_on_models_inflated_at_small_primes():
    # a_i * 30^i is not minimal at 2, 3 and 5, so tate must find the minimal
    # model at every p, and the bad prime still raises
    for model, bad in ((E37, 37), (E11, 11)):
        weights = (1, 2, 3, 4, 6)
        inflated = WeierstrassModel(*(a * 30**i for a, i in zip(model.ainvs(), weights)))
        expected = trace_table(model, 13).good
        for p in (2, 3, 5, 7, 11, 13):
            if p != bad:
                assert count_points(inflated, p) == expected[p], (model.ainvs(), p)
        with pytest.raises(BadReduction):
            count_points(inflated, bad)


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


def test_count_points_matches_naive_on_every_short_curve_to_31():
    # every nonsingular y^2 = x^3 + Ax + B over F_p, 5 <= p <= 31: 3,190 curves,
    # many with non-cyclic groups or small point orders
    checked = 0
    for p in primes_up_to(31)[2:]:
        for A in range(p):
            for B in range(p):
                if (4 * A**3 + 27 * B * B) % p:
                    model = WeierstrassModel(0, 0, 0, A, B)
                    assert count_points(model, p) == count_points(
                        model, p, strategy="naive"
                    ), (A, B, p)
                    checked += 1
    assert checked == 3190


def _cartier_manin_power(A, B, p):
    """a_p mod p as the x^(p-1) coefficient of (x^3 + Ax + B)^((p-1)/2), by
    square-and-multiply on coefficient arrays mod p (lowest degree first)."""
    base = np.array([B % p, A % p, 0, 1], dtype=np.int64)
    result = np.ones(1, dtype=np.int64)
    e = (p - 1) // 2
    while e:
        if e & 1:
            result = np.convolve(result, base) % p
        e >>= 1
        if e:
            base = np.convolve(base, base) % p
    return int(result[p - 1]) if len(result) > p - 1 else 0


def test_cartier_manin_matches_the_polynomial_power():
    rng = random.Random(700)
    for p in primes_up_to(700)[2:]:
        for A, B in [(0, 0), (p - 1, 0), (0, 1)] + [
            (rng.randrange(p), rng.randrange(p)) for _ in range(3)
        ]:
            assert curve._cartier_manin(A, B, p) == _cartier_manin_power(A, B, p), (A, B, p)


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
    roots = {}  # z -> every y in F_p with y^2 = z
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    return [(x, y) for x in range(p) for y in roots.get((x * x * x + A * x + B) % p, [])]


def test_point_order_contract():
    # _point_order returns a divisor d of #E(F_p) whose multiples in the Hasse
    # window are exactly the n there with nP = 0; every point for p < 100 on
    # each curve and its quadratic twist, eight random ones above from
    # _random_point, which must land on both sides
    primes = [p for p in primes_up_to(100) if p >= 5] + [211, 1009, 2003, 4001, 10007, 65537]
    for model in ORACLE_CURVES:
        for p in primes:
            loc = tate(model, p)
            if loc.f:
                continue
            A, B = loc.minimal_model.a4 % p, loc.minimal_model.a6 % p
            s = math.isqrt(4 * p) + 1
            lo, hi = p + 1 - s, p + 1 + s
            if p < 100:
                g = least_nonresidue(p)
                curves = [(A, B), (A * g * g % p, B * g**3 % p)]
                cases = [(a, b, P) for a, b in curves for P in _curve_points(a, b, p)]
            else:
                cases, sides, state = [], set(), p
                for _ in range(8):
                    P, r, side, state = _random_point(A, B, p, state)
                    cases.append((A * r * r % p, B * r**3 % p, P))
                    sides.add(side)
                assert sides == {1, -1}, (model.ainvs(), p)
            orders = {}
            for a, b, P in cases:
                if (a, b) not in orders:
                    orders[a, b] = _naive_count(a, b, p)
                d = _point_order(P, a, p, lo, hi)
                assert orders[a, b] % d == 0, (model.ainvs(), p, P)
                killed = set()
                R = _ec_mul(lo, P, a, p)
                for n in range(lo, hi + 1):
                    if R is None:
                        killed.add(n)
                    R = _ec_add(R, P, a, p)
                assert killed == set(range(lo + (-lo) % d, hi + 1, d)), (model.ainvs(), p, P)


@given(
    st.sampled_from([p for p in primes_up_to(400) if p >= 5]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=(1 << 31) - 1),
)
@settings(max_examples=100, deadline=None)
def test_random_point_lies_on_curve_or_twist(p, A, B, state):
    # the point drawn lies on y^2 = x^3 + A r^2 x + B r^3, which is E when
    # (r|p) = 1 and its quadratic twist, of order 2p + 2 - #E, when (r|p) = -1
    A, B = A % p, B % p
    assume((4 * A**3 + 27 * B * B) % p)
    n = _naive_count(A, B, p)
    for _ in range(4):
        (x, y), r, side, state = _random_point(A, B, p, state)
        a, b = A * r * r % p, B * r**3 % p
        assert r % p and side == kronecker(r, p)
        assert (y * y - x * x * x - a * x - b) % p == 0
        assert _naive_count(a, b, p) == (n if side == 1 else 2 * p + 2 - n)


def test_bsgs_pinned_large_primes():
    # a_p from the factoring BSGS that preceded the current one; the values at
    # 1000003 and 3000017 also agree with the naive count (at 3000017, x^3
    # itself would leave int64)
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
        for p in (1000003, 3000017):
            assert count_points(model, p, strategy="naive") == traces[p], (model.ainvs(), p)


def test_routes_agree_around_6144_and_the_table_crossover(corpus):
    # trace tables switch from the naive batch to the BSGS lanes inside the
    # second window; around 6144 one naive row and the scalar BSGS take about
    # the same time
    records = corpus.records
    reds = [r.reduction for r in (records[0], records[len(records) // 2], records[-1])]
    for crossover in (6144, TABLE_CROSSOVER):
        primes = [p for p in primes_up_to(crossover + 500) if p >= crossover - 500]
        assert primes[0] < crossover < primes[-1]
        tables = trace_tables(reds, primes[-1])
        for red, table in zip(reds, tables):
            model = red.minimal_model
            for p in primes:
                if red.conductor % p == 0:
                    continue
                auto = count_points(model, p)
                assert auto == table.trace(p), (model.ainvs(), p)
                assert auto == count_points(model, p, strategy="naive"), (model.ainvs(), p)
                assert auto == count_points(model, p, strategy="bsgs"), (model.ainvs(), p)


def _short(model):
    c4, c6 = model.c_invariants()
    return -27 * c4, -54 * c6


def _batch(A, B, primes):
    """{p: #E(F_p)} the BSGS lanes pin for one curve y^2 = x^3 + Ax + B."""
    counts = _count_bsgs_batch([A] * len(primes), [B] * len(primes), primes)
    return {p: n for p, n in zip(primes, counts) if n is not None}


def test_batched_bsgs_matches_naive_and_scalar_below_3000():
    # the j = 0 and j = 1728 curves give the lanes small point orders, two
    # annihilators and x = 0 differences; those lanes must be left out
    for model in ORACLE_CURVES:
        A, B = _short(model)
        disc = model.discriminant()
        primes = [p for p in primes_up_to(3000) if p >= 5 and disc % p]
        counts = _batch(A, B, primes)
        assert len(counts) > len(primes) // 2, model.ainvs()
        for p, n in counts.items():
            assert n == _naive_count(A, B, p) == _count_bsgs(A % p, B % p, p), (
                model.ainvs(),
                p,
            )


def test_batched_bsgs_exact_near_int64_bound():
    # products of two residues come within 1% of 2^63 just below LANE_LIMIT
    assert (LANE_LIMIT - 1) ** 2 < 2**63
    rng = random.Random(20251018)
    primes = set()
    for lo, hi, count in ((10**9, 2 * 10**9, 20), (LANE_LIMIT - 10**7, LANE_LIMIT, 4)):
        band = set()
        while len(band) < count:
            band.add(next(q for q in range(rng.randrange(lo, hi), hi) if is_prime(q)))
        primes |= band
    for model in (E37, E389):
        A, B = _short(model)
        counts = _batch(A, B, sorted(primes))
        assert len(counts) >= len(primes) - 2, model.ainvs()
        for p, n in counts.items():
            assert n == _count_bsgs(A % p, B % p, p), (model.ainvs(), p)


def test_batch_never_takes_a_prime_at_or_above_lane_limit(monkeypatch):
    seen = []
    lanes = curve._count_bsgs_lanes

    def recording(A, B, primes, states):
        seen.extend(primes)
        return lanes(A, B, primes, states)

    monkeypatch.setattr(curve, "_count_bsgs_lanes", recording)
    big = next(q for q in range(LANE_LIMIT, LANE_LIMIT + 1000) if is_prime(q))
    below = next(q for q in range(LANE_LIMIT - 1, 0, -1) if is_prime(q))
    A, B = _short(E37)
    counts = _batch(A, B, [10007, below, big])
    # both passes: a lane the first pass leaves is run again on its next point
    assert sorted(set(seen)) == [10007, below] and big not in counts
    assert counts[10007] == _naive_count(A, B, 10007)


def _random_lanes(rng, lo, hi, count):
    """count nonsingular (A, B, p) with A, B residues mod a random prime p in [lo, hi)."""
    lanes = []
    while len(lanes) < count:
        p = next((q for q in range(rng.randrange(lo, hi), hi) if is_prime(q)), None)
        if p is None:
            continue
        A, B = rng.randrange(p), rng.randrange(p)
        if (4 * A**3 + 27 * B * B) % p:
            lanes.append((A, B, p))
    return sorted(lanes, key=lambda lane: lane[2])


def test_batched_bsgs_matches_scalar_over_every_bit_length():
    # 150 random curves a band, 12-bit to 31-bit primes and just below LANE_LIMIT;
    # passes take 512 consecutive lanes, so the first passes straddle powers of two
    rng = random.Random(20261020)
    bands = [(1 << (bits - 1), 1 << bits) for bits in range(12, 32)]
    lanes = []
    for lo, hi in bands + [(LANE_LIMIT - 10**7, LANE_LIMIT)]:
        lanes += _random_lanes(rng, lo, hi, 150)
    A, B, P = (list(column) for column in zip(*lanes))
    counts = _count_bsgs_batch(A, B, P)
    assert sum(n is None for n in counts) <= len(lanes) // 200
    for a, b, p, n in zip(A, B, P, counts):
        if n is not None:
            assert n == _count_bsgs(a, b, p), (a, b, p)


def test_second_pass_counts_on_the_next_point(monkeypatch):
    count_lanes = curve._count_bsgs_lanes
    first_pass = []

    def refuse_first_points(A, B, primes, states):
        first = [curve._next_state(curve._seed(a, b, p)) for a, b, p in zip(A, B, primes)]
        if states == first:
            first_pass.extend(primes)
            return [None] * len(primes)
        return count_lanes(A, B, primes, states)

    monkeypatch.setattr(curve, "_count_bsgs_lanes", refuse_first_points)
    rng = random.Random(2021)
    lanes = _random_lanes(rng, 2048, 4096, 300) + _random_lanes(rng, 10**5, 10**6, 300)
    lanes += _random_lanes(rng, 10**9, 2 * 10**9, 100)
    A, B, P = (list(column) for column in zip(*lanes))
    counts = _count_bsgs_batch(A, B, P)
    assert sorted(first_pass) == P  # every lane went through the first pass, and was refused
    # each pass packs consecutive lanes, so the second pass's passes mix the
    # bands and take their steps from the larger primes: m = 45 or 300 rows of
    # x(iP), and a small lane is left out when one of them has x = 0 (about 2m/p
    # of them) or its order is up to 2m + 2
    assert sum(n is None for n in counts) <= len(P) // 10
    for a, b, p, n in zip(A, B, P, counts):
        if n is not None:
            assert n == _count_bsgs(a, b, p), (a, b, p)


def test_lanes_of_a_mixed_pass_match_scalar_bsgs():
    # a pass takes its step counts from its largest prime, as a pass of either
    # draw does when it packs several bit lengths: the small primes' points then
    # often have orders near 2m, where a match's sign may not follow and the
    # lane must be left out.  Counting the undecidable matches pins wrong
    # counts here, on the lane below among others.
    A, B, P, S = [22, 0], [50, 1], [59, 2003], [1873499742, 12345]
    assert curve._count_bsgs_lanes(A, B, P, S)[0] in (None, _count_bsgs(22, 50, 59))
    rng = random.Random(2)
    for _ in range(12):
        P = sorted(q for q in (rng.randrange(20, 120) for _ in range(400)) if is_prime(q))
        A, B = [rng.randrange(q) for q in P], [rng.randrange(q) for q in P]
        S = [rng.randrange(1, 1 << 31) for _ in P]
        counts = curve._count_bsgs_lanes(A + [0], B + [1], P + [2003], S + [1])
        for a, b, p, n in zip(A, B, P, counts):
            if n is not None and (4 * a**3 + 27 * b * b) % p:
                assert n == _count_bsgs(a, b, p), (a, b, p)


def test_trace_table_batched_matches_scalar_bsgs(monkeypatch, trace_batches):
    tables = {model: trace_table(model, 20001) for model in (E37, E389)}
    for model, table in tables.items():
        for p, ap in table.good.items():
            assert ap == count_points(model, p, strategy="bsgs"), (model.ainvs(), p)
    # every lane left to the scalar route: the same tables, counted again
    monkeypatch.setattr(curve, "_count_bsgs_batch", lambda A, B, primes: [None] * len(primes))
    curve._STORE.clear()
    del trace_batches[:]
    for model, table in tables.items():
        assert trace_table(model, 20001) == table
    assert trace_batches == [(1, primes_up_to(20001))] * 2


# the batched naive kernel's oracle batch: corpus curves, the j = 0 and j = 1728
# curves, two curves with 23- and 22-digit discriminants (bad at 5 and 401, and
# at 17), and 37a, 11a, 389a, whose bad primes put masked rows in the band
NAIVE_BATCH = (
    E37,
    E11,
    E389,
    WeierstrassModel(0, 0, 1, 0, 0),
    WeierstrassModel(0, 0, 0, -1, 0),
    WeierstrassModel(0, -1, 1, -1201796, -7836423369),
    WeierstrassModel(1, 1, 1, -340375, 3287516046),
)


def _euler_chi(p):
    """(z|p) for every z in [0, p), by Euler's criterion z^((p-1)/2) mod p."""
    z, chi, e = np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64), (p - 1) // 2
    while e:
        if e & 1:
            chi = chi * z % p
        z, e = z * z % p, e >> 1
    return np.where(chi == p - 1, -1, chi)


def test_batched_naive_matches_scalar_naive_bsgs_and_legendre(corpus):
    models = NAIVE_BATCH + tuple(r.reduction.minimal_model for r in corpus.records[::500])
    reds = [global_reduce(m) for m in models]
    X = 6143
    tables = trace_tables(reds, X)
    assert any(p in t.ramified for t in tables for p in (5, 17, 401))  # masked rows
    for p in primes_up_to(X)[2:]:
        chi = _euler_chi(p)
        x = np.arange(p, dtype=np.int64)
        for red, table in zip(reds, tables):
            if p in red.locals:
                assert p not in table.good
                continue
            ap = table.good[p]
            c4, c6 = red.minimal_model.c_invariants()
            A, B = -27 * c4, -54 * c6
            assert p + 1 - ap == _naive_count(A, B, p) == _count_bsgs(A % p, B % p, p), p
            # the y-count of the completed square, independent of the short model
            b2, b4, b6, _ = (b % p for b in red.minimal_model.b_invariants())
            assert ap == -int(chi[(((4 * x + b2) * x + 2 * b4) * x + b6) % p].sum()), p


def _brute_affine_count(A, B, p):
    return sum((y * y - x**3 - A * x - B) % p == 0 for x in range(p) for y in range(p))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_affine_counts_match_brute_force_on_every_cubic(p):
    # every (A, B) in F_p^2, singular cubics included, as ints and as one batch
    pairs = [(A, B) for A in range(p) for B in range(p)]
    brute = [_brute_affine_count(A, B, p) for A, B in pairs]
    assert [curve._affine_counts(A, B, p) for A, B in pairs] == brute
    A, B = (np.array(column, dtype=np.int64)[:, None] for column in zip(*pairs))
    assert curve._affine_counts(A, B, p) == brute


def test_affine_counts_match_bsgs_just_below_the_table_crossover():
    rng = random.Random(TABLE_CROSSOVER)
    for p in [q for q in primes_up_to(TABLE_CROSSOVER) if q > TABLE_CROSSOVER - 50]:
        rows = []
        while len(rows) < 24:
            A, B = rng.randrange(p), rng.randrange(p)
            if (4 * A**3 + 27 * B * B) % p:
                rows.append((A, B))
        A, B = (np.array(column, dtype=np.int64)[:, None] for column in zip(*rows))
        counts = [n + 1 for n in curve._affine_counts(A, B, p)]
        assert counts == [_count_bsgs(a, b, p) for a, b in rows], p


def test_naive_batch_in_row_steps(monkeypatch):
    # room for three rows of the 49 values of x the kernel evaluates at 97: the
    # batch of seven goes in steps of three, three and one curves (that one as
    # ints), each over the 23 primes in [5, 100]
    whole = trace_tables(NAIVE_BATCH, 100)
    calls = []
    kernel = curve._affine_counts

    def recording(A, B, p):
        calls.append(np.size(A) * (p // 2 + 1))
        return kernel(A, B, p)

    monkeypatch.setattr(curve, "_RESIDUES", 3 * 49)
    monkeypatch.setattr(curve, "_affine_counts", recording)
    curve._STORE.clear()  # else the store serves the tables without counting
    assert trace_tables(NAIVE_BATCH, 100) == whole
    assert len(calls) == 3 * 23 and max(calls) <= 3 * 49


def test_trace_table_is_the_batch_of_one(trace_batches):
    tables = trace_tables([*NAIVE_BATCH, global_reduce(E37)], 5000)
    assert trace_batches == [(len(NAIVE_BATCH), primes_up_to(5000))]  # 37a once
    for model, table in zip(NAIVE_BATCH, tables):
        curve._STORE.clear()  # each curve counted alone
        assert trace_table(model, 5000) == table
    assert trace_batches[1:] == [(1, primes_up_to(5000))] * len(NAIVE_BATCH)
    assert tables[-1].model == global_reduce(E37).minimal_model
    assert trace_tables([], 100) == []


def _counted(curves, X):
    """The curves' trace tables counted afresh, in an empty store of their own."""
    return curve._TraceStore(1 << 20).tables(curves, X)


def test_trace_store_slices_a_smaller_bound(corpus, trace_batches):
    reds = [r.reduction for r in corpus.records[:6]]
    trace_tables(reds, 1000)
    tables = trace_tables(reds, 300)
    assert trace_batches == [(6, primes_up_to(1000))]  # the smaller bound counted nothing
    assert tables == _counted(reds, 300)


def test_trace_store_extends_by_the_new_primes_only(corpus, trace_batches):
    reds = [r.reduction for r in corpus.records[:6]]
    trace_tables(reds, 75)
    tables = trace_tables(reds, 1000)
    assert trace_batches[1:] == [(6, [p for p in primes_up_to(1000) if p > 75])]
    assert curve._STORE.size == 6 * len(primes_up_to(1000))
    assert tables == _counted(reds, 1000)


def test_trace_store_evicts_the_least_recent_under_its_bound(corpus):
    store = curve._TraceStore(500)  # room for two tables of 168 a_p, not three
    reds = [r.reduction for r in corpus.records[:5]]
    for red in reds:
        assert store.tables([red], 1000) == _counted([red], 1000)
        assert store.size <= 500
    kept = {key: len(aps) for key, (_, aps) in store._rows.items()}
    assert list(kept) == [red.minimal_model.ainvs() for red in reds[-2:]]
    assert store.size == sum(kept.values()) == 2 * 168
    # a request larger than the bound is answered whole, then trimmed
    assert store.tables(reds, 1000) == _counted(reds, 1000)
    assert store.size <= 500


def test_trace_store_keeps_one_table_per_minimal_model(trace_batches):
    # 37a and a model of it that is not minimal at 2 share one entry, and each
    # table carries the model asked for, or the minimal one for a reduction
    scaled = WeierstrassModel(0, 0, 8, -16, 0)
    t1, t2 = trace_table(E37, 200), trace_table(scaled, 200)
    t3, t4 = trace_tables([global_reduce(E37), global_reduce(scaled)], 200)
    assert len(trace_batches) == 1 and curve._STORE.size == len(primes_up_to(200))
    assert (t1.model, t2.model, t3.model, t4.model) == (E37, scaled, E37, E37)
    assert t3 == t4 == t1
    assert (t2.good, t2.ramified) == (t1.good, t1.ramified)


def test_a_minimal_model_is_its_own_reduction(corpus):
    # global_reduce is idempotent, bad primes included
    for rec in corpus.records:
        red = rec.reduction
        again = global_reduce(red.minimal_model)
        assert again.minimal_model == red.minimal_model
        assert again.locals.keys() == red.locals.keys()


def test_repeated_trace_table_counts_no_prime(trace_batches):
    table = trace_table(E37, 1000)
    same, pair = trace_table(E37, 1000), trace_tables([E37, E37], 1000)
    smaller = trace_table(E37, 500)
    assert trace_batches == [(1, primes_up_to(1000))]
    assert same == table and pair == [table, table]
    assert smaller == _counted([E37], 500)[0]


def test_trace_table_extends_a_stored_table_over_the_new_primes(trace_batches):
    trace_table(E37, 20001)
    table = trace_table(E37, 10**5)
    assert trace_batches[1:] == [(1, [p for p in primes_up_to(10**5) if p > 20001])]
    assert table == _counted([E37], 10**5)[0]


def test_served_tables_share_no_dicts():
    table = trace_table(E37, 100)
    table.good[2] = 99
    table.ramified.clear()
    for again in (trace_table(E37, 100), *trace_tables([E37], 50)):
        assert again.good[2] == -2 and again.ramified == {37: -1}


def test_trace_table_alone_evicts_under_the_bound(corpus, monkeypatch):
    monkeypatch.setattr(curve, "_STORE", curve._TraceStore(500))
    reds = [r.reduction for r in corpus.records[:5]]
    for red in reds:
        trace_table(red, 1000)
        assert curve._STORE.size <= 500
    assert list(curve._STORE._rows) == [red.minimal_model.ainvs() for red in reds[-2:]]


def test_trace_table_memory_is_bounded_by_the_pass_size():
    # one pass of 512 lanes holds ~40 residues per lane at these primes; the
    # 1,345 lanes of 15 bits in one pass would take the peak above 2 MB
    trace_table(E37, 2000)
    curve._STORE.clear()  # count the whole table below
    tracemalloc.start()
    try:
        table = trace_table(E37, 30000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.good) == 3244
    assert peak < 1.5 * 2**20, peak


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


def test_trace_table_columns_views_and_repr():
    t = trace_table(E37, 100)
    assert t.primes == tuple(primes_up_to(100)) and len(t.aps) == len(t.primes)
    assert t.bad == {37} and t.aps[t.primes.index(37)] == -1
    # the views are plain dicts of ints in ascending p, as json.dumps and the CLI read them
    for view in (t.good, t.ramified):
        assert type(view) is dict and list(view) == sorted(view)
        assert all(type(p) is int and type(a) is int for p, a in view.items())
    assert json.loads(json.dumps(t.good)) == {str(p): a for p, a in t.good.items()}
    assert tuple(t.good) == t.good_primes()
    assert t.good == {p: t.trace(p) for p in t.good_primes()}
    for p in (1, 4, 37 * 2, 101, 10**6):
        with pytest.raises(KeyError):
            t.trace(p)
    # equal on model, bound and a_p
    assert t == trace_table(E37, 100) and t != trace_table(E37, 97)
    assert t != dataclasses.replace(t, aps=(99, *t.aps[1:]))
    assert repr(t) == (
        "TraceTable(WeierstrassModel(a1=0, a2=0, a3=1, a4=-1, a6=0), bound=100, "
        "25 primes, bad=[37])"
    )


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
