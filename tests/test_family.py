import dataclasses
import gc
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter

import pytest

import ellgal.family as family
import ellgal.localdata as localdata
from ellgal.arith import kronecker, least_nonresidue, primes_up_to
from ellgal.curve import WeierstrassModel, trace_table
from ellgal.family import (
    CM_BASES,
    _census_family,
    build_family,
    cm_census,
    ingest,
    pair_statistics,
    report_emit,
    report_parse_csv,
    validate_cm_bases,
)
from ellgal.localdata import global_reduce, tate
from tate_reference import _tate_steps

# census counts verified against a direct enumeration of every admissible twist
# parameter with globalReduce computing each conductor (no memoization)
CENSUS_ORACLE = {1000: 120, 10**4: 462, 10**5: 2156, 10**6: 9050}


def test_ingest_csv_and_rejects(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "\ufeffa1,a2,a3,a4,a6,label\n"  # a byte-order mark before the header is dropped
        "0,0,1,-1,0,good\n"
        "0,0,x,1,1,badint\n"
        "0,0,0,0,0,singular\n"
        "0,0,1,-1,0,good\n"  # duplicate label
        "1,1,1,-10,-10,ok2\n"
        "0,0,1,-1,0,a,zzz\n"  # a field after the label
        "0,0,1,-1\n",  # four fields
        encoding="utf-8",
    )
    corpus = ingest(path, "csvAinvariants")
    assert [r.label for r in corpus.records] == ["good", "ok2"]
    assert len(corpus.rejects) == 5
    messages = [msg for _, msg in corpus.rejects]
    assert any("non-integer" in m for m in messages)
    assert any("singular" in m for m in messages)
    assert any("duplicate" in m for m in messages)
    assert corpus.rejects[-2] == (7, "more than 6 fields (a1,a2,a3,a4,a6,label)")
    assert corpus.rejects[-1] == (8, "expected 5 coefficients")
    # conservation: every input row is either a record or a reject
    assert len(corpus.records) + len(corpus.rejects) == 7


def test_ingest_skips_blank_csv_rows(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a1,a2,a3,a4,a6,label\n0,0,1,-1,0,w\n\n , ,\t\n0,1,1,-2,0,v\n", encoding="utf-8")
    corpus = ingest(path, "csvAinvariants")
    assert [r.label for r in corpus.records] == ["w", "v"] and corpus.rejects == ()
    # a blank row still takes its row number
    path.write_text("a1,a2,a3,a4,a6,label\n\n0,0,1,-1\n", encoding="utf-8")
    assert ingest(path, "csvAinvariants").rejects == ((3, "expected 5 coefficients"),)


def test_ingest_header_required(tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("0,0,1,-1,0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ingest(path, "csvAinvariants")


def test_ingest_unknown_format(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("a1,a2,a3,a4,a6,label\n0,0,1,-1,0,w\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown format"):
        ingest(path, "xml")


def test_ingest_json_lines(tmp_path):
    path = tmp_path / "curves.jsonl"
    rows = [
        {"a1": 0, "a2": 0, "a3": 1, "a4": -1, "a6": 0, "label": " w"},
        {"a1": 0, "a2": 1, "a3": 1, "a4": -2, "a6": 0},
        {"broken": True},
        # int() would truncate -1.5 to -1 and read true as 1, both giving 37a
        {"a1": 0, "a2": 0, "a3": 1, "a4": -1.5, "a6": 0, "label": "float"},
        {"a1": 0, "a2": 0, "a3": True, "a4": -1, "a6": 0, "label": "bool"},
        {"a1": "0", "a2": "0", "a3": "1", "a4": "-1", "a6": "0", "label": "strings"},
        # labels are stripped as in CSV: blank takes the row default, "w " repeats "w"
        {"a1": 0, "a2": 0, "a3": 1, "a4": -1, "a6": 0, "label": " \t"},
        {"a1": 0, "a2": 0, "a3": 1, "a4": -1, "a6": 0, "label": "w "},
    ]
    lines = [json.dumps(r) for r in rows] + ['{"a1": ' + "1" * 5000 + "}"]  # too long to read
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = ingest(path, "jsonLines")
    assert [r.label for r in corpus.records] == ["w", "row2", "strings", "row7"]
    assert corpus.rejects == (
        (3, "malformed JSON row"),
        (4, "non-integer coefficient"),
        (5, "non-integer coefficient"),
        (8, "duplicate label 'w'"),
        (9, "malformed JSON row"),
    )
    assert corpus.records[0].reduction.conductor == 37


def test_family_filters_nest(corpus):
    fam_all = build_family(corpus, "all", 10**4)
    fam_ss = build_family(corpus, "semistable", 10**4)
    fam_12 = build_family(corpus, "additiveCond12", 10**4)
    labels = lambda fam: {r.label for r in fam.records}
    assert labels(fam_ss) <= labels(fam_12) <= labels(fam_all)
    assert len(fam_ss.records) < len(fam_all.records)
    # conductor ordering
    conds = [r.reduction.conductor for r in fam_all.records]
    assert conds == sorted(conds)


def test_non_cm_filter_is_the_complement_of_cm_only(corpus, family_all):
    fam_cm = build_family(corpus, "cmOnly", 10**4)
    fam_non = build_family(corpus, "nonCM", 10**4)
    assert fam_non.filter_tag == "nonCM"
    cm, non = {r.label for r in fam_cm.records}, {r.label for r in fam_non.records}
    assert not cm & non
    assert cm | non == {r.label for r in family_all.records}
    cm_js = {j for _, j in CM_BASES.values()}
    assert all(r.model.j_invariant() not in cm_js for r in fam_non.records)
    with pytest.raises(ValueError, match="unknown filter"):
        build_family(corpus, "nonCm", 10**4)


def test_family_ceiling(corpus):
    fam = build_family(corpus, "all", 100)
    assert all(r.reduction.conductor <= 100 for r in fam.records)


def test_cm_filter_catches_the_cm_curves(corpus):
    fam_cm = build_family(corpus, "cmOnly", 10**4)
    js = {r.model.j_invariant() for r in fam_cm.records}
    assert 0 in js  # y^2 + y = x^3 lives in the corpus
    cm_js = {j for _, j in CM_BASES.values()}
    assert js <= cm_js


def _zero_share_is_cm(record):
    """The former cmOnly rule, kept as an oracle: over 35% of a_p vanish, 5 <= p <= 500."""
    table = trace_table(record.reduction, 500)
    good = [p for p in table.good_primes() if p >= 5]
    return sum(1 for p in good if table.good[p] == 0) > 0.35 * len(good)


def test_cm_filter_agrees_with_zero_share_oracle(corpus):
    cm = {r.label for r in build_family(corpus, "cmOnly", 10**4).records}
    assert len(cm) == 52
    sample = [r for i, r in enumerate(corpus.records) if r.label in cm or i % 10 == 0]
    assert {r.label for r in sample if _zero_share_is_cm(r)} == cm


def test_cm_filter_builds_only_fingerprint_tables(corpus, trace_batches):
    fam = build_family(corpus, "cmOnly", 10**4)
    # one batch of fingerprint tables
    assert trace_batches == [(len(fam.records), primes_up_to(75))]


def test_pair_statistics_deterministic(family_all):
    s1 = pair_statistics(family_all, 200, 40, seed=11)
    s2 = pair_statistics(family_all, 200, 40, seed=11)
    assert s1 == s2
    s3 = pair_statistics(family_all, 200, 40, seed=12)
    assert s3["entries"] != s1["entries"]
    assert s1["pairsTotal"] == 40


def test_pair_statistics_samples_by_index(family_all):
    # oracle: list every pair (i, j), i < j, and sample the list with the same seed
    for size in (0, 1, 2, 3, 60):
        fam = dataclasses.replace(family_all, records=family_all.records[:size])
        labels = [r.label for r in fam.records]
        listed = [(i, j) for i in range(size) for j in range(i + 1, size)]
        for cap, seed in itertools.product((1, 7, 1769, 1770, 5000), (0, 1, 42)):
            expected = listed
            if len(listed) > cap:
                expected = sorted(random.Random(seed).sample(listed, cap))
            got = pair_statistics(fam, 75, cap, seed)["entries"]
            assert [e["pair"] for e in got] == [[labels[i], labels[j]] for i, j in expected]

    pair_statistics(family_all, 75, 1000, seed=1)  # trace tables cached before tracing
    tracemalloc.start()
    try:
        stats = pair_statistics(family_all, 75, 1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats["pairsTotal"] == 1000
    assert peak < 10 * 2**20, peak


def test_validate_cm_bases_and_count():
    validate_cm_bases()  # raises on any j or trace-pattern mismatch
    assert len(CM_BASES) == 13
    js = [j for _, j in CM_BASES.values()]
    assert len(set(js)) == 13
    assert 0 in js and 1728 in js


def test_cm_census_counts_match_direct_enumeration():
    rep = cm_census(10**4)
    assert rep["ceilings"] == [1000, 10**4]
    assert rep["counts"] == [CENSUS_ORACLE[1000], CENSUS_ORACLE[10**4]]
    assert rep["baseCount"] == 13
    assert sum(rep["perJInvariant"].values()) == CENSUS_ORACLE[10**4]


def test_cm_census_monotone_and_empty():
    rep = cm_census(10**5)
    assert rep["counts"] == sorted(rep["counts"])
    assert rep["counts"][-1] == CENSUS_ORACLE[10**5]
    tiny = cm_census(1)
    assert tiny["counts"] == [0]


def test_cm_census_memory_stays_below_its_tables():
    # no table over sqrt(N) is built (10^4 Python ints here), and each family's
    # tables are freed when its count returns, not left in a cycle for a gc pass
    cm_census(1000)  # bases validated and modules loaded outside the measurement
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        rep = cm_census(10**8)
        peak = tracemalloc.get_traced_memory()[1]
        cyclic = gc.collect()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert rep["counts"][:4] == [CENSUS_ORACLE[10**k] for k in (3, 4, 5, 6)]
    assert cyclic == 0
    assert peak < 0.75 * 2**20, peak


def _power_twists(power, unit_primes):
    """Every (sign, a, b, u) with d = sign * 2^a * 3^b * u a power-free twist parameter,
    0 <= a, b < power, and u prime to 6 with rad(u) = prod unit_primes."""
    unit_exps = itertools.product(range(1, power), repeat=len(unit_primes))
    for sign, a, b, exps in itertools.product((1, -1), range(power), range(power), unit_exps):
        yield sign, a, b, math.prod(p**e for p, e in zip(unit_primes, exps))


def _check_exact_counts(D, conductors):
    """The census of family D, asked for conductor <= N - 1 and <= N at each N met,
    must count exactly the twists whose reduced conductor is N."""
    tops = sorted({N for N in conductors} | {N - 1 for N in conductors})
    primes = primes_up_to(math.isqrt(tops[-1]))[2:]
    counts = dict(zip(tops, _census_family(D, tops, primes)))
    for N, k in Counter(conductors).items():
        assert counts[N] - counts[N - 1] == k, (D, N)


def test_cm_census_rejects_nonpositive_ceilings():
    for ceiling in (0, -5):
        with pytest.raises(ValueError, match="positive"):
            cm_census(ceiling)


def test_cm_census_rejects_f_q_that_varies_over_twists(monkeypatch):
    # the census reads one f_q per family from the Tate runs at q; a run that
    # differs for the nonresidue class must stop it rather than skew the counts
    D, q = -7, 7
    _, build, _ = family._family(D)
    nonresidue = {build(q**v * least_nonresidue(q)) for v in (0, 1)}

    def tate(model, p):
        loc = localdata.tate(model, p)
        return dataclasses.replace(loc, f=loc.f + 1) if p == q and model in nonresidue else loc

    monkeypatch.setattr(family, "tate", tate)
    with pytest.raises(RuntimeError, match="f_q varies"):
        _census_family(D, [10**4], primes_up_to(100)[2:])


def test_cm_census_memo_agrees_with_global_reduce():
    # each listed twist's conductor comes from global_reduce, and the census must
    # count exactly those twists; each list holds every twist of its conductors,
    # since m is read off the conductor's part prime to 6 * q
    from ellgal.curve import quadratic_twist, quartic_twist_model, sextic_twist_model

    quadratic = {
        -7: (1, 7, 55, 385),  # 55 and -1 are non-residues mod 7
        -11: (1, 11, 35, 385),  # chi_11(2) = chi_11(7) = -1: the class at 11 flips
        -8: (1, 5, 35),  # no bad prime >= 5 in the base
    }
    for D, ms in quadratic.items():
        base = WeierstrassModel(*CM_BASES[D][0])
        signs_a_b = list(itertools.product((1, -1), (0, 1), (0, 1)))
        twists = [sign * 2**a * 3**b * m for m in ms for sign, a, b in signs_a_b]
        _check_exact_counts(D, [global_reduce(quadratic_twist(base, d)).conductor for d in twists])

    for D, power, model in ((-4, 4, quartic_twist_model), (-3, 6, sextic_twist_model)):
        # 5^e * 11^f falls into fewer unit classes mod (m_2, m_3) than it has vectors
        conductors = [
            global_reduce(model(sign * 2**a * 3**b * u)).conductor
            for unit_primes in ([], [5, 11])
            for sign, a, b, u in _power_twists(power, unit_primes)
        ]
        _check_exact_counts(D, conductors)


def test_power_classes_fix_f_at_2_and_3():
    # the census runs Tate at 2 and 3 once per class of a twist's unit mod m_p
    # (_class_moduli); on every twist sign * 2^a * 3^b * u of each family, u odd
    # mod 16 at 2 and prime to 3 mod 27 at 3, f must equal f on p^v_p(d) times
    # the class representative (unit mod m_p)
    for D in sorted(CM_BASES):
        power, build, _ = family._family(D)
        moduli = dict(zip((2, 3), family._class_moduli(power)))
        memo = {}

        def f(d, p):
            if (d, p) not in memo:
                memo[d, p] = tate(build(d), p).f
            return memo[d, p]

        at3 = [u for u in range(1, 27) if u % 3]
        for sign, a, b in itertools.product((1, -1), range(power), range(power)):
            for p, v, units in ((2, a, range(1, 16, 2)), (3, b, at3)):
                for u in units:
                    d = sign * 2**a * 3**b * u
                    rep = p**v * (d // p**v % moduli[p])
                    assert f(d, p) == f(rep, p), (D, p, sign, a, b, u)


def test_cm_census_runs_tate_once_per_class(monkeypatch):
    # per family, power * (m_2 / 2 + phi(m_3)) runs at 2 and 3: 11 quadratic
    # families at 2 * (4 + 2), the quartic at 4 * (8 + 2), the sextic at 6 * (4 + 6);
    # and 4 at q for each of the 7 families whose base is bad at some q >= 5
    runs = Counter()

    def tate(model, p):
        runs["2, 3" if p < 5 else "q"] += 1
        return localdata.tate(model, p)

    monkeypatch.setattr(family, "tate", tate)
    cm_census(10**7)
    assert runs == {"2, 3": 232, "q": 28}


class _ExponentOracle:
    """Conductor exponents of one family's twists at 2, 3 and the base's bad primes
    q >= 5, built without the census code and memoized as an earlier census design
    keyed them: f_2 and f_3 from the reference Tate search (tests/tate_reference.py),
    on (p, v mod power, sign * unit mod 16 or 27) of the
    models y^2 = x^3 + dx, y^2 = x^3 + d or the quadratic twist, and f_q on
    (q, v_q(d), chi_q(d / q^v))."""

    def __init__(self, D):
        self.power = {-3: 6, -4: 4}.get(D, 2)
        base = global_reduce(WeierstrassModel(*CM_BASES[D][0]))
        c4, c6 = base.minimal_model.c_invariants()
        self.build = {
            6: lambda d: WeierstrassModel(0, 0, 0, 0, d),
            4: lambda d: WeierstrassModel(0, 0, 0, d, 0),
            2: lambda d: WeierstrassModel(0, 0, 0, -27 * c4 * d * d, -54 * c6 * d**3),
        }[self.power]
        self.q_primes = [p for p in base.locals if p >= 5]
        self.cache = {}

    def f(self, p, sign, v, unit):
        """f_p (p = 2 or 3) of the twist by sign * p^v * unit, unit prime to p."""
        key = (p, v % self.power, sign * unit % (16 if p == 2 else 27))
        if key not in self.cache:
            self.cache[key] = _tate_steps(self.build(sign * p**v * unit), p).f
        return self.cache[key]

    def local23(self, sign, a, b, u):
        """2^f2 * 3^f3 of the twist by sign * 2^a * 3^b * u, u prime to 6."""
        return 2 ** self.f(2, sign, a, u * 3**b % 16) * 3 ** self.f(3, sign, b, u * 2**a % 27)

    def q_part(self, d):
        """prod q^f_q over the base's bad primes q >= 5 of the twist by d."""
        out = 1
        for q in self.q_primes:
            vq = 1 if d % q == 0 else 0
            chi = kronecker((d // q if vq else d) % q, q)
            key = (q, vq, chi)
            if key not in self.cache:
                rep = q**vq * (1 if chi == 1 else least_nonresidue(q))
                self.cache[key] = tate(self.build(rep), q).f
            out *= q ** self.cache[key]
        return out


def _squarefree_by_trial_division(bound):
    """Each squarefree m <= bound prime to 6, with its ascending primes, by trial division."""
    for m in range(1, bound + 1):
        if math.gcd(m, 6) > 1:
            continue
        mprimes, rest, d = [], m, 5
        while d * d <= rest:
            if rest % d == 0:
                rest //= d
                if rest % d == 0:
                    break
                mprimes.append(d)
            d += 2
        else:
            yield m, mprimes + [rest] * (rest > 1)


def _nested_loop_census(ceiling, tops):
    """The census as a list of every member's conductor: per family, squarefree m,
    exponent vector, sign, a and b, with the oracle asked for each exponent."""
    conductors = []
    root = math.isqrt(ceiling)
    for D in sorted(CM_BASES):
        j = CM_BASES[D][1]
        oracle = _ExponentOracle(D)
        power = oracle.power
        for m, mprimes in _squarefree_by_trial_division(root):
            big = math.prod(p * p for p in mprimes if p not in oracle.q_primes)
            units = [1]
            for p in mprimes:
                units = [u * p**e for u in units for e in range(1, power)]
            for u in units:
                for sign, a, b in itertools.product((1, -1), range(power), range(power)):
                    N = big * oracle.local23(sign, a, b, u) * oracle.q_part(sign * 2**a * 3**b * u)
                    if N <= ceiling:
                        conductors.append((N, j))
    counts = [sum(1 for N, _ in conductors if N <= top) for top in tops]
    per_j = Counter(str(j) for _, j in conductors)
    return counts, dict(per_j)


def test_cm_census_matches_nested_loop_enumeration():
    # 1089 = 9 * 11^2 and 3872 = 32 * 11^2 are sextic and quartic conductors m^2 * F
    # with F the family's smallest 2^f2 * 3^f3, the edge where the m loop stops
    for ceiling in (10**3, 1089, 3872, 10**4, 10**5, 10**6):
        rep = cm_census(ceiling)
        counts, per_j = _nested_loop_census(ceiling, rep["ceilings"])
        assert rep["counts"] == counts
        assert rep["perJInvariant"] == per_j
    # counts at tops off the decade ladder; in the second case the primes reach past the last top
    for ceiling, tops in ((10**5, [1, 50, 999, 12345, 10**5]), (30000, [999, 12345])):
        primes = primes_up_to(math.isqrt(ceiling))[2:]
        counts = [sum(c) for c in zip(*(_census_family(D, tops, primes) for D in CM_BASES))]
        assert counts == _nested_loop_census(ceiling, tops)[0]
    tiny = cm_census(1)
    assert tiny["counts"] == [0] and tiny["perJInvariant"] == {}


def test_report_emit_deterministic():
    report = {"b": [1.0 / 3, {"x": None}], "a": 2, "c": "text"}
    assert report_emit(report, "json") == report_emit(report, "json")
    assert report_emit(report, "csv") == report_emit(report, "csv")
    blob = report_emit(report, "json")
    assert blob.endswith(b"\n")
    assert json.loads(blob) == {"b": [0.333333333333, {"x": None}], "a": 2, "c": "text"}


def test_report_csv_round_trip():
    report = {"counts": [1, 2], "ratio": 0.125, "name": "census", "missing": None}
    blob = report_emit(report, "csv")
    parsed = report_parse_csv(blob)
    assert parsed == {
        "counts/0": 1,
        "counts/1": 2,
        "ratio": 0.125,
        "name": "census",
        "missing": None,
    }


def test_census_report_round_trips_through_csv():
    rep = cm_census(2000)
    blob = report_emit(rep, "csv")
    parsed = report_parse_csv(blob)
    assert parsed["counts/0"] == rep["counts"][0]
    assert parsed["baseCount"] == 13


def test_report_parse_csv_needs_its_header():
    with pytest.raises(ValueError, match="not a report CSV"):
        report_parse_csv(b"k,v\nx,1\n")


def test_report_emit_unknown_format():
    with pytest.raises(ValueError):
        report_emit({}, "xml")
