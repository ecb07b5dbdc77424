"""The three workloads: seeded inputs, the timed operations, and output checks.

Each workload has `generate(seed, scale, workdir, ellgal)`, which writes and
returns its inputs, `run(ctx, inputs, ellgal)`, which makes the timed calls
through `ctx.op`, and `check(ctx, inputs, ellgal)`, which runs after the
timed region and reports failed checks against the operation kinds they
cover.  Why each workload exists is recorded in BENCHMARK.json and
baseline.json.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from numtheory import annihilates, discriminant, frobenius_trace, random_prime

HERE = Path(__file__).resolve().parent

# Sizes: "full" is what the benchmark measures; "tiny" is for the self-tests.
SCALES = {
    "corpus-scan": {
        "full": {"curves": 24, "pairs": 150},
        "tiny": {"curves": 6, "pairs": 5},
    },
    "deep-traces": {
        "full": {"X": 10**5, "pair_X": 20001, "smooth_X": 10**4, "per_band": 10},
        "tiny": {"X": 3000, "pair_X": 2001, "smooth_X": 1000, "per_band": 1},
    },
    "reduce-census": {
        "full": {"prime": 8, "rho": 2, "census": 10**7},
        "tiny": {"prime": 2, "rho": 1, "census": 10**6},
    },
}

CEILING = 10**40  # conductor ceiling that admits every generated curve
CURVE_37A = (0, 0, 1, -1, 0)
CURVE_389A = (0, 1, 1, -2, 0)
# cm_census counts at conductor ceilings 10^3 .. 10^6, pinned independently
# by direct enumeration in the program's own acceptance tests.
CENSUS_COUNTS = {10**3: 120, 10**4: 462, 10**5: 2156, 10**6: 9050}


def _write_csv(path, rows):
    lines = ["a1,a2,a3,a4,a6,label"] + [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# corpus-scan


def box_curves(rng, count):
    """Distinct nonsingular a-invariants with a1, a3 in {0,1}, a2 in {-1,0,1}, |a4|, |a6| <= 10."""
    chosen = []
    while len(chosen) < count:
        ainvs = (
            rng.randint(0, 1),
            rng.randint(-1, 1),
            rng.randint(0, 1),
            rng.randint(-10, 10),
            rng.randint(-10, 10),
        )
        if ainvs not in chosen and discriminant(*ainvs) != 0:
            chosen.append(ainvs)
    return chosen


def corpus_generate(seed, scale, workdir, ellgal):
    size = SCALES["corpus-scan"][scale]
    rng = random.Random(f"corpus-scan:{seed}")
    rows = [(*a, f"c{i:03d}") for i, a in enumerate(box_curves(rng, size["curves"]))]
    path = workdir / "corpus.csv"
    _write_csv(path, rows)
    return {"csv": path, "pairs": size["pairs"], "seed": seed}


def corpus_run(ctx, inputs, ellgal):
    corpus = ctx.op("ingest", ellgal.ingest, str(inputs["csv"]), "csvAinvariants")
    ctx.op("build_family", ellgal.build_family, corpus, "cmOnly", CEILING)
    family = ctx.op("build_family", ellgal.build_family, corpus, "all", CEILING)
    ctx.op("pair_statistics", ellgal.pair_statistics, family, 1000, inputs["pairs"], inputs["seed"])
    expected = (ellgal.InsufficientSamples,)
    for record in family.records:
        red = record.reduction
        table = ctx.op("trace_table", ellgal.trace_table, red.minimal_model, 1000)
        for ell in (2, 5, 7, 11):
            ctx.op("image_test", ellgal.image_test, red, table, ell, 1000, expected=expected)
        cands = ctx.op("epsilon_candidates", ellgal.epsilon_candidates, red, 5)
        ctx.op("prune_epsilon", ellgal.prune_epsilon, cands, table, 5)


def corpus_check(ctx, inputs, ellgal):
    """Sampled a_p of the timed tables against an independent character sum."""
    rng = random.Random(f"corpus-scan check:{inputs['seed']}")
    tables = [(i, t) for i, t in enumerate(ctx.results("trace_table")) if t is not None]
    for i, table in rng.sample(tables, min(5, len(tables))):
        primes = [p for p in table.good_primes() if 5 <= p < 300]
        for p in rng.sample(primes, min(6, len(primes))):
            if table.good[p] != frobenius_trace(table.model.ainvs(), p):
                ctx.fail("trace_table", f"a_{p} of {table.model.ainvs()} disagrees", i)


# ---------------------------------------------------------------------------
# deep-traces


def deep_generate(seed, scale, workdir, ellgal):
    size = SCALES["deep-traces"][scale]
    rng = random.Random(f"deep-traces:{seed}")
    primes = []
    for lo in (10**6, 10**7, 10**9):
        band = set()
        while len(band) < size["per_band"]:
            band.add(random_prime(rng, lo, 2 * lo))
        primes.extend(sorted(band))
    return {
        **size,
        "seed": seed,
        "primes": primes,
        "e37": ellgal.WeierstrassModel(*CURVE_37A),
        "e389": ellgal.WeierstrassModel(*CURVE_389A),
        # The smooth weight is an input of the sums; building it integrates
        # with scipy, so it is part of set-up.
        "psi": ellgal.bump_psi(),
    }


def deep_run(ctx, inputs, ellgal):
    e37, e389 = inputs["e37"], inputs["e389"]
    # The pair tables come first: 37a is later requested at a larger X, so no
    # request in this workload repeats an earlier one.
    t1 = ctx.op("trace_table", ellgal.trace_table, e37, inputs["pair_X"])
    t2 = ctx.op("trace_table", ellgal.trace_table, e389, inputs["pair_X"])
    r1 = ctx.op("global_reduce", ellgal.global_reduce, e37)
    r2 = ctx.op("global_reduce", ellgal.global_reduce, e389)
    coprime = r1.conductor * r2.conductor
    X = inputs["smooth_X"]
    ctx.op("smooth_sum_S", ellgal.smooth_sum_S, t1, X, inputs["psi"], coprime)
    ctx.op("smooth_sum_H", ellgal.smooth_sum_H, t1, t2, X, inputs["psi"], coprime)
    ctx.op("von_mangoldt", ellgal.von_mangoldt, t1, t2, inputs["pair_X"])
    table = ctx.op("trace_table", ellgal.trace_table, e37, inputs["X"])
    for ell in (5, 7, 11, 13):
        ctx.op("image_test", ellgal.image_test, r1, table, ell, inputs["X"])
    for p in inputs["primes"]:
        ctx.op("count_points", ellgal.count_points, e37, p)


def deep_check(ctx, inputs, ellgal):
    """BSGS results against naive counting and random points; pinned facts about 37a."""
    rng = random.Random(f"deep-traces check:{inputs['seed']}")
    timed = ctx.results("count_points")
    low = [i for i, p in enumerate(inputs["primes"]) if p < 2 * 10**6]
    for i in rng.sample(low, min(3, len(low))):
        p = inputs["primes"][i]
        if timed[i] != ellgal.count_points(inputs["e37"], p, strategy="naive"):
            ctx.fail("count_points", f"BSGS and naive disagree at p={p}", i)
    for i, (p, ap) in enumerate(zip(inputs["primes"], timed)):
        if ap is not None and (ap * ap > 4 * p or not annihilates(CURVE_37A, p, p + 1 - ap, rng)):
            ctx.fail("count_points", f"a_{p} = {ap} is not the trace of Frobenius", i)
    table = ctx.results("trace_table")[2]
    if table is not None and (table.good.get(2) != -2 or table.ramified.get(37) != -1):
        ctx.fail("trace_table", "37a: expected a_2 = -2 and local a_37 = -1", 2)
    for i, report in enumerate(ctx.results("image_test")):
        if report is not None and report.verdict != "surjective":
            ctx.fail("image_test", f"37a mod {report.ell}: {report.verdict}", i)


# ---------------------------------------------------------------------------
# reduce-census


def reduce_generate(seed, scale, workdir, ellgal):
    size = SCALES["reduce-census"][scale]
    rng = random.Random(f"reduce-census:{seed}")
    pool = json.loads((HERE / "reduce_pool.json").read_text(encoding="utf-8"))
    rows = [tuple(a) for kind in ("prime", "rho") for a in rng.sample(pool[kind], size[kind])]
    rng.shuffle(rows)
    # Two planted rejects at seeded positions: a non-integer coefficient and a
    # singular model (y^2 = x^3 + a2 x^2 has discriminant 0).
    bad = [
        (0, 0, 1, f"{rng.randint(1, 99)}.5", 0),
        (0, rng.choice((-1, 1)), 0, 0, 0),
    ]
    for row in bad:
        rows.insert(rng.randint(0, len(rows)), row)
    labelled = [(*row, f"r{i:02d}") for i, row in enumerate(rows)]
    path = workdir / "curves.csv"
    _write_csv(path, labelled)
    reject_rows = sorted(i + 2 for i, row in enumerate(rows) if row in bad)
    return {
        "csv": path,
        "census": size["census"],
        "curves": size["prime"] + size["rho"],
        "reject_rows": reject_rows,
        "seed": seed,
    }


def reduce_run(ctx, inputs, ellgal):
    ctx.cli("cli.family", ["family", str(inputs["csv"]), "-N", str(CEILING)], expect_exit=1)
    ctx.cli("cli.cm-census", ["cm-census", "-N", str(inputs["census"])], expect_exit=0)


def reduce_check(ctx, inputs, ellgal):
    family_out, census_out = ctx.results("cli.family")[0], ctx.results("cli.cm-census")[0]
    if family_out is not None:
        data = json.loads(family_out[1])
        if [row for row, _ in data["rejects"]] != inputs["reject_rows"]:
            ctx.fail("cli.family", f"rejects {data['rejects']}", 0)
        if len(data["records"]) != inputs["curves"]:
            ctx.fail("cli.family", f"{len(data['records'])} records", 0)
    if census_out is not None:
        data = json.loads(census_out[1])
        got = dict(zip(data["ceilings"], data["counts"]))
        for ceiling, count in CENSUS_COUNTS.items():
            if got.get(ceiling) != count:
                ctx.fail("cli.cm-census", f"{got.get(ceiling)} up to {ceiling}, want {count}", 0)


WORKLOADS = {
    "corpus-scan": (corpus_generate, corpus_run, corpus_check),
    "deep-traces": (deep_generate, deep_run, deep_check),
    "reduce-census": (reduce_generate, reduce_run, reduce_check),
}
