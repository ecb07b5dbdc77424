"""Shared fixtures: a deterministic synthetic curve corpus with conductor <= 10^4.

The corpus is generated from small a-invariants and deduplicated by reduced
minimal model, so every record is a distinct curve over Q. Everything here is
seed-free and ordering-stable so tests comparing bytes stay reproducible.
"""

import itertools
import signal

import pytest

import ellgal.curve as curve
from ellgal.curve import SingularModel, WeierstrassModel
from ellgal.family import Corpus, CurveRecord, build_family
from ellgal.localdata import global_reduce

CORPUS_CEILING = 10**4


@pytest.fixture(autouse=True)
def _empty_trace_store():
    """Each test starts with an empty trace store, so no test is served a table
    that another one counted, perhaps under its own monkeypatch."""
    curve._STORE.clear()


@pytest.fixture
def time_limit():
    """Raise TimeoutError in the test once it has run 5 s, so a call that never
    returns fails the test instead of hanging the suite (SIGALRM, Unix only)."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its 5 s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def trace_batches(monkeypatch):
    """Each batch of curves the trace store counts, as (curves, primes counted)."""
    batches = []
    traces = curve._traces

    def spy(reductions, primes):
        batches.append((len(reductions), list(primes)))
        return traces(reductions, primes)

    monkeypatch.setattr(curve, "_traces", spy)
    return batches


def _generate_corpus():
    seen = {}
    for a1, a3, a2 in itertools.product((0, 1), (0, 1), (-1, 0, 1)):
        for a4 in range(-10, 11):
            for a6 in range(-10, 11):
                try:
                    model = WeierstrassModel(a1, a2, a3, a4, a6)
                except SingularModel:
                    continue
                red = global_reduce(model)
                if red.conductor <= CORPUS_CEILING:
                    seen.setdefault(red.minimal_model.ainvs(), red)
    records = tuple(
        CurveRecord(f"c{i:04d}", red.minimal_model, red)
        for i, (_, red) in enumerate(sorted(seen.items()))
    )
    return Corpus(records, ())


@pytest.fixture(scope="session")
def corpus():
    return _generate_corpus()


@pytest.fixture(scope="session")
def family_all(corpus):
    return build_family(corpus, "all", CORPUS_CEILING)


@pytest.fixture(scope="session")
def corpus_csv(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("corpus") / "corpus.csv"
    lines = ["a1,a2,a3,a4,a6,label"]
    for rec in corpus.records:
        a1, a2, a3, a4, a6 = rec.model.ainvs()
        lines.append(f"{a1},{a2},{a3},{a4},{a6},{rec.label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_small_corpus_csv(path, corpus):
    """The first 40 corpus curves as an a-invariant CSV."""
    lines = ["a1,a2,a3,a4,a6,label"]
    for rec in corpus.records[:40]:
        a1, a2, a3, a4, a6 = rec.model.ainvs()
        lines.append(f"{a1},{a2},{a3},{a4},{a6},{rec.label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def small_corpus_csv(tmp_path_factory, corpus):
    """First 40 corpus curves; enough for CLI-level checks without the full cost."""
    return write_small_corpus_csv(tmp_path_factory.mktemp("corpus_small") / "small.csv", corpus)
