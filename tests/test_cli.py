import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import ellgal.cli as cli
import ellgal.family as family
import ellgal.localdata as localdata
from ellgal.arith import IncompleteFactorization
from ellgal.curve import BadReduction
from ellgal.family import report_parse_csv
from ellgal.galois import NoCommonWitness
from ellgal.symprime import CoefficientGap, RamanujanViolation


@pytest.fixture()
def runner():
    return CliRunner()


def _run(runner, args):
    return runner.invoke(cli.main, args, catch_exceptions=False)


def test_tate_json(runner):
    res = _run(runner, ["tate", "0,0,1,-1,0", "-p", "37"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["kodaira"] == "I1" and data["conductorExponent"] == 1
    assert data["reductionType"] == "multNonsplit"


def test_tate_additive_reports_phi(runner):
    res = _run(runner, ["tate", "0,0,0,5,0", "-p", "5"])
    data = json.loads(res.output)
    assert data["kodaira"] == "III" and data["phiOrder"] == 4


def test_tate_csv_format(runner):
    res = _run(runner, ["tate", "0,0,1,-1,0", "-p", "37", "--format", "csv"])
    parsed = report_parse_csv(res.output.encode())
    assert parsed["kodaira"] == "I1"


def test_parse_reject_exit_code_1(runner, tmp_path, small_corpus_csv):
    headerless = tmp_path / "nohdr.csv"
    headerless.write_text("0,0,1,-1,0,w\n", encoding="utf-8")
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"a1,a2,a3,a4,a6,label\n0,0,1,-1,0,caf\xe9\n")
    long_field = tmp_path / "long.csv"  # a label longer than the csv module reads
    long_field.write_text("a1,a2,a3,a4,a6,label\n0,0,1,-1,0," + "w" * 140000 + "\n")
    corpus = str(small_corpus_csv)
    rejected = [
        ["tate", "0,0,1,-1", "-p", "37"],
        ["tate", "0,0,0,0,0", "-p", "2"],  # singular
        ["cdelta", "abc"],
        ["cdelta", "1/3"],  # pole side: delta <= 1/2 rejected
        ["cdelta", "1e5000"],  # more digits than str() writes
        ["cdelta", "1e1000000"],  # an exponent Fraction would expand to a million digits
        ["cdelta", "2.5E-99999999"],
        ["image", "0,0,1,-1,0", "-l", "3", "-X", "100"],
        ["image", "0,0,1,-1,0", "-l", "9", "-X", "100"],
        ["epsilon", "0,0,1,-1,0", "-l", "3", "-X", "100"],
        ["epsilon", "0,0,1,-1,0", "-l", "9", "-X", "100"],
        ["family", str(headerless), "-N", "100"],
        ["pairs", str(headerless), "-X", "100"],
        ["symsum", str(headerless), "--pair", "w,w", "-X", "100"],
    ]
    rejected += [["tate", "0,0,1,-1,0", "-p", p] for p in ("1", "0", "4", "35", "-5")]
    rejected += [["cm-census", "-N", n] for n in ("0", "-3")]
    rejected += [["family", corpus, "-N", n] for n in ("0", "-5")]
    rejected += [
        ["family", str(latin1), "-N", "100"],
        ["family", str(long_field), "-N", "100"],
        ["pairs", str(latin1), "-X", "100"],
        ["symsum", str(latin1), "--pair", "row2,row2", "-X", "100"],
        ["pairs", corpus, "-X", "100", "--sample", "-1"],
        ["pairs", corpus, "-X", "100", "--sample", "0"],
    ]
    rejected += [["symsum", corpus, "--pair", "c0000,c0001", "-X", x] for x in ("-5", "0", "nan")]
    # click's own usage errors: a bad or missing parameter, an unknown option
    # or command, a path that does not exist, no command at all
    rejected += [
        ["tate", "0,0,1,-1,0", "-p", "abc"],
        ["ap", "0,0,1,-1,0"],
        ["family", "/nonexistent", "-N", "10"],
        ["ap", "0,0,1,-1,0", "-X", "10", "--bogus"],
        ["ap", "0,0,1,-1,0", "-X", "10", "extra"],
        ["tate", "0,0,1,-1,0", "-p", "37", "--format", "xml"],
        [],
        ["bogus"],
        ["--bogus"],
    ]
    # bounds below 2 leave no prime to look at
    for x in ("1", "0", "-3"):
        rejected += [
            ["ap", "0,0,1,-1,0", "-X", x],
            ["image", "0,0,1,-1,0", "-l", "5", "-X", x],
            ["pair", "0,0,1,-1,0", "0,1,1,-2,0", "-X", x],
            ["epsilon", "0,0,1,-1,0", "-l", "5", "-X", x],
            ["pairs", corpus, "-X", x],
        ]
    for args in rejected:
        res = runner.invoke(cli.main, args)
        assert res.exit_code == 1, args
        assert isinstance(res.exception, SystemExit), args  # no traceback escaped
        assert res.stderr.startswith("parse error:") and res.stderr.count("\n") == 1, args


def test_help_exits_0(runner):
    for args in (["--help"], ["ap", "--help"]):
        res = runner.invoke(cli.main, args)
        assert res.exit_code == 0 and res.output.startswith("Usage:"), args


def test_family_rejects_non_string_json_labels(runner, tmp_path):
    # a dict label cannot be hashed, and an int label cannot sort beside the
    # string label of a curve with the same conductor; null keeps the row default
    path = tmp_path / "labels.jsonl"
    rows = [
        {"a1": 0, "a2": 0, "a3": 1, "a4": -1, "a6": 0, "label": "37a"},
        {"a1": 0, "a2": 0, "a3": 1, "a4": -1, "a6": 0, "label": {"k": 1}},
        {"a1": 0, "a2": 0, "a3": 1, "a4": -1, "a6": 0, "label": 5},
        {"a1": 0, "a2": 1, "a3": 1, "a4": -2, "a6": 0, "label": None},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    res = runner.invoke(cli.main, ["family", str(path), "-N", "1000"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # no traceback escaped
    data = json.loads(res.stdout)
    assert data["rejects"] == [[2, "label is not a string"], [3, "label is not a string"]]
    assert [r["label"] for r in data["records"]] == ["37a", "row4"]


def test_invariant_violation_exit_code_2(runner, monkeypatch):
    from ellgal.localdata import InvariantViolation

    def boom(model, prime):
        raise InvariantViolation("synthetic conductor exponent overflow")

    monkeypatch.setattr(cli, "tate", boom)
    res = runner.invoke(cli.main, ["tate", "0,0,1,-1,0", "-p", "37"])
    assert res.exit_code == 2


def test_under_scaled_model_is_an_invariant_violation(runner, monkeypatch):
    # a minimality rule that stops one step short at 2 leaves Tate's steps at
    # step 11, which fails hard; the steps never rescale and start over
    scaling = localdata._minimal_scaling

    def short_at_2(c4, c6, vdelta, p):
        return max(scaling(c4, c6, vdelta, p) - (p == 2), 0)

    monkeypatch.setattr(localdata, "_minimal_scaling", short_at_2)
    scaled = "0,0,8,-16,0"  # 37a with u = 2, not minimal at 2
    with pytest.raises(localdata.InvariantViolation, match="step 11"):
        localdata.tate(cli._parse_curve(scaled), 2)
    res = runner.invoke(cli.main, ["tate", scaled, "-p", "2"])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr.startswith("invariant violation:") and res.stderr.count("\n") == 1


@pytest.mark.parametrize("curve", ["0,0,1,-1,0", "1,0,1,4,-6"])  # 37a; 14a, bad at 2 and 7
def test_bad_prime_with_f_0_is_an_invariant_violation(runner, monkeypatch, curve):
    # every prime global_reduce classifies divides Delta_min, so f = 0 there must
    # fail hard rather than drop the prime from the conductor and the trace tables
    def f_0(classify):
        return lambda *args: dataclasses.replace(classify(*args), f=0)

    monkeypatch.setattr(localdata, "_tate_table", f_0(localdata._tate_table))
    monkeypatch.setattr(localdata, "_tate_steps", f_0(localdata._tate_steps))
    with pytest.raises(localdata.InvariantViolation, match="divides Delta_min"):
        localdata.global_reduce(cli._parse_curve(curve))
    res = runner.invoke(cli.main, ["ap", curve, "-X", "50"])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr.startswith("invariant violation:") and res.stderr.count("\n") == 1


# a count made wrong on one route at a time; adding p puts a_p outside the
# Hasse-Weil interval at every p > 16. -X 50 stays in the naive batch (below
# TABLE_CROSSOVER) and -X 2100 reaches the lanes; the scalar BSGS counts the
# pairs the lanes leave, here all of them.
_WRONG_COUNTS = {
    "naive batch": ("50", {"_affine_counts": lambda f: lambda a, b, p: f(a, b, p) + p}),
    "lane": (
        "2100",
        {
            "_count_bsgs_lanes": lambda f: lambda A, B, P, states: [
                None if n is None else n + p for n, p in zip(f(A, B, P, states), P)
            ]
        },
    ),
    "scalar BSGS": (
        "2100",
        {
            "_count_bsgs_lanes": lambda f: lambda A, B, P, states: [None] * len(P),
            "_count_bsgs": lambda f: lambda a, b, p: f(a, b, p) + p,
        },
    ),
}


@pytest.mark.parametrize("route", sorted(_WRONG_COUNTS))
def test_wrong_count_is_an_invariant_violation(runner, monkeypatch, route):
    import ellgal.curve as curve

    bound, wrong = _WRONG_COUNTS[route]
    for name, make in wrong.items():
        monkeypatch.setattr(curve, name, make(getattr(curve, name)))
    res = runner.invoke(cli.main, ["ap", "0,0,1,-1,0", "-X", bound])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr.startswith("invariant violation: Hasse-Weil violated at p=")
    assert res.stderr.count("\n") == 1


def test_wrong_count_exits_2_under_python_O():
    # python -O strips assert statements, so the Hasse-Weil check must be a raise
    code = (
        "import ellgal.curve as curve\n"
        "count = curve._affine_counts\n"
        "curve._affine_counts = lambda a, b, p: count(a, b, p) + p\n"
        "from ellgal.cli import main\n"
        "main(['ap', '0,0,1,-1,0', '-X', '50'])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    res = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("invariant violation: Hasse-Weil violated at p=")
    assert res.stderr.count("\n") == 1


def test_invariant_violation_is_one_class():
    import ellgal
    import ellgal.arith as arith

    assert ellgal.InvariantViolation is localdata.InvariantViolation is arith.InvariantViolation


def _report(res, fmt):
    """The report a command printed, read back from its JSON or CSV form."""
    return json.loads(res.stdout) if fmt == "json" else report_parse_csv(res.stdout.encode())


def _assert_exit_contract(res, fmt, reads_corpus=False):
    """Exit 0 or 1 and never a traceback; a parse reject is one stderr line and no
    stdout, and only a corpus with rejected rows exits 1 after a full report."""
    assert res.exit_code in (0, 1), res.stderr
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    if res.stderr:
        assert res.exit_code == 1 and res.stdout == ""
        assert res.stderr.startswith("parse error:") and res.stderr.count("\n") == 1
    else:
        assert _report(res, fmt)
        assert res.exit_code == 0 or reads_corpus


# argv pieces for `ellgal tate`: integers of every size, also with signs, underscores
# and non-ASCII digits (int() reads them all), floats, blanks and stray text; -p as
# a prime, a composite, a negative number or a non-number
_INTEGER = st.one_of(
    st.integers(min_value=-20, max_value=20).map(str),
    st.integers(min_value=-(10**60), max_value=10**60).map(str),
    st.sampled_from(["+3", "1_6", "64", "-4096", "729", "\u0663", "\uff11\uff16"]),
)
_FIELD = st.one_of(
    _INTEGER,
    st.floats().map(str),
    st.sampled_from(["", " ", "\u00a0", "0x10"]),
    st.text(alphabet="0123456789-+.e \u0663", max_size=5),
)
_CURVE = st.one_of(
    st.lists(_INTEGER, min_size=5, max_size=5),
    st.lists(_FIELD, min_size=4, max_size=6),
).map(",".join)
_PRIME = st.one_of(
    st.sampled_from(["2", "3", "37", "1000000007", str(2**127 - 1), "\u0663"]),
    st.sampled_from(["4", "91", "1", "0", str(2**64 + 1), "-2", "-37", "abc", "2.0", ""]),
    st.integers(min_value=-10, max_value=10**6).map(str),
)


@given(_CURVE, _PRIME, st.sampled_from(["json", "csv"]))
@settings(max_examples=150, deadline=None)
def test_tate_argv_fuzz(curve, prime, fmt):
    res = CliRunner().invoke(cli.main, ["tate", curve, "-p", prime, "--format", fmt])
    _assert_exit_contract(res, fmt)
    if res.exit_code == 0:
        assert _report(res, fmt)["p"] == int(prime)


# argv pieces for every other subcommand. A curve that reaches global_reduce is a
# small curve moved by u = 1/k for a smooth k, written in any digits, so its
# discriminant factors at once however large its coefficients; or it is malformed.
_DIGITS = st.sampled_from(
    [str.maketrans("", "")]
    + [str.maketrans("0123456789", "".join(map(chr, range(z, z + 10)))) for z in (0x660, 0xFF10)]
)
_SCALED_INTS = st.builds(
    lambda ainvs, k: [k**w * a for w, a in zip((1, 2, 3, 4, 6), ainvs)],
    st.lists(st.integers(min_value=-12, max_value=12), min_size=5, max_size=5),
    st.builds(lambda a, b, c: 2**a * 3**b * 35**c, *[st.integers(0, 12)] * 3),
)
_SCALED = st.builds(lambda ints, digits: [str(n).translate(digits) for n in ints], _SCALED_INTS, _DIGITS)


def _five_integers(fields):
    """Whether a corpus row or a curve string would go on to be reduced."""
    try:
        return len([int(f) for f in fields[:5]]) == 5
    except ValueError:
        return False


_MALFORMED = st.lists(_FIELD, max_size=7).filter(lambda fields: not _five_integers(fields))
_PADDED = _SCALED.map(lambda fields: [f" {f}\t" for f in fields])
_ANY_CURVE = st.one_of(_SCALED, _PADDED, _MALFORMED).map(",".join)
_BOUND = st.one_of(
    st.integers(min_value=2, max_value=3000).map(str),
    st.integers(min_value=-3, max_value=3000).map(str),
    st.sampled_from(["", "abc", "2.5", "1e3", "\u0663\u0660", "+40", "1_000", "\uff15"]),
)
_CEILING = st.one_of(
    st.integers(min_value=1, max_value=10**4).map(str),
    st.integers(min_value=-3, max_value=10**4).map(str),
    st.sampled_from(["", "N", "1e4", "\uff15"]),
)
_SCALE = st.one_of(
    st.floats(min_value=0.5, max_value=1500).map(str),
    st.floats(min_value=-1, max_value=1500).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e-300", "0", "-0.0", "abc", ""]),
)
_DELTA = st.one_of(
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(-5, 50)),
    st.floats().map(str),
    st.text(alphabet="0123456789/.-e ", max_size=6),
    st.sampled_from(["5/6", "1/2", "1e5000", "1e1000000", "\u0665/\u0666"]),
)
_LABELS = ("a", "b", " a", "", " ", "c,d")
_PAIR = st.builds(",".join, st.lists(st.sampled_from(_LABELS), max_size=3))
_SAMPLE = st.integers(min_value=-2, max_value=50).map(str)
_FORMATS = st.sampled_from(["json", "csv"])
_FILTER = st.sampled_from(["all", "ss", "add12", "cm"])
_CORPUS_COMMANDS = ["family", "pairs", "symsum"]


@st.composite
def _argv(draw, path, labels, commands=None):
    """argv of one of `commands`, by default every subcommand; `path` is the corpus
    and `labels` its records' labels, which `symsum --pair` draws from."""
    cmd = draw(st.sampled_from(commands or sorted(cli.main.commands)))
    pair = st.lists(st.sampled_from(labels), min_size=2, max_size=2).map(", ".join) if labels else _PAIR
    pieces = {
        "tate": [_CURVE, "-p", _PRIME],
        "ap": [_ANY_CURVE, "-X", _BOUND],
        "image": [_ANY_CURVE, "-l", _PRIME, "-X", _BOUND],
        "pair": [_ANY_CURVE, _ANY_CURVE, "-X", _BOUND],
        "epsilon": [_ANY_CURVE, "-l", _PRIME, "-X", _BOUND],
        "family": [path, "--filter", _FILTER, "-N", _CEILING],
        "pairs": [path, "-X", _BOUND, "--sample", _SAMPLE, "--seed", st.integers().map(str)],
        "cm-census": ["-N", _CEILING],
        "symsum": [path, "--pair", st.one_of(pair, _PAIR), "-X", _SCALE],
        "cdelta": [_DELTA],
    }[cmd]
    return [cmd] + [draw(p) if isinstance(p, st.SearchStrategy) else p for p in pieces]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "abc.csv").write_text(
        "a1,a2,a3,a4,a6,label\n0,0,1,-1,0,a\n0,1,1,-2,0,b\n0,-1,1,-10,-20,c\n", encoding="utf-8"
    )
    return path


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_argv_fuzz_every_subcommand(corpus_dir, data):
    argv = data.draw(_argv(str(corpus_dir / "abc.csv"), ["a", "b", "c"]))
    fmt = data.draw(_FORMATS)
    res = CliRunner().invoke(cli.main, argv + ["--format", fmt])
    _assert_exit_contract(res, fmt, reads_corpus=argv[0] in _CORPUS_COMMANDS)


# corpus files: well-formed rows of huge smooth-scaled curves, rows of the wrong
# arity, floats, bools and huge integers, blank or duplicate labels, lines that are
# not JSON objects; then maybe a byte-order mark or bytes that are not UTF-8
_KEYS = ("a1", "a2", "a3", "a4", "a6")
_CSV_ROW = st.one_of(
    st.builds(lambda row, label: row + [label], _SCALED, st.sampled_from(_LABELS)),
    st.builds(lambda row, label, extra: row + [label] + extra, _SCALED, st.sampled_from(_LABELS),
              st.lists(_FIELD, min_size=1, max_size=2)),
    _SCALED,
    st.lists(st.one_of(_FIELD, st.sampled_from(["True", "false", "None"])), max_size=7).filter(
        lambda fields: not _five_integers(fields)
    ),
)
_CSV_TEXT = st.builds(
    lambda header, rows: "\n".join([header] + [",".join(r) for r in rows]) + "\n",
    st.sampled_from(["a1,a2,a3,a4,a6,label", " a1,a2 ,a3,a4,a6", "label,a1,a2,a3,a4,a6", ""]),
    st.lists(_CSV_ROW, max_size=6),
)
_JSON_VALUE = st.one_of(
    st.integers(-12, 12), st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=3)
)
_JSON_LABEL = st.one_of(st.sampled_from(_LABELS), st.integers(), st.none(), st.booleans())
_JSON_ROW = st.one_of(
    st.builds(lambda ints, label: json.dumps({**dict(zip(_KEYS, ints)), "label": label}),
              _SCALED_INTS, _JSON_LABEL),
    st.dictionaries(st.sampled_from(_KEYS + ("label",)), _JSON_VALUE, max_size=6)
    .filter(lambda row: not all(type(row.get(k)) is int for k in _KEYS))
    .map(json.dumps),
    st.sampled_from(["", "not json", "[0, 0, 1, -1, 0]", "null", "{", '{"a1": ' + "1" * 5000 + "}"]),
)
_JSON_TEXT = st.lists(_JSON_ROW, max_size=6).map(lambda rows: "\n".join(rows) + "\n")


@st.composite
def _corpus_file(draw, directory):
    suffix, text = draw(st.one_of(st.tuples(st.just(".csv"), _CSV_TEXT),
                                  st.tuples(st.just(".jsonl"), _JSON_TEXT)))
    blob = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + draw(st.sampled_from([b"\xff", b"caf\xe9", b"\xc3"])) + blob[at:]
    path = directory / f"corpus{suffix}"
    path.write_bytes(blob)
    return str(path)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_corpus_fuzz(corpus_dir, data):
    path = data.draw(_corpus_file(corpus_dir))
    guessed = "jsonLines" if path.endswith(".jsonl") else "csvAinvariants"
    input_format = data.draw(st.sampled_from([None, "csvAinvariants", "jsonLines"]))
    try:
        corpus = family.ingest(path, input_format or guessed)
    except family.CorpusFormatError:
        corpus = None
    labels = [r.label for r in corpus.records] if corpus else []
    argv = data.draw(_argv(path, labels, _CORPUS_COMMANDS))
    argv += ["--input-format", input_format] if input_format else []
    fmt = data.draw(_FORMATS)
    res = CliRunner().invoke(cli.main, argv + ["--format", fmt])
    _assert_exit_contract(res, fmt, reads_corpus=True)
    if not res.stderr:  # the exit code says whether the corpus had rejected rows
        assert (res.exit_code == 1) == bool(corpus.rejects)
    if corpus is not None and (input_format or guessed) == "csvAinvariants":
        # a row with a field after the label is a reject, never read as its first six
        rows = list(csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8-sig"))))
        wide = {n for n, r in enumerate(rows[1:], 2) if len(r) > 6 and any(f.strip() for f in r)}
        assert wide <= {n for n, _ in corpus.rejects}


def test_exit_policy_needs_nothing_from_a_command(runner, monkeypatch):
    # a command registered on the group with no decorator of its own gets the policy
    failures = [
        (cli.ParseReject("synthetic reject"), 1, "parse error: synthetic reject"),
        (localdata.InvariantViolation("synthetic"), 2, "invariant violation: synthetic"),
        (IncompleteFactorization(91, 91, {}), 2, "internal error: IncompleteFactorization:"),
        (RuntimeError("two\nlines"), 2, "internal error: RuntimeError: two lines"),
        (MemoryError(), 2, "internal error: MemoryError"),
    ]

    @click.command("throwaway")
    @click.argument("which", type=int)
    def throwaway(which):
        raise failures[which][0]

    monkeypatch.setitem(cli.main.commands, "throwaway", throwaway)
    for which, (_, code, prefix) in enumerate(failures):
        res = runner.invoke(cli.main, ["throwaway", str(which)])
        assert res.exit_code == code, prefix
        assert isinstance(res.exception, SystemExit)  # no traceback escaped
        assert res.stdout == ""
        assert res.stderr.startswith(prefix) and res.stderr.count("\n") == 1, res.stderr


def test_bound_the_sieve_cannot_hold_exits_2(runner, small_corpus_csv, monkeypatch):
    # 10^30 overflows the sieve's index at once and allocates nothing
    huge, corpus = str(10**30), str(small_corpus_csv)
    for args in (
        ["ap", "0,0,1,-1,0", "-X", huge],
        ["image", "0,0,1,-1,0", "-l", "5", "-X", huge],
        ["pair", "0,0,1,-1,0", "0,1,1,-2,0", "-X", huge],
        ["epsilon", "0,0,1,-1,0", "-l", "5", "-X", huge],
        ["pairs", corpus, "-X", huge],
        ["symsum", corpus, "--pair", "c0000,c0001", "-X", "1e30"],
    ):
        res = runner.invoke(cli.main, args)
        assert res.stdout == "", args
        _assert_internal_failure(res, "internal error: OverflowError:")

    def no_memory(curve, X):
        raise MemoryError()

    monkeypatch.setattr(cli, "trace_table", no_memory)
    res = runner.invoke(cli.main, ["ap", "0,0,1,-1,0", "-X", "100"])
    assert res.stdout == ""
    _assert_internal_failure(res, "internal error: MemoryError")


_INTERNAL_FAILURES = [
    (RamanujanViolation("a_p^2 > 4p at p=5"), "invariant violation: a_p^2 > 4p at p=5"),
    (CoefficientGap("gap"), "internal error: CoefficientGap: gap"),
    (BadReduction("bad"), "internal error: BadReduction: bad"),
    (localdata.NotAdditivePotGood("good"), "internal error: NotAdditivePotGood: good"),
    (localdata.PreconditionFailed("pre"), "internal error: PreconditionFailed: pre"),
    (NoCommonWitness("none"), "internal error: NoCommonWitness: none"),
    (ValueError("value"), "internal error: ValueError: value"),
    (KeyError("key"), "internal error: KeyError: 'key'"),
]


@pytest.mark.parametrize(
    "exc, line", _INTERNAL_FAILURES, ids=[type(exc).__name__ for exc, _ in _INTERNAL_FAILURES]
)
def test_every_internal_failure_exits_2(runner, monkeypatch, exc, line):
    # whatever a command raises past its input checks is an internal failure:
    # exit 2, one stderr line and nothing on stdout, never a traceback under exit 1
    def fail(model):
        raise exc

    monkeypatch.setattr(cli, "global_reduce", fail)
    res = runner.invoke(cli.main, ["ap", "0,0,1,-1,0", "-X", "50"])
    assert res.exit_code == 2, res.stderr
    assert isinstance(res.exception, SystemExit)  # no traceback escaped
    assert res.stdout == ""
    assert res.stderr == line + "\n"


def test_ap_command(runner):
    res = _run(runner, ["ap", "0,0,1,-1,0", "-X", "50"])
    data = json.loads(res.output)
    assert data["conductor"] == 37
    assert data["good"]["2"] == -2 and data["good"]["13"] == -2
    assert data["ramified"] == {"37": -1}


def test_image_command(runner):
    res = _run(runner, ["image", "0,0,1,-1,0", "-l", "5", "-X", "500"])
    data = json.loads(res.output)
    assert data["verdict"] == "surjective"
    res2 = _run(runner, ["image", "0,-1,1,-10,-20", "-l", "5", "-X", "500"])
    data2 = json.loads(res2.output)
    assert data2["obstruction"] == "reducible"
    # (Z/ell)^* is too large to enumerate; whether the dets generate it is read off ell - 1
    res3 = _run(runner, ["image", "0,0,1,-1,0", "-l", "1000003", "-X", "100"])
    assert res3.exit_code == 0
    assert json.loads(res3.output)["verdict"] == "surjective"


def test_image_command_reports_insufficient_samples(runner):
    # 27a has six good primes other than 5 below 20, and its CM image cannot pass
    res = _run(runner, ["image", "0,0,1,0,0", "-l", "5", "-X", "20"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {
        "ell": 5,
        "verdict": "insufficientSamples",
        "detail": "only 6 good primes below 20",
    }


def test_image_mod2_of_a_discriminant_past_factoring(runner, time_limit):
    # the 2-division cubic's integer roots are decided without factoring 16 b6
    res = _run(runner, ["image", "0,0,0,14,3180895779350111737881287857", "-l", "2", "-X", "100"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["verdict"] == "surjective"
    assert data["certificates"] == {"irreducibleNonsquareDisc": True}


def test_pair_command(runner):
    res = _run(runner, ["pair", "0,0,1,-1,0", "0,1,1,-2,0", "-X", "500"])
    data = json.loads(res.output)
    assert data["witness"]["p"] == 3
    assert data["comparisonBound"] >= 7


def test_epsilon_command(runner):
    res = _run(runner, ["epsilon", "0,0,1,0,0", "-l", "5", "-X", "2000"])
    data = json.loads(res.output)
    assert data["support"] == 1
    assert len(data["candidates"]) == 31
    assert -3 in data["survivors"]


def test_family_command(runner, small_corpus_csv):
    res = _run(runner, ["family", str(small_corpus_csv), "-N", "10000"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["records"]) == 40
    conds = [r["conductor"] for r in data["records"]]
    assert conds == sorted(conds)


def test_family_filter_ss(runner, small_corpus_csv):
    res = _run(runner, ["family", str(small_corpus_csv), "--filter", "ss", "-N", "10000"])
    data = json.loads(res.output)
    assert len(data["records"]) <= 40


def test_family_rejects_exit_1(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "a1,a2,a3,a4,a6,label\n0,0,1,-1,0,w\n0,0,0,0,0,sing\n0,0,1,-1\n", encoding="utf-8"
    )
    res = _run(runner, ["family", str(path), "-N", "100"])
    assert res.exit_code == 1  # rejects present, but the report is still emitted
    data = json.loads(res.output)
    assert data["rejects"]
    assert data["rejects"][-1] == [4, "expected 5 coefficients"]
    assert [r["label"] for r in data["records"]] == ["w"]


def test_pairs_command_deterministic(runner, small_corpus_csv):
    args = ["pairs", str(small_corpus_csv), "-X", "200", "--sample", "30", "--seed", "5"]
    out1 = _run(runner, args).output
    out2 = _run(runner, args).output
    assert out1 == out2
    data = json.loads(out1)
    assert data["pairsTotal"] == 30 and data["seed"] == 5


def test_pairs_command_takes_every_conductor(runner, tmp_path):
    # y^2 = x^3 + x + 10000000019 has conductor 21600000082080000078008 > 10^18
    path = tmp_path / "three.csv"
    path.write_text(
        "a1,a2,a3,a4,a6,label\n0,0,1,-1,0,37a\n0,1,1,-2,0,389a\n0,0,0,1,10000000019,big\n",
        encoding="utf-8",
    )
    res = _run(runner, ["pairs", str(path), "-X", "200"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["pairsTotal"] == 3
    assert [e["pair"] for e in data["entries"]] == [["37a", "389a"], ["37a", "big"], ["389a", "big"]]


def test_cm_census_command(runner):
    res = _run(runner, ["cm-census", "-N", "1000"])
    data = json.loads(res.output)
    assert data["counts"] == [120]
    res_csv = _run(runner, ["cm-census", "-N", "1000", "--format", "csv"])
    parsed = report_parse_csv(res_csv.output.encode())
    assert parsed["counts/0"] == 120


def test_symsum_command(runner, small_corpus_csv, tmp_path):
    res = _run(
        runner,
        ["symsum", str(small_corpus_csv), "--pair", "c0000,c0001", "-X", "200"],
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert set(data) >= {"S", "H", "labels", "coprimeTo"}
    assert data["S"] > 0
    # JSON labels are stripped as CSV labels and --pair labels are
    path = tmp_path / "pair.jsonl"
    rows = [
        {"a1": 0, "a2": 0, "a3": 1, "a4": -1, "a6": 0, "label": " w"},
        {"a1": 0, "a2": 1, "a3": 1, "a4": -2, "a6": 0, "label": "v"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    res = _run(runner, ["symsum", str(path), "--pair", " w,v", "-X", "100"])
    assert res.exit_code == 0
    assert json.loads(res.output)["labels"] == ["w", "v"]


def test_symsum_reports_and_exits_1_on_a_rejected_row(runner, tmp_path):
    path = tmp_path / "reject.csv"
    path.write_text(
        "a1,a2,a3,a4,a6,label\n0,0,1,-1,0,a\n0,1,1,-2,0,b\n0,0,1,x,0,c\n", encoding="utf-8"
    )
    res = runner.invoke(cli.main, ["symsum", str(path), "--pair", "a,b", "-X", "50"])
    assert res.exit_code == 1 and res.stderr == ""
    data = json.loads(res.stdout)
    assert data["labels"] == ["a", "b"] and data["coprimeTo"] == 37 * 389
    assert data["S"] == 38.0661262225 and data["H"] == -3.08064889251


def test_symsum_unknown_label(runner, small_corpus_csv):
    res = _run(runner, ["symsum", str(small_corpus_csv), "--pair", "c0000,nope", "-X", "100"])
    assert res.exit_code == 1


def test_cdelta_command(runner):
    res = _run(runner, ["cdelta", "5/6"])
    data = json.loads(res.output)
    assert data["value"] == "5558"
    res2 = _run(runner, ["cdelta", "1"])
    assert json.loads(res2.output)["value"] == "3708"


def test_all_subcommands_byte_deterministic(runner, small_corpus_csv):
    invocations = [
        ["tate", "0,0,1,-1,0", "-p", "37"],
        ["ap", "0,0,1,-1,0", "-X", "100"],
        ["image", "0,0,1,-1,0", "-l", "7", "-X", "300"],
        ["pair", "0,0,1,-1,0", "0,1,1,-2,0", "-X", "300"],
        ["epsilon", "0,0,1,0,0", "-l", "5", "-X", "500"],
        ["family", str(small_corpus_csv), "-N", "10000"],
        ["pairs", str(small_corpus_csv), "-X", "200", "--sample", "10", "--seed", "1"],
        ["cm-census", "-N", "2000"],
        ["symsum", str(small_corpus_csv), "--pair", "c0000,c0001", "-X", "150"],
        ["cdelta", "7/8"],
    ]
    for args in invocations:
        for fmt in ("json", "csv"):
            a = _run(runner, args + ["--format", fmt]).output
            b = _run(runner, args + ["--format", fmt]).output
            assert a == b, args


def _assert_internal_failure(res, message):
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # no traceback escaped
    assert res.stderr.startswith("internal error:") and res.stderr.count("\n") == 1
    assert message in res.stderr


def test_incomplete_factorization_exit_code_2(runner, monkeypatch):
    import ellgal.arith as arith

    monkeypatch.setattr(arith, "_pollard_rho", lambda n: None)
    # y^2 = x^3 + pq: the discriminant carries (pq)^2 with p, q > 10^6
    res = runner.invoke(cli.main, ["image", f"0,0,0,0,{1000003 * 1000033}", "-l", "5", "-X", "100"])
    _assert_internal_failure(res, "IncompleteFactorization")


def test_tate_rescales_until_minimal(runner):
    # 37a scaled by u = 2^-40: Tate's algorithm needs 41 rescalings at 2
    scaled = f"0,0,{2**120},{-(2**160)},0"
    res = _run(runner, ["tate", scaled, "-p", "2"])
    assert res.exit_code == 0
    assert res.output == _run(runner, ["tate", "0,0,1,-1,0", "-p", "2"]).output
    assert json.loads(res.output)["kodaira"] == "I0"
    res = _run(runner, ["ap", scaled, "-X", "20"])
    assert res.exit_code == 0
    assert json.loads(res.output)["conductor"] == 37
    assert res.output == _run(runner, ["ap", "0,0,1,-1,0", "-X", "20"]).output


def test_bsgs_order_not_pinned_exit_code_2(runner, monkeypatch):
    import ellgal.curve as curve

    monkeypatch.setattr(curve, "TABLE_CROSSOVER", 700)
    monkeypatch.setattr(curve, "_point_order", lambda P, A, p, lo, hi: 1)
    # the batched lanes would pin p = 701 on their own: leave every one to _count_bsgs
    monkeypatch.setattr(curve, "_count_bsgs_batch", lambda A, B, primes: [None] * len(primes))
    res = runner.invoke(cli.main, ["ap", "0,0,1,-1,0", "-X", "710"])
    _assert_internal_failure(res, "group order not pinned down at p=701")


def test_family_reduces_each_record_once(runner, small_corpus_csv, monkeypatch):
    import ellgal.family as family
    import ellgal.localdata as localdata

    calls = []
    original = localdata.global_reduce

    def counting(model):
        calls.append(model.ainvs())
        return original(model)

    for module in (localdata, family, cli):
        monkeypatch.setattr(module, "global_reduce", counting)
    res = _run(runner, ["family", str(small_corpus_csv), "-N", "10000"])
    assert res.exit_code == 0
    assert len(calls) == len(json.loads(res.output)["records"]) == 40
