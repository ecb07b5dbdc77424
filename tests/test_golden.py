"""Byte-for-byte golden outputs of the criterion-12 CLI invocations.

The files under tests/golden/ hold the stdout of each invocation in both
output formats, and exit_codes.json its exit code.  They pin the CLI's bytes
across refactors.  To record them again after a deliberate output change, run
`PYTHONPATH=src python tests/test_golden.py` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import ellgal.cli as cli

GOLDEN = Path(__file__).parent / "golden"

# criterion 12's invocations; "CORPUS" stands for the small_corpus_csv fixture
INVOCATIONS = [
    ["tate", "0,0,1,-1,0", "-p", "37"],
    ["ap", "0,0,1,-1,0", "-X", "100"],
    ["image", "0,0,1,-1,0", "-l", "7", "-X", "300"],
    ["pair", "0,0,1,-1,0", "0,1,1,-2,0", "-X", "300"],
    ["epsilon", "0,0,1,0,0", "-l", "5", "-X", "500"],
    ["family", "CORPUS", "-N", "10000"],
    ["pairs", "CORPUS", "-X", "200", "--sample", "15", "--seed", "9"],
    ["cm-census", "-N", "2000"],
    ["symsum", "CORPUS", "--pair", "c0000,c0001", "-X", "150"],
    ["cdelta", "5/6"],
]
CASES = [(args, fmt) for args in INVOCATIONS for fmt in ("json", "csv")]


def _invoke(args, fmt, corpus_path):
    argv = [str(corpus_path) if a == "CORPUS" else a for a in args] + ["--format", fmt]
    res = CliRunner().invoke(cli.main, argv, catch_exceptions=False)
    return res.stdout_bytes, res.exit_code


@pytest.mark.parametrize("args,fmt", CASES, ids=[f"{a[0]}-{f}" for a, f in CASES])
def test_cli_golden_bytes(args, fmt, small_corpus_csv):
    out, code = _invoke(args, fmt, small_corpus_csv)
    assert out == (GOLDEN / f"{args[0]}.{fmt}").read_bytes()
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[f"{args[0]}.{fmt}"]


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import _generate_corpus, write_small_corpus_csv

    with tempfile.TemporaryDirectory() as tmp:
        path = write_small_corpus_csv(Path(tmp) / "small.csv", _generate_corpus())
        GOLDEN.mkdir(exist_ok=True)
        codes = {}
        for args, fmt in CASES:
            out, codes[f"{args[0]}.{fmt}"] = _invoke(args, fmt, path)
            (GOLDEN / f"{args[0]}.{fmt}").write_bytes(out)
        (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
