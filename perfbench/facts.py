"""Measure the facts recorded under "facts" in baseline.json.

    python3 perfbench/facts.py

Run from the repository root.  It times trace_table with one thread against
the program's default pool (os.cpu_count() threads) for one curve at
X = 10^5 and for 60 corpus-scan curves at X = 1000, and counts the
global_reduce calls made inside the reduce-census `family` CLI call.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import ellgal  # noqa: E402
import ellgal.cli  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CEILING, CURVE_37A, WORKLOADS, box_curves  # noqa: E402

REPEATS = 3


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _pool_vs_serial(models, X):
    serial, pooled = [], []
    for _ in range(REPEATS):
        serial.append(_timed(lambda: [ellgal.trace_table(m, X, threads=1) for m in models]))
        pooled.append(_timed(lambda: [ellgal.trace_table(m, X) for m in models]))
    return {"serial_s": statistics.median(serial), "pool_s": statistics.median(pooled),
            "threads": os.cpu_count(), "X": X, "curves": len(models)}


def _box_models(count):
    curves = box_curves(random.Random("facts"), count)
    return [ellgal.global_reduce(ellgal.WeierstrassModel(*a)).minimal_model for a in curves]


def _family_reductions():
    workdir = Path.cwd() / ".perfbench" / "facts"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = WORKLOADS["reduce-census"][0](0, "full", workdir, ellgal)
        tracer = Tracer()
        tracer.install(ellgal)
        try:
            CliRunner().invoke(ellgal.cli.main, ["family", str(inputs["csv"]), "-N", str(CEILING)])
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (root,) = [s for s in tracer.spans if s[2] == "cli.family"]
    by_id = {s[0]: s for s in tracer.spans}

    def under_root(span):
        while span is not None:
            if span[0] == root[0]:
                return True
            span = by_id.get(span[1])
        return False

    calls = sum(1 for s in tracer.spans if s[2] == "localdata.global_reduce" and under_root(s))
    return {"curves": inputs["curves"], "global_reduce_calls": calls}


def main():
    facts = {
        "one_curve_X1e5": _pool_vs_serial([ellgal.WeierstrassModel(*CURVE_37A)], 10**5),
        "sixty_curves_X1000": _pool_vs_serial(_box_models(60), 1000),
        "family_cli_reductions": _family_reductions(),
    }
    print(json.dumps(facts, indent=1))


if __name__ == "__main__":
    main()
