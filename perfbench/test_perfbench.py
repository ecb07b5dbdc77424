"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ellgal  # noqa: E402
import ellgal.cli  # noqa: E402
from tracer import MODULES, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _worker(workload, *flags):
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "5",
         "--scale", "tiny", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _inputs_bytes(workload, seed, workdir):
    workdir.mkdir()
    inputs = WORKLOADS[workload][0](seed, "tiny", workdir, ellgal)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    plain = {k: v for k, v in inputs.items() if isinstance(v, (int, str, list))}
    return json.dumps(plain, sort_keys=True).encode(), files


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload, tmp_path):
    first = _inputs_bytes(workload, 7, tmp_path / "a")
    assert first == _inputs_bytes(workload, 7, tmp_path / "b")
    assert first != _inputs_bytes(workload, 8, tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_has_no_failures_traced_or_not(workload):
    plain = _worker(workload)
    traced = _worker(workload, "--traced")
    assert plain["attempted"] > 0
    assert plain["failed"] == 0 and traced["failed"] == 0, plain["messages"] + traced["messages"]
    assert plain["digests"] == traced["digests"]
    assert set(traced["layers"]) | {"trace.overhead_ratio"} == {
        m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }


def _public_functions():
    return {
        (module, name): value
        for module in [ellgal, ellgal.cli, *(getattr(ellgal, m) for m in MODULES)]
        for name, value in vars(module).items()
        if callable(value) and not name.startswith("_")
    }


def test_wrapper_keeps_results_and_restores_originals():
    model = ellgal.WeierstrassModel(0, 0, 1, -1, 0)
    calls = [
        lambda: ellgal.kronecker(-7, 101),
        lambda: ellgal.factorize(2**4 * 3 * 10007 * 1000003).factors,
        lambda: ellgal.global_reduce(model).conductor,
        lambda: ellgal.count_points(model, 1009),
        lambda: ellgal.trace_table(model, 200).good,
        lambda: ellgal.localdata.tate(model, 37).kodaira,
        lambda: ellgal.family.report_emit({"x": 1.5}),
    ]
    before = [f() for f in calls]
    originals = _public_functions()
    callbacks = {n: c.callback for n, c in ellgal.cli.main.commands.items()}
    tracer = Tracer()
    tracer.install(ellgal)
    try:
        assert ellgal.curve.trace_table is not originals[(ellgal.curve, "trace_table")]
        assert ellgal.family.trace_table is ellgal.curve.trace_table
        traced = [f() for f in calls]
    finally:
        tracer.uninstall()
    assert traced == before
    assert _public_functions() == originals
    assert {n: c.callback for n, c in ellgal.cli.main.commands.items()} == callbacks
    names = {s[2] for s in tracer.spans}
    assert {"arith.factorize", "localdata.global_reduce", "curve.count_points",
            "curve.trace_table", "localdata.tate", "family.report_emit"} <= names
    assert tracer.counts()["arith.kronecker"] >= 1


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, "a", 0.0, 10.0, None, None),
        (2, 1, "b", 1.0, 4.0, None, None),
        (3, 1, "b", 3.0, 5.0, None, None),  # overlaps its sibling, as on pool threads
        (4, 2, "c", 2.0, 3.0, None, None),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(6.0)
    assert selfs[2] == pytest.approx(2.0)


def test_repeat_share_counts_requests_at_equal_or_smaller_X():
    def table(sid, start, ainvs, X):
        return (sid, None, "curve.trace_table", start, start + 1, None, [ainvs, X, 1])

    spans = [table(1, 0, [0], 500), table(2, 1, [0], 75), table(3, 2, [0], 1000),
             table(4, 3, [0], 1000), table(5, 4, [1], 75)]
    assert layer_metrics(spans, {})["curve.trace_table.repeat_share"] == pytest.approx(2 / 5)


def test_run_refuses_pool_override_and_missing_source(tmp_path):
    run = [sys.executable, str(HERE / "run.py"), "--workload", "deep-traces", "--seed", "1",
           "--seconds", "1"]
    env = dict(os.environ, SERRE_LAB_THREADS="1")
    out = subprocess.run(run, cwd=ROOT, capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode != 0 and "SERRE_LAB_THREADS" in out.stderr
    out = subprocess.run(run, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
