"""One round of one workload in a fresh interpreter; prints a JSON result line.

    python3 perfbench/worker.py --workload corpus-scan --seed 3 [--traced] [--scale tiny]

run.py starts one of these per round, so no cache of the program outlives a
round.  Set-up (importing the program and generating the inputs) and the
timed operations are measured separately; output checks run after the timed
region and feed the failure count.  With --traced the program's public
functions are wrapped (see tracer.py) and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STATE_DIR = ".perfbench"


def _plain(x):
    """A JSON-able view of an operation's output, independent of its Python types."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, numbers.Integral):
        return int(x)
    if isinstance(x, numbers.Real):
        return format(float(x), ".12g")
    if isinstance(x, bytes):
        return hashlib.sha256(x).hexdigest()
    if isinstance(x, dict):
        return sorted([_plain(k), _plain(v)] for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    raise TypeError(f"no digest view for {type(x).__name__}")


def _view(kind, out):
    """The parts of an output that define its meaning, by operation kind."""
    if kind == "ingest":
        return [[[r.label, r.model.ainvs(), r.reduction.conductor] for r in out.records],
                out.rejects]
    if kind == "build_family":
        return [out.filter_tag, out.ceiling,
                [[r.label, r.reduction.conductor] for r in out.records], out.collisions]
    if kind == "trace_table":
        return [out.bound, out.good, out.ramified]
    if kind == "image_test":
        return [out.ell, out.verdict, out.bound, out.certificates, out.obstruction, out.samples]
    if kind in ("epsilon_candidates", "prune_epsilon"):
        return [out.ell, out.support, out.candidates, out.tested]
    if kind == "global_reduce":
        return [out.minimal_model.ainvs(), out.conductor, out.semistable, out.satisfies_cond12,
                [[p, v.kodaira, v.f, v.red_type, v.pot_good] for p, v in out.locals.items()]]
    if kind == "von_mangoldt":
        return [out.bound, out.entries, out.ramified]
    return out  # numbers, report dicts, (exit code, stdout bytes)


class Context:
    """Runs operations, keeping each output (or expected exception) for the checks."""

    def __init__(self, ellgal, runner):
        self.ellgal = ellgal
        self.runner = runner  # click's in-process CLI runner
        self.outputs = []  # (kind, output or None, outcome)
        self.durations = []  # seconds, one per operation
        self.failed = set()  # (kind, index within kind)
        self.messages = []

    def op(self, kind, fn, *args, expected=(), **kwargs):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except expected as exc:
            self.durations.append(time.perf_counter() - start)
            self.outputs.append((kind, None, ["raised", type(exc).__name__, str(exc)]))
            return None
        except Exception as exc:  # an unexpected failure is counted, not fatal
            self.durations.append(time.perf_counter() - start)
            self._record_failure(kind, f"{type(exc).__name__}: {exc}")
            return None
        self.durations.append(time.perf_counter() - start)
        self.outputs.append((kind, out, None))
        return out

    def cli(self, kind, argv, expect_exit):
        start = time.perf_counter()
        result = self.runner.invoke(self.ellgal.cli.main, argv)
        self.durations.append(time.perf_counter() - start)
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            exc = result.exception
            self._record_failure(kind, f"{type(exc).__name__}: {exc}")
            return None
        out = (result.exit_code, result.stdout_bytes)
        self.outputs.append((kind, out, None))
        if result.exit_code != expect_exit:
            self.fail(kind, f"exit code {result.exit_code}, want {expect_exit}",
                      len(self.results(kind)) - 1)
        return out

    def _record_failure(self, kind, message):
        self.outputs.append((kind, None, ["failed", message]))
        self.fail(kind, message, len(self.results(kind)) - 1)

    def results(self, kind):
        return [out for k, out, _ in self.outputs if k == kind]

    def fail(self, kind, message, index=None):
        count = len(self.results(kind))
        indices = range(max(count, 1)) if index is None else [index]
        self.failed.update((kind, i) for i in indices)
        self.messages.append(f"{kind}: {message}")

    def digests(self):
        """Per operation kind, a digest over the outputs of that kind, in order."""
        hashers = {}
        for kind, out, outcome in self.outputs:
            view = outcome if outcome is not None else _plain(_view(kind, out))
            line = json.dumps(view, separators=(",", ":")).encode()
            hashers.setdefault(kind, hashlib.sha256()).update(line + b"\n")
        return {kind: h.hexdigest()[:16] for kind, h in sorted(hashers.items())}


def compare_digests(ctx, workload, seed, scale, digests):
    """Compare with the digests recorded at the baseline commit (record_digests.py).

    Kinds whose output does not depend on the seed are compared on every
    seed; the others only on the recorded seeds.
    """
    if scale != "full":
        return "unrecorded"
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    entry = recorded["workloads"].get(workload, {"any": {}, "seeds": {}})
    want = dict(entry["any"])
    seeded = entry["seeds"].get(str(seed))
    want.update(seeded or {})
    for kind in sorted(set(want) | (set(digests) if seeded else set())):
        if want.get(kind) != digests.get(kind):
            ctx.fail(kind, f"output digest {digests.get(kind)} differs from recorded {want.get(kind)}")
    if not want:
        return "unrecorded"
    if any(want[k] != digests.get(k) for k in want):
        return "mismatch"
    return "match" if seeded else "seedless-match"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    generate, run, check = WORKLOADS[args.workload]
    root = Path.cwd()
    state = root / STATE_DIR
    workdir = state / f"work-{os.getpid()}"

    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import ellgal
    import ellgal.cli
    from click.testing import CliRunner

    if not Path(ellgal.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported ellgal from {ellgal.__file__}, not from ./src")
    tracer = Tracer() if args.traced else None
    if tracer:
        tracer.install(ellgal)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = generate(args.seed, args.scale, workdir, ellgal)
        setup_s = time.perf_counter() - t0

        ctx = Context(ellgal, CliRunner())
        t1, c1 = time.perf_counter(), time.process_time()
        run(ctx, inputs, ellgal)
        wall_s, cpu_s = time.perf_counter() - t1, time.process_time() - c1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
        try:
            check(ctx, inputs, ellgal)
        except Exception as exc:  # an output the checks cannot read is a failed check
            ctx.fail("check", f"{type(exc).__name__}: {exc}", 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = ctx.digests()
    status = compare_digests(ctx, args.workload, args.seed, args.scale, digests)
    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": ctx.durations,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ctx.outputs),
        "failed": len(ctx.failed),
        "messages": ctx.messages[:20],
        "digests": digests,
        "digest_status": status,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, tracer.counts())
        tracer.write_spans(state / f"spans-{args.workload}.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
