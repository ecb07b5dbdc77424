"""The ellgal benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload corpus-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root.  A single closed-loop client runs rounds
back to back: each round is a fresh interpreter (perfbench/worker.py) that
imports the program from ./src, generates the workload's inputs from the
seed, runs the timed operations and checks the outputs.  No round starts
unless the last round's duration still fits in --seconds, so a run ends
close to --seconds (and always makes at least one round of each kind).

--trace 0 reports the end-to-end metrics, as medians over the rounds
(wall_s as the sum of per-operation medians, see timed_wall).
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced rounds (medians) and trace.overhead_ratio, the traced
wall time over the untraced one.  The last line of standard output is one
JSON object; the lines before it are a readable summary.  A record of the run
(environment, every round) is written to .perfbench/last-<workload>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus-scan", "deep-traces", "reduce-census")
ROUND_TIMEOUT_S = 150
RUN_LIMIT_S = 170  # a run must end within 180 s


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _source_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha(root):
    if not (root / ".git").exists():  # never look above the checkout
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _steal_ticks():
    """Clock ticks the hypervisor took from this machine's CPUs, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def _round(workload, seed, traced, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, PYTHONHASHSEED="0")
    load_before, steal_before = os.getloadavg(), _steal_ticks()
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    duration = time.monotonic() - start
    steal_after = _steal_ticks()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} round failed with exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(traced=traced, duration_s=duration, load_before=load_before,
                  load_after=os.getloadavg(),
                  steal_ticks=None if steal_before is None else steal_after - steal_before)
    return result


def run_workload(workload, seed, seconds, trace):
    """Rounds until --seconds is used up; returns (metrics, rounds)."""
    rounds = []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        rounds.append(_round(workload, seed, traced, min(ROUND_TIMEOUT_S, remaining)))
        elapsed = time.monotonic() - start
        last = rounds[-1]["duration_s"]
        kinds = {r["traced"] for r in rounds}
        if len(kinds) == (2 if trace else 1) and elapsed + last > seconds:
            break
        if elapsed + 1.5 * last > RUN_LIMIT_S:
            break
    return rounds


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def timed_wall(rounds):
    """Sum over operations of each operation's median time across the rounds.

    Every round of a run makes the same calls on the same inputs.  Slow phases
    of a shared machine last a few seconds and fall on different operations
    in different rounds, so the per-operation median discards most of them
    where a median of whole-round times, from a handful of rounds, would not.
    """
    ops = [r["op_s"] for r in rounds]
    if len({len(o) for o in ops}) != 1:
        return statistics.median(sum(o) for o in ops)
    return sum(statistics.median(times) for times in zip(*ops))


def metrics_of(rounds, trace, spec):
    untraced = [r for r in rounds if not r["traced"]]
    if not trace:
        values = {"wall_s": timed_wall(untraced), "setup_s": _median(untraced, "setup_s"),
                  "peak_rss_mb": _median(untraced, "peak_rss_mb")}
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]}
    traced = [r for r in rounds if r["traced"]]
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_ratio"] = timed_wall(traced) / timed_wall(untraced)
    return {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


def check_rounds(rounds):
    """Cross-round checks: one seed gives one output, traced or not."""
    digests = {json.dumps(r["digests"], sort_keys=True) for r in rounds}
    if len(digests) > 1:
        return ["rounds of one seed gave different output digests"]
    return []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "SERRE_LAB_THREADS" in os.environ:
        raise SystemExit("SERRE_LAB_THREADS is set; it changes the program's pool size, "
                         "so results would not compare across commits. Unset it.")
    root = Path.cwd()
    if not (root / "src" / "ellgal" / "__init__.py").is_file():
        raise SystemExit("run from the repository root: ./src/ellgal is missing")
    spec = _spec()
    env = {
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root / "src"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)

    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        load_before = os.getloadavg()
        rounds = run_workload(workload, args.seed, args.seconds, args.trace)
        problems = check_rounds(rounds)
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        if problems:
            failed = max(failed, 1)
        metrics = metrics_of(rounds, args.trace, spec)
        env.update(rounds[0]["versions"], load_before=load_before, load_after=os.getloadavg())
        record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, "problems": problems,
                  "metrics": metrics, "rounds": rounds}
        (state / f"last-{workload}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                    encoding="utf-8")

        print(f"# {workload} seed={args.seed} rounds={len(rounds)} "
              f"digests={','.join(sorted({r['digest_status'] for r in rounds}))} "
              f"git={env['git_sha']} src={env['source_sha256']} cpus={env['cpu_count']} "
              f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
              f"load={load_before[0]:.2f}->{env['load_after'][0]:.2f}")
        for name, m in metrics.items():
            print(f"{workload}  {name:44s} {m['value']:.6g} {m['unit']}")
        print(f"{workload}  {'fail_ratio':44s} {failed / attempted:.6g} ratio")
        for message in problems + [m for r in rounds for m in r["messages"]][:10]:
            print(f"{workload}  FAILED {message}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
