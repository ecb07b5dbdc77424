"""Record the output digests that later runs are checked against.

    python3 perfbench/record_digests.py --seeds 0-19

Run from the repository root, at the commit whose outputs are the reference.
Each workload runs once per seed; a round with a failed check stops the
recording.  Kinds with the same digest on every seed (their inputs do not
depend on the seed) are stored once, under "any", and are checked on every
seed; the rest are stored per seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, _git_sha  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, such as 0-19")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    path = HERE / "digests.json"
    path.write_text(json.dumps({"commit": None, "seeds": [], "workloads": {}}) + "\n")
    workloads = {}
    for workload in WORKLOADS:
        per_seed = {}
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                 "--seed", str(seed)],
                capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONHASHSEED="0"),
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if result["failed"]:
                raise SystemExit(f"{workload} seed {seed} failed: {result['messages']}")
            per_seed[str(seed)] = result["digests"]
            print(workload, seed, flush=True)
        kinds = per_seed[str(seeds[0])]
        common = {k: v for k, v in kinds.items()
                  if len(seeds) > 1 and all(d.get(k) == v for d in per_seed.values())}
        workloads[workload] = {
            "any": common,
            "seeds": {s: {k: v for k, v in d.items() if k not in common}
                      for s, d in per_seed.items()},
        }
    record = {"commit": _git_sha(Path.cwd()), "seeds": seeds, "workloads": workloads}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
