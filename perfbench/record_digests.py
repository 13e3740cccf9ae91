#!/usr/bin/env python3
"""Record the witness digests that run.py checks at the default seed.

    python3 perfbench/record_digests.py [--workload NAME ...]

Runs the first RECORD_CYCLES[name] cycles of each workload at the default
seed, untimed, and writes one digest per op to perfbench/digests.json.  Rerun
it only when the workloads themselves change: the point of the file is that
a change to the library must return the same witnesses.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ops  # noqa: E402
import workloads  # noqa: E402

# More ops than one 25 s run makes on a 2-vCPU Xeon box (1.6 to 3.5 times),
# so a faster library still has most of its witnesses checked.
RECORD_CYCLES = {"frontier_q3": 30, "subspace_sums": 60, "tiny_trials": 400, "certify_cli": 24}


def record(name: str) -> list[str]:
    wl = workloads.WORKLOADS[name]
    stream = workloads.cycles(wl, workloads.DEFAULT_SEED)
    digests = []
    with ops.op_kind(wl.op, str(HERE / "out")) as kind:
        for _ in range(RECORD_CYCLES[name]):
            for inst in next(stream):
                out = kind.check(inst, kind.run(kind.prepare(inst)))
                if not out.ok:
                    raise SystemExit(f"{name}: op {len(digests)} failed: {out.reason}")
                digests.append(out.digest)
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    path = HERE / "digests.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    (HERE / "out").mkdir(exist_ok=True)
    for name in args.workload or sorted(workloads.WORKLOADS):
        data[name] = record(name)
        print(f"{name}: {len(data[name])} digests", flush=True)
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
