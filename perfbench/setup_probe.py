#!/usr/bin/env python3
"""Time one fresh process's set-up for a workload and print the seconds.

Set-up is importing sumsetcover and making one untimed warm-up op per
(q, n) of the workload, so any cache or lazy table the library builds is
paid here.  The last line printed is "<normalised seconds> <wall seconds>",
normalised by reference samples taken just before and during the set-up,
whose own time is left out (see refclock.py).  run.py starts this script
several times and reports the median normalised time as setup_s.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    import refclock
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    sys.path.insert(0, str(HERE.parent / "src"))
    speed = refclock.SpeedLog()
    refclock.reference_work()  # the first call in a process runs cold
    for _ in range(5):
        speed.sample()
    with speed.sampling():
        start, busy0 = time.perf_counter(), speed.busy
        import ops  # imports sumsetcover

        ops.warm_up(wl, str(out))
        wall = time.perf_counter() - start - (speed.busy - busy0)
    print(repr(wall * speed.scale()), repr(wall))
    return 0


if __name__ == "__main__":
    sys.exit(main())
