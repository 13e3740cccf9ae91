#!/usr/bin/env python3
"""Time run_pipeline on a fixed grid of seeded pairs and record what it built.

The grid is the north-star set of pairs in F_q^n (q = 3 by default):

- single:{n}:{k} for (n, k) = (5, 14), (6, 22), (7, 40), (8, 60);
- dense:{n}:{k} for (n, k) = (7, 600), (8, 1500).

Each pair is drawn with one random.Random(name): S = sample(points, k), then
T = sample(points, k), over the points of F_q^n in lexicographic order.  Per
pair the script records |S+T|, the chosen degree d, m_d, the vanishing
dimension, the witness total, the bound, a sha256 of both witnesses (sorted
coordinate lists, as JSON), the median wall time of three calls of
run_pipeline in this process, and verify_s, the median wall time of three
verify_decomposition calls on the run's witnesses.  A pair whose calls do
not all finish within BUDGET_S seconds is recorded as "skipped"; so is a
pair with k > q^n.

The result is one JSON object on stdout; one line per pair goes to stderr
as the pairs finish.  Like the other scripts, a non-prime --q or an
--n-max below 1 prints "error: invalid input: ..." on stderr and exits 2, and a --q past is_prime's exactness bound or a
q^n above the enumeration cap prints "error: refused by resource cap: ..."
and exits 3, before any pair is drawn.

Example:
    python scripts/bench_grid.py > BENCH.json
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import signal
import statistics
import sys
import time

import sumsetcover as sc
from sumsetcover.cli import EXIT_CAP_REFUSED, EXIT_INVALID_INPUT
from sumsetcover.field import check_enumeration_cap

GRID = (("single", 5, 14), ("single", 6, 22), ("single", 7, 40), ("single", 8, 60),
        ("dense", 7, 600), ("dense", 8, 1500))
REPEATS = 3
BUDGET_S = 120.0


class OverBudget(Exception):
    """Raised by the alarm when a pair's calls pass the time budget."""


def draw_pair(name: str, q: int, n: int, k: int) -> tuple[sc.PointSet, sc.PointSet]:
    """S then T, each k points sampled by one random.Random(name)."""
    rng = random.Random(name)
    points = list(itertools.product(range(q), repeat=n))
    S = sc.PointSet.from_coords(q, n, rng.sample(points, k))
    T = sc.PointSet.from_coords(q, n, rng.sample(points, k))
    return S, T


def witness_sha256(dec: sc.Decomposition) -> str:
    coords = [[list(v.coords) for v in w] for w in (dec.s_witness, dec.t_witness)]
    return hashlib.sha256(json.dumps(coords).encode()).hexdigest()


def _alarm(signum, frame):
    raise OverBudget


def measure(q: int, kind: str, n: int, k: int, budget: float) -> dict:
    """One grid row: the run's sizes and digest, and the median wall times
    of run_pipeline and of verify_decomposition."""
    name = f"{kind}:{n}:{k}"
    row = {"name": name, "q": q, "n": n, "k": k}
    if k > q**n:
        return {**row, "status": "skipped", "reason": f"k > q^n = {q**n}"}
    S, T = draw_pair(name, q, n, k)
    times = []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        for _ in range(REPEATS):
            start = time.perf_counter()
            run = sc.run_pipeline(S, T)
            times.append(time.perf_counter() - start)
        dec = run.decomposition
        verify_times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness)
            verify_times.append(time.perf_counter() - start)
        signal.setitimer(signal.ITIMER_REAL, 0)  # an alarm before this line still lands in the except
    except OverBudget:
        return {**row, "status": "skipped", "reason": f"over the {budget} s budget"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return {
        **row,
        "status": "ok",
        "sums": len(run.sums),
        "degree": run.degree,
        "m_d": run.space.ambient_dim,
        "dim": run.space.dim,
        "witness_total": dec.witness_total,
        "bound": dec.bound,
        "witness_sha256": witness_sha256(dec),
        "wall_s": statistics.median(times),
        "wall_s_runs": times,
        "verify_s": statistics.median(verify_times),
        "verify_s_runs": verify_times,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=8, help="only the pairs with n <= this")
    args = parser.parse_args()

    grid = [(kind, n, k) for kind, n, k in GRID if n <= args.n_max]
    try:
        if args.n_max < 1:
            raise sc.ValidationError(f"n_max must be >= 1, got {args.n_max}")
        sc.check_space(args.q, 1)
        for _, n, _ in grid:
            check_enumeration_cap(args.q, n, sc.DEFAULT_ENUM_CAP)
    except sc.ValidationError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        sys.exit(EXIT_INVALID_INPUT)
    except sc.EnumerationTooLarge as exc:
        print(f"error: refused by resource cap: {exc}", file=sys.stderr)
        sys.exit(EXIT_CAP_REFUSED)

    rows = []
    for kind, n, k in grid:
        row = measure(args.q, kind, n, k, BUDGET_S)
        rows.append(row)
        detail = (f"total {row['witness_total']} bound {row['bound']} dim {row['dim']} "
                  f"median {row['wall_s']:.3f} s, verify {row['verify_s']:.3f} s"
                  if row["status"] == "ok" else row["reason"])
        print(f"{row['name']}: {row['status']}, {detail}", file=sys.stderr, flush=True)
    result = {
        "script": "scripts/bench_grid.py",
        "q": args.q,
        "repeats": REPEATS,
        "budget_s": BUDGET_S,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "instances": rows,
    }
    json.dump(result, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
