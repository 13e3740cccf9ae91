#!/usr/bin/env python3
"""Measure the slack of the certified witness bound on random instances.

For seeded random pairs (S, T), compare four numbers per instance: the
oracle minimum, the greedy cover, the pipeline witness total and the bound.
The only guaranteed order is

    oracle minimum <= greedy cover,  oracle minimum <= pipeline total <= bound

(the oracle runs only when |S| + |T| fits the exhaustive-search cap).  A
witness that fails to cover S+T, or an oracle minimum above either total,
stops the script with exit code 1; these checks also run under python -O.  The
greedy cover is a heuristic: it usually lands at or below the pipeline, but
nothing bounds it by the pipeline or by the bound, so the script counts the
instances where it exceeds either instead of asserting an order.  As the
CLI's trials does, a non-prime --q, an --n below 1, a negative --count or
an inclusion --p outside [0, 1] prints "error: invalid input: ..." on
stderr and exits 2.

Example:
    python scripts/bound_slack.py --q 3 --n 2 --count 200 --seed 1
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter

import sumsetcover as sc
from sumsetcover.cli import EXIT_INVALID_INPUT


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--p", type=float, default=0.5)
    parser.add_argument("--search-cap", type=int, default=sc.DEFAULT_SEARCH_CAP)
    args = parser.parse_args()

    for bad, message in [
        (not sc.is_prime(args.q), f"q = {args.q} is not prime"),
        (args.n < 1, f"n must be >= 1, got {args.n}"),
        (args.count < 0, f"count must be >= 0, got {args.count}"),
        (not 0.0 <= args.p <= 1.0, f"inclusion probability must be in [0, 1], got {args.p}"),
    ]:
        if bad:
            print(f"error: invalid input: {message}", file=sys.stderr)
            sys.exit(EXIT_INVALID_INPUT)
    rng = random.Random(args.seed)
    points = sc.all_points(args.q, args.n).ordered()
    gaps = Counter()
    rows = []
    for trial in range(args.count):
        S = sc.PointSet.from_vectors(args.q, args.n, [p for p in points if rng.random() < args.p])
        T = sc.PointSet.from_vectors(args.q, args.n, [p for p in points if rng.random() < args.p])
        dec = sc.decompose(S, T)
        if not sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness):
            sys.exit(f"trial {trial}: the pipeline witness pair does not cover S+T")
        gs, gt = sc.greedy_decomposition(S, T)
        greedy = len(gs) + len(gt)
        oracle = None
        if len(S) + len(T) <= args.search_cap:
            oracle = sc.oracle_min_decomposition(S, T, search_cap=args.search_cap).best_total
            if oracle > greedy:
                sys.exit(f"trial {trial}: oracle minimum {oracle} exceeds the greedy cover {greedy}")
            if oracle > dec.witness_total:
                sys.exit(f"trial {trial}: oracle minimum {oracle} exceeds the pipeline total {dec.witness_total}")
            gaps[dec.witness_total - oracle] += 1
        rows.append((trial, len(S), len(T), oracle, greedy, dec.witness_total, dec.bound))

    print(f"{'trial':>6} {'|S|':>4} {'|T|':>4} {'oracle':>7} {'greedy':>7} {'pipeline':>9} {'bound':>6}")
    for row in rows:
        oracle_str = "-" if row[3] is None else str(row[3])
        print(f"{row[0]:>6} {row[1]:>4} {row[2]:>4} {oracle_str:>7} {row[4]:>7} {row[5]:>9} {row[6]:>6}")
    over_bound = sum(1 for row in rows if row[4] > row[6])
    over_pipeline = sum(1 for row in rows if row[4] > row[5])
    print(f"\ngreedy > bound: {over_bound} of {len(rows)} instances")
    print(f"greedy > pipeline: {over_pipeline} of {len(rows)} instances")
    if gaps:
        print("\npipeline total minus oracle minimum (where oracle ran):")
        for gap in sorted(gaps):
            print(f"  +{gap}: {gaps[gap]} instances")


if __name__ == "__main__":
    main()
