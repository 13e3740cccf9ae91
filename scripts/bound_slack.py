#!/usr/bin/env python3
"""Measure the slack of the certified witness bound on random instances.

For seeded random pairs (S, T), compare four numbers per instance: the
oracle minimum, the greedy cover, the pipeline witness total and the bound.
The only guaranteed order is

    oracle minimum <= greedy cover,  oracle minimum <= pipeline total <= bound

(the oracle runs only when |S| + |T| fits the exhaustive-search cap).  The
greedy cover is a heuristic: it usually lands at or below the pipeline, but
nothing bounds it by the pipeline or by the bound, so the script counts the
instances where it exceeds either instead of asserting an order.

Example:
    python scripts/bound_slack.py --q 3 --n 2 --count 200 --seed 1
"""

from __future__ import annotations

import argparse
import random
from collections import Counter

import sumsetcover as sc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--p", type=float, default=0.5)
    parser.add_argument("--search-cap", type=int, default=sc.DEFAULT_SEARCH_CAP)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    points = sc.all_points(args.q, args.n).ordered()
    gaps = Counter()
    rows = []
    for trial in range(args.count):
        S = sc.PointSet.from_vectors(args.q, args.n, [p for p in points if rng.random() < args.p])
        T = sc.PointSet.from_vectors(args.q, args.n, [p for p in points if rng.random() < args.p])
        dec = sc.decompose(S, T)
        assert sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness)
        gs, gt = sc.greedy_decomposition(S, T)
        greedy = len(gs) + len(gt)
        oracle = None
        if len(S) + len(T) <= args.search_cap:
            oracle = sc.oracle_min_decomposition(S, T, search_cap=args.search_cap).best_total
            assert oracle <= greedy
            assert oracle <= dec.witness_total
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
