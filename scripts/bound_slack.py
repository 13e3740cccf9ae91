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
instances where it exceeds either instead of asserting an order.  The pairs
come from sumsetcover.random_pairs, as in the CLI's trials, and so do the
refusals: "error: invalid input: ..." on stderr and exit 2 for bad input,
"error: refused by resource cap: ..." and exit 3 for q^n above the cap.

Example:
    python scripts/bound_slack.py --q 3 --n 2 --count 200 --seed 1
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import sumsetcover as sc
from sumsetcover.cli import EXIT_CAP_REFUSED, EXIT_INVALID_INPUT


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--p", type=float, default=0.5)
    parser.add_argument("--search-cap", type=int, default=sc.DEFAULT_SEARCH_CAP)
    args = parser.parse_args()

    try:
        pairs = sc.random_pairs(args.q, args.n, args.count, args.seed, args.p)
    except sc.ValidationError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        sys.exit(EXIT_INVALID_INPUT)
    except sc.EnumerationTooLarge as exc:
        print(f"error: refused by resource cap: {exc}", file=sys.stderr)
        sys.exit(EXIT_CAP_REFUSED)
    gaps = Counter()
    rows = []
    for trial, (S, T) in enumerate(pairs):
        dec = sc.decompose(S, T)
        if not sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness):
            sys.exit(f"trial {trial}: the pipeline witness pair does not cover S+T")
        gs, gt = sc.greedy_decomposition(S, T)
        greedy = len(gs) + len(gt)
        oracle = "-"  # printed where the oracle does not run
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
        print(f"{row[0]:>6} {row[1]:>4} {row[2]:>4} {row[3]:>7} {row[4]:>7} {row[5]:>9} {row[6]:>6}")
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
