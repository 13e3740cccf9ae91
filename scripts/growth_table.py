#!/usr/bin/env python3
"""Print the witness-budget growth table: the budget, its n-th root, and the
minimized per-degree budget, for n = 1 .. n_max.

The roots are computed to --digits + 10 significant digits and printed
rounded to --digits decimal places.  As the CLI's bound does, a non-prime
--q, an --n-max below 1 or --digits below 0 prints "error: invalid input:
..." on stderr and exits 2, and a --q past is_prime's exactness bound or a
run that growth_estimate's work budget refuses prints "error: refused by
resource cap: ..." and exits 3.

Example:
    python scripts/growth_table.py --q 3 --n-max 40
"""

from __future__ import annotations

import argparse
import decimal
import sys

import sumsetcover as sc
from sumsetcover.cli import EXIT_CAP_REFUSED, EXIT_INVALID_INPUT


def _count(value: int) -> str:
    """An exact count, in 7-digit scientific notation from 10^22 on (as a
    Decimal: the counts outgrow floats near 10^308)."""
    return str(value) if value < 10**22 else f"{decimal.Decimal(value):.6e}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=40)
    parser.add_argument("--digits", type=int, default=12)
    args = parser.parse_args()

    try:
        for bad, message in [
            (not sc.is_prime(args.q), f"q = {args.q} is not prime"),
            (args.n_max < 1, f"n_max must be >= 1, got {args.n_max}"),
            (args.digits < 0, f"digits must be >= 0, got {args.digits}"),
        ]:
            if bad:
                print(f"error: invalid input: {message}", file=sys.stderr)
                sys.exit(EXIT_INVALID_INPUT)
        roots = sc.growth_estimate(args.q, args.n_max, digits=args.digits + 10)
    except sc.EnumerationTooLarge as exc:
        print(f"error: refused by resource cap: {exc}", file=sys.stderr)
        sys.exit(EXIT_CAP_REFUSED)
    print(f"q = {args.q}")
    print(f"{'n':>4}  {'budget 3*m':>24}  {'budget^(1/n)':>16}  {'min_d budget':>24}")
    # one count table, extended by one convolution per row
    table = sc.degree_counts(args.q, 0)
    for n in range(1, args.n_max + 1):
        table = table.extended()
        budget = table.capset_budget()
        _, minimized = table.minimized()
        with decimal.localcontext() as ctx:
            # the integer digits (every root is >= 1) and the decimal places
            ctx.prec = roots[n - 1].adjusted() + 1 + args.digits
            root = round(roots[n - 1], args.digits)
        print(f"{n:>4}  {_count(budget):>24}  {str(root):>16}  {_count(minimized):>24}")


if __name__ == "__main__":
    main()
