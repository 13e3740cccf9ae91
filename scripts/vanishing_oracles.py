#!/usr/bin/env python3
"""Check the vanishing dimension against exact oracles, at every degree, at
sizes beyond the test suite's.

dim V(A, d) is the dimension of the degree-<= d polynomials vanishing off A.
For each q and n = 1 .. n_max, with a seeded invertible affine map
g(x) = Mx + b per check:

- closed form: for each k = 0 .. n, A = g(the k-dimensional coordinate
  subspace) has dim V(A, d) = m(q, k, d - (n-k)(q-1)), 0 when negative;
- pivots: vanishing.primal_pivot_columns and dual_pivot_columns each return
  dim V(A, d) columns at the points of A, in a shuffled order;
- at q = 3 and n <= 5, and at q = 2 and n <= 9: the packed elimination
  (two bitplanes per row at q = 3, one int per row at q = 2) and
  linalg._rref_lists, on the list rows of A's constraint table, give the
  same pivots, from linalg.rref and from linalg.pivot_columns (forward
  elimination only), the packed linalg.matrix_rank equals the list pivot
  count, and the basis build_vanishing_space reads off the packed echelon
  form is the list kernel linalg._kernel_basis of the list echelon form
  (the q = 3 list code takes minutes at n = 6);
- affine invariance: for a seeded pair S, T and A = S+T,
  dim V(g(A), d) = dim V(A, d), and so is run_pipeline(g(S), g(T), d)'s
  dim_vanishing, since g(S) + g(T) is the image of S+T under x -> Mx + 2b.

Prints one line per (q, n) and exits 1 at the first mismatch, named on
stderr; the checks also run under python -O.  The default run is q = 2 up to
n = 9 and q = 3 up to n = 6.  A non-prime --q or an --n-max below 1 prints
"error: invalid input: ..." on stderr and exits 2, and a --q past
is_prime's exactness bound prints "error: refused by resource cap: ..."
and exits 3, before any check runs.

Example:
    python scripts/vanishing_oracles.py --q 3 --n-max 4 --seed 1
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time

import sumsetcover as sc
from sumsetcover import linalg
from sumsetcover.cli import EXIT_CAP_REFUSED, EXIT_INVALID_INPUT
from sumsetcover.vanishing import dual_pivot_columns, primal_pivot_columns

DEFAULT_N_MAX = {2: 9, 3: 6}
LIST_KERNEL_N_MAX = {2: 9, 3: 5}


def affine_map(q: int, n: int, rng: random.Random):
    """(M, b) with M = P L U invertible: a row permutation, a unit lower and
    a nonsingular upper triangular factor."""
    lower = [[1 if i == j else rng.randrange(q) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[rng.randrange(1, q) if i == j else rng.randrange(q) if j > i else 0 for j in range(n)]
             for i in range(n)]
    lu = [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*upper)] for row in lower]
    return rng.sample(lu, n), [rng.randrange(q) for _ in range(n)]


def apply_affine(M, b, A: sc.PointSet) -> sc.PointSet:
    q = A.q
    return sc.PointSet.from_coords(q, A.n, (
        [(sum(m * x for m, x in zip(row, p.coords)) + c) % q for row, c in zip(M, b)]
        for p in A.members
    ))


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"mismatch: {what}", file=sys.stderr)
        sys.exit(1)


def check_size(q: int, n: int, rng: random.Random) -> int:
    """Run every oracle at F_q^n and every degree; the number of checks."""
    degrees = range(n * (q - 1) + 1)
    checks = 0
    for k in range(n + 1):
        base = [c + (0,) * (n - k) for c in itertools.product(range(q), repeat=k)]
        A = apply_affine(*affine_map(q, n, rng), sc.PointSet.from_coords(q, n, base))
        keys = [p.coords for p in A.members]
        rng.shuffle(keys)
        outside = [p.coords for p in sc.complement(A).ordered()]
        for d in degrees:
            e = d - (n - k) * (q - 1)
            expected = sc.count_m(q, k, e) if e >= 0 else 0
            space = sc.build_vanishing_space(A, d)
            where = f"q={q} n={n} k={k} d={d}"
            check(space.dim == expected, f"{where}: dim {space.dim}, closed form {expected}")
            check(len(primal_pivot_columns(space, keys)) == expected, f"{where}: primal pivots")
            check(len(dual_pivot_columns(space, keys)) == expected, f"{where}: dual pivots")
            checks += 3
            if n <= LIST_KERNEL_N_MAX.get(q, 0):
                table = linalg.monomial_table(space.monos, outside, q, by_point=True)
                reduced, pivots = linalg._rref_lists(linalg.as_rows(table), q)
                packed = linalg.rref(table, q)[1], linalg.pivot_columns(table, q)
                check(packed == (pivots, pivots), f"{where}: packed and list pivots differ")
                rank = linalg.matrix_rank(table, q)
                check(rank == len(pivots), f"{where}: packed rank {rank}, {len(pivots)} list pivots")
                basis = linalg._kernel_basis(reduced, pivots, len(space.monos), q)
                check(space.rows == tuple(map(tuple, basis)), f"{where}: packed and list bases differ")
                checks += 3
    pts = list(itertools.product(range(q), repeat=n))
    size = max(1, round(len(pts) ** 0.5))
    S, T = (sc.PointSet.from_coords(q, n, rng.sample(pts, rng.randint(1, size))) for _ in range(2))
    M, b = affine_map(q, n, rng)
    A = sc.sumset(S, T)
    gA, gS, gT = (apply_affine(M, b, X) for X in (A, S, T))
    for d in degrees:
        want = sc.build_vanishing_space(A, d).dim
        where = f"q={q} n={n} |S|={len(S)} |T|={len(T)} d={d}"
        check(sc.build_vanishing_space(gA, d).dim == want, f"{where}: dim not affine invariant")
        got = sc.run_pipeline(gS, gT, d).decomposition.certificate.dim_vanishing
        check(got == want, f"{where}: pipeline dim {got}, expected {want}")
        checks += 2
    return checks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--q", type=int, nargs="+", default=sorted(DEFAULT_N_MAX))
    parser.add_argument("--n-max", type=int, default=None,
                        help="largest n for every q (default: 9 at q = 2, 6 at q = 3, else 2)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    n_max = {q: DEFAULT_N_MAX.get(q, 2) if args.n_max is None else args.n_max for q in args.q}
    try:
        for q in args.q:
            sc.check_space(q, n_max[q])
    except sc.ValidationError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        sys.exit(EXIT_INVALID_INPUT)
    except sc.EnumerationTooLarge as exc:
        print(f"error: refused by resource cap: {exc}", file=sys.stderr)
        sys.exit(EXIT_CAP_REFUSED)

    rng = random.Random(args.seed)
    total, started = 0, time.perf_counter()
    print(f"{'q':>3} {'n':>3} {'checks':>7} {'seconds':>8}")
    for q in args.q:
        for n in range(1, n_max[q] + 1):
            t0 = time.perf_counter()
            checks = check_size(q, n, rng)
            total += checks
            print(f"{q:>3} {n:>3} {checks:>7} {time.perf_counter() - t0:>8.2f}", flush=True)
    print(f"all {total} checks passed in {time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    main()
