"""Exact dense linear algebra over a prime field.

Matrices are lists of row lists with integer entries, read mod q.  Rows
must all have the same length; ragged rows raise ValueError.  Pivoting is
by position (exact arithmetic has no magnitude concerns), so the reduced
row echelon form, ranks, and null-space bases are all canonical.

A matrix is either a list of rows or, at q = 3, a `gf3.Matrix3` (two
bitplanes per row) as the evaluation tables of `polynomials` build it.  The
form picks the path: a `Matrix3` is eliminated and combined on its
bitplanes by `gf3` and comes back packed, and list rows always run the
list code below, at every q, which is also the reference the packed path
is tested against.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from . import gf3
from .field import is_prime

Rows = Union[Sequence[Sequence[int]], gf3.Matrix3]


def _width(rows: Sequence[Sequence[int]], ncols: int | None = None) -> int:
    """The common row length (ncols, or 0, for no rows); ValueError for
    ragged rows and for rows whose length is not a given ncols."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row of length {len(row)} in a {ncols}-column system")
    return ncols


def rref(rows: Rows, q: int) -> tuple[list[list[int]] | gf3.Matrix3, list[int]]:
    """Reduced row echelon form.

    Returns (nonzero rows, pivot column indices), the rows in the input's
    form; the input is not mutated.  ValueError for a composite q, where Z/q
    is not a field, and for a `gf3.Matrix3` at any q but 3.
    """
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if isinstance(rows, gf3.Matrix3):
        if q != 3:
            raise ValueError(f"a packed F_3 matrix cannot be eliminated over F_{q}")
        return gf3.rref(rows)
    return _rref_lists(rows, q)


def _rref_lists(rows: Sequence[Sequence[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan on lists, one multiply-and-mod per entry; any prime q."""
    ncols = _width(rows)
    m = [[v % q for v in row] for row in rows]
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, q)
        m[r] = [(inv * v) % q for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(vi - f * vr) % q for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def matrix_rank(rows: Rows, q: int) -> int:
    """Exact rank over F_q."""
    return len(rref(rows, q)[1])


def combine_rows(
    weights: Iterable[Iterable[tuple[int, int]]], rows: Rows, ncols: int, q: int
) -> Rows:
    """Linear combinations of rows: output row i is the sum of c * rows[k]
    over the pairs (k, c) of weights[i], with c read mod q.

    A `gf3.Matrix3` is combined on its bitplanes and the result comes back
    packed (ValueError at any q but 3); list rows give list rows, and
    ValueError when one is not ncols long.
    """
    if isinstance(rows, gf3.Matrix3):
        if q != 3:
            raise ValueError(f"a packed F_3 matrix cannot be combined over F_{q}")
        return gf3.combine(weights, rows)
    _width(rows, ncols)
    out: list[list[int]] = []
    for w in weights:
        acc = [0] * ncols
        for k, c in w:
            acc = [a + c * v for a, v in zip(acc, rows[k])]
        out.append([a % q for a in acc])
    return out


def null_space(rows: Rows, ncols: int, q: int) -> list[list[int]]:
    """Canonical basis of {x : A x = 0} for the ncols-column matrix A.

    One basis vector per free column (ascending), carrying 1 at its own free
    column and the negated echelon entries at the pivot columns.  An empty
    row list means no constraints: the identity basis comes back.
    """
    if len(rows):
        width = rows.ncols if isinstance(rows, gf3.Matrix3) else len(rows[0])
        if width != ncols:
            raise ValueError(f"row of length {width} in a {ncols}-column system")
    reduced, pivots = rref(rows, q)
    if isinstance(reduced, gf3.Matrix3):
        reduced = gf3.unpack(reduced)
    return _kernel_basis(reduced, pivots, ncols, q)


def _kernel_basis(
    reduced: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int, q: int
) -> list[list[int]]:
    pivot_set = set(pivots)
    basis: list[list[int]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, p in enumerate(pivots):
            v[p] = (-reduced[i][free]) % q
        basis.append(v)
    return basis
