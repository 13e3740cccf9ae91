"""Reference pivot path: sum-matrix grids and row-major matrix elimination.

The library reads the pivot positions off one elimination of the vanishing
basis evaluated once per distinct sum (`sumsetcover.cover.sum_pivots`).
This module keeps the direct construction for the tests to check it
against: build the |S| x |T| sum matrix of every basis polynomial, then
eliminate the matrices in input order until their row-major first nonzero
positions are pairwise distinct.  Only tests use it.
"""

from __future__ import annotations

from typing import Sequence

import sumsetcover as sc

Grid = tuple[tuple[int, ...], ...]


def first_nonzero_position(entries: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Row-major first nonzero coordinate; ValueError for the zero matrix."""
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            if v:
                return (i, j)
    raise ValueError("the zero matrix has no pivot position")


def pivot_basis(
    grids: Sequence[Sequence[Sequence[int]]], q: int
) -> tuple[tuple[Grid, ...], tuple[tuple[int, int], ...]]:
    """Eliminate matrices over F_q to pairwise distinct row-major pivots.

    Matrices are processed in input order.  On a pivot collision the earlier
    output, scaled by the colliding entry, is subtracted until a fresh pivot
    appears; each output is scaled to a pivot entry of 1.  Returns the
    eliminated matrices and their pivots, in input order.  A matrix that
    eliminates to zero means the input is linearly dependent: ValueError.
    """
    taken: dict[tuple[int, int], Grid] = {}
    out: list[Grid] = []
    pivots: list[tuple[int, int]] = []
    for grid in grids:
        work = [[v % q for v in row] for row in grid]
        while True:
            try:
                pos = first_nonzero_position(work)
            except ValueError:
                raise ValueError("dependent input: a matrix eliminated to zero") from None
            if pos not in taken:
                break
            factor = work[pos[0]][pos[1]]
            for wrow, prow in zip(work, taken[pos]):
                wrow[:] = [(w - factor * p) % q for w, p in zip(wrow, prow)]
        inv = pow(work[pos[0]][pos[1]], -1, q)
        reduced = tuple(tuple((inv * v) % q for v in row) for row in work)
        taken[pos] = reduced
        out.append(reduced)
        pivots.append(pos)
    return tuple(out), tuple(pivots)


def reference_pivots(
    space: sc.PolySubspace,
    s_ord: Sequence[sc.FieldVector],
    t_ord: Sequence[sc.FieldVector],
) -> set[tuple[int, int]]:
    """Pivot positions of the span of the basis sum matrices, the direct way."""
    grids = [sc.sum_matrix(P, s_ord, t_ord).entries for P in space.basis]
    return set(pivot_basis(grids, space.q)[1])
