"""Exact dense linear algebra over a prime field, on tables in one format.

A table is a matrix over F_q in the format this module alone picks: a
`gf3.Matrix3` (two bitplanes per row) at q = 3, lists of integer rows
otherwise.  `monomial_table` builds tables of monomial values and
`evaluate_rows` of polynomials given as coefficient rows, `as_table` makes
one of integer rows and `as_rows` reads its rows back; every other module
passes tables on unopened.  A `Matrix3` is eliminated and combined
on its bitplanes by `gf3` and comes back packed; list rows, at any q (3
included), run the list code below, the reference the packed path is
tested against.

Rows must all have the same length; in either format, ragged rows and rows
whose length is not a given column count raise ValueError.  Pivoting is by
position (exact arithmetic has no magnitude concerns), so the reduced row
echelon form, ranks, and null-space bases are all canonical.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from . import gf3
from .errors import DimensionMismatch
from .field import is_prime
from .monomials import Monomial, eval_monomial

Rows = Union[Sequence[Sequence[int]], gf3.Matrix3]


def monomial_table(
    monos: Sequence[Monomial], points: Sequence[Sequence[int]], q: int, *, by_point: bool = False
) -> Rows:
    """Each monomial's value at each point, the coordinates read mod q: a row
    per monomial and a column per point, or a row per point and a column per
    monomial when by_point.  At q = 3 built packed, without `pow`.
    DimensionMismatch, checked once per table, when the lengths differ."""
    _same_length(monos, points)
    points = [[x % q for x in p] for p in points]
    if q == 3:
        return gf3.monomial_table(monos, points, by_point=by_point)
    if by_point:
        return [[eval_monomial(m, p, q) for m in monos] for p in points]
    return [[eval_monomial(m, p, q) for p in points] for m in monos]


def _same_length(monos: Sequence[Monomial], points: Sequence[Sequence[int]]) -> None:
    """DimensionMismatch when monomials and points, both present, differ in length."""
    lengths = {len(m) for m in monos} | {len(p) for p in points}
    if monos and points and len(lengths) > 1:
        raise DimensionMismatch(f"monomials and points of lengths {sorted(lengths)}")


def as_table(rows: Sequence[Sequence[int]], ncols: int, q: int) -> Rows:
    """Integer rows of length ncols as a table over F_q, entries read mod q."""
    if q == 3:
        return gf3.pack(rows, ncols)
    _width(rows, ncols)
    return [[v % q for v in row] for row in rows]


def as_rows(table: Rows) -> Sequence[Sequence[int]]:
    """A table's rows as integer rows, entries in [0, q) for a table built here."""
    return gf3.unpack(table) if isinstance(table, gf3.Matrix3) else table


def _width(rows: Rows, ncols: int | None = None) -> int:
    """The common row length (ncols, or 0, for no rows); ValueError for
    ragged rows and for rows whose length is not a given ncols.  Every row
    of a `gf3.Matrix3` is its ncols long."""
    if isinstance(rows, gf3.Matrix3):
        lengths = [rows.ncols] if len(rows) else []
    else:
        lengths = [len(row) for row in rows]
    if ncols is None:
        ncols = lengths[0] if lengths else 0
    for length in lengths:
        if length != ncols:
            raise ValueError(f"row of length {length} in a {ncols}-column system")
    return ncols


def rref(rows: Rows, q: int) -> tuple[Rows, list[int]]:
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
    packed (ValueError at any q but 3); list rows give list rows.
    ValueError when a row is not ncols long, in either format.
    """
    _width(rows, ncols)
    if isinstance(rows, gf3.Matrix3):
        if q != 3:
            raise ValueError(f"a packed F_3 matrix cannot be combined over F_{q}")
        return gf3.combine(weights, rows)
    out: list[list[int]] = []
    for w in weights:
        acc = [0] * ncols
        for k, c in w:
            acc = [a + c * v for a, v in zip(acc, rows[k])]
        out.append([a % q for a in acc])
    return out


def evaluate_rows(
    monos: Sequence[Monomial], rows: Sequence[Sequence[int]], points: Sequence[Sequence[int]], q: int
) -> Rows:
    """A row per coefficient row over monos, a column per point: the value
    there.  Only the monomials some row uses are evaluated, once per point,
    and combined by the coefficients read mod q.  ValueError for a row that
    is not len(monos) long; DimensionMismatch, as in monomial_table, for
    points of another length than monos, whichever monomials the rows use."""
    _width(rows, len(monos))
    _same_length(monos, points)
    weights = [[(k, c) for k, c in enumerate(row) if c % q] for row in rows]
    used = sorted({k for w in weights for k, _ in w})
    place = {k: i for i, k in enumerate(used)}
    table = monomial_table([monos[k] for k in used], points, q)
    return combine_rows(([(place[k], c) for k, c in w] for w in weights), table, len(points), q)


def null_space(rows: Rows, ncols: int, q: int) -> list[list[int]]:
    """Canonical basis of {x : A x = 0} for the ncols-column matrix A.

    One basis vector per free column (ascending), carrying 1 at its own free
    column and the negated echelon entries at the pivot columns.  An empty
    row list means no constraints: the identity basis comes back.
    """
    _width(rows, ncols)
    reduced, pivots = rref(rows, q)
    return _kernel_basis(as_rows(reduced), pivots, ncols, q)


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
