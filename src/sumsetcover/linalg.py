"""Exact dense linear algebra over a prime field, on tables in one format.

A table is a matrix over F_q in the format this module alone picks: a
`Matrix3` (two bitplanes per row) at q = 3, lists of integer rows
otherwise.  `monomial_table` builds tables of monomial values and
`evaluate_rows` of polynomials given as coefficient rows, `as_table` makes
one of integer rows and `as_rows` reads its rows back; every other module
passes tables on unopened.  A `Matrix3` is eliminated and combined on its
bitplanes and comes back packed; list rows, at any q (3 included), run the
list code, the reference the packed path is tested against.

In a `Matrix3`, entry k of a row is bit k of one of two ints: `ones` has
the bits of the columns holding 1, `twos` those holding 2, and
ones & twos == 0.  Adding or subtracting two rows is then a few big-int
boolean operations instead of a multiply-and-mod per entry (bitslicing in
the style of Boothby and Bradshaw, arXiv:0901.1413).  Monomial tables need
no `pow`: over F_3 a monomial prod x_i^e_i is 0 at p when some e_i > 0 has
p_i = 0, and otherwise (-1) raised to the number of i with e_i = 1 and
p_i = 2.  So `_monomial_table_packed` masks, per coordinate, the columns
whose digit can make the value 0 and those whose digit can flip its sign,
and builds each row, per monomial or per point, from the masks its own
digits select in O(n) big-int operations.  A polynomial's values are its
monomials' rows combined by its coefficients (`_combine_packed`).

Rows must all have the same length; in either format, ragged rows and rows
whose length is not a given column count raise ValueError.  Pivoting is by
position (exact arithmetic has no magnitude concerns), so the reduced row
echelon form, ranks, and null-space bases are all canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import DimensionMismatch
from .field import is_prime
from .monomials import Monomial, eval_monomial


@dataclass(frozen=True)
class Matrix3:
    """Rows over F_3 with `ncols` columns, as parallel bitplane tuples."""

    ncols: int
    ones: tuple[int, ...]
    twos: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ones)


Rows = Union[Sequence[Sequence[int]], Matrix3]


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
        return _monomial_table_packed(monos, points, by_point=by_point)
    if by_point:
        return [[eval_monomial(m, p, q) for m in monos] for p in points]
    return [[eval_monomial(m, p, q) for p in points] for m in monos]


def _same_length(monos: Sequence[Monomial], points: Sequence[Sequence[int]]) -> None:
    """DimensionMismatch when monomials and points, both present, differ in length."""
    lengths = {len(m) for m in monos} | {len(p) for p in points}
    if monos and points and len(lengths) > 1:
        raise DimensionMismatch(f"monomials and points of lengths {sorted(lengths)}")


# (digits that can make a monomial's value 0, digits that can flip its sign),
# for an exponent and for a point coordinate
_EXPONENT_DIGITS = (frozenset({1, 2}), frozenset({1}))
_POINT_DIGITS = (frozenset({0}), frozenset({2}))


def _monomial_table_packed(
    monos: Sequence[Monomial], points: Sequence[Sequence[int]], *, by_point: bool = False
) -> Matrix3:
    """Each monomial's value at each point: a row per monomial and a column per
    point, or a row per point and a column per monomial when by_point.  The
    coordinates must lie in [0, 3); monomial_table reduces them."""
    sides = [(monos, _EXPONENT_DIGITS), (points, _POINT_DIGITS)]
    (rows, (row_zero, row_flip)), (cols, (col_zero, col_flip)) = sides[::-1] if by_point else sides
    ncols = len(cols)
    full = (1 << ncols) - 1
    n = len(cols[0]) if cols else 0
    keep, flip = [full] * n, [0] * n
    for k, col in enumerate(cols):
        bit = 1 << k
        for i, x in enumerate(col):
            if x in col_zero:
                keep[i] ^= bit
            if x in col_flip:
                flip[i] |= bit
    ones: list[int] = []
    twos: list[int] = []
    for row in rows:
        nonzero, minus = full, 0
        for x, kp, fl in zip(row, keep, flip):
            if x in row_zero:
                nonzero &= kp
            if x in row_flip:
                minus ^= fl
        ones.append(nonzero & ~minus)
        twos.append(nonzero & minus)
    return Matrix3(ncols, tuple(ones), tuple(twos))


def as_table(rows: Sequence[Sequence[int]], ncols: int, q: int) -> Rows:
    """Integer rows of length ncols as a table over F_q, entries read mod q."""
    if q == 3:
        return pack(rows, ncols)
    _width(rows, ncols)
    return [[v % q for v in row] for row in rows]


def as_rows(table: Rows) -> Sequence[Sequence[int]]:
    """A table's rows as integer rows, entries in [0, q) for a table built here."""
    return unpack(table) if isinstance(table, Matrix3) else table


def _width(rows: Rows, ncols: int | None = None) -> int:
    """The common row length (ncols, or 0, for no rows); ValueError for
    ragged rows and for rows whose length is not a given ncols.  Every row
    of a `Matrix3` is its ncols long."""
    if isinstance(rows, Matrix3):
        lengths = [rows.ncols] if len(rows) else []
    else:
        lengths = [len(row) for row in rows]
    if ncols is None:
        ncols = lengths[0] if lengths else 0
    for length in lengths:
        if length != ncols:
            raise ValueError(f"row of length {length} in a {ncols}-column system")
    return ncols


def pack(rows: Sequence[Sequence[int]], ncols: int) -> Matrix3:
    """Integer rows of length ncols (any integers, read mod 3); ValueError
    for a row of another length."""
    _width(rows, ncols)
    ones: list[int] = []
    twos: list[int] = []
    for row in rows:
        digits = [v % 3 for v in row]
        ones.append(sum(1 << c for c, v in enumerate(digits) if v == 1))
        twos.append(sum(1 << c for c, v in enumerate(digits) if v == 2))
    return Matrix3(ncols, tuple(ones), tuple(twos))


def unpack(m: Matrix3) -> list[list[int]]:
    """The rows as lists of entries in [0, 3)."""
    return [
        [(a >> c & 1) | (b >> c & 1) << 1 for c in range(m.ncols)]
        for a, b in zip(m.ones, m.twos)
    ]


def rref(rows: Rows, q: int) -> tuple[Rows, list[int]]:
    """Reduced row echelon form.

    Returns (nonzero rows, pivot column indices), the rows in the input's
    form; the input is not mutated.  ValueError for a composite q, where Z/q
    is not a field, and for a `Matrix3` at any q but 3.
    """
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if isinstance(rows, Matrix3):
        if q != 3:
            raise ValueError(f"a packed F_3 matrix cannot be eliminated over F_{q}")
        return _rref_packed(rows)
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


def _plus(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a, b) + (c, d), entrywise over F_3."""
    t = (a | d) ^ (b | c)
    return (b | d) ^ t, (a | c) ^ t


def _clear(a: int, b: int, bit: int, pa: int, pb: int) -> tuple[int, int]:
    """Row (a, b) minus its entry at `bit` times the row (pa, pb), whose entry there is 1."""
    if a & bit:
        return _plus(a, b, pb, pa)  # entry 1: add the negation, planes swapped
    return _plus(a, b, pa, pb)  # entry 2 = -1: add


def _rref_packed(m: Matrix3) -> tuple[Matrix3, list[int]]:
    """Reduced row echelon form: (nonzero rows, pivot column indices).

    Gauss-Jordan column by column, as in the list code, with each row
    operation done on the two bitplanes at once.
    """
    ones, twos = list(m.ones), list(m.twos)
    nrows = len(ones)
    pivots: list[int] = []
    r = 0
    for c in range(m.ncols):
        bit = 1 << c
        pr = next((i for i in range(r, nrows) if (ones[i] | twos[i]) & bit), None)
        if pr is None:
            continue
        ones[r], ones[pr], twos[r], twos[pr] = ones[pr], ones[r], twos[pr], twos[r]
        if twos[r] & bit:  # scale by 2 = -1 so the pivot entry is 1
            ones[r], twos[r] = twos[r], ones[r]
        pa, pb = ones[r], twos[r]
        for i in range(nrows):
            if i != r and (ones[i] | twos[i]) & bit:
                ones[i], twos[i] = _clear(ones[i], twos[i], bit, pa, pb)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix3(m.ncols, tuple(ones[:r]), tuple(twos[:r])), pivots


def matrix_rank(rows: Rows, q: int) -> int:
    """Exact rank over F_q."""
    return len(rref(rows, q)[1])


def combine_rows(
    weights: Iterable[Iterable[tuple[int, int]]], rows: Rows, ncols: int, q: int
) -> Rows:
    """Linear combinations of rows: output row i is the sum of c * rows[k]
    over the pairs (k, c) of weights[i], with c read mod q.

    A `Matrix3` is combined on its bitplanes and the result comes back
    packed (ValueError at any q but 3); list rows give list rows.
    ValueError when a row is not ncols long, in either format.
    """
    _width(rows, ncols)
    if isinstance(rows, Matrix3):
        if q != 3:
            raise ValueError(f"a packed F_3 matrix cannot be combined over F_{q}")
        return _combine_packed(weights, rows)
    out: list[list[int]] = []
    for w in weights:
        acc = [0] * ncols
        for k, c in w:
            acc = [a + c * v for a, v in zip(acc, rows[k])]
        out.append([a % q for a in acc])
    return out


def _combine_packed(weights: Iterable[Iterable[tuple[int, int]]], m: Matrix3) -> Matrix3:
    """Row i is the sum of c times row k of m over the pairs (k, c) of weights[i].

    Weights are read mod 3; a weight 2 = -1 adds the row's negation, its
    planes swapped.  The addition is `_plus` written out, since this loop
    runs once per weight.
    """
    ones: list[int] = []
    twos: list[int] = []
    m_ones, m_twos = m.ones, m.twos
    for w in weights:
        a = b = 0
        for k, c in w:
            c %= 3
            if c == 1:
                c1, c2 = m_ones[k], m_twos[k]
            elif c:
                c1, c2 = m_twos[k], m_ones[k]
            else:
                continue
            t = (a | c2) ^ (b | c1)
            a, b = (b | c2) ^ t, (a | c1) ^ t
        ones.append(a)
        twos.append(b)
    return Matrix3(m.ncols, tuple(ones), tuple(twos))


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
