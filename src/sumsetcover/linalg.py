"""Exact dense linear algebra over a prime field, on tables in one format.

A table is a matrix over F_q in the format this module alone picks: a
`Matrix3` (two bitplanes per row) at q = 3, lists of integer rows
otherwise.  `monomial_table` and `evaluate_rows` build tables, `as_table`
makes one of integer rows and `as_rows` reads its rows back; every other
module passes tables on unopened.

Elimination follows one rule: q picks the format, and each format has one
forward pass and one back-substitution.  At q = 2 rows are one int each
(bit c holds entry c, a row subtraction is one XOR: `_echelon_bits`,
`_back_substitute_bits`), at q = 3 a `Matrix3` (`_echelon_packed`,
`_back_substitute_packed`), and at q >= 5 lists of integers
(`_echelon_lists`, `_back_substitute_lists`); list rows are packed on
entry at q = 2 and 3.  `echelon` alone runs a forward pass and keeps it as an
`Echelon` (echelon-only elimination, as in the PLE decomposition of
Albrecht, Bard and Pernet, arXiv:1111.6549), and `_reduced` alone
back-substitutes one.  `pivot_columns` and `matrix_rank` read its pivots,
`kernel` reads the null-space basis off the reduced rows' bit masks
(`_kernel_planes`), `null_space` is `kernel` of `echelon`, and `rref` hands
the reduced rows back in the input's form.  Pivoting is by position, so all
of these are canonical.  Ragged rows, and rows whose length is not a given
column count, raise ValueError in either format.

In a `Matrix3`, entry k of a row is bit k of one of two ints: `ones` has
the bits of the columns holding 1, `twos` those holding 2, and
ones & twos == 0.  Adding or subtracting two rows is then a few big-int
boolean operations instead of a multiply-and-mod per entry (bitslicing in
the style of Boothby and Bradshaw, arXiv:0901.1413).  Monomial tables need
no `pow`: over F_3 a monomial prod x_i^e_i is 0 at p when some e_i > 0 has
p_i = 0, and otherwise (-1) raised to the number of i with e_i odd and
p_i = 2.  So `_monomial_table_packed` masks, per coordinate, the columns
whose digit can make the value 0 and those whose digit can flip its sign,
and builds each row, per monomial or per point, from the masks its own
digits select in O(n) big-int operations.  A polynomial's values are its
monomials' rows combined by its coefficients (`_combine_packed`).

An m x w matrix can also be held as one flat row of m * w cells, cell
(u, v) at column u * w + v.  `outer_rows` builds sums of outer products
in that layout (at q = 3 one big-int multiply per bitplane pair, the left
row's bit u spread to bit u * w first, so no carry crosses a cell),
`flatten` spreads a row's entries over a grid of column indices, and
`split_row` cuts a flat row back into m rows.
"""

from __future__ import annotations

import itertools
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
    DimensionMismatch, checked once per table, when the lengths differ, and
    ValueError for a negative exponent."""
    _same_length(monos, points)
    if min(itertools.chain.from_iterable(monos), default=0) < 0:
        raise ValueError("monomial exponents must be >= 0")
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
    coordinates must lie in [0, 3) and the exponents be >= 0; monomial_table
    reduces the one and checks the other.  x^e depends
    on e only through e > 0 and the parity of e, so an exponent above 2 is
    read as 1 when odd and 2 when even."""
    monos = [m if max(m, default=0) < 3 else tuple(e and 2 - e % 2 for e in m) for m in monos]
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
    """The common row length (ncols, or 0, for no list rows); ValueError for
    ragged rows and for rows whose length is not a given ncols.  Every row
    of a `Matrix3` is its ncols long, and so is a `Matrix3` with no rows."""
    lengths = [rows.ncols] if isinstance(rows, Matrix3) else [len(row) for row in rows]
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
    """Reduced row echelon form: `echelon`, then back-substitution.

    Returns (nonzero rows, pivot column indices), the rows in the input's
    form; the input is not mutated.  ValueError for a composite q, where Z/q
    is not a field, and for a `Matrix3` at any q but 3.
    """
    _field(rows, q)
    e = echelon(rows, _width(rows), q)
    reduced = []
    for pairs in _reduced(e):
        row = [0] * e.ncols
        for mask, v in pairs:
            while mask:
                low = mask & -mask
                row[low.bit_length() - 1] = v
                mask ^= low
        reduced.append(row)
    return (pack(reduced, e.ncols) if isinstance(rows, Matrix3) else reduced), list(e.pivots)


@dataclass(frozen=True)
class Echelon:
    """Forward elimination of an ncols-column table over F_q, kept: its pivot
    columns and one echelon row per pivot, each with entry 1 at its pivot and
    0 to the left of it, in the format q picks (one int per row at q = 2, a
    `Matrix3` at q = 3, tuple rows otherwise)."""

    q: int
    ncols: int
    pivots: tuple[int, ...]
    rows: Matrix3 | tuple[int, ...] | tuple[tuple[int, ...], ...]


def echelon(rows: Rows, ncols: int, q: int) -> Echelon:
    """The table's forward elimination, with no back-substitution (as in
    the PLE decomposition of Albrecht, Bard and Pernet, arXiv:1111.6549):
    the one caller of the forward passes.  List rows are packed on entry at
    q = 2 and 3.  ValueError for rows that are not ncols long, and as for
    rref."""
    _width(rows, ncols)
    _field(rows, q)
    if q == 3:
        kept, pivots = _echelon_packed(rows if isinstance(rows, Matrix3) else pack(rows, ncols))
    elif q == 2:
        kept, pivots = _echelon_bits(_pack_bits(rows), ncols)
    else:
        kept, pivots = _echelon_lists(rows, q)
    return Echelon(q, ncols, tuple(pivots), kept)


def pivot_columns(rows: Rows, q: int) -> list[int]:
    """The pivot columns of `echelon`, with no back-substitution: those of
    rref.  ValueError as for rref."""
    _field(rows, q)
    return list(echelon(rows, _width(rows), q).pivots)


def matrix_rank(rows: Rows, q: int) -> int:
    """Exact rank over F_q: the number of pivot_columns, with no
    back-substitution.  ValueError as for rref."""
    return len(pivot_columns(rows, q))


def _field(rows: Rows, q: int) -> None:
    """ValueError unless rows can be eliminated over F_q: q must be prime,
    and 3 for a `Matrix3`."""
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if isinstance(rows, Matrix3) and q != 3:
        raise ValueError(f"a packed F_3 matrix cannot be eliminated over F_{q}")


def _reduced(e: Echelon) -> list[list[tuple[int, int]]]:
    """e's rows back-substituted, the one caller of the back-substitutions,
    each row as pairs (mask, v): entry v at the columns of mask, 0 elsewhere.
    e is not mutated."""
    if e.q == 3:
        m = _back_substitute_packed(e.rows, e.pivots)
        return [[(a, 1), (b, 2)] for a, b in zip(m.ones, m.twos)]
    if e.q == 2:
        return [[(x, 1)] for x in _back_substitute_bits(e.rows, e.pivots)]
    reduced = _back_substitute_lists(e.rows, e.pivots, e.q)
    return [[(1 << c, v) for c, v in enumerate(row) if v] for row in reduced]


def _back_substitute_lists(
    rows: Sequence[Sequence[int]], pivots: Sequence[int], q: int
) -> list[list[int]]:
    """The echelon rows, one per pivot, reduced: from the last pivot up,
    each pivot row is subtracted from the rows above it.  Returns new rows;
    the input is not mutated."""
    m = list(rows)
    for r in reversed(range(len(pivots))):
        c, pivot_row = pivots[r], m[r]
        for i in range(r):
            if f := m[i][c]:
                m[i] = [(vi - f * vr) % q for vi, vr in zip(m[i], pivot_row)]
    return m


def _echelon_lists(
    rows: Sequence[Sequence[int]], q: int
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Forward elimination, column by column: the first row at or below the
    next pivot row with a nonzero entry there is swapped up, scaled so that
    entry is 1, and subtracted from the rows below it.  Returns (the
    echelon rows, one per pivot, entries in [0, q); pivot columns)."""
    ncols = _width(rows)
    m = [[v % q for v in row] for row in rows]
    nrows = len(m)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for pr in range(r, nrows):
            if m[pr][c]:
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, q)
        m[r] = pivot_row = [(inv * v) % q for v in m[r]]
        for i in range(pr + 1, nrows):  # rows r + 1 .. pr are 0 at c
            if f := m[i][c]:
                m[i] = [(vi - f * vr) % q for vi, vr in zip(m[i], pivot_row)]
        pivots.append(c)
    return tuple(map(tuple, m[:len(pivots)])), pivots


def _back_substitute_packed(m: Matrix3, pivots: Sequence[int]) -> Matrix3:
    """`_back_substitute_lists` on bitplanes, each row operation done on the
    two planes at once, as in `_echelon_packed`."""
    ones, twos = list(m.ones), list(m.twos)
    for r in reversed(range(len(pivots))):
        bit, pa, pb = 1 << pivots[r], ones[r], twos[r]
        for i in range(r):
            a, b = ones[i], twos[i]
            if (a | b) & bit:
                c1, c2 = (pb, pa) if a & bit else (pa, pb)
                t = (a | c2) ^ (b | c1)
                ones[i], twos[i] = (b | c2) ^ t, (a | c1) ^ t
    return Matrix3(m.ncols, tuple(ones), tuple(twos))


def _echelon_packed(m: Matrix3) -> tuple[Matrix3, list[int]]:
    """`_echelon_lists` on bitplanes.  A pivot entry 2 = -1 is made 1 by
    swapping the row's planes.  Subtracting the pivot row (pa, pb) from
    a row with entry 1 at the pivot column adds its negation (pb, pa), and
    with entry 2 = -1 adds (pa, pb) itself, each in the 7 big-int operations
    of an F_3 row addition (written out, as in `_combine_packed`)."""
    ones, twos = list(m.ones), list(m.twos)
    nrows = len(ones)
    pivots: list[int] = []
    for c in range(m.ncols):
        r = len(pivots)
        if r == nrows:
            break
        bit = 1 << c
        for pr in range(r, nrows):
            if (ones[pr] | twos[pr]) & bit:
                break
        else:
            continue
        ones[r], ones[pr], twos[r], twos[pr] = ones[pr], ones[r], twos[pr], twos[r]
        if twos[r] & bit:
            ones[r], twos[r] = twos[r], ones[r]
        pa, pb = ones[r], twos[r]
        for i in range(pr + 1, nrows):  # rows r + 1 .. pr are 0 at c
            a, b = ones[i], twos[i]
            if (a | b) & bit:
                c1, c2 = (pb, pa) if a & bit else (pa, pb)
                t = (a | c2) ^ (b | c1)
                ones[i], twos[i] = (b | c2) ^ t, (a | c1) ^ t
        pivots.append(c)
    rank = len(pivots)
    return Matrix3(m.ncols, tuple(ones[:rank]), tuple(twos[:rank])), pivots


# Each byte 0 or 1 as the digit "0" or "1", for int(..., 2)
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack_bits(rows: Sequence[Sequence[int]]) -> list[int]:
    """Each row as one int over F_2: bit c holds entry c mod 2.  The row is
    read as a binary numeral, last entry first, about twice as fast as
    summing its bits one shift at a time."""
    return [
        int(bytes([v & 1 for v in reversed(row)]).translate(_BINARY_DIGITS) or b"0", 2) for row in rows
    ]


def _echelon_bits(rows: list[int], ncols: int) -> tuple[tuple[int, ...], list[int]]:
    """`_echelon_lists` over F_2, on one int per row, eliminated in place.
    Every nonzero entry is 1, so no row is scaled, and subtracting the pivot
    row is one XOR (in the style of M4RI, Albrecht, Bard and Hart,
    arXiv:0811.1714)."""
    nrows = len(rows)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        bit = 1 << c
        for pr in range(r, nrows):
            if rows[pr] & bit:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        for i in range(pr + 1, nrows):  # rows r + 1 .. pr are 0 at c
            if rows[i] & bit:
                rows[i] ^= pivot_row
        pivots.append(c)
    return tuple(rows[:len(pivots)]), pivots


def _back_substitute_bits(rows: Sequence[int], pivots: Sequence[int]) -> list[int]:
    """`_back_substitute_lists` over F_2 on one int per row: each row
    operation is one XOR."""
    rows = list(rows)
    for r in reversed(range(len(pivots))):
        bit, pivot_row = 1 << pivots[r], rows[r]
        for i in range(r):
            if rows[i] & bit:
                rows[i] ^= pivot_row
    return rows


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
    planes swapped.  The F_3 row addition is written out, since this loop
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


def _scatter(x: int, masks: Sequence[int]) -> int:
    """The union of masks[u] over the bits u of x."""
    out = 0
    while x:
        low = x & -x
        out |= masks[low.bit_length() - 1]
        x ^= low
    return out


def outer_rows(
    terms: Iterable[Iterable[tuple[int, int, int]]], left: Rows, right: Rows, q: int
) -> Rows:
    """Sums of outer products, each flattened to one row: output row r is the
    sum of c * left[i] (x) right[j] over the triples (i, j, c) of terms[r],
    its cell (u, v) at column u * w + v, where w is the row length of right.

    Both tables in one format; at q = 3 each product is a big-int multiply
    per bitplane pair, with left[i]'s bit u spread to bit u * w, so no
    carries cross cells.  ValueError for mixed formats or a `Matrix3` at
    any q but 3.
    """
    height, width = _width(left), _width(right)
    if isinstance(left, Matrix3) != isinstance(right, Matrix3):
        raise ValueError("outer products of tables in two formats")
    if not isinstance(left, Matrix3):
        return _outer_lists(terms, left, right, height, width, q)
    if q != 3:
        raise ValueError(f"packed F_3 matrices cannot be multiplied over F_{q}")
    stride = [1 << u * width for u in range(height)]
    spread: dict[int, tuple[int, int]] = {}
    ones: list[int] = []
    twos: list[int] = []
    for row in terms:
        a = b = 0
        for i, j, c in row:
            if i not in spread:
                spread[i] = _scatter(left.ones[i], stride), _scatter(left.twos[i], stride)
            f1, f2 = spread[i]
            g1, g2 = right.ones[j], right.twos[j]
            c %= 3
            if c == 2:
                g1, g2 = g2, g1
            elif not c:
                continue
            # 1*1 = 2*2 = 1 and 1*2 = 2; the four products cover disjoint cells
            c1, c2 = f1 * g1 | f2 * g2, f1 * g2 | f2 * g1
            t = (a | c2) ^ (b | c1)
            a, b = (b | c2) ^ t, (a | c1) ^ t
        ones.append(a)
        twos.append(b)
    return Matrix3(height * width, tuple(ones), tuple(twos))


def _outer_lists(
    terms: Iterable[Iterable[tuple[int, int, int]]],
    left: Sequence[Sequence[int]],
    right: Sequence[Sequence[int]],
    height: int,
    width: int,
    q: int,
) -> list[list[int]]:
    """outer_rows on list rows, one multiply per cell."""
    out: list[list[int]] = []
    for row in terms:
        acc = [0] * (height * width)
        for i, j, c in row:
            g = right[j]
            for u, x in enumerate(left[i]):
                if f := c * x % q:
                    cells = slice(u * width, (u + 1) * width)
                    acc[cells] = [a + f * y for a, y in zip(acc[cells], g)]
        out.append([a % q for a in acc])
    return out


def flatten(table: Rows, grid: Sequence[Sequence[int]]) -> Rows:
    """Each row of the table spread over the cells of grid, as one row: cell
    (u, v) of the output, at column u * len(grid[u]) + v as in outer_rows,
    holds the row's entry at column grid[u][v]."""
    cells = [c for line in grid for c in line]
    if not isinstance(table, Matrix3):
        return [[row[c] for c in cells] for row in table]
    masks = [0] * table.ncols
    for cell, c in enumerate(cells):
        masks[c] |= 1 << cell
    ones = tuple(_scatter(x, masks) for x in table.ones)
    return Matrix3(len(cells), ones, tuple(_scatter(x, masks) for x in table.twos))


def split_row(table: Rows, r: int, nrows: int, ncols: int) -> Rows:
    """Row r of a table of nrows * ncols columns, cut back into nrows rows of
    ncols entries (the inverse of flatten's and outer_rows' layout)."""
    if not isinstance(table, Matrix3):
        row = table[r]
        return [list(row[u * ncols:(u + 1) * ncols]) for u in range(nrows)]
    mask = (1 << ncols) - 1

    def cut(x: int) -> tuple[int, ...]:
        return tuple(x >> u * ncols & mask for u in range(nrows))

    return Matrix3(ncols, cut(table.ones[r]), cut(table.twos[r]))


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
    """Canonical basis of {x : A x = 0} for the ncols-column matrix A:
    `kernel` of its `echelon`.  An empty row list means no constraints: the
    identity basis comes back.  ValueError as for echelon."""
    return kernel(echelon(rows, ncols, q))


def kernel(e: Echelon) -> list[list[int]]:
    """Canonical basis of the null space of the table whose forward
    elimination e is: the echelon rows back-substituted, then one basis
    vector per free column (ascending), carrying 1 at its own free column
    and the negated reduced entries at the pivot columns, read off the
    reduced rows' masks by `_kernel_planes` in every format.  e is not
    mutated."""
    return _kernel_planes(e.pivots, _reduced(e), e.ncols, e.q)


def _kernel_planes(
    pivots: Sequence[int], planes: Sequence[Sequence[tuple[int, int]]], ncols: int, q: int
) -> list[list[int]]:
    """The kernel read off bit masks: planes[r] lists, for the reduced row
    of pivot pivots[r], pairs (mask, v) as `_reduced` gives them.  Once the
    pivot columns are masked out, each set bit of a mask is a free column,
    and -v lands at the row's pivot in that free column's vector."""
    pivot_mask = sum(1 << p for p in pivots)
    basis: dict[int, list[int]] = {}
    for free in range(ncols):
        if not pivot_mask >> free & 1:
            basis[free] = v = [0] * ncols
            v[free] = 1
    for p, row in zip(pivots, planes):
        for mask, value in row:
            mask &= ~pivot_mask
            value = -value % q
            while mask:
                low = mask & -mask
                basis[low.bit_length() - 1][p] = value
                mask ^= low
    return list(basis.values())
