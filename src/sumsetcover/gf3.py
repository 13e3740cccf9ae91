"""Matrices over F_3 packed into two Python-int bitplanes per row.

Entry k of a row is bit k of one of two ints: `ones` has the bits of the
columns holding 1, `twos` those holding 2, and ones & twos == 0.  Adding or
subtracting two rows is then a few big-int boolean operations instead of a
multiply-and-mod per entry (bitslicing in the style of Boothby and Bradshaw,
arXiv:0901.1413).  This module is the only one that knows the format:
`polynomials` builds its monomial tables with it, `linalg` eliminates and
combines the `Matrix3` values it is given, and every other module treats a
`Matrix3` as an opaque value.

Monomial tables need no `pow`: over F_3 a monomial prod x_i^e_i is 0 at p
when some e_i > 0 has p_i = 0, and otherwise (-1) raised to the number of
i with e_i = 1 and p_i = 2.  So `monomial_table` masks, per coordinate,
the columns whose digit can make the value 0 and those whose digit can flip
its sign, and builds each row, per monomial or per point, from the masks
its own digits select in O(n) big-int operations.  A polynomial's values
are its monomials' rows combined by its coefficients (`combine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Matrix3:
    """Rows over F_3 with `ncols` columns, as parallel bitplane tuples."""

    ncols: int
    ones: tuple[int, ...]
    twos: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ones)


def pack(rows: Iterable[Sequence[int]], ncols: int) -> Matrix3:
    """Integer rows of length ncols (any integers, read mod 3)."""
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


def _plus(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a, b) + (c, d), entrywise over F_3."""
    t = (a | d) ^ (b | c)
    return (b | d) ^ t, (a | c) ^ t


def _clear(a: int, b: int, bit: int, pa: int, pb: int) -> tuple[int, int]:
    """Row (a, b) minus its entry at `bit` times the row (pa, pb), whose entry there is 1."""
    if a & bit:
        return _plus(a, b, pb, pa)  # entry 1: add the negation, planes swapped
    return _plus(a, b, pa, pb)  # entry 2 = -1: add


def rref(m: Matrix3) -> tuple[Matrix3, list[int]]:
    """Reduced row echelon form: (nonzero rows, pivot column indices).

    Gauss-Jordan column by column, as in linalg's list code, with each row
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


def combine(weights: Iterable[Iterable[tuple[int, int]]], m: Matrix3) -> Matrix3:
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


# (digits that can make a monomial's value 0, digits that can flip its sign),
# for an exponent and for a point coordinate
_EXPONENT_DIGITS = (frozenset({1, 2}), frozenset({1}))
_POINT_DIGITS = (frozenset({0}), frozenset({2}))


def monomial_table(
    monos: Sequence[tuple[int, ...]], points: Sequence[Sequence[int]], *, by_point: bool = False
) -> Matrix3:
    """Each monomial's value at each point: a row per monomial and a column per
    point, or a row per point and a column per monomial when by_point."""
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
