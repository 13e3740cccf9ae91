"""Sum-evaluation matrices and their low-rank split certificates.

For a polynomial P and ordered point lists (rows from S, columns from T),
the sum matrix holds P(s + t) at position (s, t).  Positions with equal
sums carry equal entries, which is what makes the pivot positions of their
span a function of the distinct sums alone (see cover.sum_pivots).

The rank certificate comes from expanding P(x + y): every product monomial
x^a y^b in the expansion has |a| + |b| <= deg P, so one of the two sides has
total degree <= floor(d/2).  Grouping the expansion by that low-degree side
writes the matrix as a sum of rank-one terms, at most m(q, n, floor(d/2))
anchored on the row side plus as many anchored on the column side.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BoundViolated, DegreeTooHigh
from .field import FieldVector
from .monomials import Monomial, count_m, monomial_key
from .polynomials import (
    Polynomial,
    eval_poly,
    monomial_poly,
    poly_degree,
    poly_from_terms,
)

Entries = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SumMatrix:
    """P evaluated on all pairwise sums of the ordered row/column points."""

    rows: tuple[FieldVector, ...]
    cols: tuple[FieldVector, ...]
    entries: Entries
    source: Polynomial

    @property
    def q(self) -> int:
        return self.source.q

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))


def sum_matrix(
    P: Polynomial, row_points: Sequence[FieldVector], col_points: Sequence[FieldVector]
) -> SumMatrix:
    """Evaluate P on every s + t; entries agree wherever sums agree.

    Distinct sums number at most q^n, so P is evaluated once per sum value
    and the grid is filled by lookup.
    """
    values: dict[FieldVector, int] = {}
    entries = []
    for s in row_points:
        row = []
        for t in col_points:
            w = s + t
            v = values.get(w)
            if v is None:
                v = eval_poly(P, w)
                values[w] = v
            row.append(v)
        entries.append(tuple(row))
    return SumMatrix(tuple(row_points), tuple(col_points), tuple(entries), P)


@dataclass(frozen=True)
class ClpCertificate:
    """A rank-one expansion of a sum matrix with few terms.

    left_factors: pairs (row factor, column factor) whose row factor is a
    single monomial of total degree <= split; right_factors symmetrically
    anchor a low-degree monomial on the column side.  The total number of
    rank-one terms bounds the matrix rank.
    """

    q: int
    n: int
    degree: int
    split: int
    left_factors: tuple[tuple[Polynomial, Polynomial], ...]
    right_factors: tuple[tuple[Polynomial, Polynomial], ...]
    term_count: int


def clp_decompose(P: Polynomial, degree: int) -> ClpCertificate:
    """Split P(x + y) into rank-one terms with one low-degree side each.

    Every expansion term x^a y^b with |a| <= floor(d/2) joins a group keyed
    by a (row anchored); the rest necessarily have |b| <= floor(d/2) and are
    grouped by b (column anchored).  Group counts never exceed
    m(q, n, floor(d/2)) per side.
    """
    if poly_degree(P) > degree:
        raise DegreeTooHigh(
            f"polynomial of total degree {poly_degree(P)} exceeds budget {degree}"
        )
    q, n = P.q, P.n
    split = degree // 2
    left: dict[Monomial, dict[Monomial, int]] = {}
    right: dict[Monomial, dict[Monomial, int]] = {}
    for full, coeff in P.terms.items():
        for row_part in itertools.product(*(range(e + 1) for e in full)):
            mult = 1
            for e, r in zip(full, row_part):
                mult = (mult * math.comb(e, r)) % q
            if mult == 0:
                continue
            col_part = tuple(e - r for e, r in zip(full, row_part))
            w = (coeff * mult) % q
            if sum(row_part) <= split:
                group = left.setdefault(row_part, {})
                group[col_part] = (group.get(col_part, 0) + w) % q
            else:
                group = right.setdefault(col_part, {})
                group[row_part] = (group.get(row_part, 0) + w) % q

    def _factors(groups: dict[Monomial, dict[Monomial, int]], row_anchored: bool):
        out = []
        for anchor in sorted(groups, key=monomial_key):
            cofactor = poly_from_terms(q, n, groups[anchor])
            if not cofactor.terms:
                continue
            anchor_poly = monomial_poly(q, n, anchor)
            if row_anchored:
                out.append((anchor_poly, cofactor))
            else:
                out.append((cofactor, anchor_poly))
        return tuple(out)

    left_factors = _factors(left, row_anchored=True)
    right_factors = _factors(right, row_anchored=False)
    term_count = len(left_factors) + len(right_factors)
    budget = 2 * count_m(q, n, split)
    if term_count > budget:
        raise BoundViolated(f"{term_count} rank-one terms exceed 2*m(q, n, {split}) = {budget}")
    return ClpCertificate(q, n, degree, split, left_factors, right_factors, term_count)


def clp_reconstruct(
    cert: ClpCertificate,
    row_points: Sequence[FieldVector],
    col_points: Sequence[FieldVector],
) -> Entries:
    """Sum the certificate's rank-one terms back into a full matrix."""
    q = cert.q
    factors = cert.left_factors + cert.right_factors
    row_vals = [[eval_poly(f, s) for s in row_points] for f, _ in factors]
    col_vals = [[eval_poly(g, t) for t in col_points] for _, g in factors]
    return tuple(
        tuple(
            sum(rv[i] * cv[j] for rv, cv in zip(row_vals, col_vals)) % q
            for j in range(len(col_points))
        )
        for i in range(len(row_points))
    )
