"""The space of low-degree polynomials that vanish off a set.

Given a set A (the pipeline passes A = S+T) and a total-degree budget d,
the space collects every reduced polynomial of total degree <= d that is
zero at each point outside A.  Each complement point contributes one linear
constraint on the coefficient vector, so a canonical basis falls out of an
exact null-space computation: the constraint matrix has one row per
complement point and one column per monomial of degree <= d.  Its null
space has dimension at least

    (number of monomials of degree <= d) - q^n + |A|,

the counting fact the witness construction leans on.  Its rows are the
points of itertools.product(range(q), repeat=n) whose coordinate tuples are
not in A, in that (lexicographic) order: no point is built as a FieldVector
and field.complement is not called, and q^n above the cap is refused before
any point is listed.  vanishing_space takes the constraint rows themselves:
run_pipeline passes the points of its pairing of codes with F_q^n
(field.Lanes.points) whose codes are not keys of the coded sum index, so no
PointSet of S+T is built; build_vanishing_space lists them for a PointSet.
The constraint matrix comes from linalg.monomial_table (a row per point),
the one builder of monomial tables, in whatever format linalg chose.
build_vanishing_space runs its forward elimination once (linalg.echelon, no
back-substitution, as in the PLE decomposition of Albrecht, Bard and Pernet,
arXiv:1111.6549) and keeps it: dim is m_d minus its pivot count, which is
all the pipeline reads.  The basis is built from the kept echelon form on
the first read of PolySubspace.rows (linalg.kernel: back-substitution, then
the kernel read off the reduced rows), by the primal pivot stage and the
rank audit (summatrix); on the dual route nothing reads it.  Its rows are
coefficient rows over the monomials, and nothing here builds a
summatrix.Polynomial.

`sum_pivots` gives the row-major pivot positions of the span of the sum
matrices (P(s_i + t_j)) over the basis: the pivot columns of W = V|_A for
A = S+T in field.sum_index order.  W is RM_q(d, n) shortened to A, so its
dual is RM_q(d', n) punctured to A, d' = n(q-1) - d - 1 (Kasami-Lin-Peterson
1968; Delsarte-Goethals-MacWilliams 1970).  linalg.pivot_columns takes
those pivots by forward elimination alone, with no back-substitution, from
the smaller of two tables: the basis at A (dim rows, few at low degree) or
the m_{d'} = q^n - m_d monomials of degree <= d' at A, sums reversed, whose
information set taken greedily from the last sum the pivots avoid (few at
the degrees choose_degree picks).  No |S| x |T| matrix is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .field import DEFAULT_ENUM_CAP, PointSet, check_enumeration_cap
from .linalg import Echelon, echelon, evaluate_rows, kernel, monomial_table, pivot_columns
from .monomials import Monomial, enumerate_monomials


@dataclass(frozen=True)
class PolySubspace:
    """The degree-<= d polynomials vanishing off a set of points, kept as the
    forward elimination of their constraint table (a row per point off the
    set, a column per monomial of `monos`, in graded order).

    `dim` is the number of free columns, m_d minus the constraint rank.
    `rows`, a basis of coefficient rows over `monos`, is read off
    `constraints` on first use and kept.  Two spaces are equal when their
    fields are, the eliminated constraints among them."""

    q: int
    n: int
    degree: int
    monos: tuple[Monomial, ...]
    dim: int
    constraints: Echelon = field(repr=False)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, kernel(self.constraints)))

    @property
    def ambient_dim(self) -> int:
        return len(self.monos)


def build_vanishing_space(
    sums: PointSet, degree: int, *, cap: int = DEFAULT_ENUM_CAP
) -> PolySubspace:
    """The degree-<= d polynomials vanishing off sums: one forward
    elimination of the constraint table gives dim; the canonical basis, one
    row per free monomial column, comes from its back-substitution when
    something reads `rows`, so repeated runs agree exactly.
    """
    q, n = sums.q, sums.n
    check_enumeration_cap(q, n, cap)
    inside = {v.coords for v in sums.members}
    outside = [p for p in itertools.product(range(q), repeat=n) if p not in inside]
    return vanishing_space(q, n, outside, degree, cap=cap)


def vanishing_space(
    q: int, n: int, outside: Sequence[tuple[int, ...]], degree: int, *, cap: int = DEFAULT_ENUM_CAP
) -> PolySubspace:
    """build_vanishing_space on its constraint rows: `outside` is the
    coordinate tuples of the points off the set, in lexicographic order
    (run_pipeline reads them off its pairing of codes with points, which
    refuses q^n above the cap before listing them)."""
    monos = enumerate_monomials(q, n, degree, cap=cap)
    table = monomial_table(monos, outside, q, by_point=True)
    constraints = echelon(table, len(monos), q)
    return PolySubspace(q, n, degree, tuple(monos), len(monos) - len(constraints.pivots), constraints)


def sum_pivots(
    space: PolySubspace, index: Mapping[tuple[int, ...], tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """Row-major pivot positions of the span of the basis sum matrices.

    `index` is field.sum_index(S, T): each sum's coordinates mapped to its
    first row-major (i, j), keys in order of first occurrence.  The pivots
    are the pivot columns of the basis values at the keys, each mapped to
    its first (i, j), from primal_pivot_columns or dual_pivot_columns,
    whichever table has fewer rows.  They are those of
    build_vanishing_space(keys, space.degree): the dual stage reads only
    space.q, n and degree, and neither stage checks that the pivots number
    space.dim (run_pipeline does).  Returned sorted.
    """
    dual_rows = space.q**space.n - space.ambient_dim
    stage = primal_pivot_columns if space.dim <= dual_rows else dual_pivot_columns
    positions = list(index.values())
    return tuple(sorted(positions[c] for c in stage(space, list(index))))


def primal_pivot_columns(space: PolySubspace, keys: Sequence[Sequence[int]]) -> list[int]:
    """Pivot columns of the basis rows evaluated at the keys (space.dim rows)."""
    return pivot_columns(evaluate_rows(space.monos, space.rows, keys, space.q), space.q)


def dual_pivot_columns(space: PolySubspace, keys: Sequence[Sequence[int]]) -> list[int]:
    """The keys where no word of the dual code (the m_{d'} degree-<= d'
    monomials at the keys) has its last nonzero; all keys when d' < 0."""
    q, n = space.q, space.n
    dual_degree = n * (q - 1) - space.degree - 1
    monos = enumerate_monomials(q, n, dual_degree, cap=q**n) if dual_degree >= 0 else []
    cols = pivot_columns(monomial_table(monos, keys[::-1], q), q)
    dual_info = {len(keys) - 1 - c for c in cols}
    return [c for c in range(len(keys)) if c not in dual_info]
