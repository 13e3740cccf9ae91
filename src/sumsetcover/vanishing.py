"""The space of low-degree polynomials that vanish off a set.

Given a set A (the pipeline passes A = S+T) and a total-degree budget d,
the space collects every reduced polynomial of total degree <= d that is
zero at each point outside A.  Each complement point contributes one linear
constraint on the coefficient vector, so a canonical basis falls out of an
exact null-space computation: the constraint matrix has one row per
complement point and one column per monomial of degree <= d.  Its null
space has dimension at least

    (number of monomials of degree <= d) - q^n + |A|,

the counting fact the witness construction leans on.  The constraint matrix
comes from linalg.monomial_table (a row per point), the one builder of
monomial tables, and its null space from linalg.null_space, in whatever
format linalg chose.  The basis is those kernel rows, coefficient rows over
the monomials; the pipeline and the rank audit (summatrix) read them as
such, and nothing here builds a summatrix.Polynomial.

`sum_pivots` gives the row-major pivot positions of the span of the sum
matrices (P(s_i + t_j)) over the basis: the pivot columns of W = V|_A for
A = S+T in field.sum_index order.  W is RM_q(d, n) shortened to A, so its
dual is RM_q(d', n) punctured to A, d' = n(q-1) - d - 1 (Kasami-Lin-Peterson
1968; Delsarte-Goethals-MacWilliams 1970).  linalg.rref eliminates the
smaller of two tables with those pivots: the basis at A (dim rows, few at
low degree) or the m_{d'} = q^n - m_d monomials of degree <= d' at A, sums
reversed, whose information set taken greedily from the last sum the pivots
avoid (few at the degrees choose_degree picks).  No |S| x |T| matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .field import DEFAULT_ENUM_CAP, PointSet, complement
from .linalg import evaluate_rows, monomial_table, null_space, rref
from .monomials import Monomial, enumerate_monomials


@dataclass(frozen=True)
class PolySubspace:
    """A basis of the degree-<= d polynomials vanishing off a set of points:
    each of `rows` lists one's coefficients over `monos`, in graded order."""

    q: int
    n: int
    degree: int
    monos: tuple[Monomial, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def ambient_dim(self) -> int:
        return len(self.monos)


def build_vanishing_space(
    sums: PointSet, degree: int, *, cap: int = DEFAULT_ENUM_CAP
) -> PolySubspace:
    """Canonical basis of the degree-<= d polynomials vanishing off sums.

    Basis rows come from the reduced row echelon form of the constraint
    system, one per free monomial column, so repeated runs agree exactly.
    """
    q, n = sums.q, sums.n
    outside = complement(sums, cap=cap).ordered()
    monos = enumerate_monomials(q, n, degree, cap=cap)
    table = monomial_table(monos, [p.coords for p in outside], q, by_point=True)
    rows = tuple(map(tuple, null_space(table, len(monos), q)))
    return PolySubspace(q, n, degree, tuple(monos), rows)


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
    return rref(evaluate_rows(space.monos, space.rows, keys, space.q), space.q)[1]


def dual_pivot_columns(space: PolySubspace, keys: Sequence[Sequence[int]]) -> list[int]:
    """The keys where no word of the dual code (the m_{d'} degree-<= d'
    monomials at the keys) has its last nonzero; all keys when d' < 0."""
    q, n = space.q, space.n
    dual_degree = n * (q - 1) - space.degree - 1
    monos = enumerate_monomials(q, n, dual_degree, cap=q**n) if dual_degree >= 0 else []
    _, cols = rref(monomial_table(monos, keys[::-1], q), q)
    dual_info = {len(keys) - 1 - c for c in cols}
    return [c for c in range(len(keys)) if c not in dual_info]
