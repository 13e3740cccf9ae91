"""Pivot positions of the sum-matrix span, and minimum line covers.

Two steps feed the witness construction.  First, the row-major pivot
positions of the span of the sum matrices (P(s_i + t_j)) over the vanishing
basis: the pivot columns of W = V|_A, A = S+T in the order of field.sum_index
and V the degree-<= d polynomials vanishing off A.  W is RM_q(d, n) shortened
to A, so its dual is RM_q(d', n) punctured to A, d' = n(q-1) - d - 1
(Kasami-Lin-Peterson 1968; Delsarte-Goethals-MacWilliams 1970).  Of the two
tables with those pivots, the one with fewer rows is eliminated by
linalg.rref: the basis rows evaluated at A (dim rows, few at low degree),
or the m_{d'} = q^n - m_d monomials of degree <= d' at A, sums reversed, whose
information set taken greedily from the last sum the pivots avoid (few at
the high degrees choose_degree picks).  No |S| x |T| matrix is built.
Second, the pivot positions are covered by as few lines (full rows or
columns) as possible: a maximum bipartite matching by augmenting paths, then
the Koenig construction turns it into a minimum vertex cover of the same
size; one alternating-path search serves both.  That cover is the same for
every maximum matching (Dulmage-Mendelsohn), so which matching is found does
not change it.  When every matrix in the span has rank at most r, the
minimum cover provably has size at most r, so exceeding a supplied rank
budget is reported as a bug, not as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import BoundViolated
from .linalg import evaluate_rows, monomial_table, rref
from .monomials import enumerate_monomials
from .vanishing import PolySubspace


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


def _alternating_search(
    adj: Mapping[int, Sequence[int]], match_r: Mapping[int, int], roots: Iterable[int]
) -> tuple[int | None, dict[int, int]]:
    """Breadth-first search along alternating paths from the left roots.

    A row leads to every column in its adjacency list, a matched column
    only to its partner row, and each column is entered once.  Returns the
    first unmatched column reached (None when every reached column is
    matched) and, per reached column, the row it was reached from.  The
    rows to visit are a list that grows as it is read, so a long path
    needs no recursion.
    """
    came_from: dict[int, int] = {}
    rows = list(roots)
    for u in rows:
        for v in adj[u]:
            if v in came_from:
                continue
            came_from[v] = u
            w = match_r.get(v)
            if w is None:
                return v, came_from
            rows.append(w)
    return None, came_from


def maximum_matching(adj: Mapping[int, Sequence[int]]) -> dict[int, int]:
    """Maximum matching by augmenting paths, left index -> right index.

    Each left vertex in sorted order searches for an augmenting path, its
    adjacency list traversed as given, and the path found is flipped, so
    the matching is reproducible.
    """
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    for u in sorted(adj):
        v, came_from = _alternating_search(adj, match_r, (u,))
        while v is not None:
            w = came_from[v]
            prev = match_l.get(w)
            match_l[w], match_r[v] = v, w
            v = prev
    return match_l


@dataclass(frozen=True)
class LineCover:
    """Rows and columns jointly containing every covered position."""

    cover_rows: tuple[int, ...]
    cover_cols: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.cover_rows) + len(self.cover_cols)


def line_cover(pivots: Iterable[tuple[int, int]], rank_bound: int) -> LineCover:
    """Minimum set of lines covering the given positions.

    A maximum matching, then the Koenig construction: the rows that are not
    reached and the columns that are reached along alternating paths from
    the unmatched rows.  The cover size equals the matching size.  A result
    above rank_bound is impossible when rank_bound really bounds every rank
    in the generating subspace, so it raises BoundViolated to flag an
    upstream bug.
    """
    pts = sorted(set(pivots))
    adj: dict[int, list[int]] = {}
    for i, j in pts:
        adj.setdefault(i, []).append(j)
    match_l = maximum_matching(adj)
    match_r = {v: u for u, v in match_l.items()}

    free_rows = [u for u in adj if u not in match_l]
    free_col, came_from = _alternating_search(adj, match_r, free_rows)
    if free_col is not None:
        raise BoundViolated(
            f"column {free_col} is reachable from an unmatched row: the matching is not maximum"
        )
    reach_l = set(free_rows).union(match_r[v] for v in came_from)
    cover_rows = tuple(u for u in adj if u not in reach_l)
    cover_cols = tuple(sorted(came_from))
    cover = LineCover(cover_rows, cover_cols)
    if cover.size != len(match_l):
        raise BoundViolated(f"Koenig cover {cover.size} differs from matching {len(match_l)}")
    row_set, col_set = set(cover_rows), set(cover_cols)
    if not all(i in row_set or j in col_set for i, j in pts):
        raise BoundViolated("line cover misses a pivot position")
    if cover.size > rank_bound:
        raise BoundViolated(
            f"minimum line cover {cover.size} exceeds rank bound {rank_bound}"
        )
    return cover
