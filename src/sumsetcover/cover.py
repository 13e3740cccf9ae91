"""Maximum bipartite matchings and minimum line covers.

A set of matrix positions is covered by as few lines (full rows or
columns) as possible: a maximum bipartite matching by augmenting paths,
then the Koenig construction turns it into a minimum vertex cover of the
same size; one alternating-path search serves both.  That cover is the same
for every maximum matching (Dulmage-Mendelsohn), so which matching is found
does not change it.  When the positions are the pivots of a span of
matrices of rank at most r, the minimum cover provably has size at most r,
so exceeding a supplied rank budget is reported as a bug, not as data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import BoundViolated


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
