"""Pivot positions of the sum-matrix span, and minimum line covers.

Two steps feed the witness construction.  First, the row-major pivot
positions of the span of the sum matrices (P(s_i + t_j)) over the vanishing
basis are read off one elimination of the basis evaluated once per distinct
sum, at the keys of field.sum_index; no |S| x |T| matrix is built and
S x T is not enumerated again.  The table of values comes from
polynomials.value_table: each distinct monomial of the basis evaluated
once at the keys, its rows combined by the coefficients (packed, without
`pow`, at q = 3).  It goes to linalg.rref.  Second, the pivot positions are
covered by as few lines (full rows or columns) as possible: a maximum bipartite
matching via Hopcroft-Karp, then the Koenig construction turns it into a
minimum vertex cover of the same size.  When every matrix in the span
has rank at most r, the minimum cover provably has size at most r, so
exceeding a supplied rank budget is reported as a bug, not as data.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import BoundViolated
from .linalg import rref
from .polynomials import value_table
from .vanishing import PolySubspace


def sum_pivots(
    space: PolySubspace, index: Mapping[tuple[int, ...], tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """Row-major pivot positions of the span of the basis sum matrices.

    `index` is field.sum_index(S, T): each sum's coordinates mapped to its
    first row-major (i, j), keys in order of first occurrence.  The sum
    matrix of P holds P(s_i + t_j) at (i, j), so its row-major first nonzero
    sits at the first occurrence of the first sum, in that order, where P is
    nonzero.  The pivot positions of the span are therefore the pivot
    columns of the reduced row echelon form of the dim x |S+T| table of
    basis values at the keys, mapped back to their first (i, j).  Pivot
    sets do not depend on the basis, and a nonzero reduced polynomial
    vanishing off S+T is nonzero somewhere on S+T, so there is one pivot per
    basis polynomial.  Returned sorted.
    """
    _, pivot_cols = rref(value_table(space.basis, list(index), space.q), space.q)
    if len(pivot_cols) != space.dim:
        raise BoundViolated(
            f"{len(pivot_cols)} pivots for a vanishing space of dimension {space.dim}"
        )
    positions = list(index.values())
    return tuple(sorted(positions[c] for c in pivot_cols))


def maximum_matching(adj: Mapping[int, Sequence[int]]) -> dict[int, int]:
    """Hopcroft-Karp maximum matching, left index -> right index.

    Left vertices are visited in sorted order and adjacency lists are
    traversed as given, so the matching is reproducible.
    """
    INF = -1
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    lefts = sorted(adj)
    dist: dict[int, int] = {}

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in lefts:
            if u not in match_l:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r.get(v)
                if w is None:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def augment(root: int) -> None:
        # depth-first along the BFS layers on an explicit stack, so a long
        # path stays within the recursion limit; path[k] leaves stack[k]
        stack, path = [(root, iter(adj[root]))], []
        while stack:
            u, edges = stack[-1]
            for v in edges:
                w = match_r.get(v)
                if w is None or dist[w] == dist[u] + 1:
                    path.append(v)
                    if w is None:
                        for (x, _), y in zip(stack, path):
                            match_l[x], match_r[y] = y, x
                        return
                    stack.append((w, iter(adj[w])))
                    break
            else:
                dist[u] = INF
                stack.pop()
                if path:
                    path.pop()

    while bfs():
        for u in lefts:
            if u not in match_l:
                augment(u)
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

    Maximum matching plus the Koenig alternating-reachability construction;
    the cover size equals the matching size.  A result above rank_bound is
    impossible when rank_bound really bounds every rank in the generating
    subspace, so it raises BoundViolated to flag an upstream bug.
    """
    pts = sorted(set(pivots))
    adj: dict[int, list[int]] = {}
    for i, j in pts:
        adj.setdefault(i, []).append(j)
    for i in adj:
        adj[i].sort()
    match_l = maximum_matching(adj)
    match_r = {v: u for u, v in match_l.items()}

    reach_l = {u for u in adj if u not in match_l}
    reach_r: set[int] = set()
    frontier = sorted(reach_l)
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in adj[u]:
                if v in reach_r:
                    continue
                reach_r.add(v)
                w = match_r.get(v)
                if w is not None and w not in reach_l:
                    reach_l.add(w)
                    nxt.append(w)
        frontier = sorted(nxt)

    cover_rows = tuple(sorted(u for u in adj if u not in reach_l))
    cover_cols = tuple(sorted(reach_r))
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
