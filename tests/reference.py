"""Reference paths: per-cell sum matrices, the rank audit, and pivots.

The library keeps polynomials as coefficient rows over the graded monomial
list and reads the pivot positions off one elimination of a table at the
distinct sums: the vanishing basis rows or the dual Reed-Muller code,
whichever has fewer rows (`sumsetcover.vanishing.sum_pivots`).  Its only code
that builds a sum matrix, or rebuilds one from its expansion, is the
table-driven audit on those rows (`sumsetcover.summatrix.rank_audit` for
--certify-rank, which checks each monomial's expansion once), with monomials
numbered by their place in the graded list.  This module keeps the direct
constructions for the tests to check them against, on Polynomial term
maps (the basis read with `polys_from_rows` below): `eval_poly` once per
distinct sum of each matrix, the expansion of P(x + y) through
`poly_from_terms` (and term by term of each P, with no expansion shared
across polynomials), `eval_poly` once per factor and point for the rebuild,
and the |S| x |T| sum matrix of every basis polynomial eliminated in input
order until their row-major first nonzero positions are pairwise distinct.
It also keeps a recursive Hopcroft-Karp matching and the line cover built
from it by a separate breadth-first Koenig pass.  `sumsetcover.cover`
replaces both by one alternating-path search: its augmenting-path matching
may differ from Hopcroft-Karp's, but the Koenig cover is the same for every
maximum matching (Dulmage-Mendelsohn), so the covers must be equal.  Last,
the triple loop over index triples that `sumsetcover.oracle.is_matching_sumfree`
replaces by one count of the sums, and the seeded draw of random pairs that
the CLI's trials and scripts/bound_slack.py each wrote out before
`sumsetcover.field.random_pairs`.  And the verifier, greedy cover and
exhaustive oracle on `sumsetcover.field.sumset` and FieldVector sums
(`verify_decomposition_sumset`, `greedy_decomposition_sumset`,
`oracle_min_decomposition_sumset`), which the library's versions replaced
by sums and lines of coordinate tuples.  And a per-entry Gauss-Jordan
elimination (`gauss_jordan`) and its canonical kernel (`kernel_basis`),
which share no code with `sumsetcover.linalg`, for the elimination in
every format to be checked against.  And the recursive enumeration of
exponent tuples (`tuples_of_degree`) that `sumsetcover.monomials` replaced
by a level-by-level build.  Only tests use it.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from typing import Iterator, NamedTuple, Sequence

import sumsetcover as sc
from sumsetcover.errors import BoundViolated, DegreeTooHigh, SearchTooLarge
from sumsetcover.monomials import Monomial, count_m, monomial_key
from sumsetcover.summatrix import ClpCertificate, Polynomial, poly_degree

Grid = tuple[tuple[int, ...], ...]


def polys_from_rows(
    q: int, n: int, monos: Sequence[Monomial], rows: Sequence[Sequence[int]]
) -> tuple[sc.Polynomial, ...]:
    """One Polynomial per coefficient row over the monomial columns."""
    return tuple(sc.poly_from_terms(q, n, dict(zip(monos, row))) for row in rows)


def sum_grid(
    P: sc.Polynomial, row_points: Sequence[sc.FieldVector], col_points: Sequence[sc.FieldVector]
) -> Grid:
    """P(s + t) cell by cell, `eval_poly` once per distinct sum."""
    values: dict[sc.FieldVector, int] = {}
    entries = []
    for s in row_points:
        row = []
        for t in col_points:
            w = s + t
            if w not in values:
                values[w] = sc.eval_poly(P, w)
            row.append(values[w])
        entries.append(tuple(row))
    return tuple(entries)


def clp_decompose(P: sc.Polynomial, degree: int) -> sc.ClpCertificate:
    """The rank-one split of P(x + y), term by term with `poly_from_terms`."""
    if sc.poly_degree(P) > degree:
        raise sc.DegreeTooHigh(
            f"polynomial of total degree {sc.poly_degree(P)} exceeds budget {degree}"
        )
    q, n = P.q, P.n
    split = degree // 2
    left: dict = {}
    right: dict = {}
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

    def factors(groups: dict, row_anchored: bool):
        out = []
        for anchor in sorted(groups, key=monomial_key):
            cofactor = sc.poly_from_terms(q, n, groups[anchor])
            if not cofactor.terms:
                continue
            anchor_poly = sc.poly_from_terms(q, n, {anchor: 1})
            out.append((anchor_poly, cofactor) if row_anchored else (cofactor, anchor_poly))
        return tuple(out)

    lf, rf = factors(left, True), factors(right, False)
    return sc.ClpCertificate(q, n, degree, split, lf, rf, len(lf) + len(rf))


def clp_decompose_per_polynomial(P: sc.Polynomial, degree: int) -> sc.ClpCertificate:
    """The rank-one split of P(x + y), each term of P expanded afresh.

    The library's split before it expanded each monomial once per audit,
    kept as it was.
    """
    if poly_degree(P) > degree:
        raise DegreeTooHigh(
            f"polynomial of total degree {poly_degree(P)} exceeds budget {degree}"
        )
    q, n = P.q, P.n
    split = degree // 2
    left: dict[Monomial, dict[Monomial, int]] = {}
    right: dict[Monomial, dict[Monomial, int]] = {}
    top = max(map(max, P.terms), default=0)
    binoms = [tuple(math.comb(e, r) for r in range(e + 1)) for e in range(top + 1)]
    for full, coeff in P.terms.items():
        # row parts a, their column parts full - a, and the binomials, in step
        ranges = [range(e + 1) for e in full]
        for a, b, cs in zip(
            itertools.product(*ranges),
            itertools.product(*[r[::-1] for r in ranges]),
            itertools.product(*[binoms[e] for e in full]),
        ):
            w = coeff * math.prod(cs) % q
            if not w:
                continue
            # a and b determine full = a + b, so no pair is met twice
            if sum(a) <= split:
                left.setdefault(a, {})[b] = w
            else:
                right.setdefault(b, {})[a] = w

    def _factors(groups: dict[Monomial, dict[Monomial, int]], row_anchored: bool):
        out = []
        for anchor in sorted(groups, key=monomial_key):
            cofactor, anchor_poly = Polynomial(q, n, groups[anchor]), Polynomial(q, n, {anchor: 1})
            out.append((anchor_poly, cofactor) if row_anchored else (cofactor, anchor_poly))
        return tuple(out)

    left_factors = _factors(left, row_anchored=True)
    right_factors = _factors(right, row_anchored=False)
    term_count = len(left_factors) + len(right_factors)
    budget = 2 * count_m(q, n, split)
    if term_count > budget:
        raise BoundViolated(f"{term_count} rank-one terms exceed 2*m(q, n, {split}) = {budget}")
    return ClpCertificate(q, n, degree, split, left_factors, right_factors, term_count)


def clp_reconstruct(
    cert: sc.ClpCertificate,
    row_points: Sequence[sc.FieldVector],
    col_points: Sequence[sc.FieldVector],
) -> Grid:
    """Sum the rank-one terms cell by cell, `eval_poly` once per factor and point."""
    q = cert.q
    factors = cert.left_factors + cert.right_factors
    row_vals = [[sc.eval_poly(f, s) for s in row_points] for f, _ in factors]
    col_vals = [[sc.eval_poly(g, t) for t in col_points] for _, g in factors]
    return tuple(
        tuple(
            sum(rv[i] * cv[j] for rv, cv in zip(row_vals, col_vals)) % q
            for j in range(len(col_points))
        )
        for i in range(len(row_points))
    )


class MatrixAudit(NamedTuple):
    entries: Grid
    rebuilt: Grid
    rank: int
    term_count: int


def audit_matrices(
    polys: Sequence[sc.Polynomial],
    degree: int,
    row_points: Sequence[sc.FieldVector],
    col_points: Sequence[sc.FieldVector],
) -> list[MatrixAudit]:
    """Per polynomial: its sum matrix, the certificate's rebuild, rank and term count."""
    out = []
    for P in polys:
        entries = sum_grid(P, row_points, col_points)
        cert = clp_decompose(P, degree)
        rank = sc.matrix_rank([list(r) for r in entries], P.q)
        rebuilt = clp_reconstruct(cert, row_points, col_points)
        out.append(MatrixAudit(entries, rebuilt, rank, cert.term_count))
    return out


def first_nonzero_position(entries: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Row-major first nonzero coordinate; ValueError for the zero matrix."""
    for i, row in enumerate(entries):
        for j, v in enumerate(row):
            if v:
                return (i, j)
    raise ValueError("the zero matrix has no pivot position")


def pivot_basis(
    grids: Sequence[Sequence[Sequence[int]]], q: int
) -> tuple[tuple[Grid, ...], tuple[tuple[int, int], ...]]:
    """Eliminate matrices over F_q to pairwise distinct row-major pivots.

    Matrices are processed in input order.  On a pivot collision the earlier
    output, scaled by the colliding entry, is subtracted until a fresh pivot
    appears; each output is scaled to a pivot entry of 1.  Returns the
    eliminated matrices and their pivots, in input order.  A matrix that
    eliminates to zero means the input is linearly dependent: ValueError.
    """
    taken: dict[tuple[int, int], Grid] = {}
    out: list[Grid] = []
    pivots: list[tuple[int, int]] = []
    for grid in grids:
        work = [[v % q for v in row] for row in grid]
        while True:
            try:
                pos = first_nonzero_position(work)
            except ValueError:
                raise ValueError("dependent input: a matrix eliminated to zero") from None
            if pos not in taken:
                break
            factor = work[pos[0]][pos[1]]
            for wrow, prow in zip(work, taken[pos]):
                wrow[:] = [(w - factor * p) % q for w, p in zip(wrow, prow)]
        inv = pow(work[pos[0]][pos[1]], -1, q)
        reduced = tuple(tuple((inv * v) % q for v in row) for row in work)
        taken[pos] = reduced
        out.append(reduced)
        pivots.append(pos)
    return tuple(out), tuple(pivots)


def reference_pivots(
    space: sc.PolySubspace,
    s_ord: Sequence[sc.FieldVector],
    t_ord: Sequence[sc.FieldVector],
) -> set[tuple[int, int]]:
    """Pivot positions of the span of the basis sum matrices, the direct way."""
    basis = polys_from_rows(space.q, space.n, space.monos, space.rows)
    grids = [sum_grid(P, s_ord, t_ord) for P in basis]
    return set(pivot_basis(grids, space.q)[1])


def maximum_matching_recursive(adj: dict[int, Sequence[int]]) -> dict[int, int]:
    """Hopcroft-Karp with a recursive depth-first search, left sorted, edges as given."""
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

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = match_r.get(v)
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in lefts:
            if u not in match_l:
                dfs(u)
    return match_l


def line_cover_hopcroft_karp(pivots) -> sc.LineCover:
    """Minimum line cover from the Hopcroft-Karp matching and a Koenig BFS.

    The rows not reached and the columns reached, breadth first, along
    alternating paths from the unmatched rows; rows sorted, edges ascending.
    """
    pts = sorted(set(pivots))
    adj: dict[int, list[int]] = {}
    for i, j in pts:
        adj.setdefault(i, []).append(j)
    match_l = maximum_matching_recursive(adj)
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
    return sc.LineCover(
        tuple(sorted(u for u in adj if u not in reach_l)), tuple(sorted(reach_r))
    )


def is_matching_sumfree_triples(fam: sc.OrderedPairFamily) -> bool:
    """s_i + t_i = s_j + t_k forces (j, k) = (i, i), over every index triple."""
    s, t = fam.s_order, fam.t_order
    N = len(fam)
    for i in range(N):
        diag = s[i] + t[i]
        for j in range(N):
            for k in range(N):
                if (j, k) != (i, i) and s[j] + t[k] == diag:
                    return False
    return True


def random_pairs(
    q: int, n: int, count: int, seed: int, p: float
) -> list[tuple[sc.PointSet, sc.PointSet]]:
    """The trials loop: one Random(seed); per trial every point in canonical
    order joins S with probability p, then every point joins T."""
    rng = random.Random(seed)
    points = sc.all_points(q, n).ordered()
    pairs = []
    for _ in range(count):
        s_members = [v for v in points if rng.random() < p]
        t_members = [v for v in points if rng.random() < p]
        pairs.append((sc.PointSet.from_vectors(q, n, s_members),
                      sc.PointSet.from_vectors(q, n, t_members)))
    return pairs


def verify_decomposition_sumset(
    S: sc.PointSet, T: sc.PointSet, s_witness: sc.PointSet, t_witness: sc.PointSet
) -> bool:
    """Containment, then (s* + T) union (S + t*) == S + T by field.sumset."""
    S._check_compatible(T)
    s_witness._check_compatible(S)
    t_witness._check_compatible(T)
    if not s_witness.issubset(S) or not t_witness.issubset(T):
        return False
    covered = sc.sumset(s_witness, T).union(sc.sumset(S, t_witness))
    return covered == sc.sumset(S, T)


def greedy_decomposition_sumset(S: sc.PointSet, T: sc.PointSet) -> tuple[sc.PointSet, sc.PointSet]:
    """Greedy line cover on FieldVector lines: rows {s} + T then columns
    S + {t}, canonical order; the most uncovered sums win, the earliest line
    on ties."""
    S._check_compatible(T)
    q, n = S.q, S.n
    remaining = set(sc.sumset(S, T).members)
    lines = [("row", s, frozenset(s + t for t in T.members)) for s in S.ordered()]
    lines += [("col", t, frozenset(s + t for s in S.members)) for t in T.ordered()]
    picked_s: list[sc.FieldVector] = []
    picked_t: list[sc.FieldVector] = []
    while remaining:
        best, best_gain = None, 0
        for kind, point, line in lines:
            gain = len(line & remaining)
            if gain > best_gain:
                best, best_gain = (kind, point, line), gain
        if best is None:
            raise BoundViolated("a remaining sum lies on no line")
        kind, point, line = best
        (picked_s if kind == "row" else picked_t).append(point)
        remaining -= line
    return sc.PointSet.from_vectors(q, n, picked_s), sc.PointSet.from_vectors(q, n, picked_t)


def oracle_min_decomposition_sumset(
    S: sc.PointSet, T: sc.PointSet, *, search_cap: int = 16
) -> sc.OracleResult:
    """Exhaustive search on FieldVector lines against field.sumset: totals
    ascending, fewer points from S first, subsets in lexicographic order."""
    S._check_compatible(T)
    if len(S) + len(T) > search_cap:
        raise SearchTooLarge(f"|S| + |T| = {len(S) + len(T)} exceeds search cap {search_cap}")
    q, n = S.q, S.n
    target = sc.sumset(S, T).members
    s_list, t_list = S.ordered(), T.ordered()
    row_sums = {s: frozenset(s + t for t in t_list) for s in s_list}
    col_sums = {t: frozenset(s + t for s in s_list) for t in t_list}
    for total in range(len(S) + len(T) + 1):
        for k in range(total + 1):
            if k > len(s_list) or total - k > len(t_list):
                continue
            for s_sub in itertools.combinations(s_list, k):
                got_rows = frozenset().union(*(row_sums[s] for s in s_sub))
                for t_sub in itertools.combinations(t_list, total - k):
                    if got_rows.union(*(col_sums[t] for t in t_sub)) == target:
                        return sc.OracleResult(
                            sc.PointSet.from_vectors(q, n, s_sub), sc.PointSet.from_vectors(q, n, t_sub), total
                        )
    raise BoundViolated("(S, T) itself always covers, yet no cover was found")


def gauss_jordan(rows: Sequence[Sequence[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_q, one entry at a time, with no code of
    sumsetcover.linalg: for each column, the first row at or below the next
    pivot row with a nonzero entry there is swapped up and scaled to 1, and
    its multiple is subtracted from every other row, above it and below.
    Returns (the nonzero rows, pivot columns)."""
    m = [[v % q for v in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        found = [i for i in range(r, len(m)) if m[i][c]]
        if not found:
            continue
        m[r], m[found[0]] = m[found[0]], m[r]
        inv = pow(m[r][c], -1, q)
        m[r] = [inv * v % q for v in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int, q: int) -> list[list[int]]:
    """The canonical null-space basis of the ncols-column rows, from
    gauss_jordan: one vector per free column, ascending, with 1 there, 0 at
    the other free columns and the negated reduced entry at each pivot."""
    reduced, pivots = gauss_jordan(rows, q)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            v = [0] * ncols
            v[free] = 1
            for row, p in zip(reduced, pivots):
                v[p] = -row[free] % q
            basis.append(v)
    return basis


def tuples_of_degree(n: int, e: int, cap_exp: int) -> Iterator[Monomial]:
    """Exponent tuples of length n summing to e, entries <= cap_exp, by
    recursion on the first coordinate, which descends, so a fixed degree
    comes out in canonical order (monomial_key)."""
    if n == 0:
        if e == 0:
            yield ()
        return
    lo = max(0, e - cap_exp * (n - 1))
    for first in range(min(e, cap_exp), lo - 1, -1):
        for rest in tuples_of_degree(n - 1, e - first, cap_exp):
            yield (first,) + rest


def monomials_recursive(q: int, n: int, d: int) -> list[Monomial]:
    """The reduced monomials of degree <= d, one tuples_of_degree per degree."""
    return [m for e in range(min(d, (q - 1) * n) + 1) for m in tuples_of_degree(n, e, q - 1)]
