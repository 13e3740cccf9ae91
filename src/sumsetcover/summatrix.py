"""Sum-evaluation matrices, their low-rank split certificates, and the audit.

For a polynomial P and ordered point lists (rows from S, columns from T),
the sum matrix holds P(s + t) at position (s, t).  Positions with equal
sums carry equal entries, which is what makes the pivot positions of their
span a function of the distinct sums alone (see cover.sum_pivots).

The rank certificate comes from expanding P(x + y): every product monomial
x^a y^b in the expansion has |a| + |b| <= deg P, so one of the two sides has
total degree <= floor(d/2).  Grouping the expansion by that low-degree side
writes the matrix as a sum of rank-one terms, at most m(q, n, floor(d/2))
anchored on the row side plus as many anchored on the column side.

`audit_matrices`, and `rank_audit` over it for every basis polynomial of a
pipeline run (the CLI's --certify-rank), are the library's only path that
builds a sum matrix or rebuilds one from its certificate.  Every table it
evaluates is rows of distinct monomials (linalg.monomial_table) combined by
coefficients (linalg.combine_rows), in the format linalg alone picks; it
reads rows out with linalg.as_rows and makes tables with linalg.as_table.
The basis polynomials are evaluated once at the distinct sums
(polynomials.value_table), whose grid of sum ids fills each matrix.  A
certificate's factors are combinations of the rows of every monomial of
degree <= d at S and at T, and the matrix it sums to is the product of its
row sides at S with its column sides at T.  The rank is taken on the same
rows.  Each distinct monomial of the basis is expanded into its x^a y^b
terms once per audit, in a table local to that audit, and every
certificate containing it looks them up.  tests/reference.py keeps the
per-cell constructions the audit is checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .decompose import Check, PipelineRun
from .errors import BoundViolated, DegreeTooHigh, DimensionMismatch
from .field import FieldVector
from .linalg import Rows, as_rows, as_table, combine_rows, matrix_rank, monomial_table
from .monomials import Monomial, count_m, enumerate_monomials, monomial_key
from .polynomials import Polynomial, poly_degree, value_table

Coords = tuple[int, ...]


def _coords(q: int, n: int, points: Sequence[FieldVector]) -> list[Coords]:
    """The points' coordinates; DimensionMismatch for a point outside F_q^n."""
    for x in points:
        if x.q != q or x.n != n:
            raise DimensionMismatch(
                f"polynomial over (q={q}, n={n}) evaluated at point over (q={x.q}, n={x.n})"
            )
    return [x.coords for x in points]


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


# (low, high) for one monomial x^full at one (q, split): low holds (a, b, w)
# for the terms w x^a y^b of (x + y)^full with |a| <= split, high holds
# (b, a, w) for the rest, each with its anchor first.
_Split = tuple[Monomial, Monomial, int]
_Splits = tuple[tuple[_Split, ...], tuple[_Split, ...]]


def _expand(full: Monomial, q: int, split: int) -> _Splits:
    """The terms x^a y^b of (x + y)^full whose binomial weight is nonzero mod q.

    a runs over itertools.product order; b = full - a.  A reduced monomial's
    parts are reduced, so they are used without re-checking their exponents.
    """
    ranges = [range(e + 1) for e in full]
    low: list[_Split] = []
    high: list[_Split] = []
    for a, b, cs in zip(
        itertools.product(*ranges),
        itertools.product(*[r[::-1] for r in ranges]),
        itertools.product(*[[math.comb(e, r) for r in range(e + 1)] for e in full]),
    ):
        w = math.prod(cs) % q
        if w:
            if sum(a) <= split:
                low.append((a, b, w))
            else:
                high.append((b, a, w))
    return tuple(low), tuple(high)


@dataclass
class _Expansions:
    """Each monomial's split lists at one (q, split), and its anchors' sort keys."""

    splits: dict[Monomial, _Splits] = field(default_factory=dict)
    keys: dict[Monomial, tuple[int, tuple[int, ...]]] = field(default_factory=dict)


def _group(
    groups: dict[Monomial, dict[Monomial, int]],
    entries: Sequence[_Split],
    coeff: int,
    q: int,
) -> None:
    """Add coeff times each entry (anchor, other, w) to the anchor's cofactor."""
    for anchor, other, w in entries:
        w = coeff * w % q
        if w:
            # the anchor and the other part determine the monomial, so no
            # pair is met twice
            group = groups.get(anchor)
            if group is None:
                groups[anchor] = {other: w}
            else:
                group[other] = w


def clp_decompose(P: Polynomial, degree: int) -> ClpCertificate:
    """Split P(x + y) into rank-one terms with one low-degree side each.

    Every expansion term x^a y^b with |a| <= floor(d/2) joins a group keyed
    by a (row anchored); the rest necessarily have |b| <= floor(d/2) and are
    grouped by b (column anchored).  Group counts never exceed
    m(q, n, floor(d/2)) per side.
    """
    return _certificate(P, degree, _Expansions())


def _certificate(P: Polynomial, degree: int, table: _Expansions) -> ClpCertificate:
    """clp_decompose, looking each monomial's expansion up in `table` first.

    The table must hold expansions at (P.q, degree // 2) only; an audit
    passes one table to every certificate, so each monomial is expanded once.
    """
    if poly_degree(P) > degree:
        raise DegreeTooHigh(
            f"polynomial of total degree {poly_degree(P)} exceeds budget {degree}"
        )
    q, n = P.q, P.n
    split = degree // 2
    splits, keys = table.splits, table.keys
    left: dict[Monomial, dict[Monomial, int]] = {}
    right: dict[Monomial, dict[Monomial, int]] = {}
    for full, coeff in P.terms.items():
        entries = splits.get(full)
        if entries is None:
            entries = splits[full] = _expand(full, q, split)
        _group(left, entries[0], coeff, q)
        _group(right, entries[1], coeff, q)

    def _factors(groups: dict[Monomial, dict[Monomial, int]], row_anchored: bool):
        for anchor in groups:
            if anchor not in keys:
                keys[anchor] = monomial_key(anchor)
        out = []
        for anchor in sorted(groups, key=keys.__getitem__):
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


def _rebuild(
    cert: ClpCertificate,
    index: dict[Monomial, int],
    at_rows: Rows,
    at_cols: Rows,
    nrows: int,
    ncols: int,
) -> Rows:
    """Row i is sum_k f_k(s_i) * (g_k at every t), over the rank-one terms (f_k, g_k).

    Each factor is a combination of the monomial rows at_rows or at_cols
    (indexed by `index`); the result is a linalg table.
    """
    q = cert.q
    factors = cert.left_factors + cert.right_factors

    def side(polys: list[Polynomial], table: Rows, width: int) -> Rows:
        weights = (zip(map(index.__getitem__, f.terms), f.terms.values()) for f in polys)
        return combine_rows(weights, table, width, q)

    row_side = as_rows(side([f for f, _ in factors], at_rows, nrows))
    col_side = side([g for _, g in factors], at_cols, ncols)
    weights = (enumerate([v[i] for v in row_side]) for i in range(nrows))
    return combine_rows(weights, col_side, ncols, q)


@dataclass(frozen=True)
class MatrixAudit:
    """One basis polynomial's sum matrix beside its certificate's rebuild.

    `entries` and `rebuilt` are linalg tables over the column points, both in
    the format linalg picks at q, so equal matrices compare equal.  `rank`
    is the exact rank of `entries`.
    """

    entries: Rows
    rebuilt: Rows
    rank: int
    term_count: int


def audit_matrices(
    polys: Sequence[Polynomial],
    degree: int,
    row_points: Sequence[FieldVector],
    col_points: Sequence[FieldVector],
) -> Iterator[MatrixAudit]:
    """Audit each polynomial's sum matrix in turn, one at a time.

    The polynomials are evaluated together once at the distinct sums; each
    matrix is filled from the grid of sum ids.
    """
    if not polys:
        return
    q, n = polys[0].q, polys[0].n
    for P in polys:
        if (P.q, P.n) != (q, n):
            raise DimensionMismatch(f"polynomial over (q={P.q}, n={P.n}) audited with q={q}, n={n}")
    rows, cols = _coords(q, n, row_points), _coords(q, n, col_points)
    # each cell's sum id; the ids number the distinct sums in row-major order
    ids: dict[Coords, int] = {}
    grid = [
        [ids.setdefault(tuple([(a + b) % q for a, b in zip(s, t)]), len(ids)) for t in cols]
        for s in rows
    ]
    # every factor's monomials have degree <= d; they number at most q^n
    monos = enumerate_monomials(q, n, degree, cap=q**n)
    index = {m: k for k, m in enumerate(monos)}
    at_rows, at_cols = monomial_table(monos, rows, q), monomial_table(monos, cols, q)
    expansions = _Expansions()
    for P, values in zip(polys, as_rows(value_table(polys, list(ids), q))):
        entries = as_table([[values[k] for k in ids] for ids in grid], len(cols), q)
        cert = _certificate(P, degree, expansions)
        rebuilt = _rebuild(cert, index, at_rows, at_cols, len(rows), len(cols))
        yield MatrixAudit(entries, rebuilt, matrix_rank(entries, q), cert.term_count)


@dataclass(frozen=True)
class RankAudit:
    """The --certify-rank verdict over every basis sum matrix of a run.

    exact: every certificate sums back to its matrix.  ranks_within_terms:
    rank <= term count for every matrix, each against its own certificate.
    """

    exact: bool
    ranks_within_terms: bool
    max_rank: int
    max_term_count: int

    def checks(self, rank_bound: int) -> tuple[Check, ...]:
        """The audit's checks against a run's rank budget; reported, not raised."""
        terms = self.max_term_count
        return (
            Check("clp_reconstructions_exact", self.exact),
            Check("max_rank<=max_term_count", self.ranks_within_terms, self.max_rank, terms),
            Check("max_term_count<=rank_bound", terms <= rank_bound, terms, rank_bound),
        )


def rank_audit(run: PipelineRun) -> RankAudit:
    """Check the rank-one split of every basis sum matrix of a pipeline run."""
    exact = within = True
    max_rank = max_terms = 0
    s_ord, t_ord = run.s_input.ordered(), run.t_input.ordered()
    for a in audit_matrices(run.space.basis, run.degree, s_ord, t_ord):
        exact = exact and a.entries == a.rebuilt
        within = within and a.rank <= a.term_count
        max_rank = max(max_rank, a.rank)
        max_terms = max(max_terms, a.term_count)
    return RankAudit(exact, within, max_rank, max_terms)
