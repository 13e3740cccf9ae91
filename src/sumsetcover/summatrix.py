"""Polynomials as term maps, sum-evaluation matrices, their low-rank split
certificates, and the audit.

A `Polynomial` is a map {exponent tuple: nonzero coefficient} with every
exponent at most q-1 per variable.  Reduced polynomials represent functions
F_q^n -> F_q uniquely.  Instances are treated as immutable;
`poly_from_terms` builds one from any term map, checking the exponents and
reducing the coefficients.  The pipeline never sees one: it keeps
polynomials as coefficient rows over the graded monomials of degree <= d
(vanishing.PolySubspace), and only the rank-split API here reads term maps.

For a polynomial P and ordered point lists (rows from S, columns from T),
the sum matrix holds P(s + t) at position (s, t).  Positions with equal
sums carry equal entries, which is what makes the pivot positions of their
span a function of the distinct sums alone (see vanishing.sum_pivots).

The rank certificate comes from expanding P(x + y): every product monomial
x^a y^b in the expansion has |a| + |b| <= deg P, so one of the two sides has
total degree <= floor(d/2).  Grouping the expansion by that low-degree side
writes the matrix as a sum of rank-one terms, at most m(q, n, floor(d/2))
anchored on the row side plus as many anchored on the column side.

`audit_matrices`, and `rank_audit` on a pipeline run's basis rows (the
CLI's --certify-rank), are the library's only path that builds a sum matrix
or rebuilds one from its certificate.  Both go through `_audit`, on
coefficient rows over the graded monomials of degree <= d, the vanishing
space's `monos`; audit_matrices reads its Polynomial arguments as such rows
once (`_row`, the audit's one Polynomial edge, which clp_decompose shares).
The rows are evaluated once at the distinct sums (linalg.evaluate_rows),
whose grid of sum ids fills each matrix.  A certificate's factors are
(index, weight) lists combining the monomials' rows at S and at T
(linalg.combine_rows), in the table format linalg alone picks, and the rank
is taken on the same rows.  Each monomial is expanded once per audit, keyed
by its place in the graded list; only clp_decompose wraps factors as
Polynomial values.  tests/reference.py keeps the per-cell constructions the
audit is checked against.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .decompose import Check, PipelineRun
from .errors import BoundViolated, DegreeTooHigh, DimensionMismatch
from .field import FieldVector
from .linalg import Rows, as_rows, as_table, combine_rows, evaluate_rows, matrix_rank, monomial_table
from .monomials import Monomial, degree_counts, enumerate_monomials, eval_monomial, monomial_key

Coords = tuple[int, ...]


@dataclass(frozen=True)
class Polynomial:
    q: int
    n: int
    terms: dict[Monomial, int]


def _check_monomials(q: int, n: int, monos: Iterable[Monomial]) -> None:
    for mono in monos:
        if len(mono) != n:
            raise ValueError(f"exponent tuple {mono} has length != {n}")
        if any(e < 0 or e > q - 1 for e in mono):
            raise ValueError(f"exponent tuple {mono} not reduced for q={q}")


def poly_from_terms(q: int, n: int, terms: Mapping[Monomial, int]) -> Polynomial:
    """Normalize a term map: reduce coefficients mod q and drop zeros."""
    _check_monomials(q, n, terms)
    clean: dict[Monomial, int] = {}
    for mono, coeff in terms.items():
        c = coeff % q
        if c:
            clean[mono] = c
    return Polynomial(q, n, clean)


def poly_degree(P: Polynomial) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((sum(m) for m in P.terms), default=-1)


def _coords(q: int, n: int, points: Sequence[FieldVector]) -> list[Coords]:
    """The points' coordinates; DimensionMismatch for a point outside F_q^n."""
    for x in points:
        if x.q != q or x.n != n:
            raise DimensionMismatch(
                f"polynomial over (q={q}, n={n}) evaluated at point over (q={x.q}, n={x.n})"
            )
    return [x.coords for x in points]


def eval_poly(P: Polynomial, x: FieldVector) -> int:
    """P(x) mod q."""
    (coords,) = _coords(P.q, P.n, (x,))
    return sum(c * eval_monomial(m, coords, P.q) for m, c in P.terms.items()) % P.q


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


# (low, high) for one monomial x^full at one (q, split), each monomial by
# its place in a graded list: low holds (a, b, w) for the terms w x^a y^b of
# (x + y)^full with |a| <= split, high holds (b, a, w) for the rest, each
# with its anchor first.
_Splits = tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, int, int], ...]]


def _expand(full: Monomial, q: int, split: int, index: dict[Monomial, int]) -> _Splits:
    """The terms x^a y^b of (x + y)^full whose binomial weight is nonzero mod q.

    a runs over itertools.product order; b = full - a; `index` numbers both.
    """
    ranges = [range(e + 1) for e in full]
    low, high = [], []
    for a, b, cs in zip(
        itertools.product(*ranges),
        itertools.product(*[r[::-1] for r in ranges]),
        itertools.product(*[[math.comb(e, r) for r in range(e + 1)] for e in full]),
    ):
        w = math.prod(cs) % q
        if w:
            if sum(a) <= split:
                low.append((index[a], index[b], w))
            else:
                high.append((index[b], index[a], w))
    return tuple(low), tuple(high)


class _Expansions(dict):
    """The split lists of monos[k] at one (q, split), by k, each made at its
    first lookup; `monos` is in monomial_key order and holds both parts of
    every term the rows' monomials expand into."""

    def __init__(self, monos: Sequence[Monomial], q: int, n: int, split: int) -> None:
        super().__init__()
        self.monos, self.q, self.split = monos, q, split
        self.index = {m: k for k, m in enumerate(monos)}
        self.budget = 2 * degree_counts(q, n).prefix(split)  # m(q, n, split); 0 below 0

    def __missing__(self, k: int) -> _Splits:
        splits = self[k] = _expand(self.monos[k], self.q, self.split, self.index)
        return splits


@dataclass(frozen=True)
class _Certificate:
    """Rank-one terms (anchor, cofactor (index, weight) list) over a table's
    monos, `left` anchored on the row side; anchors ascend (graded order)."""

    left: tuple[tuple[int, list[tuple[int, int]]], ...]
    right: tuple[tuple[int, list[tuple[int, int]]], ...]
    term_count: int


def _certificate(row: Sequence[int], table: _Expansions) -> _Certificate:
    """clp_decompose's grouping for the coefficient row `row` over
    table.monos; BoundViolated above the 2 * m(q, n, split) budget."""
    q = table.q
    left, right = defaultdict(list), defaultdict(list)
    for k in itertools.compress(range(len(row)), row):
        for groups, entries in zip((left, right), table[k]):
            for anchor, other, w in entries:
                # anchor and other determine the monomial: no pair twice
                if w := row[k] * w % q:
                    groups[anchor].append((other, w))
    term_count = len(left) + len(right)
    if term_count > table.budget:
        raise BoundViolated(
            f"{term_count} rank-one terms exceed 2*m(q, n, {table.split}) = {table.budget}"
        )
    return _Certificate(tuple(sorted(left.items())), tuple(sorted(right.items())), term_count)


def _row(P: Polynomial, degree: int, monos: Sequence[Monomial]) -> list[int]:
    """P's coefficients over monos; ValueError for an exponent tuple that is
    not reduced (poly_from_terms' check), DegreeTooHigh above the degree
    budget."""
    _check_monomials(P.q, P.n, P.terms)
    if poly_degree(P) > degree:
        raise DegreeTooHigh(f"polynomial of total degree {poly_degree(P)} exceeds budget {degree}")
    return [P.terms.get(m, 0) for m in monos]


def _clp_certificate(P: Polynomial, degree: int, table: _Expansions) -> ClpCertificate:
    """clp_decompose from a table at (P.q, degree // 2) whose monos hold P's."""
    q, n, monos = P.q, P.n, table.monos
    cert = _certificate(_row(P, degree, monos), table)

    def poly(weights: Sequence[tuple[int, int]]) -> Polynomial:
        return Polynomial(q, n, {monos[k]: w for k, w in weights})

    left = tuple((poly([(a, 1)]), poly(g)) for a, g in cert.left)
    right = tuple((poly(g), poly([(a, 1)])) for a, g in cert.right)
    return ClpCertificate(q, n, degree, table.split, left, right, cert.term_count)


def clp_decompose(P: Polynomial, degree: int) -> ClpCertificate:
    """Split P(x + y) into rank-one terms with one low-degree side each.

    Every expansion term x^a y^b with |a| <= floor(d/2) joins a group keyed
    by a (row anchored); the rest necessarily have |b| <= floor(d/2) and are
    grouped by b (column anchored).  Group counts never exceed
    m(q, n, floor(d/2)) per side.
    """
    # the parts x^a, a <= full, of P's monomials: as many as its expansion has
    parts = {a for full in P.terms for a in itertools.product(*[range(e + 1) for e in full])}
    monos = sorted(parts, key=monomial_key)
    return _clp_certificate(P, degree, _Expansions(monos, P.q, P.n, degree // 2))


def _rebuild(cert: _Certificate, at_rows: Rows, at_cols: Rows, nrows: int, ncols: int, q: int) -> Rows:
    """Row i is sum_k f_k(s_i) * (g_k at every t), over the rank-one terms (f_k, g_k).

    Each factor combines the monomial rows at_rows or at_cols by its
    (index, weight) list; the result is a linalg table.
    """
    row_weights = [[(a, 1)] for a, _ in cert.left] + [g for _, g in cert.right]
    col_weights = [g for _, g in cert.left] + [[(a, 1)] for a, _ in cert.right]
    row_side = as_rows(combine_rows(row_weights, at_rows, nrows, q))
    col_side = combine_rows(col_weights, at_cols, ncols, q)
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
    """Audit each polynomial's sum matrix in turn, one at a time, from its
    coefficient row over the graded monomials of degree <= d."""
    if not polys:
        return
    q, n = polys[0].q, polys[0].n
    for P in polys:
        if (P.q, P.n) != (q, n):
            raise DimensionMismatch(f"polynomial over (q={P.q}, n={P.n}) audited with q={q}, n={n}")
    rows, cols = _coords(q, n, row_points), _coords(q, n, col_points)
    # every factor's monomials have degree <= d; they number at most q^n
    monos = enumerate_monomials(q, n, degree, cap=q**n)
    coeffs = [_row(P, degree, monos) for P in polys]
    yield from _audit(_Expansions(monos, q, n, degree // 2), coeffs, rows, cols)


def _audit(
    table: _Expansions, coeffs: Sequence[Sequence[int]], rows: list[Coords], cols: list[Coords]
) -> Iterator[MatrixAudit]:
    """The audit of each coefficient row over table.monos (every monomial of
    degree <= d) at the row and column coordinates."""
    q, monos = table.q, table.monos
    # each cell's sum id; the ids number the distinct sums in row-major order
    ids: dict[Coords, int] = {}
    grid = [
        [ids.setdefault(tuple([(a + b) % q for a, b in zip(s, t)]), len(ids)) for t in cols]
        for s in rows
    ]
    at_rows, at_cols = monomial_table(monos, rows, q), monomial_table(monos, cols, q)
    for row, values in zip(coeffs, as_rows(evaluate_rows(monos, coeffs, list(ids), q))):
        entries = as_table([[values[k] for k in ids] for ids in grid], len(cols), q)
        cert = _certificate(row, table)
        rebuilt = _rebuild(cert, at_rows, at_cols, len(rows), len(cols), q)
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
    space = run.space
    table = _Expansions(space.monos, space.q, space.n, run.degree // 2)
    rows, cols = ([x.coords for x in X.ordered()] for X in (run.s_input, run.t_input))
    for a in _audit(table, space.rows, rows, cols):
        exact = exact and a.entries == a.rebuilt
        within = within and a.rank <= a.term_count
        max_rank = max(max_rank, a.rank)
        max_terms = max(max_terms, a.term_count)
    return RankAudit(exact, within, max_rank, max_terms)
