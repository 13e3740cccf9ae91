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

One engine computes that split for both of its readers.  `_expand` turns a
monomial m_k, at one split floor(d/2) and with every monomial keyed by its
place in a graded list, into the terms (a, b, w) of w * x^a y^b in
(x + y)^(m_k) and two bitmasks: its row-side anchors (the a with
|a| <= floor(d/2)) and its column-side anchors (the b of the other terms).
`clp_decompose` expands its polynomial's support once per call; the audit
reads a memo kept across calls (`_expansions`), one table per (q, n, d)
filled per monomial, at most _EXPANSION_TERM_CAP terms in all.
`_term_count` counts a polynomial's rank-one terms for both readers: the
popcount of the union L of its monomials' row-side anchors plus that of the
union R of their column-side anchors, at most 2 * m(q, n, floor(d/2))
(BoundViolated otherwise).
- `clp_decompose` numbers the parts of its polynomial's monomials, expands
  its support and groups the terms by anchor into the certificate
  sum over a in L of x^a (x) g_a plus sum over b in R of f_b (x) y^b.
- `rank_audit`, on a pipeline run's basis rows (the CLI's --certify-rank),
  is the library's only path that builds a sum matrix or rebuilds one from
  its expansion.  It reads the rows as coefficient rows over the graded
  monomials of degree <= d, the vanishing space's `monos`.  The split is
  linear in P, so the audit checks it once per monomial m_k that some row
  uses: R(m_k) = sum of w * x^a (x) y^b over its terms, one flat
  |S| * |T|-cell table row built from the monomials' rows at S and at T
  (linalg.outer_rows), must equal m_k's own sum matrix, its values at the
  distinct sums spread over the cells (linalg.flatten).  A row
  P = sum of c_k * m_k is then exact when every monomial of its support is,
  which gives its entries == sum of c_k * R(m_k), and no two monomials'
  errors can cancel.  Its entries are one combination of the monomials'
  sum matrices (linalg.combine_rows); its term count is `_term_count` over
  its monomials' masks; its rank is the exact rank of the entries, cut back
  into |S| rows (linalg.split_row), from forward elimination alone
  (linalg.matrix_rank).
Grouping the terms of sum c_k * R(m_k) by anchor gives clp_decompose's
certificate, so an exact row certifies a split into |L| + |R| rank-one
terms without building any cofactor.  `rank_audit` calls `check_audit_cap`,
which refuses an audit whose work `audit_work` estimates from exact counts
above AUDIT_WORK_CAP, before any table is built.
tests/reference.py keeps the per-cell constructions the audit is checked
against.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .decompose import Check, PipelineRun, choose_degree
from .errors import BoundViolated, DegreeTooHigh, DimensionMismatch, EnumerationTooLarge
from .field import DEFAULT_ENUM_CAP, FieldVector, check_enumeration_cap
from .linalg import Rows, combine_rows, flatten, matrix_rank, monomial_table, outer_rows, split_row
from .monomials import Monomial, check_count_cap, degree_counts, eval_monomial, monomial_key

Coords = tuple[int, ...]

# audit_work units admitted for one rank audit: at q = 3 a unit took about
# 0.43 microseconds on a 2-core host (Python 3.11), so the cap is about 45 s
AUDIT_WORK_CAP = 10**8
# expansion terms the rank audit keeps across calls (`_expansions`), about
# 80 bytes each: the whole tables at q = 3, n = 4 and 5 (675 and 5238 terms,
# 469 KiB together) fit, n = 6 (17658) does not
_EXPANSION_TERM_CAP = 2**13


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


def eval_poly(P: Polynomial, x: FieldVector) -> int:
    """P(x) mod q; DimensionMismatch for a point outside F_q^n."""
    if x.q != P.q or x.n != P.n:
        raise DimensionMismatch(
            f"polynomial over (q={P.q}, n={P.n}) evaluated at point over (q={x.q}, n={x.n})"
        )
    return sum(c * eval_monomial(m, x.coords, P.q) for m, c in P.terms.items()) % P.q


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


# One monomial x^full's expansion at one (q, split), each monomial by its
# place in a graded list: the terms (a, b, w) of w x^a y^b in (x + y)^full,
# then the masks of its row-side anchors (the a with |a| <= split) and of its
# column-side anchors (the b of the other terms).
_Expanded = tuple[Sequence[tuple[int, int, int]], int, int]

# `_expansions`' memo: per (q, n, degree), the expansions by graded index and
# their term count, the most recently used table last
_EXPANSIONS: dict[tuple[int, int, int], tuple[dict[int, _Expanded], int]] = {}
_EXPANSIONS_LOCK = threading.Lock()


def _expand(full: Monomial, q: int, split: int, index: dict[Monomial, int]) -> _Expanded:
    """The terms x^a y^b of (x + y)^full whose binomial weight is nonzero mod
    q, and their anchor masks.

    a runs over itertools.product order; b = full - a; `index` numbers both.
    """
    ranges = [range(e + 1) for e in full]
    terms, left, right = [], 0, 0
    for a, b, cs in zip(
        itertools.product(*ranges),
        itertools.product(*[r[::-1] for r in ranges]),
        itertools.product(*[[math.comb(e, r) for r in range(e + 1)] for e in full]),
    ):
        w = math.prod(cs) % q
        if w:
            ia, ib = index[a], index[b]
            terms.append((ia, ib, w))
            if sum(a) <= split:
                left |= 1 << ia
            else:
                right |= 1 << ib
    return terms, left, right


def _expansions(q: int, n: int, degree: int, monos: Sequence[Monomial], used: Sequence[int]) -> list[_Expanded]:
    """`_expand` of each used monomial of monos (every monomial of degree <= d,
    in graded order), served from `_EXPANSIONS` and expanding only what its
    table lacks, the terms stored as tuples.  The table is then kept as the
    most recent one, and the least recent ones give way until the kept
    tables hold at most _EXPANSION_TERM_CAP terms; a table above the cap on
    its own serves this call and is not kept.  One call at a time reads and
    updates the memo."""
    key = (q, n, degree)
    with _EXPANSIONS_LOCK:
        table, held = _EXPANSIONS.pop(key, ({}, 0))
        if missing := [k for k in used if k not in table]:
            index = {m: k for k, m in enumerate(monos)}
            for k in missing:
                terms, left, right = _expand(monos[k], q, degree // 2, index)
                table[k] = tuple(terms), left, right
                held += len(terms)
        if held <= _EXPANSION_TERM_CAP:
            _EXPANSIONS[key] = table, held
            total = sum(h for _, h in _EXPANSIONS.values())
            for old in list(_EXPANSIONS):
                if total <= _EXPANSION_TERM_CAP:
                    break
                total -= _EXPANSIONS.pop(old)[1]
        return [table[k] for k in used]


def _term_count(masks: Iterable[tuple[int, int]], budget: int, split: int) -> int:
    """|L| + |R| for one polynomial: the distinct row-side and column-side
    anchors of its monomials' expansion terms, `masks` holding each
    monomial's two anchor masks; BoundViolated above the budget
    2 * m(q, n, split)."""
    left = right = 0
    for a, b in masks:
        left |= a
        right |= b
    term_count = left.bit_count() + right.bit_count()
    if term_count > budget:
        raise BoundViolated(f"{term_count} rank-one terms exceed 2*m(q, n, {split}) = {budget}")
    return term_count


def clp_decompose(P: Polynomial, degree: int) -> ClpCertificate:
    """Split P(x + y) into rank-one terms with one low-degree side each.

    Every expansion term x^a y^b with |a| <= floor(d/2) joins a group keyed
    by a (row anchored); the rest necessarily have |b| <= floor(d/2) and are
    grouped by b (column anchored).  Group counts never exceed
    m(q, n, floor(d/2)) per side.  ValueError for an exponent tuple that is
    not reduced (poly_from_terms' check), DegreeTooHigh above the degree
    budget.
    """
    q, n, split = P.q, P.n, degree // 2
    _check_monomials(q, n, P.terms)
    if poly_degree(P) > degree:
        raise DegreeTooHigh(f"polynomial of total degree {poly_degree(P)} exceeds budget {degree}")
    # the parts x^a, a <= full, of P's monomials: as many as its expansion has
    parts = {a for full in P.terms for a in itertools.product(*[range(e + 1) for e in full])}
    monos = sorted(parts, key=monomial_key)
    index = {m: k for k, m in enumerate(monos)}
    left, right = defaultdict(list), defaultdict(list)
    masks = []
    for full in sorted(P.terms, key=monomial_key):
        if c := P.terms[full] % q:
            terms, row_side, col_side = _expand(full, q, split, index)
            masks.append((row_side, col_side))
            for a, b, w in terms:
                # a and b determine the monomial: no pair twice; the
                # row-side mask holds a exactly when |a| <= split
                if row_side >> a & 1:
                    left[a].append((b, c * w % q))
                else:
                    right[b].append((a, c * w % q))
    term_count = _term_count(masks, 2 * degree_counts(q, n).prefix(split), split)

    def poly(weights: Sequence[tuple[int, int]]) -> Polynomial:
        return Polynomial(q, n, {monos[k]: w for k, w in weights})

    return ClpCertificate(
        q, n, degree, split,
        tuple((poly([(a, 1)]), poly(g)) for a, g in sorted(left.items())),
        tuple((poly(g), poly([(b, 1)])) for b, g in sorted(right.items())),
        term_count,
    )


@dataclass(frozen=True)
class MatrixAudit:
    """One basis polynomial's sum matrix and the audit of its split.

    `entries` is a linalg table over the column points, in the format linalg
    picks at q.  `exact` holds when every monomial of the polynomial's
    support rebuilds from its expansion terms to its own sum matrix.  `rank`
    is the exact rank of `entries`.
    """

    entries: Rows
    exact: bool
    rank: int
    term_count: int


def _audit(
    q: int,
    n: int,
    degree: int,
    monos: Sequence[Monomial],
    coeffs: Sequence[Sequence[int]],
    rows: list[Coords],
    cols: list[Coords],
) -> Iterator[MatrixAudit]:
    """The audit of each coefficient row over monos (every monomial of
    degree <= d, in graded order) at the row and column coordinates."""
    split = degree // 2
    budget = 2 * degree_counts(q, n).prefix(split)  # 0 below degree 0
    nrows, ncols = len(rows), len(cols)
    # each cell's sum id; the ids number the distinct sums in row-major order
    ids: dict[Coords, int] = {}
    grid = [
        [ids.setdefault(tuple([(a + b) % q for a, b in zip(s, t)]), len(ids)) for t in cols]
        for s in rows
    ]
    supports = [[(k, c) for k, c in enumerate(row) if c % q] for row in coeffs]
    used = sorted({k for support in supports for k, _ in support})
    place = {k: i for i, k in enumerate(used)}
    weights = [[(place[k], c) for k, c in support] for support in supports]
    expansions = _expansions(q, n, degree, monos, used)
    masks = [(left, right) for _, left, right in expansions]
    ncells = nrows * ncols
    # each used monomial's sum matrix: its values at the distinct sums,
    # spread over the cells
    sums = flatten(monomial_table([monos[k] for k in used], list(ids), q), grid)
    # R(m_k) = sum of w * x^a (x) y^b over the terms of (x + y)^(m_k), flat;
    # the split is linear, so one comparison per monomial checks every row
    at_rows, at_cols = monomial_table(monos, rows, q), monomial_table(monos, cols, q)
    rebuilds = outer_rows((terms for terms, _, _ in expansions), at_rows, at_cols, q)
    # equal tables, the usual case, are compared whole; else row by row
    same = rebuilds == sums
    exact = [same or split_row(rebuilds, i, 1, ncells) == split_row(sums, i, 1, ncells)
             for i in range(len(used))]
    values = combine_rows(weights, sums, ncells, q)
    for r, w in enumerate(weights):
        term_count = _term_count([masks[i] for i, _ in w], budget, split)
        entries = split_row(values, r, nrows, ncols)
        yield MatrixAudit(entries, all(exact[i] for i, _ in w), matrix_rank(entries, q), term_count)


def audit_work(q: int, n: int, degree: int, nrows: int, ncols: int) -> int:
    """The rank audit's work at (q, n, degree) on nrows x ncols sum matrices,
    from exact counts: every expansion term of a monomial of degree <= d,
    sum_{|m| <= d} prod (m_i + 1), the prefix up to d of the coefficients
    of (1 + 2t + ... + q t^(q-1))^n, is one outer product of
    ceil(nrows * ncols / 64) words; and each basis row, at most
    min(m_d, nrows * ncols) of them, combines at most m_d of the monomials'
    flat sum matrices."""
    counts = [1]
    for _ in range(n):
        out = [0] * (len(counts) + q - 1)
        for i, c in enumerate(counts):
            for e in range(q):
                out[i + e] += (e + 1) * c
        counts = out
    terms = sum(counts[: max(degree + 1, 0)])
    m_d = degree_counts(q, n).prefix(degree)
    return terms * -(-nrows * ncols // 64) + min(m_d, nrows * ncols) * m_d


def check_audit_cap(
    q: int, n: int, degree: int | None, nrows: int, ncols: int, cap: int = DEFAULT_ENUM_CAP
) -> None:
    """EnumerationTooLarge, before any table is built, when the rank audit of
    a run at (q, n, degree) (the minimizing degree for None) on nrows x ncols
    sum matrices exceeds AUDIT_WORK_CAP; first the run's own refusal of
    q^n above cap and the count of monomials by degree."""
    check_enumeration_cap(q, n, cap)
    check_count_cap(q, n, DEFAULT_ENUM_CAP)
    if degree is None:
        degree = choose_degree(q, n)[0]
    if (work := audit_work(q, n, degree, nrows, ncols)) > AUDIT_WORK_CAP:
        raise EnumerationTooLarge(f"rank audit takes {work} word steps > cap {AUDIT_WORK_CAP}")


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
    """Check the rank-one split of every basis sum matrix of a pipeline run.
    BoundViolated (unrecorded) when the basis does not have the run's
    certified dim_vanishing rows."""
    space = run.space
    q, n = space.q, space.n
    # the run has enumerated F_q^n already: only the audit's work is capped
    check_audit_cap(q, n, run.degree, len(run.s_input), len(run.t_input), cap=q**n)
    # the rows come from the kernel reader, the run's dimension from the constraint rank
    dim = run.decomposition.certificate.dim_vanishing
    if len(space.rows) != dim:
        raise BoundViolated(f"{len(space.rows)} basis rows for a vanishing space of dimension {dim}")
    exact = within = True
    max_rank = max_terms = 0
    rows, cols = ([x.coords for x in X.ordered()] for X in (run.s_input, run.t_input))
    for a in _audit(q, n, run.degree, space.monos, space.rows, rows, cols):
        exact = exact and a.exact
        within = within and a.rank <= a.term_count
        max_rank = max(max_rank, a.rank)
        max_terms = max(max_terms, a.term_count)
    return RankAudit(exact, within, max_rank, max_terms)
