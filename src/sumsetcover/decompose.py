"""Witness subsets whose line sumsets cover a full sumset.

Given S, T in F_q^n, the goal is a pair S* in S, T* in T with

    (S* + T) union (S + T*) = S + T

and |S*| + |T*| at most 2*m(q, n, floor(d/2)) + q^n - m(q, n, d) for a
degree d of our choosing (minimized by default).  S x T is enumerated
once, by field.sum_index, which maps each sum to its first row-major
(i, j); its keys are S+T in order of first occurrence.  The construction:

 1. build the space of degree-<= d polynomials vanishing off S+T; its
    dimension is at least m_d - q^n + |S+T|;
 2. each basis polynomial P defines the sum matrix (P(s + t)) over S x T;
    every matrix in their span has rank at most 2*m(q, n, floor(d/2)) by
    the rank-one split certificate (a theorem on the span, audited per basis
    matrix by the CLI under --certify-rank);
 3. take the row-major pivot positions of that span.  A sum matrix depends
    only on s + t, so they come from one elimination of the basis evaluated
    at the keys of the sum index, the pivot sums are pairwise distinct, and
    there is one pivot per basis polynomial;
 4. cover the pivots by a minimum set of lines (rows from S, columns from T);
    the cover size is at most the rank budget, and the covered lines reach
    at least dim-many elements of S+T;
 5. the sums still missing number at most q^n - m_d; patch each with one
    representative from S: the row of its first occurrence in the sum
    index, which is the lexicographically smallest s with w - s in T.

Covered rows plus patch representatives form S*; covered columns form T*.
Every inequality used along the way is checked by an explicit raise of
BoundViolated, and recorded in the certificate so the output can be
re-checked without trusting the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import LineCover, line_cover, sum_pivots
from .errors import BoundViolated
from .field import DEFAULT_ENUM_CAP, PointSet, check_enumeration_cap, is_prime, sum_index, sumset
from .monomials import count_m, degree_counts
from .vanishing import PolySubspace, build_vanishing_space


@dataclass(frozen=True)
class DecompositionCertificate:
    """The audit trail behind a witness pair."""

    covered_rows: PointSet
    covered_cols: PointSet
    patch_reps: PointSet
    uncovered_sums: PointSet
    dim_vanishing: int
    cover_size: int


@dataclass(frozen=True)
class Decomposition:
    s_witness: PointSet
    t_witness: PointSet
    degree: int
    bound: int
    certificate: DecompositionCertificate

    @property
    def witness_total(self) -> int:
        return len(self.s_witness) + len(self.t_witness)


@dataclass(frozen=True)
class PipelineRun:
    """Every intermediate stage of one witness construction."""

    s_input: PointSet
    t_input: PointSet
    degree: int
    rank_bound: int
    sum_set: PointSet
    space: PolySubspace
    pivots: tuple[tuple[int, int], ...]
    cover: LineCover
    decomposition: Decomposition


def degree_bound(q: int, n: int, degree: int) -> int:
    """Witness-size budget 2*m(q,n,floor(d/2)) + q^n - m(q,n,d) at one d."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return degree_counts(q, n).budget(degree)


def choose_degree(q: int, n: int) -> tuple[int, int]:
    """The degree minimizing the witness budget, ties to the smallest d.

    Scans every integer d in [0, (q-1)*n] using exact counts only, so this
    stays cheap even for n in the hundreds.
    """
    table = degree_counts(q, n)
    bound, d = min((table.budget(d), d) for d in range((q - 1) * n + 1))
    return d, bound


def _degree_and_bound(q: int, n: int, degree: int | None) -> tuple[int, int]:
    """The given degree and its budget; the minimizing pair when degree is None."""
    if degree is None:
        return choose_degree(q, n)
    return degree, degree_bound(q, n, degree)


def _check_inputs(S: PointSet, T: PointSet) -> None:
    """S and T in one space F_q^n with q prime; ValueError names a bad q."""
    S._check_compatible(T)
    if not is_prime(S.q):
        raise ValueError(f"q = {S.q} is not prime")


def run_pipeline(
    S: PointSet,
    T: PointSet,
    degree: int | None = None,
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> PipelineRun:
    """Execute the full construction on nonempty S, T and keep every stage."""
    _check_inputs(S, T)
    if not S.members or not T.members:
        raise ValueError("run_pipeline needs nonempty inputs; decompose handles empty sets")
    q, n = S.q, S.n
    # the vanishing space enumerates F_q^n: refuse before counting monomials
    # by degree, which alone takes long when q is huge
    check_enumeration_cap(q, n, cap)
    degree, bound = _degree_and_bound(q, n, degree)
    rank_bound = 2 * count_m(q, n, degree // 2)

    index = sum_index(S, T)
    covered_sums = PointSet.from_coords(q, n, index)
    space = build_vanishing_space(covered_sums, degree, cap=cap)
    pivots = sum_pivots(space, index)
    s_ord = S.ordered()
    t_ord = T.ordered()

    pivot_sums = {s_ord[i] + t_ord[j] for i, j in pivots}
    if len(pivot_sums) != len(pivots):
        raise BoundViolated("two pivot positions share a sum")

    cover = line_cover(pivots, rank_bound)
    covered_rows = PointSet.from_vectors(q, n, (s_ord[i] for i in cover.cover_rows))
    covered_cols = PointSet.from_vectors(q, n, (t_ord[j] for j in cover.cover_cols))

    line_sums = sumset(covered_rows, T).union(sumset(S, covered_cols))
    uncovered = covered_sums.difference(line_sums)
    missable = q**n - space.ambient_dim
    if len(uncovered) > missable:
        raise BoundViolated(f"{len(uncovered)} missed sums exceed q^n - m_d = {missable}")

    patch = PointSet.from_vectors(q, n, (s_ord[index[w.coords][0]] for w in uncovered))

    s_witness = covered_rows.union(patch)
    t_witness = covered_cols
    cert = DecompositionCertificate(
        covered_rows=covered_rows,
        covered_cols=covered_cols,
        patch_reps=patch,
        uncovered_sums=uncovered,
        dim_vanishing=space.dim,
        cover_size=cover.size,
    )
    dec = Decomposition(s_witness, t_witness, degree, bound, cert)
    if dec.witness_total > bound:
        raise BoundViolated(f"witness total {dec.witness_total} exceeds its budget {bound}")
    return PipelineRun(
        s_input=S,
        t_input=T,
        degree=degree,
        rank_bound=rank_bound,
        sum_set=covered_sums,
        space=space,
        pivots=pivots,
        cover=cover,
        decomposition=dec,
    )


def decompose(
    S: PointSet,
    T: PointSet,
    degree: int | None = None,
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> Decomposition:
    """Witness pair covering S+T, with certificate.

    Empty S or T short-circuits to empty witnesses (the sumset is empty, so
    nothing needs covering) without enumerating the ambient space.
    """
    _check_inputs(S, T)
    q, n = S.q, S.n
    if not S.members or not T.members:
        degree, bound = _degree_and_bound(q, n, degree)
        empty = PointSet.empty(q, n)
        cert = DecompositionCertificate(empty, empty, empty, empty, 0, 0)
        return Decomposition(empty, empty, degree, bound, cert)
    return run_pipeline(S, T, degree, cap=cap).decomposition


def symmetric_subset(
    S: PointSet, degree: int | None = None, *, cap: int = DEFAULT_ENUM_CAP
) -> PointSet:
    """A subset B of S with B + S = S + S, of witness-bounded size.

    Runs the construction on (S, S) and merges both witness halves: their
    line sumsets jointly cover S+S, and by commutativity so does the union.
    """
    dec = decompose(S, S, degree, cap=cap)
    return dec.s_witness.union(dec.t_witness)


def verify_decomposition(
    S: PointSet, T: PointSet, s_witness: PointSet, t_witness: PointSet
) -> bool:
    """Direct re-check: containment plus coverage by plain enumeration.

    Independent of the pipeline; uses nothing but pairwise sums.
    """
    S._check_compatible(T)
    s_witness._check_compatible(S)
    t_witness._check_compatible(T)
    if not s_witness.issubset(S) or not t_witness.issubset(T):
        return False
    covered = sumset(s_witness, T).union(sumset(S, t_witness))
    return covered == sumset(S, T)
