"""Witness subsets whose line sumsets cover a full sumset.

Given S, T in F_q^n, the goal is a pair S* in S, T* in T with

    (S* + T) union (S + T*) = S + T

and |S*| + |T*| at most 2*m(q, n, floor(d/2)) + q^n - m(q, n, d) for a
degree d of our choosing (minimized by default).  S x T is enumerated
once, on packed points (field.Lanes: one int per point, one integer add
per sum), by field.coded_sum_index, which maps each sum's code to its first
row-major (i, j); its keys are S+T in order of first occurrence.  One
pairing of the codes of F_q^n with its points in lexicographic order
(Lanes.points) gives every coordinate tuple the run needs; no code is
decoded on its own.  The construction:

 1. build the space of degree-<= d polynomials vanishing off S+T, its
    constraint rows the points of F_q^n whose codes are not among the
    index's keys (vanishing.vanishing_space): one forward elimination of
    that table gives dim, m_d minus the constraint rank, dim >= m_d - q^n
    + |S+T|; the basis, dim rows of coefficients over the monomials, is
    back-substituted from the kept echelon form only when step 3's primal
    stage or the rank audit reads it;
 2. each basis row P defines the sum matrix (P(s + t)) over S x T; every
    matrix in their span has rank at most 2*m(q, n, floor(d/2)) by the
    rank-one split certificate (a theorem on the span, audited per basis
    matrix by the CLI under --certify-rank);
 3. take the row-major pivot positions of that span.  A sum matrix depends
    only on s + t, so they are the pivot columns of the basis at the keys
    or, when fewer rows, the sums off the information set of the dual
    Reed-Muller code there (vanishing.sum_pivots); the pivot sums are
    pairwise distinct, and there is one pivot per basis row;
 4. cover the pivots by a minimum set of lines (rows from S, columns from T);
    the cover size is at most the rank budget, and the covered lines reach
    at least dim-many elements of S+T;
 5. the sums the covered lines reach are one set of codes (line_sums,
    each pair's sum formed once); the index's keys outside it, in
    first-occurrence order, are the sums still missing, at most q^n - m_d
    of them; patch each with one representative from S: the row of its
    first occurrence in the sum index, which is the lexicographically
    smallest s with w - s in T.  The patch representatives and covered
    lines are the FieldVectors of S.ordered() and T.ordered(); the only
    vectors built are the missing sums', for the certificate.

The stages run on codes and coordinate tuples; PointSets are built only
for what the run returns (the witnesses and the certificate's fields).  The
run keeps S+T as the index's keys, as coordinate tuples
(PipelineRun.sums); PipelineRun.sum_set builds their PointSet on first
read.  verify_decomposition, the re-check of the result, shares no code
with this enumeration: it uses no codes and forms its own pairwise sums on
coordinate tuples, each pair's at most once, stopping as soon as the sums
on the witness lines fill F_q^n.

Covered rows plus patch representatives form S*; covered columns form T*.
run_pipeline evaluates every inequality used along the way once, where its
values are at hand, and records it in the certificate as a Check with both
sides, in this order: witness_total<=bound, dim_vanishing>=m_d-q^n+|S+T|,
uncovered<=q^n-m_d, cover_size<=rank_bound, pivot_positions_distinct,
pivot_sums_distinct, lines_cover>=dim_vanishing_sums, and
chosen_bound<=capset_bound (capset_check) when it chose the degree.
certify raises BoundViolated naming the first check that fails, then
run_pipeline raises (unrecorded) when the pivots do not number dim (dim is
the constraint table's rank deficit, the pivots come from another table), so
decompose() returns only certified witnesses (the checks are explicit
raises, not asserts, and still run under python -O).

Check is the package's one check record and certify its one raise path.
This module also owns the checks of symmetric_witness and bound_checks;
oracle owns the checkers' and the oracle's, summatrix the rank audit's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .cover import LineCover, line_cover
from .errors import BoundViolated
from .field import DEFAULT_ENUM_CAP, Lanes, PointSet, check_enumeration_cap, coded_sum_index, is_prime
from .monomials import capset_bound_M, check_count_cap, count_m, degree_counts
from .vanishing import PolySubspace, sum_pivots, vanishing_space


class Check(NamedTuple):
    """One certified inequality; lhs and rhs are None for a yes/no property."""

    name: str
    passed: bool
    lhs: int | None = None
    rhs: int | None = None


def certify(checks: Iterable[Check]) -> tuple[Check, ...]:
    """The checks as a tuple; BoundViolated names the first one that failed."""
    checks = tuple(checks)
    for check in checks:
        if not check.passed:
            sides = "" if check.lhs is None else f": {check.lhs} vs {check.rhs}"
            raise BoundViolated(f"certified check {check.name} failed{sides}")
    return checks


@dataclass(frozen=True)
class DecompositionCertificate:
    """The audit trail behind a witness pair.

    `checks`: run_pipeline's certified inequalities, in order, all passed
    (empty for an empty S or T).
    """

    covered_rows: PointSet
    covered_cols: PointSet
    patch_reps: PointSet
    uncovered_sums: PointSet
    dim_vanishing: int
    cover_size: int
    checks: tuple[Check, ...] = ()


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
    """Every intermediate stage of one witness construction.

    `sums`: S+T as coordinate tuples, the sum index's keys in order of
    first occurrence; `sum_set`, the same sums as a PointSet, is built on
    first read and kept.
    """

    s_input: PointSet
    t_input: PointSet
    degree: int
    rank_bound: int
    sums: tuple[tuple[int, ...], ...]
    space: PolySubspace
    pivots: tuple[tuple[int, int], ...]
    cover: LineCover
    decomposition: Decomposition

    @cached_property
    def sum_set(self) -> PointSet:
        return PointSet.from_coords(self.s_input.q, self.s_input.n, self.sums)


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
    return degree_counts(q, n).minimized()


def capset_check(q: int, n: int, bound: int) -> Check:
    """chosen_bound<=capset_bound: the minimized budget within 3*m_((q-1)n/3)."""
    capset = capset_bound_M(q, n)
    return Check("chosen_bound<=capset_bound", bound <= capset, bound, capset)


def bound_checks(q: int, n: int, bound: int) -> tuple[Check, ...]:
    """The bound table's certified checks, for the minimized budget `bound`."""
    total = sum(degree_counts(q, n).counts)
    return certify([capset_check(q, n, bound), Check("counts_sum_to_q^n", total == q**n, total, q**n)])


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


def line_sums(lanes: Lanes, s_codes: Sequence[int], t_codes: Sequence[int], cover: LineCover) -> set[int]:
    """The codes of the sums the cover's lines reach: s_i + t for each
    covered row i and every t, and s + t_j for each covered column j and
    every s off the covered rows (rows index s_codes, columns t_codes), so
    each pair's sum is formed once."""
    rows = set(cover.cover_rows)
    reach = lanes.sums([s_codes[i] for i in cover.cover_rows], t_codes)
    reach |= lanes.sums(
        [s for i, s in enumerate(s_codes) if i not in rows], [t_codes[j] for j in cover.cover_cols]
    )
    return reach


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
    chose_degree = degree is None
    degree, bound = _degree_and_bound(q, n, degree)
    rank_bound = 2 * count_m(q, n, degree // 2)

    lanes = Lanes.of(q, n)
    s_ord = S.ordered()
    t_ord = T.ordered()
    s_codes = [lanes.encode(v.coords) for v in s_ord]
    t_codes = [lanes.encode(v.coords) for v in t_ord]
    coded = coded_sum_index(lanes, s_codes, t_codes)
    points = lanes.points(cap=cap)
    keys = [points[code] for code in coded]
    space = vanishing_space(q, n, [p for code, p in points.items() if code not in coded], degree, cap=cap)
    pivots = sum_pivots(space, dict(zip(keys, coded.values())))
    pivot_sums = [lanes.add(s_codes[i], t_codes[j]) for i, j in pivots]

    cover = line_cover(pivots, rank_bound)
    covered_rows = PointSet.from_vectors(q, n, (s_ord[i] for i in cover.cover_rows))
    covered_cols = PointSet.from_vectors(q, n, (t_ord[j] for j in cover.cover_cols))

    reach = line_sums(lanes, s_codes, t_codes, cover)
    uncovered = [code for code in coded if code not in reach]
    patch = PointSet.from_vectors(q, n, (s_ord[coded[code][0]] for code in uncovered))
    s_witness = covered_rows.union(patch)
    total = len(s_witness) + len(covered_cols)
    dim, m_d = space.dim, space.ambient_dim
    dim_lower = m_d - q**n + len(coded)
    missable = q**n - m_d
    reached = sum(1 for w in pivot_sums if w in reach)
    checks = [
        Check("witness_total<=bound", total <= bound, total, bound),
        Check("dim_vanishing>=m_d-q^n+|S+T|", dim >= dim_lower, dim, dim_lower),
        Check("uncovered<=q^n-m_d", len(uncovered) <= missable, len(uncovered), missable),
        Check("cover_size<=rank_bound", cover.size <= rank_bound, cover.size, rank_bound),
        Check("pivot_positions_distinct", len(set(pivots)) == len(pivots)),
        Check("pivot_sums_distinct", len(set(pivot_sums)) == len(pivot_sums)),
        Check("lines_cover>=dim_vanishing_sums", reached >= dim, reached, dim),
    ]
    if chose_degree:
        checks.append(capset_check(q, n, bound))
    checks = certify(checks)
    if len(pivots) != dim:  # dim is the constraint rank's, the pivots another table's
        raise BoundViolated(f"{len(pivots)} pivots for a vanishing space of dimension {dim}")

    cert = DecompositionCertificate(
        covered_rows=covered_rows,
        covered_cols=covered_cols,
        patch_reps=patch,
        uncovered_sums=PointSet.from_coords(q, n, (points[code] for code in uncovered)),
        dim_vanishing=dim,
        cover_size=cover.size,
        checks=checks,
    )
    dec = Decomposition(s_witness, covered_cols, degree, bound, cert)
    return PipelineRun(
        s_input=S,
        t_input=T,
        degree=degree,
        rank_bound=rank_bound,
        sums=tuple(keys),
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
    nothing needs covering) without enumerating the ambient space; only the
    degree and budget are counted, refused first when that alone exceeds cap.
    """
    _check_inputs(S, T)
    q, n = S.q, S.n
    if not S.members or not T.members:
        check_count_cap(q, n, cap)
        degree, bound = _degree_and_bound(q, n, degree)
        empty = PointSet.empty(q, n)
        cert = DecompositionCertificate(empty, empty, empty, empty, 0, 0)
        return Decomposition(empty, empty, degree, bound, cert)
    return run_pipeline(S, T, degree, cap=cap).decomposition


class SymmetricWitness(NamedTuple):
    """A subset B of S with B + S = S + S, its decomposition and checks."""

    witness: PointSet
    decomposition: Decomposition
    checks: tuple[Check, ...]


def symmetric_witness(
    S: PointSet, degree: int | None = None, *, cap: int = DEFAULT_ENUM_CAP
) -> SymmetricWitness:
    """Merge both witness halves of the construction on (S, S) into B;
    certified: B within S, B + S = S + S (by commutativity), |B| <= bound."""
    dec = decompose(S, S, degree, cap=cap)
    witness = dec.s_witness.union(dec.t_witness)
    return SymmetricWitness(witness, dec, certify([
        Check("witness_within_set", witness.issubset(S)),
        Check("witness_plus_set_covers", verify_decomposition(S, S, witness, PointSet.empty(S.q, S.n))),
        Check("witness_size<=bound", len(witness) <= dec.bound, len(witness), dec.bound),
    ]))


def symmetric_subset(
    S: PointSet, degree: int | None = None, *, cap: int = DEFAULT_ENUM_CAP
) -> PointSet:
    """A subset B of S with B + S = S + S, of witness-bounded size (certified)."""
    return symmetric_witness(S, degree, cap=cap).witness


def verify_decomposition(
    S: PointSet, T: PointSet, s_witness: PointSet, t_witness: PointSet
) -> bool:
    """Direct re-check: containment, then coverage by plain enumeration.

    Shares no code with the pipeline: it calls neither field.sum_index nor
    field.sumset, uses no packed codes and builds no FieldVector; each sum
    is a coordinate tuple formed here, each pair's at most once.  U, the
    sums of the pairs with s in s* or t in t*, is (s* + T) union (S + t*).
    When U is all of F_q^n it covers S + T; otherwise every pair with s
    off s* and t off t* must have its sum in U, and the first miss decides.
    Given the containment, U lies within S + T, so this is the test
    (s* + T) union (S + t*) == S + T.
    """
    S._check_compatible(T)
    s_witness._check_compatible(S)
    t_witness._check_compatible(T)
    if not s_witness.issubset(S) or not t_witness.issubset(T):
        return False
    q = S.q
    t_all = [t.coords for t in T.members]
    t_star = [t.coords for t in t_witness.members]
    t_rest = [t.coords for t in T.members - t_witness.members]
    s_rest = [s.coords for s in S.members - s_witness.members]
    covered = {tuple([(a + b) % q for a, b in zip(s.coords, t)]) for s in s_witness.members for t in t_all}
    covered.update(tuple([(a + b) % q for a, b in zip(s, t)]) for s in s_rest for t in t_star)
    if len(covered) == q**S.n:
        return True
    return all(tuple([(a + b) % q for a, b in zip(s, t)]) in covered for s in s_rest for t in t_rest)
