"""Independent checkers and brute-force ground truth.

The witness construction promises a bound, not optimality.  This module
provides the other side of every such claim: an exhaustive oracle for the
true minimum witness total on tiny instances, a greedy baseline (a
heuristic with no certified bound), and checkers for the two classic
consequences (progression-free sets and matching-only sum-free families).

It owns the certified checks (decompose.certify) of those claims:
CapsetReport.checks, SumfreeReport.checks and oracle_checks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .decompose import Check, Decomposition, certify, decompose, symmetric_subset, verify_decomposition
from .errors import BoundViolated, PreconditionFailed, SearchTooLarge, ValidationError
from .field import DEFAULT_ENUM_CAP, FieldVector, PointSet, sumset
from .monomials import capset_bound_M

# 2^(|S|+|T|) subset pairs is the worst case; past this the oracle refuses.
DEFAULT_SEARCH_CAP = 16


def is_ap_free(S: PointSet) -> bool:
    """True iff S holds no three-term progression a, a+b, a+2b of distinct points.

    For q = 2 the third point a+2b equals a, so no progression has three
    distinct points and every set is progression-free by this definition.
    """
    members = S.members
    for x in members:
        for y in members:
            if x == y:
                continue
            z = y + y - x
            if z != x and z in members:
                return False
    return True


@dataclass(frozen=True)
class CapsetReport:
    """Outcome of the progression-free size check."""

    ap_free: bool
    applicable: bool
    set_size: int
    size_bound: int
    within_bound: bool | None
    recovers_whole_set: bool | None
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_capset_bound(S: PointSet, *, cap: int = DEFAULT_ENUM_CAP) -> CapsetReport:
    """Check a progression-free set against the monomial-count budget.

    Applicable only for q >= 3 and progression-free S.  Beyond the size
    bound itself, the underlying mechanism is re-derived: the symmetric
    witness subset must be all of S, because a proper subset B misses the
    double 2s of any s outside B.  Both are certified; an inapplicable
    input fails neither.
    """
    ap_free = is_ap_free(S)
    applicable = S.q >= 3 and ap_free
    bound = capset_bound_M(S.q, S.n)
    within = recovers = None
    if applicable:
        within, recovers = len(S) <= bound, symmetric_subset(S, cap=cap) == S
    checks = certify([
        Check("size<=bound", within if applicable else True, len(S), bound),
        Check("symmetric_witness_is_whole_set", recovers if applicable else True),
    ])
    return CapsetReport(ap_free, applicable, len(S), bound, within, recovers, checks)


@dataclass(frozen=True)
class OrderedPairFamily:
    """Aligned point lists (s_1..s_N), (t_1..t_N) pairing s_i with t_i."""

    s_order: tuple[FieldVector, ...]
    t_order: tuple[FieldVector, ...]

    def __post_init__(self) -> None:
        if len(self.s_order) != len(self.t_order):
            raise ValidationError(
                f"paired lists differ in length: {len(self.s_order)} vs {len(self.t_order)}"
            )
        if len(set(self.s_order)) != len(self.s_order):
            raise ValidationError("duplicate entries in the first list")
        if len(set(self.t_order)) != len(self.t_order):
            raise ValidationError("duplicate entries in the second list")
        spaces = {(v.q, v.n) for v in self.s_order} | {(v.q, v.n) for v in self.t_order}
        if len(spaces) > 1:
            raise ValidationError(f"mixed ambient spaces: {sorted(spaces)}")

    def __len__(self) -> int:
        return len(self.s_order)


def is_matching_sumfree(fam: OrderedPairFamily) -> bool:
    """True iff s_i + t_i = s_j + t_k forces (j, k) = (i, i).

    Equivalently, every diagonal sum s_i + t_i occurs once among the N^2
    sums s_j + t_k, so one count of those sums decides it.  The verdict
    depends only on the pairing, not on list positions.
    """
    counts = Counter(s + t for s in fam.s_order for t in fam.t_order)
    return all(counts[s + t] == 1 for s, t in zip(fam.s_order, fam.t_order))


@dataclass(frozen=True)
class SumfreeReport:
    """Outcome of the matching-only sum-free family check."""

    n_pairs: int
    size_bound: int
    witness_total: int
    all_indices_covered: bool
    within_bound: bool
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_sumfree_bound(
    fam: OrderedPairFamily, *, cap: int = DEFAULT_ENUM_CAP
) -> SumfreeReport:
    """Bound the family size and re-derive why the bound holds.

    Each diagonal sum s_i + t_i admits no other representation, so once the
    witness lines cover it, s_i must sit in the row witness or t_i in the
    column witness; tracking which gives N <= |S*| + |T*|.  All three
    inequalities are certified (an empty family reads 0 against 0).
    """
    if not is_matching_sumfree(fam):
        raise PreconditionFailed("family is not matching-only sum-free")
    pairs, bound, total, covered = len(fam), 0, 0, True
    if pairs:
        q, n = fam.s_order[0].q, fam.s_order[0].n
        S = PointSet.from_vectors(q, n, fam.s_order)
        T = PointSet.from_vectors(q, n, fam.t_order)
        dec = decompose(S, T, cap=cap)
        covered = all(
            s in dec.s_witness or t in dec.t_witness
            for s, t in zip(fam.s_order, fam.t_order)
        )
        bound, total = capset_bound_M(q, n), dec.witness_total
    checks = certify([
        Check("n_pairs<=bound", pairs <= bound, pairs, bound),
        Check("n_pairs<=witness_total", pairs <= total, pairs, total),
        Check("every_index_covered", covered),
    ])
    return SumfreeReport(pairs, bound, total, covered, pairs <= bound, checks)


@dataclass(frozen=True)
class OracleResult:
    best_s: PointSet
    best_t: PointSet
    best_total: int


def oracle_min_decomposition(
    S: PointSet, T: PointSet, *, search_cap: int = DEFAULT_SEARCH_CAP
) -> OracleResult:
    """Exhaustive minimum witness total, by increasing total size.

    Iterates totals 0, 1, 2, ... and within one total takes the split with
    fewer elements from S first, subsets in lexicographic order; the first
    success is therefore canonical.  Refuses when |S| + |T| exceeds the
    search cap.
    """
    S._check_compatible(T)
    if len(S) + len(T) > search_cap:
        raise SearchTooLarge(f"|S| + |T| = {len(S) + len(T)} exceeds search cap {search_cap}")
    q, n = S.q, S.n
    target = sumset(S, T).members
    s_list = S.ordered()
    t_list = T.ordered()
    row_sums = {s: frozenset((s + t) for t in t_list) for s in s_list}
    col_sums = {t: frozenset((s + t) for s in s_list) for t in t_list}
    for total in range(0, len(S) + len(T) + 1):
        for k in range(0, total + 1):
            if k > len(s_list) or total - k > len(t_list):
                continue
            for s_sub in itertools.combinations(s_list, k):
                got_rows = frozenset().union(*(row_sums[s] for s in s_sub)) if s_sub else frozenset()
                for t_sub in itertools.combinations(t_list, total - k):
                    got = got_rows.union(*(col_sums[t] for t in t_sub)) if t_sub else got_rows
                    if got == target:
                        return OracleResult(
                            PointSet.from_vectors(q, n, s_sub),
                            PointSet.from_vectors(q, n, t_sub),
                            total,
                        )
    raise BoundViolated("(S, T) itself always covers, yet no cover was found")


def oracle_checks(
    S: PointSet, T: PointSet, result: OracleResult, greedy_total: int, dec: Decomposition
) -> tuple[Check, ...]:
    """Certify the oracle against its witness, greedy and dec, and dec's bound."""
    best = result.best_total
    return certify([
        Check("oracle_witness_valid", verify_decomposition(S, T, result.best_s, result.best_t)),
        Check("oracle<=greedy", best <= greedy_total, best, greedy_total),
        Check("oracle<=pipeline", best <= dec.witness_total, best, dec.witness_total),
        Check("pipeline<=bound", dec.witness_total <= dec.bound, dec.witness_total, dec.bound),
    ])


def greedy_decomposition(S: PointSet, T: PointSet) -> tuple[PointSet, PointSet]:
    """Greedy line cover of S+T; a cheap baseline, never below the oracle.

    Nothing bounds it by the pipeline's witness total or by the bound.
    Candidate lines are {s} + T for s in S then S + {t} for t in T, both in
    canonical order; each round picks the line covering the most uncovered
    sums, earliest candidate winning ties.
    """
    S._check_compatible(T)
    q, n = S.q, S.n
    remaining = set(sumset(S, T).members)
    lines: list[tuple[str, FieldVector, frozenset[FieldVector]]] = []
    for s in S.ordered():
        lines.append(("row", s, frozenset(s + t for t in T.members)))
    for t in T.ordered():
        lines.append(("col", t, frozenset(s + t for s in S.members)))
    picked_s: list[FieldVector] = []
    picked_t: list[FieldVector] = []
    while remaining:
        best = None
        best_gain = 0
        for kind, point, line in lines:
            gain = len(line & remaining)
            if gain > best_gain:
                best = (kind, point, line)
                best_gain = gain
        if best is None:
            raise BoundViolated("a remaining sum lies on no line")
        kind, point, line = best
        (picked_s if kind == "row" else picked_t).append(point)
        remaining -= line
    return (
        PointSet.from_vectors(q, n, picked_s),
        PointSet.from_vectors(q, n, picked_t),
    )
