"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s) and asserts.  Criteria 3-6 share two precomputed collections of
pipeline runs: every pair of subsets of F_2^2, and 500 seeded random pairs
over F_3^2.

Criterion 9 is split: 9a checks that the growth sequence
(3*m(3, n, floor(2n/3)))^(1/n) stays below 2.9 from n = 20 on; 9b checks
on n in [20, 200] that every term matches an independent trinomial count,
lies under the strictly decreasing envelope 3^(1/n) * Gamma_3, and lies
below Gamma_3 itself.  The terms themselves are not monotone (they rise
toward Gamma_3 ~ 2.7551 with a 3-periodic wiggle), so the envelope is the
non-increasing statement that holds.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import time
from dataclasses import dataclass
from decimal import Decimal, localcontext

import pytest

import sumsetcover as sc
from sumsetcover.cli import run_command
from sumsetcover.summatrix import audit_matrices, rank_audit

from conftest import space_points, subset_from_mask


def report(num: str, name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@dataclass
class RunBundle:
    pipeline_runs: list  # PipelineRun for every nonempty pair
    decompositions: list  # (S, T, Decomposition) for every pair
    elapsed: float


@pytest.fixture(scope="session")
def f2_bundle() -> RunBundle:
    """All 256 subset pairs of F_2^2, decomposed at the default degree."""
    started = time.perf_counter()
    runs, decs = [], []
    for s_mask in range(16):
        for t_mask in range(16):
            S = subset_from_mask(2, 2, s_mask)
            T = subset_from_mask(2, 2, t_mask)
            if S.members and T.members:
                run = sc.run_pipeline(S, T)
                runs.append(run)
                decs.append((S, T, run.decomposition))
            else:
                decs.append((S, T, sc.decompose(S, T)))
    return RunBundle(runs, decs, time.perf_counter() - started)


@pytest.fixture(scope="session")
def f3_bundle() -> RunBundle:
    """500 seeded random nonempty pairs over F_3^2 at the default degree."""
    started = time.perf_counter()
    rng = random.Random(20260811)
    pts = space_points(3, 2)
    runs, decs = [], []
    while len(runs) < 500:
        S = sc.PointSet.from_vectors(3, 2, [p for p in pts if rng.random() < 0.5])
        T = sc.PointSet.from_vectors(3, 2, [p for p in pts if rng.random() < 0.5])
        if not S.members or not T.members:
            continue
        run = sc.run_pipeline(S, T)
        runs.append(run)
        decs.append((S, T, run.decomposition))
    return RunBundle(runs, decs, time.perf_counter() - started)


def test_criterion_01_counting_correctness():
    started = time.perf_counter()
    ok = True
    for q in (2, 3, 5):
        for n in range(1, 5):
            table = sc.degree_counts(q, n)
            top = (q - 1) * n
            ok = ok and sum(table.counts) == q**n
            ok = ok and all(table.counts[e] == table.counts[top - e] for e in range(top + 1))
            for d in range(top + 1):
                ok = ok and sc.count_m(q, n, d) == len(sc.enumerate_monomials(q, n, d))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    report("01", "counting correctness", ok, f"({elapsed:.3f}s)")
    assert ok


def test_criterion_02_bound_table():
    got = {
        (2, 2): sc.choose_degree(2, 2),
        (3, 2): sc.choose_degree(3, 2),
        (2, 1): sc.choose_degree(2, 1),
    }
    expected = {(2, 2): (1, 3), (3, 2): (3, 7), (2, 1): (1, 2)}
    ok = got == expected
    ok = ok and sc.capset_bound_M(3, 1) == 3
    ok = ok and sc.capset_bound_M(3, 2) == 9
    report("02", "bound table", ok, f"choose_degree={got}")
    assert ok, got


def test_criterion_03_exhaustive_f2_squared(f2_bundle):
    started = time.perf_counter()
    ok = len(f2_bundle.decompositions) == 256
    for S, T, dec in f2_bundle.decompositions:
        ok = ok and sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness)
        ok = ok and dec.witness_total <= 3
        oracle = sc.oracle_min_decomposition(S, T)
        ok = ok and oracle.best_total <= dec.witness_total
    elapsed = f2_bundle.elapsed + (time.perf_counter() - started)
    ok = ok and elapsed < 10.0
    report("03", "exhaustive check at q=2, n=2", ok, f"(256 pairs, {elapsed:.2f}s)")
    assert ok


def test_criterion_04_randomized_f3_squared(f3_bundle):
    started = time.perf_counter()
    ok = len(f3_bundle.pipeline_runs) >= 500
    for run in f3_bundle.pipeline_runs:
        dec = run.decomposition
        S, T = run.s_input, run.t_input
        ok = ok and sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness)
        ok = ok and dec.witness_total <= 7
        m_d = run.space.ambient_dim
        ok = ok and run.space.dim >= m_d - 9 + len(run.sum_set)
        ok = ok and len(dec.certificate.uncovered_sums) <= 9 - m_d
    elapsed = f3_bundle.elapsed + (time.perf_counter() - started)
    ok = ok and elapsed < 60.0
    report("04", "randomized check at q=3, n=2", ok,
           f"({len(f3_bundle.pipeline_runs)} pairs, {elapsed:.2f}s)")
    assert ok


def test_criterion_05_clp_certificates(f2_bundle, f3_bundle):
    ok = True
    checked = 0
    for run in itertools.chain(f2_bundle.pipeline_runs, f3_bundle.pipeline_runs):
        audit = rank_audit(run)
        ok = ok and audit.exact and audit.ranks_within_terms
        ok = ok and audit.max_term_count <= run.rank_bound
        checked += run.space.dim
    # concrete instance: squaring over F_3 at degree budget 2
    pts = space_points(3, 1)
    (a,) = audit_matrices([sc.poly_from_terms(3, 1, {(2,): 1})], 2, pts, pts)
    ok = ok and a.rebuilt == a.entries
    ok = ok and a.rank == 3 and a.term_count <= 4
    report("05", "rank split certificates", ok,
           f"({checked} basis elements; concrete rank {a.rank} <= {a.term_count} <= 4)")
    assert ok


def test_criterion_06_cover_never_violated(f2_bundle, f3_bundle):
    ok = True
    for run in itertools.chain(f2_bundle.pipeline_runs, f3_bundle.pipeline_runs):
        ok = ok and run.cover.size <= run.rank_bound
        pivots = run.pivots
        ok = ok and len(set(pivots)) == len(pivots)
        s_ord, t_ord = run.s_input.ordered(), run.t_input.ordered()
        sums = [s_ord[i] + t_ord[j] for i, j in pivots]
        ok = ok and len(set(sums)) == len(sums)
    total = len(f2_bundle.pipeline_runs) + len(f3_bundle.pipeline_runs)
    report("06", "line covers within rank bound", ok, f"({total} pipeline runs)")
    assert ok


def _sample_ap_free_sets() -> list[sc.PointSet]:
    """Seeded random greedy progression-free sets of size <= 6."""
    rng = random.Random(97)
    out = []
    for q, n, count, max_size in [(3, 1, 4, 2), (3, 2, 10, 4), (3, 3, 8, 6), (5, 1, 4, 2)]:
        pts = list(space_points(q, n))
        for _ in range(count):
            rng.shuffle(pts)
            chosen: list[sc.FieldVector] = []
            for p in pts:
                if len(chosen) >= max_size:
                    break
                candidate = sc.PointSet.from_vectors(q, n, chosen + [p])
                if sc.is_ap_free(candidate):
                    chosen.append(p)
            out.append(sc.PointSet.from_vectors(q, n, chosen))
    return out


def test_criterion_07_capset_size_bound():
    started = time.perf_counter()
    largest = 0
    for mask in range(1 << 9):
        S = subset_from_mask(3, 2, mask)
        if sc.is_ap_free(S):
            largest = max(largest, len(S))
    ok = largest == 4 and largest <= sc.capset_bound_M(3, 2) == 9

    for S in _sample_ap_free_sets():
        if not len(S):
            continue
        ok = ok and len(S) <= 6
        ok = ok and sc.symmetric_subset(S) == S
        double = sc.sumset(S, S)
        members = S.ordered()
        for mask in range((1 << len(S)) - 1):  # every proper subset
            sub = sc.PointSet.from_vectors(
                S.q, S.n, (p for i, p in enumerate(members) if mask >> i & 1)
            )
            ok = ok and sc.sumset(sub, S) != double
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    report("07", "progression-free size bound", ok,
           f"(max size in F_3^2 = {largest}, {elapsed:.2f}s)")
    assert ok


def _random_sumfree_families() -> list[sc.OrderedPairFamily]:
    rng = random.Random(4242)
    pts = list(space_points(3, 2))
    families = []
    while len(families) < 10:
        size = rng.randint(1, 4)
        fam = sc.OrderedPairFamily(
            tuple(rng.sample(pts, size)), tuple(rng.sample(pts, size))
        )
        if sc.is_matching_sumfree(fam):
            families.append(fam)
    return families


def test_criterion_08_multicolored_sumfree():
    ok = True
    families = _random_sumfree_families()
    # the diagonal family of a 4-point progression-free set qualifies too
    capset = sc.PointSet.from_coords(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert sc.is_ap_free(capset)
    diag = tuple(capset.ordered())
    families.append(sc.OrderedPairFamily(diag, diag))
    f5 = sc.OrderedPairFamily(
        (sc.FieldVector(5, (0,)), sc.FieldVector(5, (1,))),
        (sc.FieldVector(5, (0,)), sc.FieldVector(5, (1,))),
    )
    families.append(f5)
    for fam in families:
        ok = ok and sc.is_matching_sumfree(fam)
        rep = sc.check_sumfree_bound(fam)
        ok = ok and rep.all_indices_covered
        ok = ok and rep.n_pairs <= rep.witness_total
        ok = ok and rep.within_bound
    collision = sc.OrderedPairFamily(
        (sc.FieldVector(2, (0,)), sc.FieldVector(2, (1,))),
        (sc.FieldVector(2, (0,)), sc.FieldVector(2, (1,))),
    )
    ok = ok and not sc.is_matching_sumfree(collision)
    report("08", "multicolored sum-free", ok, f"({len(families)} valid families)")
    assert ok


@pytest.fixture(scope="session")
def growth_sequence():
    started = time.perf_counter()
    seq = sc.growth_estimate(3, 200, digits=40)
    return seq, time.perf_counter() - started


def test_criterion_09a_growth_below_threshold(growth_sequence):
    seq, elapsed = growth_sequence
    tail = seq[19:]
    ok = all(v < Decimal("2.9") for v in tail)
    ok = ok and elapsed < 10.0
    report("09a", "growth stays below 2.9 from n=20", ok,
           f"(max {max(tail):.6f}, {elapsed:.2f}s)")
    assert ok


def _trinomial_budget(n: int) -> int:
    """3 * m(3, n, floor(2n/3)), counted without the library.

    A reduced monomial in n variables over F_3 has k exponents equal to 2,
    j equal to 1 and the rest 0, so its degree is j + 2k.
    """
    a = 2 * n // 3
    return 3 * sum(
        math.comb(n, k) * math.comb(n - k, j)
        for k in range(a // 2 + 1)
        for j in range(min(a - 2 * k, n - k) + 1)
    )


def _gamma_3(digits: int) -> Decimal:
    """Gamma_3 = min over 0 < x < 1 of (1 + x + x^2) / x^(2/3).

    The minimiser solves 4x^2 + x - 2 = 0, so x* = (sqrt(33) - 1) / 8; the
    minimum equals (3/8) * cbrt(207 + 33 sqrt(33)) ~ 2.7551.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        root33 = Decimal(33).sqrt()
        x = (root33 - 1) / 8
        gamma = (1 + x + x * x) / (x.ln() * 2 / 3).exp()
        closed = (Decimal(3) / 8) * ((207 + 33 * root33).ln() / 3).exp()
        assert abs(gamma - closed) < Decimal(10) ** (5 - digits)
        return +gamma


def test_criterion_09b_growth_non_increasing(growth_sequence):
    """On n in [20, 200] the growth sequence sits under a non-increasing
    envelope and approaches its limit from below.

    Three exact checks per term g_n:

    1. independent count: g_n equals (3 * M_n)^(1/n) to 30 digits, where
       M_n is the trinomial sum over j + 2k <= floor(2n/3) of
       C(n, k) * C(n - k, j), computed with no library counting code;
    2. envelope: g_n <= 3^(1/n) * Gamma_3.  For 0 < x <= 1 and a <= 2n/3,
       m(3, n, a) <= x^(-a) (1 + x + x^2)^n <= ((1 + x + x^2) / x^(2/3))^n,
       and at the minimiser this is Gamma_3^n; the envelope decreases
       strictly to Gamma_3 < 3;
    3. approach from below: g_n < Gamma_3.

    The terms themselves are not monotone: the floor in the degree index
    gives a 3-periodic wiggle (n = 20 -> 21 rises 2.68771 -> 2.71416).
    """
    seq, _ = growth_sequence
    digits = 50
    gamma = _gamma_3(digits)
    tol = Decimal("1e-30")
    bad_count, over_envelope, over_gamma = [], [], []
    with localcontext() as ctx:
        ctx.prec = digits
        for n in range(20, 201):
            g = seq[n - 1]
            ref = (Decimal(_trinomial_budget(n)).ln() / n).exp()
            if abs(g - ref) > tol:
                bad_count.append(n)
            if g > (Decimal(3).ln() / n).exp() * gamma:
                over_envelope.append(n)
            if g >= gamma:
                over_gamma.append(n)
    ok = not (bad_count or over_envelope or over_gamma)
    tail = seq[19:]
    detail = (
        f"(181 terms; max {max(tail):.5f}, Gamma_3 = {gamma:.5f}; "
        f"n with count mismatch {bad_count[:5]}, over 3^(1/n)*Gamma_3 "
        f"{over_envelope[:5]}, at or over Gamma_3 {over_gamma[:5]})"
    )
    report("09b", "growth under 3^(1/n)*Gamma_3 and below Gamma_3 on 20..200",
           ok, detail)
    assert ok, detail


def test_criterion_10_determinism(capsys):
    argv = ["trials", "--q", "2", "--n", "2", "--count", "100", "--seed", "7", "--json"]
    code1 = run_command(argv)
    first = capsys.readouterr().out
    code2 = run_command(argv)
    second = capsys.readouterr().out
    strip = lambda text: re.sub(r'^\s*"timing_ms": .*$', "", text, flags=re.MULTILINE)
    ok = code1 == code2 == 0 and strip(first) == strip(second)
    ok = ok and json.loads(first)["ok"]
    report("10", "byte-identical reports", ok)
    assert ok
