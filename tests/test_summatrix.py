import contextlib
import dataclasses
import io
import itertools
import json
import math
import random
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import sumsetcover as sc
from sumsetcover import cli, linalg, monomials, summatrix
from sumsetcover.cli import parse_instance, run_command
from sumsetcover.errors import DegreeTooHigh

import reference
from conftest import SEEDED_GRID, audit_polys, basis, polynomials, seeded_pair, set_pairs, space_points

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


F3 = space_points(3, 1)
SQUARE = sc.poly_from_terms(3, 1, {(2,): 1})


def _grid(rows) -> tuple[tuple[int, ...], ...]:
    """Packed or list rows as a tuple grid."""
    return tuple(map(tuple, linalg.as_rows(rows)))


def _audit(P, degree, row_points, col_points) -> summatrix.MatrixAudit:
    """The audit of P's one sum matrix."""
    (a,) = audit_polys([P], degree, row_points, col_points)
    return a


class TestSumMatrix:
    def test_constant_gives_all_ones(self):
        a = _audit(sc.poly_from_terms(3, 1, {(0,): 1}), 2, F3, F3)
        assert _grid(a.entries) == ((1, 1, 1),) * 3
        assert a.rank == sc.matrix_rank([[1] * 3] * 3, 3) == 1

    def test_square_polynomial(self):
        assert _grid(_audit(SQUARE, 2, F3, F3).entries) == ((0, 1, 1), (1, 1, 0), (1, 0, 1))

    def test_zero_polynomial(self):
        a = _audit(sc.poly_from_terms(3, 1, {}), 2, F3, F3)
        assert _grid(a.entries) == ((0, 0, 0),) * 3
        assert a.rank == a.term_count == 0

    @given(polynomials())
    @settings(deadline=None)
    def test_equal_entries_on_equal_sums(self, P):
        pts = space_points(3, 2)
        entries = _grid(_audit(P, 4, pts, pts).entries)
        values = {}
        for i, s in enumerate(pts):
            for j, t in enumerate(pts):
                key = (s + t).coords
                values.setdefault(key, entries[i][j])
                assert values[key] == entries[i][j]


class TestMatrixRank:
    def test_identity(self):
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert sc.matrix_rank(eye, 2) == 3

    def test_all_ones(self):
        assert sc.matrix_rank([[1] * 4 for _ in range(4)], 5) == 1

    def test_square_matrix_is_invertible(self):
        a = _audit(SQUARE, 2, F3, F3)
        assert a.rank == sc.matrix_rank([list(r) for r in _grid(a.entries)], 3) == 3


class TestClpDecompose:
    def test_constant(self):
        cert = sc.clp_decompose(sc.poly_from_terms(3, 1, {(0,): 2}), 2)
        assert cert.term_count == 1
        assert len(cert.left_factors) == 1
        f, g = cert.left_factors[0]
        assert f.terms == {(0,): 1}
        assert g.terms == {(0,): 2}

    def test_square_split(self):
        # (x+y)^2 = x^2*1 + 2x*y + 1*y^2 over F_3; split at degree 1
        cert = sc.clp_decompose(SQUARE, 2)
        assert cert.split == 1
        assert cert.term_count == 3
        assert [(f.terms, g.terms) for f, g in cert.left_factors] == [
            ({(0,): 1}, {(2,): 1}),
            ({(1,): 1}, {(1,): 2}),
        ]
        assert [(f.terms, g.terms) for f, g in cert.right_factors] == [
            ({(2,): 1}, {(0,): 1})
        ]
        assert cert.term_count <= 2 * sc.count_m(3, 1, 1)

    def test_reconstruction_matches(self):
        a = _audit(SQUARE, 2, F3, F3)
        assert a.exact
        assert reference.clp_reconstruct(sc.clp_decompose(SQUARE, 2), F3, F3) == _grid(a.entries)

    @pytest.mark.parametrize("P, message", [
        # x^2 is x on F_2: the audit read an all-zero matrix, clp_decompose two terms
        (sc.Polynomial(2, 1, {(2,): 1}), r"exponent tuple \(2,\) not reduced for q=2"),
        (sc.Polynomial(2, 2, {(1,): 1}), r"exponent tuple \(1,\) has length != 2"),
    ], ids=["unreduced", "wrong-length"])
    def test_unreduced_polynomial_refused(self, P, message):
        # clp_decompose reads a Polynomial through poly_from_terms' check
        with pytest.raises(ValueError, match=message):
            sc.clp_decompose(P, 2)

    def test_degree_gate(self):
        with pytest.raises(DegreeTooHigh):
            sc.clp_decompose(SQUARE, 1)

    def test_zero_polynomial(self):
        zero = sc.poly_from_terms(3, 2, {})
        assert sc.clp_decompose(zero, 3).term_count == 0
        pts = space_points(3, 2)[:2]
        a = _audit(zero, 3, pts, pts)
        assert a.exact and _grid(a.entries) == ((0, 0), (0, 0))

    @given(polynomials(max_degree=3))
    @settings(deadline=None)
    def test_random_certificates(self, P):
        pts = space_points(3, 2)
        a = _audit(P, 3, pts, pts)
        assert a.exact
        assert a.term_count == sc.clp_decompose(P, 3).term_count <= 2 * sc.count_m(3, 2, 1) == 6
        assert a.rank <= a.term_count

    def test_sparse_polynomial_numbers_only_its_parts(self, monkeypatch):
        # x_1^2 ... x_5^2 over F_3^20: the certificate lists the 3^5 parts of
        # its one monomial, not the m(3, 20, 20) monomials of its degree
        monkeypatch.setattr(monomials, "enumerate_monomials", None)
        P = sc.poly_from_terms(3, 20, {(2,) * 5 + (0,) * 15: 1})
        cert = sc.clp_decompose(P, 20)
        assert cert.term_count == len(cert.left_factors) == 3**5

    def test_left_anchors_have_low_degree(self):
        P = sc.poly_from_terms(3, 2, {(2, 1): 1, (1, 1): 2, (0, 0): 1})
        cert = sc.clp_decompose(P, 3)
        for f, _ in cert.left_factors:
            assert sc.poly_degree(f) <= cert.split
        for _, g in cert.right_factors:
            assert sc.poly_degree(g) <= cert.split


class TestInjectivity:
    @given(set_pairs(primes=(2, 3), allow_empty=False), st.data())
    @settings(deadline=None)
    def test_nonzero_combinations_stay_nonzero(self, pair, data):
        # the vanishing space embeds into matrix space: a polynomial killed by
        # the sum matrix vanishes everywhere, hence is zero
        S, T = pair
        q = S.q
        degree = (q - 1) * S.n // 2
        space = sc.build_vanishing_space(sc.sumset(S, T), degree)
        if not space.dim:
            return
        coeffs = data.draw(
            st.lists(
                st.integers(0, q - 1),
                min_size=space.dim,
                max_size=space.dim,
            ).filter(lambda cs: any(cs))
        )
        terms = {}
        for c, P in zip(coeffs, basis(space)):
            for mono, coeff in P.terms.items():
                terms[mono] = terms.get(mono, 0) + c * coeff
        combo = sc.poly_from_terms(q, S.n, terms)
        a = _audit(combo, degree, S.ordered(), T.ordered())
        assert any(v for row in _grid(a.entries) for v in row)


def _assert_audit_matches_reference(run):
    s_ord, t_ord = run.s_input.ordered(), run.t_input.ordered()
    polys = basis(run.space)
    got = list(audit_polys(polys, run.degree, s_ord, t_ord))
    want = reference.audit_matrices(polys, run.degree, s_ord, t_ord)
    assert len(got) == len(want) == len(polys)
    for P, a, r in zip(polys, got, want):
        assert _grid(a.entries) == r.entries
        assert a.exact == (r.rebuilt == r.entries)
        assert (a.rank, a.term_count) == (r.rank, r.term_count)
        assert sc.clp_decompose(P, run.degree) == reference.clp_decompose(P, run.degree)
    audit = summatrix.rank_audit(run)
    assert audit == summatrix.RankAudit(
        all(r.entries == r.rebuilt for r in want),
        all(r.rank <= r.term_count for r in want),
        max((r.rank for r in want), default=0),
        max((r.term_count for r in want), default=0),
    )
    assert audit.exact and audit.ranks_within_terms


class TestAuditMatchesReference:
    """The table-driven audit against the per-cell loops of tests/reference.py."""

    @pytest.mark.parametrize("q,n", SEEDED_GRID)
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_grid(self, q, n, seed):
        _assert_audit_matches_reference(sc.run_pipeline(*seeded_pair(q, n, seed)))

    @pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
    def test_golden_instances(self, path):
        inst = parse_instance(str(path))
        _assert_audit_matches_reference(sc.run_pipeline(inst.s_set, inst.t_set))

    @given(set_pairs(primes=(2, 3, 5), allow_empty=False), st.integers(0, 8))
    @settings(deadline=None, max_examples=40)
    def test_hypothesis_pairs(self, pair, d):
        S, T = pair
        _assert_audit_matches_reference(sc.run_pipeline(S, T, min(d, (S.q - 1) * S.n)))

    @given(polynomials(q=3, n=3, max_degree=5), polynomials(q=5, n=2, max_degree=5))
    @settings(deadline=None, max_examples=30)
    def test_single_matrices(self, P3, P5):
        for P, d in ((P3, 5), (P5, 5)):
            pts = space_points(P.q, P.n)[::2]
            cert = sc.clp_decompose(P, d)
            assert cert == reference.clp_decompose(P, d)
            a = _audit(P, d, pts, pts[::-1])
            entries = reference.sum_grid(P, pts, pts[::-1])
            assert _grid(a.entries) == entries
            assert a.exact == (reference.clp_reconstruct(cert, pts, pts[::-1]) == entries)


GOLDEN_Q3_N5 = str(Path(__file__).parent / "golden" / "q3_n5.json")


def _first_call(breaker):
    """A fault: the stage's first result passed through breaker, later ones unchanged."""
    def fault(real):
        calls = []

        def broken(*args):
            calls.append(args)
            out = real(*args)
            return breaker(out) if len(calls) == 1 else out

        return broken

    return fault


def _failed_checks(monkeypatch, stage, fault) -> tuple[int, dict, list[str]]:
    """Run the CLI audit with summatrix.<stage> replaced by fault(real stage)."""
    monkeypatch.setattr(summatrix, stage, fault(getattr(summatrix, stage)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(["decompose", "--input", GOLDEN_Q3_N5, "--json", "--certify-rank"])
    report = json.loads(out.getvalue())
    checks = {c["name"]: c for c in report["checks"]}
    return code, checks, [name for name, c in checks.items() if not c["passed"]]


def _golden_audit():
    """The golden q=3, n=5 run, its basis polynomials and their audits."""
    inst = parse_instance(GOLDEN_Q3_N5)
    run = sc.run_pipeline(inst.s_set, inst.t_set)
    polys = basis(run.space)
    audits = list(audit_polys(polys, run.degree, run.s_input.ordered(), run.t_input.ordered()))
    return run, polys, audits


def test_rank_check_is_per_matrix(monkeypatch):
    # The first basis matrix's term count is cut to rank - 1; the largest
    # rank still stays within the largest term count of the others, so only
    # a per-matrix comparison sees the break.
    _, _, audits = _golden_audit()
    first = audits[0]
    assert first.rank >= 1
    assert max(a.rank for a in audits) <= max(a.term_count for a in audits[1:])

    code, checks, failed = _failed_checks(
        monkeypatch, "_term_count", _first_call(lambda count: first.rank - 1)
    )
    check = checks["max_rank<=max_term_count"]
    assert code == 1 and failed == ["max_rank<=max_term_count"]
    assert check["lhs"] <= check["rhs"]


def test_inexact_reconstruction_fails(monkeypatch):
    # The flat rebuild R(m) of the first monomial the basis uses gains the
    # all-ones matrix.
    def plus_ones(flat):
        first, *rest = linalg.as_rows(flat)
        return linalg.as_table([[v + 1 for v in first], *rest], len(first), 3)

    code, _, failed = _failed_checks(monkeypatch, "outer_rows", _first_call(plus_ones))
    assert code == 1 and failed == ["clp_reconstructions_exact"]


@pytest.mark.parametrize("q", [3, 5])
def test_cancelling_rebuild_faults_fail(q, monkeypatch):
    # P = x + x^2 over F_q: R(x) gains E, one 1 in the first cell, and
    # R(x^2) loses it.  P's rebuild R(x) + R(x^2) is still its sum matrix, so
    # a check per basis row passes; the check per monomial sees both faults.
    S = sc.all_points(q, 1)
    space = types.SimpleNamespace(q=q, n=1, monos=sc.enumerate_monomials(q, 1, 2), rows=[[0, 1, 1]])
    run = types.SimpleNamespace(space=space, degree=2, s_input=S, t_input=S)
    assert summatrix.rank_audit(run).exact

    def cancel(flat):
        gains, loses = (list(row) for row in linalg.as_rows(flat))
        gains[0] += 1
        loses[0] -= 1
        return linalg.as_table([gains, loses], len(gains), q)

    real = summatrix.outer_rows
    monkeypatch.setattr(summatrix, "outer_rows", lambda *args: cancel(real(*args)))
    audit = summatrix.rank_audit(run)
    failed = [c.name for c in audit.checks(audit.max_term_count) if not c.passed]
    assert failed == ["clp_reconstructions_exact"]


class TestAuditFaultOracle:
    """Faults in the audit's two per-term inputs, each seen both by the audit
    and by the per-cell rebuild of tests/reference.py."""

    def test_one_monomial_expansion(self, monkeypatch):
        # The term 1 * y^m of one monomial m's expansion gets weight 2: every
        # basis matrix whose polynomial uses m gains 1 (x) m at T.
        run, polys, _ = _golden_audit()
        target = max(polys[0].terms, key=sc.monomial_key)
        real = summatrix._expand

        def broken(full, q, split, index):
            terms, left, right = real(full, q, split, index)
            if full == target:
                (a, b, w), *rest = terms
                assert (a, w) == (0, 1)  # the constant monomial heads every graded list
                terms = [(a, b, 2), *rest]
            return terms, left, right

        code, _, failed = _failed_checks(monkeypatch, "_expand", lambda real: broken)
        assert code == 1 and failed == ["clp_reconstructions_exact"]

        s_ord, t_ord = run.s_input.ordered(), run.t_input.ordered()
        audits = list(audit_polys(polys, run.degree, s_ord, t_ord))
        seen = []
        for P, a in zip(polys, audits):
            rebuilt = reference.clp_reconstruct(sc.clp_decompose(P, run.degree), s_ord, t_ord)
            assert _grid(a.entries) == reference.sum_grid(P, s_ord, t_ord)
            assert a.exact == (rebuilt == _grid(a.entries))
            if rebuilt != _grid(a.entries):
                seen.append(target in P.terms)
        assert seen and all(seen)

    def test_one_row_term_count(self, monkeypatch):
        # The first basis row's anchors are taken from its first monomial
        # alone.  The terms the reference certificate anchors there cannot
        # rebuild the matrix, whose rank exceeds their number.
        run, polys, audits = _golden_audit()
        anchors = []

        def fault(real):
            def broken(masks, budget, split):
                if not anchors:
                    anchors.append(masks[0])
                    return real(masks[:1], budget, split)
                return real(masks, budget, split)
            return broken

        code, checks, failed = _failed_checks(monkeypatch, "_term_count", fault)
        assert code == 1 and failed == ["max_rank<=max_term_count"]

        (left, right), = anchors
        monos = run.space.monos
        P, first = polys[0], audits[0]
        cert = reference.clp_decompose(P, run.degree)
        kept = dataclasses.replace(
            cert,
            left_factors=tuple(fg for fg in cert.left_factors if left >> monos.index(*fg[0].terms) & 1),
            right_factors=tuple(fg for fg in cert.right_factors if right >> monos.index(*fg[1].terms) & 1),
        )
        count = len(kept.left_factors) + len(kept.right_factors)
        assert count == left.bit_count() + right.bit_count() < first.rank
        s_ord, t_ord = run.s_input.ordered(), run.t_input.ordered()
        assert reference.clp_reconstruct(kept, s_ord, t_ord) != reference.sum_grid(P, s_ord, t_ord)
        assert reference.clp_reconstruct(cert, s_ord, t_ord) == reference.sum_grid(P, s_ord, t_ord)


def test_rank_budget_check_fails_alone(monkeypatch):
    # max_term_count<=rank_bound is the one audit check that compares with
    # the run: a budget one below the largest term count fails it alone,
    # in the library and through the CLI, with both sides shown.
    inst = parse_instance(GOLDEN_Q3_N5)
    run = sc.run_pipeline(inst.s_set, inst.t_set)
    audit = summatrix.rank_audit(run)
    tight = audit.max_term_count - 1
    checks = audit.checks(tight)
    assert [c.name for c in checks if not c.passed] == ["max_term_count<=rank_bound"]
    assert checks[-1] == ("max_term_count<=rank_bound", False, audit.max_term_count, tight)
    assert all(c.passed for c in audit.checks(run.rank_bound))

    real = cli.run_pipeline
    monkeypatch.setattr(cli, "run_pipeline", lambda *a, **k: dataclasses.replace(real(*a, **k), rank_bound=tight))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(["decompose", "--input", GOLDEN_Q3_N5, "--json", "--certify-rank"])
    failed = [c for c in json.loads(out.getvalue())["checks"] if not c["passed"]]
    assert code == 1
    assert failed == [{"name": "max_term_count<=rank_bound", "passed": False,
                       "lhs": audit.max_term_count, "rhs": tight}]


# q -> largest n whose every degree 0..(q-1)n the differential tests cover
EXPANSION_SPACES = {2: 4, 3: 3, 5: 2, 7: 2}


def _cert_items(cert):
    """The certificate with each factor's terms in their dict order."""
    return cert, [
        (list(f.terms.items()), list(g.terms.items()))
        for f, g in cert.left_factors + cert.right_factors
    ]


def _assert_same_split(P, degree):
    """clp_decompose equals the per-polynomial expansion, or both refuse."""
    if sc.poly_degree(P) > degree:
        with pytest.raises(DegreeTooHigh):
            sc.clp_decompose(P, degree)
        with pytest.raises(DegreeTooHigh):
            reference.clp_decompose_per_polynomial(P, degree)
        return
    got = sc.clp_decompose(P, degree)
    assert _cert_items(got) == _cert_items(reference.clp_decompose_per_polynomial(P, degree))


def _seeded_polynomials(q, n, seed):
    """The zero polynomial, then sparse and dense random ones over F_q^n."""
    rng = random.Random(f"{q}:{n}:{seed}")
    monos = sc.enumerate_monomials(q, n, (q - 1) * n)
    yield sc.poly_from_terms(q, n, {})
    for density in (0.2, 0.6, 1.0):
        yield sc.poly_from_terms(q, n, {m: rng.randrange(q) for m in monos if rng.random() < density})


class TestExpansionTable:
    """clp_decompose against the per-polynomial expansion it replaced, and
    the audit's expansions counted."""

    @pytest.mark.parametrize("q,n", [(q, n) for q, top in EXPANSION_SPACES.items() for n in range(1, top + 1)])
    def test_seeded_every_degree(self, q, n):
        polys = [P for seed in range(2) for P in _seeded_polynomials(q, n, seed)]
        for degree in range((q - 1) * n + 1):
            for P in polys:
                _assert_same_split(P, degree)

    @given(st.sampled_from(sorted(EXPANSION_SPACES)).flatmap(
        lambda q: polynomials(q=q, n=min(EXPANSION_SPACES[q], 2))
    ), st.data())
    @settings(deadline=None, max_examples=60)
    def test_hypothesis_polynomials(self, P, data):
        degree = data.draw(st.integers(0, (P.q - 1) * P.n))
        _assert_same_split(P, degree)
        _assert_same_split(P, (P.q - 1) * P.n)

    def test_expands_each_monomial_once_per_audit(self, monkeypatch):
        inst = parse_instance(GOLDEN_Q3_N5)
        run = sc.run_pipeline(inst.s_set, inst.t_set)
        real = summatrix._expand
        expanded = []

        def counting(full, *args):
            expanded.append(full)
            return real(full, *args)

        monkeypatch.setattr(summatrix, "_expand", counting)
        audit = summatrix.rank_audit(run)
        assert audit.exact and audit.ranks_within_terms
        polys = basis(run.space)
        distinct = set().union(*(P.terms for P in polys))
        assert len(polys) > 1 and len(distinct) < sum(len(P.terms) for P in polys)
        assert len(expanded) == len(distinct)

    def test_interleaved_audits_expand_each_monomial_once(self, monkeypatch):
        # audit B starts inside audit A and outlives it; each expands the
        # monomials it uses once, so neither expands a monomial twice
        inst = parse_instance(GOLDEN_Q3_N5)
        run = sc.run_pipeline(inst.s_set, inst.t_set)
        real = summatrix._expand
        expanded = []

        def counting(full, *args):
            expanded.append(full)
            return real(full, *args)

        monkeypatch.setattr(summatrix, "_expand", counting)
        polys = basis(run.space)
        audits = {
            name: audit_polys(polys, run.degree, run.s_input.ordered(), run.t_input.ordered())
            for name in "AB"
        }
        counts = {"A": 0, "B": 0}

        def advance(name, matrices=None):
            """Audit that many more matrices (all that are left for None)."""
            before = len(expanded)
            list(itertools.islice(audits[name], matrices))
            counts[name] += len(expanded) - before

        advance("A", 1)
        advance("B", 1)
        advance("A")
        advance("B")
        distinct = set().union(*(P.terms for P in polys))
        assert len(distinct) == 220 < sum(len(P.terms) for P in polys)
        assert counts == {"A": 220, "B": 220}


def _audit_anchors(run):
    """Per basis row, the anchor monomials rank_audit reads (the set bits of
    the OR of its monomials' row-side masks, then of their column-side
    masks) and the term count it returns."""
    monos = run.space.monos
    real, read = summatrix._term_count, []

    def recording(masks, budget, split):
        left = right = 0
        for a, b in masks:
            left |= a
            right |= b
        count = real(masks, budget, split)
        anchors = [{m for k, m in enumerate(monos) if side >> k & 1} for side in (left, right)]
        read.append((*anchors, count))
        return count

    with mock.patch.object(summatrix, "_term_count", recording):
        summatrix.rank_audit(run)
    return read


def _cert_anchors(cert):
    """A certificate's row-side and column-side anchor monomials and its term count."""
    left = {mono for f, _ in cert.left_factors for mono in f.terms}
    right = {mono for _, g in cert.right_factors for mono in g.terms}
    return left, right, cert.term_count


def _assert_anchor_sets(S, T):
    """At every degree, each basis row's anchors as the audit reads them
    equal clp_decompose's and the reference split's, and so do the term counts."""
    q, n = S.q, S.n
    for d in range((q - 1) * n + 1):
        run = sc.run_pipeline(S, T, d)
        polys = basis(run.space)
        read = _audit_anchors(run)
        assert len(read) == len(polys)
        for P, got in zip(polys, read):
            assert got == _cert_anchors(sc.clp_decompose(P, d)) == _cert_anchors(reference.clp_decompose(P, d))


class TestTermCount:
    """The audit's anchor sets and term count |L| + |R| against clp_decompose
    and the reference split."""

    @pytest.mark.parametrize("q,n", SEEDED_GRID)
    def test_seeded_grid(self, q, n):
        _assert_anchor_sets(*seeded_pair(q, n, 0))

    @pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
    def test_golden_instances(self, path):
        inst = parse_instance(str(path))
        _assert_anchor_sets(inst.s_set, inst.t_set)

    @given(set_pairs(primes=(2, 3, 5), allow_empty=False))
    @settings(deadline=None, max_examples=30)
    def test_hypothesis_pairs(self, pair):
        _assert_anchor_sets(*pair)


class TestAuditWork:
    """The --certify-rank refusal's estimate, on values that allocate nothing."""

    @pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (5, 2), (7, 2)])
    def test_terms_are_the_expansion_sizes(self, q, n):
        # one row and 64 columns: one word per term, plus m_d * min(m_d, 64)
        for d in range(-1, (q - 1) * n + 2):
            monos = sc.enumerate_monomials(q, n, d) if d >= 0 else []
            terms = sum(math.prod(e + 1 for e in m) for m in monos)
            assert summatrix.audit_work(q, n, d, 1, 64) == terms + min(len(monos), 64) * len(monos)

    def test_golden_and_north_star_admitted(self):
        for path in GOLDEN:
            inst = parse_instance(str(path))
            summatrix.check_audit_cap(inst.q, inst.n, None, len(inst.s_set), len(inst.t_set))
        summatrix.check_audit_cap(3, 7, None, 40, 40)
        assert summatrix.audit_work(3, 7, 9, 40, 40) == 6678125

    @pytest.mark.parametrize("q,n,d,size", [(3, 8, None, 400), (3, 7, 9, 10**6), (2, 20, 10, 10**9), (5, 9, None, 10)])
    def test_refused(self, q, n, d, size, monkeypatch):
        monkeypatch.setattr(summatrix, "monomial_table", None)
        monkeypatch.setattr(summatrix, "outer_rows", None)
        with pytest.raises(sc.EnumerationTooLarge, match="rank audit takes .* word steps > cap 100000000"):
            summatrix.check_audit_cap(q, n, d, size, size)

    def test_library_callers_refused(self, monkeypatch):
        # rank_audit refuses as the CLI does, before any table: a q = 3,
        # n = 7 pair with |S| = |T| = 1000 (about 16 min)
        for stage in ("monomial_table", "outer_rows"):
            monkeypatch.setattr(summatrix, stage, None)
        points = sc.all_points(3, 7).ordered()[:1000]
        S = sc.PointSet.from_vectors(3, 7, points)
        degree = sc.choose_degree(3, 7)[0]
        # rank_audit reads the run's (q, n), degree and sizes before it refuses
        run = types.SimpleNamespace(space=types.SimpleNamespace(q=3, n=7), degree=degree, s_input=S, t_input=S)
        message = "^rank audit takes 2264487694 word steps > cap 100000000$"
        with pytest.raises(sc.EnumerationTooLarge, match=message):
            summatrix.rank_audit(run)

    def test_enumeration_cap_first(self):
        # as run_pipeline would: q^n above the cap is refused before any count
        with pytest.raises(sc.EnumerationTooLarge, match="q\\^n = 43046721 exceeds enumeration cap"):
            summatrix.check_audit_cap(3, 16, None, 1, 1)
