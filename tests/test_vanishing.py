import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import sumsetcover as sc
from sumsetcover import linalg
from sumsetcover.cli import parse_instance
from sumsetcover.linalg import evaluate_rows, monomial_table

from conftest import basis, polynomials, rows_over, set_pairs, space_points

GOLDEN = Path(__file__).parent / "golden"
# q -> n whose every point the differential tables cover
TABLE_SPACES = {2: 4, 3: 3, 5: 2, 7: 2}


def _lists(table):
    """Packed or list rows as lists."""
    return linalg.as_rows(table)


def _values(polys, points, q, n):
    """evaluate_rows on the polynomials' rows over every reduced monomial."""
    monos = sc.enumerate_monomials(q, n, (q - 1) * n)
    return evaluate_rows(monos, rows_over(polys, monos), points, q)


@st.composite
def _table_cases(draw):
    """(q, n, polynomials, points): up to three polynomials, any point list."""
    q = draw(st.sampled_from(sorted(TABLE_SPACES)))
    n = TABLE_SPACES[q]
    polys = draw(st.lists(polynomials(q=q, n=n), max_size=3))
    points = draw(st.lists(st.sampled_from(space_points(q, n)), max_size=q**n))
    return q, n, polys, points


class TestBuildVanishingSpace:
    def test_empty_complement_gives_all_monomials(self):
        F = sc.all_points(2, 2)
        space = sc.build_vanishing_space(sc.sumset(F, F), 1)
        assert space.dim == space.ambient_dim == 3
        assert [P.terms for P in basis(space)] == [
            {(0, 0): 1},
            {(1, 0): 1},
            {(0, 1): 1},
        ]

    def test_one_point_sumset_over_f2(self):
        # S = T = {0} in F_2: the only degree-<=1 polynomial vanishing at 1 is 1 + x
        S = sc.PointSet.from_coords(2, 1, [(0,)])
        space = sc.build_vanishing_space(sc.sumset(S, S), 1)
        assert space.ambient_dim == 2
        assert space.dim == 1 == space.ambient_dim - 2 + 1
        assert space.rows == ((1, 1),)
        assert basis(space)[0].terms == {(0,): 1, (1,): 1}

    @given(set_pairs(primes=(3,), allow_empty=False))
    @settings(deadline=None)
    def test_dimension_lower_bound(self, pair):
        S, T = pair
        space = sc.build_vanishing_space(sc.sumset(S, T), 3)
        st_size = len(sc.sumset(S, T))
        assert space.dim >= space.ambient_dim - S.q**S.n + st_size

    @given(set_pairs(allow_empty=False))
    @settings(deadline=None)
    def test_basis_vanishes_on_constraints(self, pair):
        S, T = pair
        d = (S.q - 1) * S.n // 2
        space = sc.build_vanishing_space(sc.sumset(S, T), d)
        outside = sc.complement(sc.sumset(S, T))
        for P in basis(space):
            assert sc.poly_degree(P) <= d
            for point in outside:
                assert sc.eval_poly(P, point) == 0

    @given(set_pairs(allow_empty=False))
    @settings(deadline=None)
    def test_basis_linearly_independent(self, pair):
        S, T = pair
        space = sc.build_vanishing_space(sc.sumset(S, T), 2)
        monos = sc.enumerate_monomials(S.q, S.n, 2)
        assert list(space.monos) == monos
        rows = rows_over(basis(space), monos)
        assert rows == [list(row) for row in space.rows]
        if rows:
            assert sc.matrix_rank(rows, S.q) == space.dim

    def test_composite_modulus_refused(self):
        # over Z/4 the elimination would need 2 to be invertible; it refuses
        # the modulus instead of returning a basis such as (x + 3)
        sums = sc.PointSet.from_coords(4, 1, [(1,)])
        with pytest.raises(ValueError, match="^q = 4 is not prime$"):
            sc.build_vanishing_space(sums, 1)

    def test_deterministic(self):
        S = sc.PointSet.from_coords(3, 2, [(0, 0), (1, 2)])
        T = sc.PointSet.from_coords(3, 2, [(2, 1)])
        assert sc.build_vanishing_space(sc.sumset(S, T), 3) == sc.build_vanishing_space(sc.sumset(S, T), 3)


class TestFunctionRepresentation:
    def test_only_zero_vanishes_everywhere(self):
        # reduced polynomials represent functions uniquely: the full
        # evaluation matrix (all monomials x all points) has trivial kernel
        for q, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (2, 3)]:
            monos = sc.enumerate_monomials(q, n, (q - 1) * n)
            pts = space_points(q, n)
            rows = [[sc.eval_monomial(m, p.coords, q) for m in monos] for p in pts]
            assert sc.null_space(rows, len(monos), q) == []


class TestPackedTables:
    """The tables must equal eval_monomial and eval_poly at every q; at q = 3 they are built from bit masks."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_monomial_rows_every_point_every_degree(self, n):
        pts = [p.coords for p in space_points(3, n)]
        for d in range(2 * n + 1):
            monos = sc.enumerate_monomials(3, n, d)
            expected = [[sc.eval_monomial(m, p, 3) for m in monos] for p in pts]
            assert linalg.unpack(monomial_table(monos, pts, 3, by_point=True)) == expected

    @given(polynomials(q=3, n=5, max_degree=4), polynomials(q=3, n=5))
    @settings(deadline=None, max_examples=20)
    def test_value_rows_every_point(self, P, Q):
        # 243 columns: four 64-bit words
        pts = space_points(3, 5)
        expected = [[sc.eval_poly(R, p) for p in pts] for R in (P, Q)]
        assert linalg.unpack(_values([P, Q], [p.coords for p in pts], 3, 5)) == expected

    @given(_table_cases())
    @settings(deadline=None, max_examples=80)
    def test_tables_every_q(self, case):
        q, n, polys, pts = case
        coords = [p.coords for p in pts]
        expected = [[sc.eval_poly(P, p) for p in pts] for P in polys]
        assert _lists(_values(polys, coords, q, n)) == expected
        monos = sc.enumerate_monomials(q, n, (q - 1) * n)
        expected = [[sc.eval_monomial(m, c, q) for c in coords] for m in monos]
        assert _lists(monomial_table(monos, coords, q)) == expected

    @given(st.sampled_from(sorted(TABLE_SPACES)), st.data())
    @settings(deadline=None, max_examples=60)
    def test_coordinates_read_mod_q(self, q, data):
        # points given by coordinates outside [0, q), negatives among them,
        # are read mod q by both formats, in both layouts
        n = TABLE_SPACES[q]
        coord = st.integers(-2 * q, 3 * q)
        coords = data.draw(st.lists(st.tuples(*[coord] * n), max_size=8))
        monos = sc.enumerate_monomials(q, n, (q - 1) * n)
        expected = [[sc.eval_monomial(m, c, q) for c in coords] for m in monos]
        assert _lists(monomial_table(monos, coords, q)) == expected
        by_point = [list(col) for col in zip(*expected)] if monos else [[] for _ in coords]
        assert _lists(monomial_table(monos, coords, q, by_point=True)) == by_point

    def test_packed_value_table_reduces_coordinates(self):
        # x at the points 3 = 0 and -1 = 2 of F_3
        P = sc.poly_from_terms(3, 1, {(1,): 1})
        assert _lists(_values([P], [(3,), (-1,)], 3, 1)) == [[0, 2]]

    @pytest.mark.parametrize("q", sorted(TABLE_SPACES))
    def test_point_of_another_length_refused(self, q, monkeypatch):
        for mono, coords in (((1, 1), (2,)), ((1,), (2, 0))):
            with pytest.raises(sc.DimensionMismatch, match="for a monomial in"):
                sc.eval_monomial(mono, coords, q)

        # the table checks its sides once, before any entry is evaluated
        def no_entry(*args, **kwargs):
            raise AssertionError("an entry was evaluated")

        monkeypatch.setattr(linalg, "eval_monomial", no_entry)
        monkeypatch.setattr(linalg, "_monomial_table_packed", no_entry)
        cases = [([(1, 1)], [(2,)]), ([(1,)], [(2, 0)]), ([(1, 0), (1,)], [(2, 0)]), ([(1, 0)], [(0, 0), (2,)])]
        for monos, points in cases:
            for by_point in (False, True):
                with pytest.raises(sc.DimensionMismatch, match="monomials and points of lengths"):
                    monomial_table(monos, points, q, by_point=by_point)
        # evaluate_rows checks every monomial, not only those some row uses
        for rows in ([[0, 0]], [[1, 0]], []):
            with pytest.raises(sc.DimensionMismatch, match="monomials and points of lengths"):
                evaluate_rows([(0,), (1,)], rows, [(1, 2)], q)

    @pytest.mark.parametrize("q", sorted(TABLE_SPACES))
    def test_rows_of_another_length_refused(self, q):
        monos = sc.enumerate_monomials(q, 1, 1)
        for rows in ([[1]], [[1, 0, 1]], [[1, 0], [1]]):
            with pytest.raises(ValueError, match="-column system"):
                evaluate_rows(monos, rows, [(0,), (1,)], q)

    @pytest.mark.parametrize("q", sorted(TABLE_SPACES))
    def test_tables_empty_cases(self, q):
        n = 2
        zero, one = sc.poly_from_terms(q, n, {}), sc.poly_from_terms(q, n, {(0, 0): 1})
        coords = [p.coords for p in space_points(q, n)]
        monos = sc.enumerate_monomials(q, n, 1)
        assert _lists(_values([zero, one], coords, q, n)) == [[0] * q**n, [1] * q**n]
        assert _lists(_values([], coords, q, n)) == []
        assert _lists(_values([zero, one], [], q, n)) == [[], []]
        assert _lists(monomial_table([], coords, q)) == []
        assert _lists(monomial_table(monos, [], q)) == [[]] * len(monos)
        assert _lists(monomial_table([], coords, q, by_point=True)) == [[]] * len(coords)
        assert _lists(monomial_table(monos, [], q, by_point=True)) == []

    @pytest.mark.parametrize("q,coeffs", [(3, (0, 3, 4, -1)), (5, (0, 5, 7, -1))])
    def test_coefficients_read_mod_q(self, q, coeffs):
        # built directly, so the coefficients are neither reduced nor dropped
        assert _lists(_values([sc.Polynomial(3, 1, {(1,): 3})], [(0,), (1,), (2,)], 3, 1)) == [[0, 0, 0]]
        n = 2
        pts = space_points(q, n)
        monos = sc.enumerate_monomials(q, n, (q - 1) * n)
        polys = [sc.Polynomial(q, n, {m: c}) for m in monos for c in coeffs]
        polys.append(sc.Polynomial(q, n, dict(zip(monos, itertools.cycle(coeffs)))))
        expected = [[sc.eval_poly(P, p) for p in pts] for P in polys]
        assert _lists(_values(polys, [p.coords for p in pts], q, n)) == expected


class TestEvaluationWork:
    """evaluate_rows evaluates each distinct monomial once, not once per term."""

    @staticmethod
    def _basis_at_sums(name):
        inst = parse_instance(str(GOLDEN / name))
        space = sc.run_pipeline(inst.s_set, inst.t_set).space
        sums = list(sc.sum_index(inst.s_set, inst.t_set))
        terms = [space.monos[k] for row in space.rows for k, c in enumerate(row) if c]
        distinct = set(terms)
        assert len(distinct) < len(terms)
        return space, sums, distinct, terms

    def test_one_plane_build_per_distinct_monomial_q3(self, monkeypatch):
        space, sums, distinct, terms = self._basis_at_sums("q3_n5.json")
        assert len(distinct) == 220 and len(terms) == 8071
        real, built = linalg._monomial_table_packed, []

        def counting(monos, points, **layout):
            built.extend(monos)
            return real(monos, points, **layout)

        # the one builder makes a row (a pair of planes) per monomial it is given
        monkeypatch.setattr(linalg, "_monomial_table_packed", counting)
        evaluate_rows(space.monos, space.rows, sums, 3)
        assert len(built) == len(distinct) and set(built) == distinct

    def test_one_evaluation_per_distinct_monomial_and_point_q5(self, monkeypatch):
        space, sums, distinct, _ = self._basis_at_sums("q5_n2.json")
        real, calls = linalg.eval_monomial, []

        def counting(mono, coords, q):
            calls.append(mono)
            return real(mono, coords, q)

        monkeypatch.setattr(linalg, "eval_monomial", counting)
        evaluate_rows(space.monos, space.rows, sums, 5)
        assert len(calls) == len(distinct) * len(sums)
