import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import sumsetcover as sc
from sumsetcover import linalg, summatrix
from sumsetcover.cli import parse_instance
from sumsetcover.linalg import evaluate_rows, monomial_table
from sumsetcover.vanishing import dual_pivot_columns, primal_pivot_columns

from conftest import (
    SEEDED_GRID,
    affine_maps,
    apply_affine,
    basis,
    coordinate_subspace,
    polynomials,
    rows_over,
    seeded_pair,
    set_pairs,
    space_points,
    subset_from_mask,
    subspace_dim,
)
from reference import gauss_jordan, kernel_basis

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


# q -> largest n of the dimension oracles, checked at every degree 0 .. n(q-1)
ORACLE_SPACES = {2: 5, 3: 4, 5: 2, 7: 2}
ORACLE_GRID = [(q, n) for q, top in ORACLE_SPACES.items() for n in range(1, top + 1)]


def _degrees(q, n):
    return range(n * (q - 1) + 1)


@st.composite
def _affine_subspaces(draw, q, n):
    """(k, A): A the image of the k-dimensional coordinate subspace of F_q^n
    under an invertible affine map, so every affine subspace can come up."""
    k = draw(st.integers(0, n))
    M, b = draw(affine_maps(q, n))
    return k, apply_affine(M, b, coordinate_subspace(q, n, k))


class TestDimensionOracles:
    """The vanishing dimension against exact facts that need no elimination.

    It is invariant under x -> Mx + b with M invertible (composition keeps
    degree <= d and the reduction x^q = x), and on a k-dimensional
    coordinate subspace the polynomials vanishing off it are
    prod_{i>k} (1 - x_i^(q-1)) times polynomials of degree
    <= d - (n-k)(q-1) in x_1 .. x_k.
    """

    @pytest.mark.parametrize("q, n", ORACLE_GRID)
    @given(data=st.data())
    @settings(deadline=None, max_examples=8)
    def test_affine_invariance(self, q, n, data):
        S, T = (subset_from_mask(q, n, data.draw(st.integers(1, 2**q**n - 1))) for _ in range(2))
        M, b = data.draw(affine_maps(q, n))
        A, gS, gT = sc.sumset(S, T), apply_affine(M, b, S), apply_affine(M, b, T)
        # g(S) + g(T) is the image of S + T under x -> Mx + 2b
        for d in _degrees(q, n):
            dim = sc.build_vanishing_space(A, d).dim
            assert sc.build_vanishing_space(apply_affine(M, b, A), d).dim == dim
            assert sc.run_pipeline(gS, gT, d).decomposition.certificate.dim_vanishing == dim

    @pytest.mark.parametrize("q, n", ORACLE_GRID)
    def test_closed_form_on_coordinate_subspaces(self, q, n):
        for k in range(n + 1):
            A = coordinate_subspace(q, n, k)
            assert [sc.build_vanishing_space(A, d).dim for d in _degrees(q, n)] == [
                subspace_dim(q, n, k, d) for d in _degrees(q, n)
            ]

    @pytest.mark.parametrize("q, n", ORACLE_GRID)
    @given(data=st.data())
    @settings(deadline=None, max_examples=8)
    def test_closed_form_on_affine_subspaces(self, q, n, data):
        k, A = data.draw(_affine_subspaces(q, n))
        for d in _degrees(q, n):
            assert sc.build_vanishing_space(A, d).dim == subspace_dim(q, n, k, d)

    @pytest.mark.parametrize("q, n", ORACLE_GRID)
    def test_whole_space_and_single_points(self, q, n):
        F = sc.all_points(q, n)
        ends = F.ordered()[0], F.ordered()[-1]
        for d in _degrees(q, n):
            assert sc.build_vanishing_space(F, d).dim == sc.count_m(q, n, d)
            for p in ends:
                point = sc.PointSet.from_vectors(q, n, [p])
                assert sc.build_vanishing_space(point, d).dim == (d >= n * (q - 1))

    @pytest.mark.parametrize("q, n", ORACLE_GRID)
    @given(data=st.data())
    @settings(deadline=None, max_examples=8)
    def test_pivot_columns_number_dim(self, q, n, data):
        k, A = data.draw(_affine_subspaces(q, n))
        keys = data.draw(st.permutations([p.coords for p in A.members]))
        for d in _degrees(q, n):
            space = sc.build_vanishing_space(A, d)
            assert space.dim == subspace_dim(q, n, k, d)
            assert len(primal_pivot_columns(space, keys)) == space.dim
            assert len(dual_pivot_columns(space, keys)) == space.dim

    @pytest.mark.parametrize("n", range(1, ORACLE_SPACES[3] + 1))
    @given(data=st.data())
    @settings(deadline=None, max_examples=8)
    def test_packed_and_list_elimination_agree_q3(self, n, data):
        k, A = data.draw(_affine_subspaces(3, n))
        outside = [p.coords for p in sc.complement(A).ordered()]
        for d in _degrees(3, n):
            monos = sc.enumerate_monomials(3, n, d)
            table = monomial_table(monos, outside, 3, by_point=True)
            packed = linalg.rref(table, 3)[1]
            assert packed == gauss_jordan(linalg.unpack(table), 3)[1]
            assert len(monos) - len(packed) == subspace_dim(3, n, k, d)


FORWARD_PASSES = ("_echelon_lists", "_echelon_packed", "_echelon_bits")
BACK_SUBSTITUTIONS = ("_back_substitute_lists", "_back_substitute_packed", "_back_substitute_bits")


class TestPivotStagesNeverReduce:
    """The pivot stages take forward elimination's pivots (pivot_columns):
    no reduced form is built, in any format."""

    @pytest.mark.parametrize("q, n, seed", [(2, 4, 3), (3, 3, 5), (5, 2, 1)])
    def test_no_rref(self, q, n, seed, monkeypatch):
        # floor: both stages give the same pivots with every rref refused
        S, T = seeded_pair(q, n, seed)
        keys = list(sc.sum_index(S, T))
        spaces = [sc.build_vanishing_space(sc.sumset(S, T), d) for d in _degrees(q, n)]
        expected = [(primal_pivot_columns(s, keys), dual_pivot_columns(s, keys)) for s in spaces]

        def refused(*args):
            raise AssertionError("a pivot stage went through rref")

        for name in ("rref", *BACK_SUBSTITUTIONS):
            monkeypatch.setattr(linalg, name, refused)
        got = [(primal_pivot_columns(s, keys), dual_pivot_columns(s, keys)) for s in spaces]
        assert got == expected and all(len(p) == s.dim for (p, _), s in zip(expected, spaces))


def _counted(monkeypatch, names):
    """The calls to each of linalg's named functions, from now on, in one list."""
    calls = []
    for name in names:
        def counting(*args, _real=getattr(linalg, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(linalg, name, counting)
    return calls


class TestLazyBasis:
    """dim comes from the constraint table's forward elimination; the basis
    is back-substituted from the kept echelon form on its first read."""

    @pytest.mark.parametrize("q, n, seed", [(2, 4, 3), (3, 3, 5), (5, 2, 1)])
    def test_dual_route_never_builds_the_basis(self, q, n, seed, monkeypatch):
        # floor: decompose finishes with every way to the basis refused
        S, T = seeded_pair(q, n, seed)
        run = sc.run_pipeline(S, T)
        assert run.space.dim > q**n - run.space.ambient_dim  # the dual stage's side

        def refused(*args):
            raise AssertionError("the dual route read the basis")

        for name in (*BACK_SUBSTITUTIONS, "_kernel_planes"):
            monkeypatch.setattr(linalg, name, refused)
        assert sc.decompose(S, T) == run.decomposition

    @pytest.mark.parametrize("q, n, seed", [(2, 5, 4), (3, 4, 7), (5, 2, 7)])
    def test_one_forward_pass_per_table(self, q, n, seed, monkeypatch):
        # the primal route and the rank audit read the basis; the constraint
        # table is still eliminated once, and back-substituted once
        S, T = seeded_pair(q, n, seed)
        passes = _counted(monkeypatch, FORWARD_PASSES)
        substitutions = _counted(monkeypatch, BACK_SUBSTITUTIONS)
        run = sc.run_pipeline(S, T)
        dim = run.space.dim
        assert 0 < dim <= q**n - run.space.ambient_dim  # the primal stage's side
        # the constraint table, then the basis at the sums
        assert len(passes) == 2 and len(substitutions) == 1
        summatrix.rank_audit(run)
        # one rank per basis row, the basis read as the pipeline left it
        assert len(passes) == 2 + dim and len(substitutions) == 1

    @staticmethod
    def _against_eager(A):
        """At every degree, the lazy basis is the eager null space of the
        constraint table and the list reference's kernel, dim rows long."""
        q, n = A.q, A.n
        outside = [p.coords for p in sc.complement(A).ordered()]
        for d in _degrees(q, n):
            space = sc.build_vanishing_space(A, d)
            monos = sc.enumerate_monomials(q, n, d)
            table = monomial_table(monos, outside, q, by_point=True)
            eager = linalg.null_space(table, len(monos), q)
            reference = kernel_basis(linalg.as_rows(table), len(monos), q)
            assert space.rows == tuple(map(tuple, eager)) == tuple(map(tuple, reference))
            assert len(space.rows) == space.dim

    @pytest.mark.parametrize("q, n", SEEDED_GRID)
    def test_basis_is_the_eager_null_space_seeded(self, q, n):
        for seed in range(3):
            self._against_eager(sc.sumset(*seeded_pair(q, n, seed)))

    @given(set_pairs(primes=(2, 3, 5, 7), allow_empty=False))
    @settings(deadline=None, max_examples=40)
    def test_basis_is_the_eager_null_space(self, pair):
        self._against_eager(sc.sumset(*pair))

    def test_equal_dimensions_over_different_sums_differ(self):
        # two lines of F_3^2: at degree 3, (1 - y^2) {1, x} and (1 - x^2) {1, y}
        lines = [sc.PointSet.from_coords(3, 2, [(t, 0) for t in range(3)]),
                 sc.PointSet.from_coords(3, 2, [(0, t) for t in range(3)])]
        a, b = (sc.build_vanishing_space(A, 3) for A in lines)
        assert a.dim == b.dim == 2
        assert a != b and a.rows != b.rows
        assert a == sc.build_vanishing_space(lines[0], 3)


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
