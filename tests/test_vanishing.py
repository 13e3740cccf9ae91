import pytest
from hypothesis import given, settings

import sumsetcover as sc
from sumsetcover import gf3
from sumsetcover.polynomials import monomial_table, value_table

from conftest import polynomials, set_pairs, space_points


class TestBuildVanishingSpace:
    def test_empty_complement_gives_all_monomials(self):
        F = sc.all_points(2, 2)
        space = sc.build_vanishing_space(sc.sumset(F, F), 1)
        assert space.dim == space.ambient_dim == 3
        assert [P.terms for P in space.basis] == [
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
        assert space.basis[0].terms == {(0,): 1, (1,): 1}

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
        for P in space.basis:
            assert sc.poly_degree(P) <= d
            for point in outside:
                assert sc.eval_poly(P, point) == 0

    @given(set_pairs(allow_empty=False))
    @settings(deadline=None)
    def test_basis_linearly_independent(self, pair):
        S, T = pair
        space = sc.build_vanishing_space(sc.sumset(S, T), 2)
        monos = sc.enumerate_monomials(S.q, S.n, 2)
        rows = [[P.terms.get(m, 0) for m in monos] for P in space.basis]
        if rows:
            assert sc.matrix_rank(rows, S.q) == space.dim

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
    """At q = 3 the tables are built from bit masks; they must equal eval_monomial and eval_poly."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_monomial_rows_every_point_every_degree(self, n):
        pts = [p.coords for p in space_points(3, n)]
        for d in range(2 * n + 1):
            monos = sc.enumerate_monomials(3, n, d)
            expected = [[sc.eval_monomial(m, p, 3) for m in monos] for p in pts]
            assert gf3.unpack(monomial_table(monos, pts, 3)) == expected

    @given(polynomials(q=3, n=5, max_degree=4), polynomials(q=3, n=5))
    @settings(deadline=None, max_examples=20)
    def test_value_rows_every_point(self, P, Q):
        # 243 columns: four 64-bit words
        pts = space_points(3, 5)
        expected = [[sc.eval_poly(R, p) for p in pts] for R in (P, Q)]
        assert gf3.unpack(value_table([P, Q], [p.coords for p in pts], 3)) == expected
