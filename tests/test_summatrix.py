import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import sumsetcover as sc
from sumsetcover.errors import DegreeTooHigh

from conftest import polynomials, set_pairs, space_points


F3 = space_points(3, 1)


class TestSumMatrix:
    def test_constant_gives_all_ones(self):
        M = sc.sum_matrix(sc.poly_const(3, 1, 1), F3, F3)
        assert M.entries == ((1, 1, 1),) * 3
        assert sc.matrix_rank([list(r) for r in M.entries], 3) == 1

    def test_square_polynomial(self):
        M = sc.sum_matrix(sc.monomial_poly(3, 1, (2,)), F3, F3)
        assert M.entries == ((0, 1, 1), (1, 1, 0), (1, 0, 1))

    def test_zero_polynomial(self):
        M = sc.sum_matrix(sc.poly_zero(3, 1), F3, F3)
        assert M.entries == ((0, 0, 0),) * 3

    @given(polynomials())
    @settings(deadline=None)
    def test_equal_entries_on_equal_sums(self, P):
        pts = space_points(3, 2)
        M = sc.sum_matrix(P, pts, pts)
        values = {}
        for i, s in enumerate(pts):
            for j, t in enumerate(pts):
                key = (s + t).coords
                values.setdefault(key, M.entries[i][j])
                assert values[key] == M.entries[i][j]


class TestMatrixRank:
    def test_identity(self):
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert sc.matrix_rank(eye, 2) == 3

    def test_all_ones(self):
        assert sc.matrix_rank([[1] * 4 for _ in range(4)], 5) == 1

    def test_square_matrix_is_invertible(self):
        M = sc.sum_matrix(sc.monomial_poly(3, 1, (2,)), F3, F3)
        assert sc.matrix_rank([list(r) for r in M.entries], 3) == 3


class TestClpDecompose:
    def test_constant(self):
        cert = sc.clp_decompose(sc.poly_const(3, 1, 2), 2)
        assert cert.term_count == 1
        assert len(cert.left_factors) == 1
        f, g = cert.left_factors[0]
        assert f.terms == {(0,): 1}
        assert g.terms == {(0,): 2}

    def test_square_split(self):
        # (x+y)^2 = x^2*1 + 2x*y + 1*y^2 over F_3; split at degree 1
        cert = sc.clp_decompose(sc.monomial_poly(3, 1, (2,)), 2)
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
        P = sc.monomial_poly(3, 1, (2,))
        cert = sc.clp_decompose(P, 2)
        M = sc.sum_matrix(P, F3, F3)
        assert sc.clp_reconstruct(cert, F3, F3) == M.entries

    def test_degree_gate(self):
        with pytest.raises(DegreeTooHigh):
            sc.clp_decompose(sc.monomial_poly(3, 1, (2,)), 1)

    def test_zero_polynomial(self):
        cert = sc.clp_decompose(sc.poly_zero(3, 2), 3)
        assert cert.term_count == 0
        assert sc.clp_reconstruct(cert, space_points(3, 2)[:2], space_points(3, 2)[:2]) == (
            (0, 0),
            (0, 0),
        )

    @given(polynomials(max_degree=3))
    @settings(deadline=None)
    def test_random_certificates(self, P):
        pts = space_points(3, 2)
        cert = sc.clp_decompose(P, 3)
        M = sc.sum_matrix(P, pts, pts)
        assert sc.clp_reconstruct(cert, pts, pts) == M.entries
        assert cert.term_count <= 2 * sc.count_m(3, 2, 1) == 6
        rank = sc.matrix_rank([list(r) for r in M.entries], 3)
        assert rank <= cert.term_count

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
        space = sc.build_vanishing_space(sc.sumset(S, T), (q - 1) * S.n // 2)
        if not space.basis:
            return
        coeffs = data.draw(
            st.lists(
                st.integers(0, q - 1),
                min_size=len(space.basis),
                max_size=len(space.basis),
            ).filter(lambda cs: any(cs))
        )
        combo = sc.poly_zero(q, S.n)
        for c, P in zip(coeffs, space.basis):
            combo = sc.poly_add(combo, sc.poly_scale(P, c))
        M = sc.sum_matrix(combo, S.ordered(), T.ordered())
        assert any(v for row in M.entries for v in row)
