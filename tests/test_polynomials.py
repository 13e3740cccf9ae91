import pytest
from hypothesis import given

import sumsetcover as sc
from sumsetcover.errors import DimensionMismatch

from conftest import polynomials, space_points


class TestEval:
    def test_constant(self):
        one = sc.poly_from_terms(3, 2, {(0, 0): 1})
        for x in space_points(3, 2):
            assert sc.eval_poly(one, x) == 1

    def test_square_mod_three(self):
        P = sc.poly_from_terms(3, 1, {(2,): 1})
        assert sc.eval_poly(P, sc.FieldVector(3, (2,))) == 1

    def test_mixed_terms(self):
        # x1*x2 + 2*x1 at (1,2): 2 + 2 = 4 = 1 mod 3
        P = sc.poly_from_terms(3, 2, {(1, 1): 1, (1, 0): 2})
        assert sc.eval_poly(P, sc.FieldVector(3, (1, 2))) == 1

    def test_dimension_mismatch(self):
        P = sc.poly_from_terms(3, 2, {(0, 0): 1})
        with pytest.raises(DimensionMismatch):
            sc.eval_poly(P, sc.FieldVector(3, (1,)))
        with pytest.raises(DimensionMismatch):
            sc.eval_poly(P, sc.FieldVector(5, (1, 2)))

    def test_zero_exponent_at_zero_point(self):
        # x^0 is the constant 1 even at the origin
        P = sc.poly_from_terms(2, 1, {(0,): 1})
        assert sc.eval_poly(P, sc.FieldVector(2, (0,))) == 1


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        P = sc.poly_from_terms(3, 1, {(0,): 3, (1,): 2})
        assert P.terms == {(1,): 2}

    def test_unreduced_exponent_rejected(self):
        with pytest.raises(ValueError):
            sc.poly_from_terms(3, 1, {(3,): 1})

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            sc.poly_from_terms(3, 2, {(1,): 1})

    def test_degree(self):
        assert sc.poly_degree(sc.poly_from_terms(3, 2, {})) == -1
        assert sc.poly_degree(sc.poly_from_terms(3, 2, {(0, 0): 2})) == 0
        assert sc.poly_degree(sc.poly_from_terms(3, 2, {(2, 1): 1, (1, 0): 1})) == 3

    @given(polynomials())
    def test_no_zero_coefficients_stored(self, P):
        assert all(c % 3 for c in P.terms.values())
