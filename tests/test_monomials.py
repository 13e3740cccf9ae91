import re
from decimal import Decimal

import pytest
from hypothesis import given
import hypothesis.strategies as st

import sumsetcover as sc
from sumsetcover import monomials
from sumsetcover.errors import EnumerationTooLarge

from conftest import brute_monomials, small_spaces


class TestEnumerate:
    def test_degree_two_pair(self):
        # 1, x1, x2, x1^2, x1*x2, x2^2 in canonical graded order
        assert sc.enumerate_monomials(3, 2, 2) == [
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        ]

    def test_degree_zero(self):
        assert sc.enumerate_monomials(5, 3, 0) == [(0, 0, 0)]

    def test_all_multilinear(self):
        assert len(sc.enumerate_monomials(2, 3, 3)) == 8

    def test_cap_refusal(self):
        with pytest.raises(EnumerationTooLarge):
            sc.enumerate_monomials(3, 30, 60, cap=1000)

    @given(small_spaces(primes=(2, 3, 5), max_n=3), st.integers(0, 10))
    def test_matches_brute_force(self, qn, d):
        q, n = qn
        listed = sc.enumerate_monomials(q, n, d)
        assert set(listed) == brute_monomials(q, n, d)
        assert len(set(listed)) == len(listed)
        assert listed == sorted(listed, key=sc.monomial_key)


class TestCountM:
    def test_small_pair(self):
        assert sc.count_m(3, 2, 2) == 6

    def test_full_degree_counts_everything(self):
        for q, n in [(2, 4), (3, 3), (5, 2)]:
            assert sc.count_m(q, n, (q - 1) * n) == q**n

    def test_clamps_above_max_degree(self):
        assert sc.count_m(3, 2, 100) == 9

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            sc.count_m(3, 2, -1)

    def test_huge_n_symmetry_identity(self):
        # m_d + m_{(q-1)n-d-1} = q^n, exercised far beyond enumeration range
        assert sc.count_m(3, 200, 100) + sc.count_m(3, 200, 299) == 3**200

    @given(small_spaces(primes=(2, 3, 5), max_n=4), st.integers(0, 12))
    def test_agrees_with_enumeration(self, qn, d):
        q, n = qn
        assert sc.count_m(q, n, d) == len(sc.enumerate_monomials(q, n, d))

    @given(small_spaces(primes=(2, 3, 5), max_n=4))
    def test_nondecreasing_in_degree(self, qn):
        q, n = qn
        values = [sc.count_m(q, n, d) for d in range((q - 1) * n + 1)]
        assert values == sorted(values)
        assert values[-1] == q**n


class TestCountTable:
    @given(small_spaces(primes=(2, 3, 5), max_n=4))
    def test_counts_sum_and_symmetry(self, qn):
        q, n = qn
        table = sc.degree_counts(q, n)
        top = (q - 1) * n
        assert sum(table.counts) == q**n
        for e in range(top + 1):
            assert table.counts[e] == table.counts[top - e]

    @given(small_spaces(primes=(2, 3, 5), max_n=4), st.integers(0, 12))
    def test_tail_bound(self, qn, d):
        # q^n - m_d counts degrees above d, which mirror degrees below (q-1)n - d
        q, n = qn
        top = (q - 1) * n
        d = min(d, top)
        tail = q**n - sc.count_m(q, n, d)
        below = sc.count_m(q, n, top - d - 1) if top - d - 1 >= 0 else 0
        assert tail == below

    @given(small_spaces(primes=(2, 3, 5, 7), max_n=5))
    def test_extended_tables_and_their_budgets(self, qn):
        # a table extended one n at a time is the table counted from scratch,
        # and its two budgets are the per-degree scan and 3 * m(q, n, (q-1)n/3)
        q, top = qn
        table = sc.degree_counts(q, 0)
        for n in range(1, top + 1):
            table = table.extended()
            assert table == sc.degree_counts(q, n)
            bound, d = min((sc.degree_bound(q, n, d), d) for d in range((q - 1) * n + 1))
            assert table.minimized() == (d, bound)
            assert table.capset_budget() == 3 * sc.count_m(q, n, (q - 1) * n // 3)


class TestCapsetBound:
    def test_known_values(self):
        assert sc.capset_bound_M(3, 1) == 3
        assert sc.capset_bound_M(3, 2) == 9
        assert sc.capset_bound_M(2, 3) == 12


class TestGrowth:
    def test_first_value_exact(self):
        assert sc.growth_estimate(3, 1) == [Decimal(3)]

    def test_dimension_six_below_three(self):
        got = sc.growth_estimate(3, 6)[-1]
        # 3 * m_4 = 504; 504^(1/6) = 2.82101...
        assert got < Decimal(3)
        assert abs(got - Decimal("2.8210130123402096")) < Decimal("1e-12")

    def test_dimension_200_in_window(self):
        got = sc.growth_estimate(3, 200)[-1]
        assert Decimal("2.5") < got < Decimal("2.9")

    def test_matches_capset_bound(self):
        seq = sc.growth_estimate(5, 8)
        for n in (1, 4, 8):
            big = sc.capset_bound_M(5, n)
            assert abs(seq[n - 1] - Decimal(big) ** (Decimal(1) / n)) < Decimal("1e-20")

    @pytest.mark.parametrize("q, n_max, digits, message", [
        (3, 3, 6000, "growth roots take 432000000000 digit^3 steps > cap 100000000000"),
        (7, 1000, 30, "counting monomials by degree takes 20986000 steps > cap 4194304"),
    ])
    def test_refused_before_any_convolution(self, q, n_max, digits, message, monkeypatch):
        # the counts and the roots are refused before the first convolution,
        # hence before the first root; every caller gets the same refusal
        def no_work(*args):
            raise AssertionError("convolved before the cap refused")

        monkeypatch.setattr(monomials, "_convolve_window", no_work)
        with pytest.raises(EnumerationTooLarge, match=f"^{re.escape(message)}$"):
            sc.growth_estimate(q, n_max, digits=digits)

    @pytest.mark.parametrize("n_max, digits", [(4, -10**7), (3, 0), (1, 0)])
    def test_digits_below_one_refused_before_any_convolution(self, n_max, digits, monkeypatch):
        # a negative digit^3 passed the root budget and decimal refused the
        # precision only at the first root; n_max = 1 takes no root at all
        def no_work(*args):
            raise AssertionError("convolved before the digits were refused")

        monkeypatch.setattr(monomials, "_convolve_window", no_work)
        with pytest.raises(ValueError, match=f"^digits must be >= 1, got {digits}$"):
            sc.growth_estimate(3, n_max, digits=digits)
