import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import sumsetcover as sc
from sumsetcover.errors import PreconditionFailed, SearchTooLarge, ValidationError

from conftest import point_sets, set_pairs, small_pairs, space_points, subset_from_mask
from reference import greedy_decomposition_sumset, is_matching_sumfree_triples, oracle_min_decomposition_sumset


def ap_free_reference(S):
    """Second implementation straight from the definition: no distinct
    a, a+b, a+2b with b != 0 all inside S."""
    pts = space_points(S.q, S.n)
    zero = sc.FieldVector(S.q, (0,) * S.n)
    for a in S:
        for b in pts:
            if b == zero:
                continue
            x, y, z = a, a + b, a + b + b
            if len({x, y, z}) == 3 and y in S and z in S:
                return False
    return True


def fam(q, n, s_coords, t_coords):
    return sc.OrderedPairFamily(
        tuple(sc.FieldVector(q, c) for c in s_coords),
        tuple(sc.FieldVector(q, c) for c in t_coords),
    )


class TestApFree:
    def test_interval_in_f3(self):
        assert sc.is_ap_free(sc.PointSet.from_coords(3, 1, [(0,), (1,)]))

    def test_full_line_has_progression(self):
        assert not sc.is_ap_free(sc.all_points(3, 1))

    @given(point_sets(primes=(2,), max_n=3))
    def test_characteristic_two_always_free(self, S):
        assert sc.is_ap_free(S)

    @given(point_sets(primes=(3, 5), max_n=2))
    def test_matches_reference(self, S):
        assert sc.is_ap_free(S) == ap_free_reference(S)


class TestCheckCapset:
    def test_interval_passes(self):
        S = sc.PointSet.from_coords(3, 1, [(0,), (1,)])
        rep = sc.check_capset_bound(S)
        assert rep.applicable and rep.passed
        assert rep.set_size == 2 and rep.size_bound == 3
        assert rep.recovers_whole_set

    def test_full_line_not_applicable(self):
        rep = sc.check_capset_bound(sc.all_points(3, 1))
        assert not rep.ap_free and not rep.applicable
        assert rep.passed  # nothing to violate

    def test_characteristic_two_not_applicable(self):
        rep = sc.check_capset_bound(sc.all_points(2, 2))
        assert rep.ap_free and not rep.applicable

    def test_maximum_capset_in_f3_squared(self):
        # exhaustive ground truth: the largest progression-free subset of
        # F_3^2 has 4 points
        best = 0
        best_mask = 0
        for mask in range(1 << 9):
            S = subset_from_mask(3, 2, mask)
            if sc.is_ap_free(S) and len(S) > best:
                best, best_mask = len(S), mask
        assert best == 4
        rep = sc.check_capset_bound(subset_from_mask(3, 2, best_mask))
        assert rep.passed and rep.set_size <= rep.size_bound


class TestMatchingSumfree:
    def test_single_pair(self):
        assert sc.is_matching_sumfree(fam(7, 1, [(3,)], [(4,)]))

    def test_f5_example(self):
        assert sc.is_matching_sumfree(fam(5, 1, [(0,), (1,)], [(0,), (1,)]))

    def test_f2_collision(self):
        assert not sc.is_matching_sumfree(fam(2, 1, [(0,), (1,)], [(0,), (1,)]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            fam(3, 1, [(0,)], [(0,), (1,)])

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            fam(3, 1, [(0,), (0,)], [(0,), (1,)])

    @given(st.data())
    @settings(deadline=None)
    def test_permutation_invariant(self, data):
        pts = space_points(3, 2)
        size = data.draw(st.integers(1, 4))
        s_list = data.draw(st.permutations(pts)).copy()[:size]
        t_list = data.draw(st.permutations(pts)).copy()[:size]
        family = sc.OrderedPairFamily(tuple(s_list), tuple(t_list))
        perm = data.draw(st.permutations(range(size)))
        shuffled = sc.OrderedPairFamily(
            tuple(s_list[i] for i in perm), tuple(t_list[i] for i in perm)
        )
        assert sc.is_matching_sumfree(family) == sc.is_matching_sumfree(shuffled)

    @given(st.sampled_from([(2, 3), (3, 2), (5, 1), (7, 1)]), st.data())
    @settings(deadline=None)
    def test_matches_triple_loop(self, space, data):
        q, n = space
        pts = space_points(q, n)
        size = data.draw(st.integers(0, min(len(pts), 6)))
        s_list = data.draw(st.permutations(pts))[:size]
        t_list = data.draw(st.permutations(pts))[:size]
        family = sc.OrderedPairFamily(tuple(s_list), tuple(t_list))
        assert sc.is_matching_sumfree(family) == is_matching_sumfree_triples(family)


class TestCheckSumfree:
    def test_f5_example_passes(self):
        rep = sc.check_sumfree_bound(fam(5, 1, [(0,), (1,)], [(0,), (1,)]))
        assert rep.passed
        assert rep.n_pairs == 2
        assert rep.size_bound == 6
        assert rep.n_pairs <= rep.witness_total

    def test_single_pair_trivial(self):
        rep = sc.check_sumfree_bound(fam(3, 2, [(1, 2)], [(2, 0)]))
        assert rep.passed and rep.n_pairs == 1

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionFailed):
            sc.check_sumfree_bound(fam(2, 1, [(0,), (1,)], [(0,), (1,)]))

    def test_random_valid_families_covered(self):
        rng = random.Random(5)
        pts = space_points(3, 2)
        found = 0
        while found < 12:
            size = rng.randint(1, 4)
            s_list = tuple(rng.sample(pts, size))
            t_list = tuple(rng.sample(pts, size))
            family = sc.OrderedPairFamily(s_list, t_list)
            if not sc.is_matching_sumfree(family):
                continue
            found += 1
            rep = sc.check_sumfree_bound(family)
            assert rep.all_indices_covered
            assert rep.n_pairs <= rep.witness_total
            assert rep.n_pairs <= rep.size_bound


class TestOracle:
    def test_full_f2_squared(self):
        F = sc.all_points(2, 2)
        res = sc.oracle_min_decomposition(F, F)
        assert res.best_total == 1
        assert sc.verify_decomposition(F, F, res.best_s, res.best_t)

    def test_singletons(self):
        S = sc.PointSet.from_coords(3, 1, [(1,)])
        T = sc.PointSet.from_coords(3, 1, [(2,)])
        assert sc.oracle_min_decomposition(S, T).best_total == 1

    def test_empty_input(self):
        S = sc.PointSet.empty(3, 1)
        T = sc.all_points(3, 1)
        assert sc.oracle_min_decomposition(S, T).best_total == 0

    def test_search_cap(self):
        F = sc.all_points(3, 2)
        with pytest.raises(SearchTooLarge):
            sc.oracle_min_decomposition(F, F)

    def test_minimality_by_exhaustion(self):
        # cross-check the early-exit search against a plain full scan
        S = subset_from_mask(3, 1, 0b011)
        T = subset_from_mask(3, 1, 0b110)
        res = sc.oracle_min_decomposition(S, T)
        target = sc.sumset(S, T)
        best = min(
            len(sp) + len(tp)
            for smask in range(1 << len(S))
            for tmask in range(1 << len(T))
            for sp in [sc.PointSet.from_vectors(3, 1, [p for i, p in enumerate(S) if smask >> i & 1])]
            for tp in [sc.PointSet.from_vectors(3, 1, [p for i, p in enumerate(T) if tmask >> i & 1])]
            if sc.sumset(sp, T).union(sc.sumset(S, tp)) == target
        )
        assert res.best_total == best


class TestGreedy:
    def test_full_f2_squared(self):
        F = sc.all_points(2, 2)
        gs, gt = sc.greedy_decomposition(F, F)
        assert len(gs) + len(gt) == 1

    def test_singletons(self):
        S = sc.PointSet.from_coords(2, 2, [(0, 1)])
        gs, gt = sc.greedy_decomposition(S, S)
        assert len(gs) + len(gt) == 1

    @given(set_pairs(primes=(2, 3)))
    @settings(deadline=None, max_examples=50)
    def test_three_way_comparison(self, pair):
        S, T = pair
        gs, gt = sc.greedy_decomposition(S, T)
        assert sc.verify_decomposition(S, T, gs, gt)
        dec = sc.decompose(S, T)
        if len(S) + len(T) <= 10:
            res = sc.oracle_min_decomposition(S, T)
            assert res.best_total <= len(gs) + len(gt)
            assert res.best_total <= dec.witness_total
        assert dec.witness_total <= dec.bound


class TestAgainstSumsetReference:
    # the lines are sets of coordinate tuples; the FieldVector versions
    # in reference.py must pick the same points in the same order
    @given(small_pairs(max_size=10))
    @settings(deadline=None, max_examples=150)
    def test_greedy_matches(self, pair):
        assert sc.greedy_decomposition(*pair) == greedy_decomposition_sumset(*pair)

    @given(small_pairs(max_size=5))
    @settings(deadline=None, max_examples=150)
    def test_oracle_matches(self, pair):
        assert sc.oracle_min_decomposition(*pair) == oracle_min_decomposition_sumset(*pair)
