import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import sumsetcover as sc
import sumsetcover.cover as cover_module
from sumsetcover.errors import BoundViolated

from conftest import SEEDED_GRID, seeded_pair, set_pairs
from reference import (
    first_nonzero_position,
    line_cover_hopcroft_karp,
    maximum_matching_recursive,
    pivot_basis,
    reference_pivots,
    sum_grid,
)


class TestFirstNonzero:
    def test_single_entry(self):
        m = [[0, 0], [0, 0], [0, 1]]
        assert first_nonzero_position(m) == (2, 1)

    def test_zero_matrix(self):
        with pytest.raises(ValueError, match="zero matrix"):
            first_nonzero_position([[0, 0], [0, 0]])

    def test_row_major_order(self):
        m = [[0, 0, 0, 1], [1, 0, 0, 0]]
        assert first_nonzero_position(m) == (0, 3)


class TestPivotBasis:
    """The test-only reference elimination in tests/reference.py."""

    def test_single_matrix(self):
        _, pivots = pivot_basis([[[0, 1], [1, 0]]], 2)
        assert pivots == ((0, 1),)

    def test_collision_resolved(self):
        a = [[1, 0], [0, 0]]
        b = [[1, 1], [0, 0]]
        grids, pivots = pivot_basis([a, b], 2)
        assert pivots == ((0, 0), (0, 1))
        assert grids[1] == ((0, 1), (0, 0))

    def test_dependent_input_detected(self):
        a = [[1, 2], [0, 1]]
        b = [[2, 4], [0, 2]]
        with pytest.raises(ValueError, match="dependent"):
            pivot_basis([a, b], 3)

    def test_empty_input(self):
        assert pivot_basis([], 2) == ((), ())

    def test_pipeline_basis_f2(self):
        F = sc.all_points(2, 2)
        space = sc.build_vanishing_space(sc.sumset(F, F), 1)
        pts = F.ordered()
        _, pivots = pivot_basis([sum_grid(P, pts, pts) for P in space.basis], 2)
        assert len(pivots) == space.dim
        assert len(set(pivots)) == len(pivots)
        sums = [pts[i] + pts[j] for i, j in pivots]
        assert len(set(sums)) == len(sums)

    @given(set_pairs(primes=(2, 3), allow_empty=False))
    @settings(deadline=None)
    def test_span_preserved(self, pair):
        S, T = pair
        space = sc.build_vanishing_space(sc.sumset(S, T), 2)
        s_ord, t_ord = S.ordered(), T.ordered()
        grids = [sum_grid(P, s_ord, t_ord) for P in space.basis]
        reduced, _ = pivot_basis(grids, S.q)
        flat_in = [[v for row in m for v in row] for m in grids]
        flat_out = [[v for row in m for v in row] for m in reduced]
        if flat_in:
            q = S.q
            r = sc.matrix_rank(flat_in, q)
            assert sc.matrix_rank(flat_out, q) == r
            assert sc.matrix_rank(flat_in + flat_out, q) == r


class TestSumPivots:
    """sum_pivots against the reference sum-matrix elimination."""

    def check(self, S, T, degree):
        space = sc.build_vanishing_space(sc.sumset(S, T), degree)
        s_ord, t_ord = S.ordered(), T.ordered()
        pivots = sc.sum_pivots(space, sc.sum_index(S, T))
        assert list(pivots) == sorted(set(pivots))
        assert len(pivots) == space.dim
        assert set(pivots) == reference_pivots(space, s_ord, t_ord)

    @pytest.mark.parametrize("q, n", SEEDED_GRID)
    def test_matches_reference_seeded(self, q, n):
        best = sc.choose_degree(q, n)[0]
        for seed in range(6):
            S, T = seeded_pair(q, n, seed)
            for degree in {max(best - 1, 0), best, best + 1}:
                self.check(S, T, degree)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @given(set_pairs(primes=(2, 3, 5), allow_empty=False))
    @settings(deadline=None, max_examples=40)
    def test_matches_reference_hypothesis(self, degree, pair):
        S, T = pair
        self.check(S, T, degree)

    def test_matches_reference_q3_n5(self):
        # m_d = 222 monomials and 94 sums: the packed constraint rows and the
        # pivot table both span several 64-bit words
        S, T = seeded_pair(3, 5, 37)
        space = sc.build_vanishing_space(sc.sumset(S, T), sc.choose_degree(3, 5)[0])
        assert space.ambient_dim == 222
        assert len(sc.sum_index(S, T)) == 94
        self.check(S, T, space.degree)

    def test_empty_space_has_no_pivots(self):
        # S+T is one point, so no nonzero constant vanishes off it
        S = sc.PointSet.from_coords(3, 2, [(0, 0)])
        space = sc.build_vanishing_space(sc.sumset(S, S), 0)
        assert space.dim == 0
        assert sc.sum_pivots(space, sc.sum_index(S, S)) == ()


class TestLineCover:
    def test_single_pivot(self):
        cover = sc.line_cover([(0, 0)], 4)
        assert cover.size == 1
        assert cover.cover_rows == (0,) and cover.cover_cols == ()

    def test_diagonal_needs_full_cover(self):
        cover = sc.line_cover([(0, 0), (1, 1), (2, 2)], 10)
        assert cover.size == 3

    def test_cross_shape(self):
        pivots = [(0, j) for j in range(4)] + [(i, 0) for i in range(4)]
        cover = sc.line_cover(pivots, 10)
        assert cover.size == 2
        assert cover.cover_rows == (0,) and cover.cover_cols == (0,)

    def test_empty(self):
        cover = sc.line_cover([], 0)
        assert cover.size == 0

    def test_bound_violation_raises(self):
        with pytest.raises(BoundViolated):
            sc.line_cover([(0, 0), (1, 1), (2, 2)], 2)

    @given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20))
    def test_cover_is_minimum(self, pivots):
        cover = sc.line_cover(pivots, 100)
        rows, cols = set(cover.cover_rows), set(cover.cover_cols)
        assert all(i in rows or j in cols for i, j in pivots)
        # Koenig: cover size equals a maximum matching, so no smaller cover
        # exists; cross-check against the matching produced directly
        adj = {}
        for i, j in sorted(pivots):
            adj.setdefault(i, []).append(j)
        assert cover.size == len(sc.maximum_matching(adj))

    @given(st.sets(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=60))
    def test_matches_reference_hypothesis(self, pivots):
        # the Koenig cover is the same for every maximum matching
        assert sc.line_cover(pivots, 100) == line_cover_hopcroft_karp(pivots)

    @pytest.mark.parametrize("q, n", SEEDED_GRID)
    def test_matches_reference_seeded(self, q, n):
        for seed in range(6):
            run = sc.run_pipeline(*seeded_pair(q, n, seed))
            assert run.cover == line_cover_hopcroft_karp(run.pivots)

    @pytest.mark.parametrize("pivots", [
        [(0, 0)],
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0), (0, 1), (1, 0), (2, 2)],
    ])
    def test_matching_short_of_maximum_raises(self, pivots, monkeypatch):
        def drop_one_pair(adj):
            match = sc.maximum_matching(adj)
            del match[min(match)]
            return match

        monkeypatch.setattr(cover_module, "maximum_matching", drop_one_pair)
        with pytest.raises(BoundViolated, match="the matching is not maximum"):
            sc.line_cover(pivots, 100)


class TestMaximumMatching:
    def test_perfect(self):
        adj = {0: [0], 1: [1]}
        assert sc.maximum_matching(adj) == {0: 0, 1: 1}

    def test_augmenting_path_found(self):
        adj = {0: [0, 1], 1: [0]}
        match = sc.maximum_matching(adj)
        assert len(match) == 2

    def test_star(self):
        adj = {0: [0], 1: [0], 2: [0]}
        assert len(sc.maximum_matching(adj)) == 1

    def test_long_augmenting_path(self):
        # the last left vertex frees up only along a 1501-step augmenting
        # path, deeper than the default recursion limit
        adj = {i: [i, i + 1] for i in range(1500)}
        adj[1500] = [0]
        match = sc.maximum_matching(adj)
        assert len(match) == 1501
        assert match == {**{i: i + 1 for i in range(1500)}, 1500: 0}
        pivots = [(i, j) for i, js in adj.items() for j in js]
        assert sc.line_cover(pivots, 1501).size == 1501

    @given(st.dictionaries(
        st.integers(0, 8), st.lists(st.integers(0, 8), min_size=1, max_size=5, unique=True),
        max_size=9,
    ))
    def test_matches_recursive_search(self, adj):
        # a valid matching, as large as the Hopcroft-Karp one
        match = sc.maximum_matching(adj)
        assert all(u in adj and v in adj[u] for u, v in match.items())
        assert len(set(match.values())) == len(match)
        assert len(match) == len(maximum_matching_recursive(adj))
