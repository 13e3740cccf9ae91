import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given
import hypothesis.strategies as st

import sumsetcover as sc
from sumsetcover import field
from sumsetcover.errors import DimensionMismatch, EnumerationTooLarge, ValidationError

from conftest import (
    SEEDED_GRID,
    brute_first_occurrence,
    brute_sumset,
    point_sets,
    seeded_pair,
    set_pairs,
    space_points,
    subprocess_env,
)
from reference import random_pairs as trials_loop_pairs


def vec(q, *coords):
    return sc.FieldVector(q, coords)


class TestMakeField:
    """The modulus check the CLI applies to q (is_prime)."""

    def test_three_is_prime(self):
        assert sc.is_prime(3)

    def test_four_rejected(self):
        assert not sc.is_prime(4)

    def test_two_smallest_prime(self):
        assert sc.is_prime(2)

    # from 561 on: Carmichael numbers and strong pseudoprimes to the first bases
    @pytest.mark.parametrize(
        "q", [0, 1, 6, 9, 15, 21, 561, 1105, 2047, 3277, 8321, 1373653, 25326001, 3215031751]
    )
    def test_composites_rejected(self, q):
        assert not sc.is_prime(q)

    def test_huge_moduli_answered_in_bounded_time(self):
        # every q is answered or refused within the timeout: below the bound the
        # 13 bases are exact, above it q is refused unless a base divides it
        code = textwrap.dedent(
            """
            import sumsetcover as sc
            bound = 3317044064679887385961981
            assert sc.is_prime(10**14 + 31) and sc.is_prime(2**61 - 1)
            assert not sc.is_prime(318665857834031151167461)  # strong pseudoprime to bases up to 37
            assert not sc.is_prime((2**61 - 1) * 1000003) and not sc.is_prime(10**40)
            try:
                sc.is_prime(bound)
            except sc.EnumerationTooLarge as exc:
                print(exc)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env(), timeout=15,
        )
        assert proc.returncode == 0, proc.stderr
        bound = 3317044064679887385961981
        assert proc.stdout.strip() == f"q = {bound} exceeds the primality bound {bound}"


class TestVecAdd:
    """FieldVector addition."""

    def test_reduction_mod_three(self):
        assert vec(3, 1, 2) + vec(3, 2, 2) == vec(3, 0, 1)

    def test_zero_is_identity(self):
        v = vec(5, 3, 1, 4)
        assert v + vec(5, 0, 0, 0) == v

    def test_characteristic_two(self):
        v = vec(2, 1, 0, 1)
        assert v + v == vec(2, 0, 0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vec(3, 1) + vec(3, 1, 2)
        with pytest.raises(DimensionMismatch):
            vec(3, 1) + vec(5, 1)

    @given(point_sets(allow_empty=False))
    def test_group_inverse(self, S):
        for v in S:
            assert v + sc.FieldVector(v.q, [-c for c in v.coords]) == vec(v.q, *([0] * v.n))

    @given(point_sets(allow_empty=False))
    def test_commutative_and_associative(self, S):
        pts = S.ordered()
        a, b, c = pts[0], pts[len(pts) // 2], pts[-1]
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)


class TestSumset:
    def test_singletons(self):
        S = sc.PointSet.from_coords(2, 1, [(0,)])
        T = sc.PointSet.from_coords(2, 1, [(1,)])
        assert sc.sumset(S, T) == sc.PointSet.from_coords(2, 1, [(1,)])

    def test_group_closure(self):
        F = sc.all_points(2, 1)
        assert sc.sumset(F, F) == F

    def test_interval_mod_three(self):
        # {0,1} + {0,1} in F_3: four pairwise sums enumerate to {0,1,2}
        S = sc.PointSet.from_coords(3, 1, [(0,), (1,)])
        expected = {(0,), (1,), (2,)}
        assert brute_sumset(S, S) == expected
        assert {v.coords for v in sc.sumset(S, S)} == expected

    def test_empty_absorbs(self):
        S = sc.PointSet.from_coords(3, 1, [(0,), (1,)])
        empty = sc.PointSet.empty(3, 1)
        assert len(sc.sumset(S, empty)) == 0
        assert len(sc.sumset(empty, S)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sc.sumset(sc.PointSet.empty(2, 1), sc.PointSet.empty(2, 2))

    @given(set_pairs())
    def test_matches_brute_force(self, pair):
        S, T = pair
        assert {v.coords for v in sc.sumset(S, T)} == brute_sumset(S, T)

    @given(set_pairs())
    def test_commutative(self, pair):
        S, T = pair
        assert sc.sumset(S, T) == sc.sumset(T, S)

    @given(set_pairs())
    def test_monotone(self, pair):
        S, T = pair
        sub = sc.PointSet.from_vectors(S.q, S.n, S.ordered()[: len(S) // 2])
        assert sc.sumset(sub, T).issubset(sc.sumset(S, T))


class TestSumIndex:
    """sum_index against a brute-force first-occurrence scan on plain tuples."""

    def check(self, S, T):
        index = sc.sum_index(S, T)
        # dict equality ignores order, so compare the item sequences
        assert list(index.items()) == list(brute_first_occurrence(S, T).items())
        assert set(index) == brute_sumset(S, T)

    @pytest.mark.parametrize("q, n", SEEDED_GRID)
    def test_matches_brute_force_seeded(self, q, n):
        for seed in range(6):
            self.check(*seeded_pair(q, n, seed))

    @given(set_pairs())
    def test_matches_brute_force_hypothesis(self, pair):
        self.check(*pair)

    @pytest.mark.parametrize("q, n", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
    def test_dense_pairs_stop_at_the_whole_space(self, q, n, monkeypatch):
        # S+T fills F_q^n before the last row: the index equals the brute
        # scan, and the pass leaves S x T after the row that completed it
        pts = [p.coords for p in space_points(q, n)]
        visited = []
        real = field.coded_sum_index

        class Columns(list):
            # T's codes, as the coded pass reads them row by row: one entry per pair visited
            def __iter__(self):
                for t in super().__iter__():
                    visited.append(1)
                    yield t

        monkeypatch.setattr(field, "coded_sum_index", lambda lanes, s, t: real(lanes, s, Columns(t)))
        for seed in range(4):
            rng = random.Random(f"dense:{q}:{n}:{seed}")
            S = sc.PointSet.from_coords(q, n, rng.sample(pts, len(pts) // 2 + 1))
            T = sc.PointSet.from_coords(q, n, rng.sample(pts, len(pts) - len(pts) // 4))
            visited.clear()
            index = sc.sum_index(S, T)
            last_row = max(i for i, _ in index.values())
            assert len(index) == q**n and last_row < len(S) - 1
            assert len(visited) == (last_row + 1) * len(T)
            self.check(S, T)


# moduli for the packed coding: small fields, and one whose lanes are 62 bits wide
LANE_QS = [2, 3, 5, 7, 11, 13, 2**61 - 1]


@st.composite
def lane_points(draw, count):
    """A q from LANE_QS, an n in 1..8 and `count` points of F_q^n as tuples."""
    q = draw(st.sampled_from(LANE_QS))
    n = draw(st.integers(1, 8))
    coord = st.integers(0, q - 1)
    return q, n, [draw(st.tuples(*[coord] * n)) for _ in range(count)]


@st.composite
def lane_pairs(draw):
    """(S, T) of at most 5 points each, in F_q^n with q from LANE_QS, n <= 8."""
    q, n, _ = draw(lane_points(0))
    point = st.tuples(*[st.integers(0, q - 1)] * n)
    return tuple(sc.PointSet.from_coords(q, n, draw(st.lists(point, max_size=5))) for _ in "ST")


class TestLanes:
    """The packed coding against coordinate tuples."""

    @given(lane_points(2))
    def test_packed_sum_is_the_tuple_sum(self, drawn):
        q, n, (a, b) = drawn
        lanes = field.Lanes.of(q, n)
        want = tuple((x + y) % q for x, y in zip(a, b))
        assert lanes.decode(lanes.add(lanes.encode(a), lanes.encode(b))) == want
        assert lanes.sums([lanes.encode(a)], [lanes.encode(b)]) == {lanes.encode(want)}

    @given(lane_points(2))
    def test_code_order_is_tuple_order(self, drawn):
        q, n, (a, b) = drawn
        lanes = field.Lanes.of(q, n)
        ca, cb = lanes.encode(a), lanes.encode(b)
        assert lanes.decode(ca) == a and lanes.decode(cb) == b
        assert (ca < cb, ca == cb) == (a < b, a == b)

    @given(lane_pairs())
    def test_sum_index_is_the_first_occurrence_scan(self, pair):
        S, T = pair
        assert list(sc.sum_index(S, T).items()) == list(brute_first_occurrence(S, T).items())

    @pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (5, 2), (7, 1)])
    def test_points_pair_codes_with_the_lexicographic_points(self, q, n):
        lanes = field.Lanes.of(q, n)
        points = lanes.points()
        assert list(points.values()) == [v.coords for v in sc.all_points(q, n).ordered()]
        assert list(points) == sorted(points) == [lanes.encode(p) for p in points.values()]

    def test_points_refused_above_the_cap(self):
        with pytest.raises(EnumerationTooLarge, match=f"^q\\^n = {3**40} exceeds enumeration cap"):
            field.Lanes.of(3, 40).points()


class TestComplement:
    def test_full_space(self):
        F = sc.all_points(3, 1)
        assert len(sc.complement(F)) == 0

    def test_empty_set(self):
        assert len(sc.complement(sc.PointSet.empty(2, 2))) == 4

    def test_set_difference(self):
        A = sc.PointSet.from_coords(2, 2, [(0, 0), (0, 1)])
        assert {v.coords for v in sc.complement(A)} == {(1, 0), (1, 1)}

    def test_cap_refusal(self):
        with pytest.raises(EnumerationTooLarge):
            sc.complement(sc.PointSet.empty(2, 5), cap=16)

    @given(point_sets())
    def test_size_identity(self, A):
        assert len(sc.complement(A)) + len(A) == A.q**A.n


class TestPointSet:
    def test_canonical_iteration_order(self):
        S = sc.PointSet.from_coords(3, 2, [(2, 1), (0, 0), (1, 2)])
        assert [v.coords for v in S] == [(0, 0), (1, 2), (2, 1)]

    def test_mixed_members_rejected(self):
        with pytest.raises(DimensionMismatch):
            sc.PointSet(2, 2, frozenset({vec(2, 1)}))

    def test_coords_reduced(self):
        assert vec(3, 4, -1) == vec(3, 1, 2)

    def test_space_size(self):
        assert len(space_points(3, 2)) == 9


class TestRandomPairs:
    @pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (5, 1)])
    @pytest.mark.parametrize("p", [0, 0.3, 1])
    @pytest.mark.parametrize("count", [0, 4])
    def test_same_pairs_as_the_trials_loop(self, q, n, p, count):
        for seed in (0, 7):
            assert list(sc.random_pairs(q, n, count, seed, p)) == trials_loop_pairs(q, n, count, seed, p)

    def test_draws_lazily(self):
        # a count no loop could finish: the call and the first pair return at once
        S, T = next(sc.random_pairs(2, 2, 10**12, 1, 0.5))
        assert (S.q, S.n, T.q, T.n) == (2, 2, 2, 2)

    @pytest.mark.parametrize("q, n, count, p, message", [
        (4, 1, 1, 0.5, "q = 4 is not prime"),
        (1, 1, 1, 0.5, "q = 1 is not prime"),
        (3, 0, 1, 0.5, "n must be >= 1, got 0"),
        (3, 1, -1, 0.5, "count must be >= 0, got -1"),
        (3, 1, 10**12, 1.5, "inclusion probability must be in [0, 1], got 1.5"),
        (3, 1, 10**12, -0.1, "inclusion probability must be in [0, 1], got -0.1"),
        (3, 1, 10**12, float("nan"), "inclusion probability must be in [0, 1], got nan"),
        # bad input is refused before the space is checked against the cap
        (4, 30, 1, 0.5, "q = 4 is not prime"),
        (3, 30, -1, 0.5, "count must be >= 0, got -1"),
    ])
    def test_invalid_input_refused_on_the_call(self, q, n, count, p, message):
        with pytest.raises(ValidationError) as exc:
            sc.random_pairs(q, n, count, 0, p)
        assert str(exc.value) == message

    @pytest.mark.parametrize("q, n, cap", [(3, 14, sc.DEFAULT_ENUM_CAP), (2, 23, sc.DEFAULT_ENUM_CAP), (3, 4, 80)])
    def test_space_above_the_cap_refused_at_count_zero(self, q, n, cap):
        with pytest.raises(EnumerationTooLarge) as exc:
            sc.random_pairs(q, n, 0, 0, 0.5, cap=cap)
        assert str(exc.value) == f"q^n = {q**n} exceeds enumeration cap {cap}"
