import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import sumsetcover as sc
from sumsetcover import linalg
from sumsetcover.linalg import _kernel_basis, _rref_lists, combine_rows, pivot_columns

from conftest import seeded_pair


def list_null_space(m, ncols, q):
    """The null space from the list elimination, whatever q is."""
    return _kernel_basis(*_rref_lists(m, q), ncols, q)


@st.composite
def gf_matrices(draw, max_dim=5):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    m = [
        [draw(st.integers(0, q - 1)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return q, m


@st.composite
def wide_integer_matrices(draw, max_rows=10, max_cols=150, q=3):
    """Integer matrices read mod q, up to several 64-bit words wide.

    Entries range over [-5, 8], so negatives and values above q occur.  A
    row is fresh, zero mod q (multiples of q, negatives among them), or a
    combination of two earlier rows, so ranks below the row count are common.
    """
    ncols = draw(st.integers(1, max_cols))
    entries = st.lists(st.integers(-5, 8), min_size=ncols, max_size=ncols)
    rows: list[list[int]] = []
    for kind in draw(st.lists(st.sampled_from(["fresh", "zero", "combo"]), max_size=max_rows)):
        if kind == "fresh" or not rows:
            rows.append(draw(entries))
        elif kind == "zero":
            rows.append([q * (v % 5 - 2) for v in draw(entries)])
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(-4, 4))
            rows.append([x + k * y for x, y in zip(a, b)])
    return rows


def mat_vec(m, v, q):
    return [sum(a * b for a, b in zip(row, v)) % q for row in m]


class TestRank:
    def test_identity(self):
        eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert sc.matrix_rank(eye, 5) == 4

    def test_all_ones(self):
        assert sc.matrix_rank([[1] * 3 for _ in range(3)], 3) == 1

    def test_char_dependent(self):
        # [[1,1],[1,-1]] is singular exactly in characteristic 2
        m = [[1, 1], [1, 1]]
        assert sc.matrix_rank(m, 2) == 1
        m = [[1, 1], [1, 4]]
        assert sc.matrix_rank(m, 3) == 1
        assert sc.matrix_rank(m, 5) == 2


def rank_by_insertion(rows, q):
    """Rank over F_q by another route than elimination column by column:
    each row in turn is reduced by the kept rows, keyed by their leading
    column, and kept under its own leading column when something is left."""
    kept: dict[int, list[int]] = {}
    for row in rows:
        v = [x % q for x in row]
        for c in range(len(v)):
            if v[c] and c in kept:
                f = v[c] * pow(kept[c][c], -1, q)
                v = [(x - f * y) % q for x, y in zip(v, kept[c])]
            elif v[c]:
                kept[c] = v
                break
    return len(kept)


class TestForwardRank:
    """matrix_rank takes the pivot count of forward elimination alone: it
    agrees with rref's pivots and with an independent rank, and never
    reduces."""

    @given(wide_integer_matrices(), st.sampled_from([2, 3, 5, 7]), st.data())
    @settings(deadline=None)
    def test_against_rref(self, m, q, data):
        # all-zero rows and columns spliced in, at any q
        ncols = len(m[0]) if m else data.draw(st.integers(0, 4))
        zero_cols = data.draw(st.sets(st.integers(0, max(ncols - 1, 0))))
        m = [[0 if c in zero_cols else v for c, v in enumerate(row)] for row in m]
        for at in data.draw(st.lists(st.integers(0, len(m)), max_size=2)):
            m.insert(at, [0] * ncols)
        rank, pivots = sc.matrix_rank(m, q), sc.rref(m, q)[1]
        assert rank == len(pivots) == rank_by_insertion(m, q)
        assert pivot_columns(m, q) == pivots
        if q == 3:
            assert sc.matrix_rank(linalg.pack(m, ncols), 3) == rank
            assert pivot_columns(linalg.pack(m, ncols), 3) == pivots

    @pytest.mark.parametrize("m, ncols", [
        ([], 0), ([], 3), ([[], []], 0), ([[0, 0, 0]] * 3, 3),
        ([[1, 2, 0], [2, 4, 0], [0, 0, 0]], 3), ([[0, 1, 1], [0, 2, 2], [0, 1, 2]], 3),
    ], ids=["no-rows", "no-rows-3-cols", "zero-width", "zero", "rank-1-zero-column", "zero-first-column"])
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_shapes(self, m, ncols, q):
        rank = sc.matrix_rank(m, q)
        assert rank == len(sc.rref(m, q)[1]) == rank_by_insertion(m, q)
        if q == 3:
            assert sc.matrix_rank(linalg.pack(m, ncols), 3) == rank

    @given(wide_integer_matrices())
    @settings(deadline=None, max_examples=30)
    def test_no_reduced_form(self, m):
        # floor: a rank, and the whole rank audit, never build a reduced form
        def refused(*args):
            raise AssertionError("a rank went through rref")

        ncols = len(m[0]) if m else 0
        with pytest.MonkeyPatch.context() as mp:
            for name in ("rref", "_rref_lists", "_rref_packed", "_rref_bits"):
                mp.setattr(linalg, name, refused)
            ranks = (sc.matrix_rank(m, 3), sc.matrix_rank(linalg.pack(m, ncols), 3),
                     sc.matrix_rank(m, 5), sc.matrix_rank(m, 2))
        assert ranks == tuple(rank_by_insertion(m, q) for q in (3, 3, 5, 2))

    @pytest.mark.parametrize("q, n, seed", [(3, 3, 5), (5, 2, 1)])
    def test_rank_audit_never_reduces(self, q, n, seed, monkeypatch):
        run = sc.run_pipeline(*seeded_pair(q, n, seed))
        expected = sc.summatrix.rank_audit(run)

        def refused(*args):
            raise AssertionError("the rank audit went through rref")

        for name in ("rref", "_rref_lists", "_rref_packed", "_rref_bits"):
            monkeypatch.setattr(linalg, name, refused)
        assert sc.summatrix.rank_audit(run) == expected and expected.max_rank > 0


class TestRref:
    def test_canonical_form(self):
        reduced, pivots = sc.rref([[2, 4], [1, 2]], 5)
        assert reduced == [[1, 2]]
        assert pivots == [0]

    def test_input_not_mutated(self):
        m = [[2, 1], [1, 1]]
        sc.rref(m, 3)
        assert m == [[2, 1], [1, 1]]

    @given(gf_matrices())
    def test_rows_reduced(self, qm):
        q, m = qm
        reduced, pivots = sc.rref(m, q)
        assert len(reduced) == len(pivots)
        for i, p in enumerate(pivots):
            assert reduced[i][p] == 1
            for j in range(len(reduced)):
                if j != i:
                    assert reduced[j][p] == 0


class TestNullSpace:
    def test_no_constraints_gives_identity(self):
        basis = sc.null_space([], 3, 5)
        assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_single_constraint_over_f2(self):
        assert sc.null_space([[1, 1]], 2, 2) == [[1, 1]]

    @given(gf_matrices())
    def test_kernel_property(self, qm):
        q, m = qm
        ncols = len(m[0])
        basis = sc.null_space(m, ncols, q)
        assert len(basis) == ncols - sc.matrix_rank(m, q)
        for v in basis:
            assert mat_vec(m, v, q) == [0] * len(m)
        if basis:
            assert sc.matrix_rank(basis, q) == len(basis)

    @given(gf_matrices())
    def test_deterministic(self, qm):
        q, m = qm
        ncols = len(m[0])
        assert sc.null_space(m, ncols, q) == sc.null_space(m, ncols, q)


class TestRaggedRows:
    """Rows of unequal length are refused by every entry point, at any q."""

    @pytest.mark.parametrize("q", [3, 5, 2])
    @pytest.mark.parametrize("rows", [[[1], [1, 2]], [[0, 1, 2], [1, 1]]])
    def test_rejected(self, q, rows):
        with pytest.raises(ValueError, match="row of length"):
            sc.rref(rows, q)
        with pytest.raises(ValueError, match="row of length"):
            sc.matrix_rank(rows, q)
        with pytest.raises(ValueError, match="row of length"):
            sc.null_space(rows, 3, q)

    @pytest.mark.parametrize("q", [3, 5, 2])
    def test_row_width_must_match_ncols(self, q):
        with pytest.raises(ValueError, match="row of length 2 in a 3-column system"):
            sc.null_space([[1, 2], [0, 1]], 3, q)


class TestCompositeModulus:
    """Z/q with q composite is not a field: every elimination refuses it first."""

    @pytest.mark.parametrize("q", [0, 1, 4, 9])
    def test_every_entry_point_refuses(self, q):
        # over Z/4, 2 has no inverse: the rank of diag(2, 2) is not defined
        rows = [[2, 0], [0, 2]]
        for call in (lambda: sc.rref(rows, q), lambda: sc.matrix_rank(rows, q),
                     lambda: sc.null_space(rows, 2, q)):
            with pytest.raises(ValueError, match=f"^q = {q} is not prime$"):
                call()


class TestPackedMatchesLists:
    """At q = 3 the bitplane path gives exactly what the list path gives."""

    @given(wide_integer_matrices())
    @settings(deadline=None)
    def test_rref(self, m):
        expected = _rref_lists(m, 3)
        assert sc.rref(m, 3) == expected
        # a packed matrix, as the evaluation tables pass, comes back packed
        reduced, pivots = sc.rref(linalg.pack(m, len(m[0]) if m else 0), 3)
        assert isinstance(reduced, linalg.Matrix3)
        assert (linalg.unpack(reduced), pivots) == expected

    @given(wide_integer_matrices())
    @settings(deadline=None)
    def test_null_space_and_rank(self, m):
        ncols = len(m[0]) if m else 7
        expected_basis, expected_rank = list_null_space(m, ncols, 3), len(_rref_lists(m, 3)[0])
        assert sc.null_space(m, ncols, 3) == expected_basis
        assert sc.matrix_rank(m, 3) == expected_rank
        packed = linalg.pack(m, ncols)
        assert sc.null_space(packed, ncols, 3) == expected_basis
        assert sc.matrix_rank(packed, 3) == expected_rank

    @staticmethod
    def _packed_null_space(m, ncols):
        """null_space of the packed rows with no way back to list rows."""
        def refused(*args):
            raise AssertionError("the packed null space went through list rows")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "unpack", refused)
            mp.setattr(linalg, "_kernel_basis", refused)
            return sc.null_space(linalg.pack(m, ncols), ncols, 3)

    @given(wide_integer_matrices())
    @settings(deadline=None)
    def test_null_space_read_off_the_bitplanes(self, m):
        # floor: the q = 3 basis comes straight from the reduced bitplanes
        ncols = len(m[0]) if m else 7
        assert self._packed_null_space(m, ncols) == list_null_space(m, ncols, 3)

    @pytest.mark.parametrize("m, ncols, expected", [
        ([[1, 0, 0], [0, 2, 0], [0, 0, 1], [1, 1, 1]], 3, []),
        ([[0] * 4, [3, -3, 6, 0]], 4, [[1 if i == j else 0 for j in range(4)] for i in range(4)]),
        ([[0, 1, 2], [0, 2, 1]], 3, [[1, 0, 0], [0, 1, 1]]),
    ], ids=["full-column-rank", "zero-rows", "free-left-of-first-pivot"])
    def test_null_space_shapes(self, m, ncols, expected):
        assert self._packed_null_space(m, ncols) == list_null_space(m, ncols, 3) == expected

    def test_null_space_past_two_words(self):
        # pivots at 0, 65 and 130, free columns on both sides of bits 64 and 128
        ncols = 140
        m = [[0] * ncols for _ in range(3)]
        for row, (p, entries) in zip(m, [(0, {64: 1, 129: 2}), (65, {100: 2, 139: 1}), (130, {135: 1, 139: 2})]):
            row[p] = 1
            for c, v in entries.items():
                row[c] = v
        basis = self._packed_null_space(m, ncols)
        assert basis == list_null_space(m, ncols, 3)
        assert len(basis) == ncols - 3 and all(mat_vec(m, v, 3) == [0, 0, 0] for v in basis)
        free = [c for c in range(ncols) if c not in (0, 65, 130)]
        at = {f: v for f, v in zip(free, basis)}
        assert [at[139][p] for p in (0, 65, 130)] == [0, 2, 1]
        assert [at[64][p] for p in (0, 65, 130)] == [2, 0, 0]
        assert [at[129][p] for p in (0, 65, 130)] == [1, 0, 0]

    def test_empty_row_list(self):
        assert sc.rref([], 3) == _rref_lists([], 3) == ([], [])
        assert sc.matrix_rank([], 3) == 0
        assert sc.null_space([], 4, 3) == list_null_space([], 4, 3)
        empty = linalg.pack([], 4)
        assert sc.matrix_rank(empty, 3) == 0
        assert sc.null_space(empty, 4, 3) == list_null_space([], 4, 3)

    def test_zero_width_rows(self):
        assert sc.rref([[], []], 3) == _rref_lists([[], []], 3) == ([], [])
        assert sc.null_space([[], []], 0, 3) == []
        assert sc.null_space(linalg.pack([[], []], 0), 0, 3) == []

    @pytest.mark.parametrize("q", [2, 5])
    def test_packed_rows_need_q3(self, q):
        # the bitplanes hold F_3 entries; no other field may eliminate them
        with pytest.raises(ValueError, match=f"over F_{q}$"):
            sc.rref(linalg.pack([[1, 2]], 2), q)

    def test_input_not_mutated(self):
        m = [[2, -1, 4], [5, 5, 0]]
        sc.rref(m, 3)
        sc.null_space(m, 3, 3)
        assert m == [[2, -1, 4], [5, 5, 0]]

    @given(wide_integer_matrices(), st.data())
    @settings(deadline=None)
    def test_combine_rows(self, m, data):
        # the product W·M by explicit sums, against the list and packed paths;
        # weights outside [0, 3), negatives among them, are read mod 3
        m = [[v % 3 for v in row] for row in m]
        ncols = len(m[0]) if m else 5
        pair = st.tuples(st.integers(0, max(len(m) - 1, 0)), st.integers(-4, 8))
        weights = data.draw(st.lists(st.lists(pair, max_size=6 if m else 0), max_size=5))
        expected = [
            [sum(c * m[k][j] for k, c in w) % 3 for j in range(ncols)] for w in weights
        ]
        assert combine_rows(weights, m, ncols, 3) == expected
        packed = combine_rows(weights, linalg.pack(m, ncols), ncols, 3)
        assert isinstance(packed, linalg.Matrix3) and linalg.unpack(packed) == expected
        with pytest.raises(ValueError, match="cannot be combined over F_5"):
            combine_rows(weights, linalg.pack(m, ncols), ncols, 5)

    @pytest.mark.parametrize("rows, ncols", [([[1, 2]], 3), ([[1, 2, 3], [1]], 3), ([[1, 2, 1]], 2)])
    def test_rows_of_another_width_refused(self, rows, ncols):
        # no row is cut to ncols or read past it
        with pytest.raises(ValueError, match="-column system"):
            combine_rows([[(0, 1)], [(0, 1), (len(rows) - 1, 1)]], rows, ncols, 5)
        with pytest.raises(ValueError, match="-column system"):
            linalg.pack(rows, ncols)

    @pytest.mark.parametrize("ncols", [1, 3, 5])
    def test_packed_rows_of_another_width_refused(self, ncols):
        # the packed path checks the width exactly as the list path does
        with pytest.raises(ValueError, match=f"row of length 2 in a {ncols}-column system"):
            combine_rows([[(0, 1)]], linalg.pack([[1, 2]], 2), ncols, 3)
        with pytest.raises(ValueError, match=f"row of length 2 in a {ncols}-column system"):
            sc.null_space(linalg.pack([[1, 2]], 2), ncols, 3)

    def test_pack_round_trip(self):
        rows = [[0, 1, 2, -1, 4, 3], [0] * 6]
        assert linalg.unpack(linalg.pack(rows, 6)) == [[v % 3 for v in r] for r in rows]


class TestBitsMatchLists:
    """At q = 2 list rows are eliminated as one int per row; rref, the
    pivots, the rank and the null space are exactly the list path's."""

    @staticmethod
    def _without_list_elimination(call):
        """call() with the list elimination and the list kernel refused."""
        def refused(*args):
            raise AssertionError("the q = 2 elimination went through list rows")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_echelon_lists", refused)
            mp.setattr(linalg, "_kernel_basis", refused)
            return call()

    @given(wide_integer_matrices(q=2))
    @settings(deadline=None)
    def test_against_the_list_path(self, m):
        # floor: every q = 2 entry point runs on the ints alone
        ncols = len(m[0]) if m else 7
        reduced, pivots = _rref_lists(m, 2)
        expected = (reduced, pivots), pivots, len(pivots), list_null_space(m, ncols, 2)
        got = self._without_list_elimination(lambda: (
            sc.rref(m, 2), pivot_columns(m, 2), sc.matrix_rank(m, 2), sc.null_space(m, ncols, 2)))
        assert got == expected

    @pytest.mark.parametrize("m, ncols", [
        ([], 0), ([], 4), ([[], []], 0), ([[0] * 5] * 3, 5), ([[2, -4, 6, 0]] * 2, 4),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 3), ([[0, 1, 1], [0, 1, 0]], 3),
        ([[0, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1]], 4),
    ], ids=["no-rows", "no-rows-4-cols", "zero-width", "all-zero", "even-entries",
            "full-column-rank", "free-left-of-first-pivot", "sum-of-earlier-rows"])
    def test_shapes(self, m, ncols):
        expected = _rref_lists(m, 2)
        got = self._without_list_elimination(
            lambda: (sc.rref(m, 2), pivot_columns(m, 2), sc.null_space(m, ncols, 2)))
        assert got == (expected, expected[1], list_null_space(m, ncols, 2))

    def test_null_space_past_two_words(self):
        # pivots at 0, 65 and 130, free columns on both sides of bits 64 and 128
        ncols = 140
        m = [[0] * ncols for _ in range(3)]
        for row, (p, ones) in zip(m, [(0, (64, 129)), (65, (100, 139)), (130, (135, 139))]):
            for c in (p, *ones):
                row[c] = 1
        basis = self._without_list_elimination(lambda: sc.null_space(m, ncols, 2))
        assert basis == list_null_space(m, ncols, 2)
        assert len(basis) == ncols - 3 and all(mat_vec(m, v, 2) == [0, 0, 0] for v in basis)
        free = [c for c in range(ncols) if c not in (0, 65, 130)]
        at = {f: v for f, v in zip(free, basis)}
        assert [at[139][p] for p in (0, 65, 130)] == [0, 1, 1]
        assert [at[64][p] for p in (0, 65, 130)] == [1, 0, 0]
        assert [at[129][p] for p in (0, 65, 130)] == [1, 0, 0]
        assert self._without_list_elimination(lambda: pivot_columns(m, 2)) == [0, 65, 130]

    def test_input_not_mutated(self):
        m = [[3, -1, 4, 0], [1, 1, 0, 2], [2, 0, 4, 6]]
        sc.rref(m, 2)
        sc.matrix_rank(m, 2)
        sc.null_space(m, 4, 2)
        assert m == [[3, -1, 4, 0], [1, 1, 0, 2], [2, 0, 4, 6]]


@st.composite
def cell_tables(draw):
    """(q, left rows, right rows) with up to 70 cells, past one 64-bit word."""
    q = draw(st.sampled_from([2, 3, 5]))
    height, width = draw(st.integers(0, 7)), draw(st.integers(0, 10))

    def rows(length):
        return draw(st.lists(st.lists(st.integers(0, q - 1), min_size=length, max_size=length), max_size=4))

    return q, rows(height), rows(width)


class TestCellTables:
    """outer_rows, flatten and split_row against their per-cell definitions,
    packed at q = 3 and as lists at every q (3 included)."""

    @staticmethod
    def _formats(q, *tables):
        """The tables as lists, and as linalg picks at q when that packs."""
        yield tables
        if q == 3:
            yield tuple(linalg.as_table(t, len(t[0]) if t else 0, q) for t in tables)

    @given(cell_tables(), st.data())
    @settings(deadline=None)
    def test_outer_rows_and_split(self, tables, data):
        q, left, right = tables
        if not left or not right:
            return
        height, width = len(left[0]), len(right[0])
        triple = st.tuples(st.integers(0, len(left) - 1), st.integers(0, len(right) - 1), st.integers(-3, 7))
        terms = data.draw(st.lists(st.lists(triple, max_size=5), max_size=4))
        expected = [
            [
                [sum(c * left[i][u] * right[j][v] for i, j, c in t) % q for v in range(width)]
                for u in range(height)
            ]
            for t in terms
        ]
        for lt, rt in self._formats(q, left, right):
            flat = linalg.outer_rows(terms, lt, rt, q)
            assert [list(map(list, linalg.as_rows(linalg.split_row(flat, r, height, width))))
                    for r in range(len(terms))] == expected
            assert [list(row) for row in linalg.as_rows(flat)] == [sum(m, []) for m in expected]

    @pytest.mark.parametrize("c", [1, 2, 4])
    def test_every_bitplane_product(self, c):
        # entries 1 and 2 on both sides meet in all four plane products
        left, right = [[1, 2, 0]], [[2, 1]]
        expected = [c * x * y % 3 for x in left[0] for y in right[0]]
        for lt, rt in self._formats(3, left, right):
            assert list(linalg.as_rows(linalg.outer_rows([[(0, 0, c)]], lt, rt, 3))[0]) == expected

    @given(cell_tables(), st.data())
    @settings(deadline=None)
    def test_flatten(self, tables, data):
        q, values, _ = tables
        ncols = len(values[0]) if values else 0
        if not ncols:
            return
        grid = data.draw(st.lists(st.lists(st.integers(0, ncols - 1), min_size=3, max_size=3), max_size=5))
        expected = [[row[c] for line in grid for c in line] for row in values]
        for (table,) in self._formats(q, values):
            assert [list(r) for r in linalg.as_rows(linalg.flatten(table, grid))] == expected

    @pytest.mark.parametrize("q", [2, 5])
    def test_packed_outer_products_need_q3(self, q):
        one = linalg.pack([[1, 2]], 2)
        with pytest.raises(ValueError, match=f"over F_{q}$"):
            linalg.outer_rows([[(0, 0, 1)]], one, one, q)
        with pytest.raises(ValueError, match="two formats"):
            linalg.outer_rows([[(0, 0, 1)]], one, [[1, 2]], 3)


class TestTableFormatOwner:
    """linalg alone picks the table format: no other module names Matrix3."""

    SRC = Path(linalg.__file__).resolve().parent
    MODULES = {
        "__init__", "cli", "cover", "decompose", "errors", "field",
        "linalg", "monomials", "oracle", "summatrix", "vanishing",
    }

    @staticmethod
    def _names_matrix3(tree: ast.AST) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, (ast.ImportFrom, ast.Import)):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if "Matrix3" in names:
                return True
        return False

    def test_only_linalg_names_matrix3(self):
        modules = sorted(self.SRC.glob("*.py"))
        assert {p.stem for p in modules} == self.MODULES
        naming = [p.name for p in modules if self._names_matrix3(ast.parse(p.read_text(), str(p)))]
        assert naming == ["linalg.py"]

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_table_round_trip(self, q):
        rows = [[0, 1, -1, q, 2 * q + 1], [4, 4, 4, 4, 4]]
        table = linalg.as_table(rows, 5, q)
        assert linalg.as_rows(table) == [[v % q for v in r] for r in rows]
        with pytest.raises(ValueError, match="row of length 5 in a 4-column system"):
            linalg.as_table(rows, 4, q)


class TestPipelineImports:
    """Coefficient rows are the one polynomial format of run_pipeline: no
    module that decompose imports, directly or through another, imports
    summatrix, the home of the Polynomial term maps and the rank audit; and
    cover, the matching and the line cover, imports errors alone."""

    SRC = TestTableFormatOwner.SRC
    PIPELINE = {"decompose", "cover", "vanishing", "field", "linalg", "monomials", "errors"}

    @classmethod
    def _imports(cls, module: str) -> set[str]:
        """The package modules that module's source imports."""
        out: set[str] = set()
        tree = ast.parse((cls.SRC / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    base = node.module or ""
                elif (node.module or "").split(".")[0] == "sumsetcover":
                    base = node.module.partition(".")[2]
                else:
                    continue
                if base:
                    out.add(base.split(".")[0])
                else:
                    out.update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("sumsetcover."))
        return out

    def test_pipeline_never_imports_polynomials(self):
        reached, todo = set(), ["decompose"]
        while todo:
            module = todo.pop()
            if module not in reached:
                reached.add(module)
                todo.extend(self._imports(module))
        assert reached == self.PIPELINE
        assert [m for m in sorted(reached) if "summatrix" in self._imports(m)] == []

    def test_polynomials_importers_are_named(self):
        # the package's public surface and --certify-rank reach the Polynomial format
        importers = [p.stem for p in sorted(self.SRC.glob("*.py")) if "summatrix" in self._imports(p.stem)]
        assert importers == ["__init__", "cli"]

    def test_cover_imports_only_errors(self):
        # the pivot stage reads the vanishing space and lives beside it
        assert self._imports("cover") == {"errors"}
