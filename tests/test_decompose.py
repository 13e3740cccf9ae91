import dataclasses
import importlib
import itertools
import json
import random
import re
import subprocess
import sys
import textwrap
import types

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import sumsetcover as sc

from conftest import SEEDED_GRID, seeded_pair, set_pairs, small_pairs, subprocess_env, subset_from_mask
from reference import verify_decomposition_sumset
from test_golden import DIGESTS as GOLDEN_DIGESTS, GOLDEN_DIR


class TestChooseDegree:
    def test_known_minima(self):
        assert sc.choose_degree(2, 2) == (1, 3)
        assert sc.choose_degree(3, 2) == (3, 7)
        assert sc.choose_degree(2, 1) == (1, 2)

    def test_matches_brute_force_scan(self):
        for q, n in [(2, 3), (3, 2), (5, 1), (3, 3)]:
            budgets = {d: sc.degree_bound(q, n, d) for d in range((q - 1) * n + 1)}
            best = min(budgets.values())
            d, bound = sc.choose_degree(q, n)
            assert bound == best
            assert budgets[d] == best
            assert all(budgets[e] > best for e in range(d))

    def test_large_n_is_cheap(self):
        d, bound = sc.choose_degree(3, 150)
        assert 0 < bound < 3**150

    def test_minimized_bound_within_capset_budget(self):
        # checked per (q, n) rather than assumed: the floored minimum can
        # conceivably interact badly with the floored budget index
        for q in (2, 3, 5, 7):
            for n in range(1, 9):
                _, bound = sc.choose_degree(q, n)
                assert bound <= sc.capset_bound_M(q, n), (q, n)


class TestDecompose:
    def test_singletons(self):
        S = sc.PointSet.from_coords(3, 2, [(1, 2)])
        T = sc.PointSet.from_coords(3, 2, [(2, 2)])
        dec = sc.decompose(S, T)
        assert sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness)
        assert dec.witness_total == 1

    def test_full_f2_squared(self):
        F = sc.all_points(2, 2)
        dec = sc.decompose(F, F, 1)
        assert sc.verify_decomposition(F, F, dec.s_witness, dec.t_witness)
        assert dec.witness_total <= 3

    def test_empty_inputs(self):
        S = sc.PointSet.empty(3, 2)
        T = sc.PointSet.from_coords(3, 2, [(0, 0)])
        for a, b in [(S, T), (T, S), (S, S)]:
            dec = sc.decompose(a, b)
            assert len(dec.s_witness) == 0 and len(dec.t_witness) == 0
            assert sc.verify_decomposition(a, b, dec.s_witness, dec.t_witness)

    def test_empty_skips_enumeration(self):
        # no q^n enumeration happens for empty inputs, so huge n is fine
        S = sc.PointSet.empty(2, 40)
        dec = sc.decompose(S, S)
        assert dec.witness_total == 0

    def test_deterministic(self):
        S = subset_from_mask(3, 2, 0b101100110)
        T = subset_from_mask(3, 2, 0b010011011)
        assert sc.decompose(S, T) == sc.decompose(S, T)

    def test_forced_degrees_all_valid(self):
        S = subset_from_mask(3, 2, 0b111001010)
        T = subset_from_mask(3, 2, 0b001110101)
        for d in range(0, 5):
            dec = sc.decompose(S, T, d)
            assert dec.degree == d
            assert dec.bound == sc.degree_bound(3, 2, d)
            assert sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness)
            assert dec.witness_total <= dec.bound

    @given(set_pairs(primes=(2, 3)))
    @settings(deadline=None, max_examples=60)
    def test_random_pairs_verified(self, pair):
        S, T = pair
        dec = sc.decompose(S, T)
        assert sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness)
        assert dec.witness_total <= dec.bound
        assert dec.bound <= sc.capset_bound_M(S.q, S.n)

    @given(set_pairs(primes=(3,), allow_empty=False))
    @settings(deadline=None, max_examples=40)
    def test_certificate_inequalities(self, pair):
        S, T = pair
        run = sc.run_pipeline(S, T)
        dec = run.decomposition
        q, n = S.q, S.n
        m_d = run.space.ambient_dim
        assert run.space.dim >= m_d - q**n + len(run.sum_set)
        assert len(dec.certificate.uncovered_sums) <= q**n - m_d
        assert run.cover.size <= run.rank_bound
        assert dec.certificate.cover_size == run.cover.size
        assert dec.certificate.dim_vanishing == run.space.dim
        # the pivot stage alone reaches at least dim-many sums through lines
        s_ord, t_ord = S.ordered(), T.ordered()
        line_sums = sc.sumset(dec.certificate.covered_rows, T).union(
            sc.sumset(S, dec.certificate.covered_cols)
        )
        pivot_sums = {s_ord[i] + t_ord[j] for i, j in run.pivots}
        assert len(pivot_sums) == run.space.dim
        assert all(w in line_sums for w in pivot_sums)

    def check_patch_reps(self, S, T):
        # each uncovered w is patched by the smallest s in S with w - s in T
        q = S.q
        t_coords = {t.coords for t in T.members}
        cert = sc.run_pipeline(S, T).decomposition.certificate
        smallest = {
            min(
                s
                for s in S.ordered()
                if tuple((a - b) % q for a, b in zip(w.coords, s.coords)) in t_coords
            )
            for w in cert.uncovered_sums
        }
        assert cert.patch_reps.members == smallest

    @pytest.mark.parametrize("q, n", SEEDED_GRID)
    def test_patch_reps_smallest_seeded(self, q, n):
        for seed in range(6):
            self.check_patch_reps(*seeded_pair(q, n, seed))

    @given(set_pairs(allow_empty=False))
    @settings(deadline=None)
    def test_patch_reps_smallest_hypothesis(self, pair):
        self.check_patch_reps(*pair)

    def test_run_pipeline_rejects_empty(self):
        S = sc.PointSet.empty(2, 1)
        with pytest.raises(ValueError):
            sc.run_pipeline(S, S)

    @pytest.mark.parametrize("q", [1, 4, 6])
    def test_non_prime_q_rejected_before_any_work(self, q, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline started on a non-prime q")

        module = importlib.import_module("sumsetcover.decompose")
        monkeypatch.setattr(module, "choose_degree", no_work)
        S = sc.PointSet.from_coords(q, 2, [(0, 0), (0, 1)])
        T = sc.PointSet.from_coords(q, 2, [(1, 0)])
        empty = sc.PointSet.empty(q, 2)
        for call in (sc.run_pipeline, sc.decompose):
            for a, b in ((S, T), (empty, T)):
                with pytest.raises(ValueError, match=f"q = {q} is not prime"):
                    call(a, b)

    def test_huge_space_refused_before_any_work(self, monkeypatch):
        # counting monomials by degree at q = 10000019 alone takes seconds
        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline started on a space above the cap")

        module = importlib.import_module("sumsetcover.decompose")
        monkeypatch.setattr(module, "choose_degree", no_work)
        monkeypatch.setattr(module, "degree_bound", no_work)
        q = 10000019
        S = sc.PointSet.from_coords(q, 2, [(0, 0)])
        T = sc.PointSet.from_coords(q, 2, [(0, 1)])
        for call in (sc.run_pipeline, sc.decompose):
            for degree in (None, 0):
                with pytest.raises(sc.EnumerationTooLarge, match=f"q\\^n = {q**2} exceeds"):
                    call(S, T, degree)

    def test_huge_prime_q_refused_in_bounded_time(self):
        # q = 2**61 - 1 once hung in the primality test before the cap was checked
        code = textwrap.dedent(
            """
            import sumsetcover as sc
            S = sc.PointSet.from_coords(2**61 - 1, 1, [(0,)])
            try:
                sc.decompose(S, S)
            except sc.EnumerationTooLarge as exc:
                print(exc)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env(), timeout=15,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"q^n = {2**61 - 1} exceeds enumeration cap {sc.DEFAULT_ENUM_CAP}"

    def test_empty_input_refused_before_counting(self, monkeypatch, tmp_path):
        # counting monomials by degree at q = 10000019, n = 2 takes ~10^14 steps
        def no_work(*args, **kwargs):
            raise AssertionError("the degree count started on a space above the cap")

        module = importlib.import_module("sumsetcover.decompose")
        monkeypatch.setattr(module, "choose_degree", no_work)
        monkeypatch.setattr(module, "degree_bound", no_work)
        q = 10000019
        empty, T = sc.PointSet.empty(q, 2), sc.PointSet.from_coords(q, 2, [(0, 1)])
        for a, b in ((empty, T), (T, empty), (empty, empty)):
            for degree in (None, 0):
                with pytest.raises(sc.EnumerationTooLarge, match="counting monomials by degree"):
                    sc.decompose(a, b, degree)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"q": q, "n": 2, "S": [], "T": [[0, 1]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "sumsetcover.cli", "decompose", "--input", str(path)],
            capture_output=True, text=True, env=subprocess_env(), timeout=15,
        )
        assert proc.returncode == 3, proc.stderr
        assert "counting monomials by degree" in proc.stderr


class TestNoVectorPerPoint:
    """The constraint rows, the pivot sums and the line sums are coordinate
    tuples: the pipeline builds a FieldVector only for what it returns, never
    one per point of F_q^n."""

    PAIRS = {
        (3, 5): ([(0, 0, 0, 0, 0), (1, 2, 0, 1, 0)], [(0, 1, 1, 0, 2), (2, 2, 2, 1, 1)]),
        (2, 8): ([(0,) * 8, (1, 0, 1, 1, 0, 0, 1, 0)], [(0, 1) * 4, (1,) * 8, (1, 1, 0, 0) * 2]),
    }

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        real = sc.FieldVector.__post_init__

        def counting(vector):
            count[0] += 1
            real(vector)

        monkeypatch.setattr(sc.FieldVector, "__post_init__", counting)
        return count

    @pytest.mark.parametrize("qn", sorted(PAIRS))
    def test_vanishing_space_builds_none(self, qn, built):
        q, n = qn
        S, T = (sc.PointSet.from_coords(q, n, c) for c in self.PAIRS[qn])
        sums = sc.sumset(S, T)
        built[0] = 0
        space = sc.build_vanishing_space(sums, sc.choose_degree(q, n)[0])
        assert built[0] == 0
        assert space.dim >= space.ambient_dim - q**n + len(sums)

    @pytest.mark.parametrize("qn", sorted(PAIRS))
    def test_pipeline_builds_a_few_per_sum(self, qn, built):
        q, n = qn
        S, T = (sc.PointSet.from_coords(q, n, c) for c in self.PAIRS[qn])
        built[0] = 0
        run = sc.run_pipeline(S, T)
        # S+T stays the index's keys: only the missing sums become vectors
        assert built[0] <= len(run.decomposition.certificate.uncovered_sums) <= len(run.sums) < q**n
        assert sc.verify_decomposition(S, T, run.decomposition.s_witness, run.decomposition.t_witness)

    def test_golden_pipeline_builds_only_the_uncovered_sums(self, built):
        S, T = TestCertifiedChecks.golden_pair()
        built[0] = 0
        run = sc.run_pipeline(S, T)
        assert built[0] == len(run.decomposition.certificate.uncovered_sums) == 9
        assert len(run.sums) == 129

    @pytest.mark.parametrize("qn", sorted(PAIRS))
    def test_sum_set_built_once_on_first_read(self, qn, built):
        q, n = qn
        S, T = (sc.PointSet.from_coords(q, n, c) for c in self.PAIRS[qn])
        run = sc.run_pipeline(S, T)
        assert run.sums == tuple(sc.sum_index(S, T))
        built[0] = 0
        sum_set = run.sum_set
        assert built[0] == len(run.sums)
        assert run.sum_set is sum_set and built[0] == len(run.sums)
        assert sum_set == sc.PointSet.from_coords(q, n, run.sums) == sc.sumset(S, T)

    @pytest.mark.parametrize("qn", sorted(PAIRS))
    def test_verifier_builds_none(self, qn, built):
        q, n = qn
        S, T = (sc.PointSet.from_coords(q, n, c) for c in self.PAIRS[qn])
        dec = sc.decompose(S, T)
        built[0] = 0
        assert sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness)
        assert not sc.verify_decomposition(S, T, sc.PointSet.empty(q, n), sc.PointSet.empty(q, n))
        assert built[0] == 0

    @pytest.mark.parametrize("qn", sorted(PAIRS))
    def test_greedy_and_oracle_build_none(self, qn, built):
        # the returned sets hold the input's own vectors
        q, n = qn
        S, T = (sc.PointSet.from_coords(q, n, c) for c in self.PAIRS[qn])
        built[0] = 0
        gs, gt = sc.greedy_decomposition(S, T)
        res = sc.oracle_min_decomposition(S, T)
        assert built[0] == 0
        assert res.best_total <= len(gs) + len(gt)
        assert all(v in S for v in (*gs, *res.best_s)) and all(v in T for v in (*gt, *res.best_t))

    def test_symmetric_witness_builds_none_per_sum(self, built):
        # witness_plus_set_covers is verify_decomposition(S, S, B, empty):
        # no vectors past the pipeline's own
        rng = random.Random("symmetric:3:5:20")
        S = sc.PointSet.from_coords(3, 5, rng.sample(list(itertools.product(range(3), repeat=5)), 20))
        built[0] = 0
        sc.decompose(S, S)
        pipeline = built[0]
        built[0] = 0
        sym = sc.symmetric_witness(S)
        assert built[0] == pipeline < len(S)
        assert ("witness_plus_set_covers", True) in [(c.name, c.passed) for c in sym.checks]
        assert sc.sumset(sym.witness, S) == sc.sumset(S, S)

    def test_space_above_cap_refused_before_enumerating(self):
        # 3^40 points: refused on the count, not after listing them
        A = sc.PointSet.from_coords(3, 40, [(0,) * 40])
        with pytest.raises(sc.EnumerationTooLarge, match=f"^q\\^n = {3**40} exceeds enumeration cap"):
            sc.build_vanishing_space(A, 1)


class TestCertifiedChecks:
    # decompose() itself raises BoundViolated naming the first certified
    # check that fails.  On the golden q=3, n=5 instance the vanishing
    # dimension and the sums its pivots' lines reach both equal their bound
    # (108), so one basis polynomial or one line less breaks exactly these.
    @staticmethod
    def golden_pair():
        raw = json.loads((GOLDEN_DIR / "q3_n5.json").read_text())
        return (sc.PointSet.from_coords(3, 5, raw["S"]), sc.PointSet.from_coords(3, 5, raw["T"]))

    def test_records_every_check_in_report_order(self):
        dec = sc.decompose(*self.golden_pair())
        assert [tuple(c) for c in dec.certificate.checks] == [
            ("witness_total<=bound", True, 10, 123),
            ("dim_vanishing>=m_d-q^n+|S+T|", True, 108, 108),
            ("uncovered<=q^n-m_d", True, 9, 21),
            ("cover_size<=rank_bound", True, 9, 102),
            ("pivot_positions_distinct", True, None, None),
            ("pivot_sums_distinct", True, None, None),
            ("lines_cover>=dim_vanishing_sums", True, 108, 108),
            ("chosen_bound<=capset_bound", True, 123, 153),
        ]
        forced = sc.decompose(*self.golden_pair(), degree=7).certificate.checks
        assert [c.name for c in forced] == [c.name for c in dec.certificate.checks][:-1]

    def test_vanishing_space_short_of_its_dimension_bound(self, monkeypatch):
        module = importlib.import_module("sumsetcover.decompose")
        real = module.vanishing_space

        def one_short(*args, **kwargs):
            space = real(*args, **kwargs)
            return dataclasses.replace(space, dim=space.dim - 1)

        monkeypatch.setattr(module, "vanishing_space", one_short)
        with pytest.raises(sc.BoundViolated, match=re.escape("dim_vanishing>=m_d-q^n+|S+T| failed: 107 vs 108")):
            sc.decompose(*self.golden_pair())

    def test_lines_reaching_fewer_sums_than_the_dimension(self, monkeypatch):
        module = importlib.import_module("sumsetcover.decompose")
        real = module.line_cover

        def one_line_short(pivots, rank_bound):
            cover = real(pivots, rank_bound)
            return sc.LineCover(cover.cover_rows[1:], cover.cover_cols)

        monkeypatch.setattr(module, "line_cover", one_line_short)
        with pytest.raises(sc.BoundViolated, match=re.escape("lines_cover>=dim_vanishing_sums failed")):
            sc.decompose(*self.golden_pair())


class TestDualPivotFaults:
    # A fault in the dual stage of sum_pivots must not reach a witness.  One
    # dual pivot dropped hands run_pipeline one pivot too many, which only
    # the pivot-count cross-check sees (109 pivots for dimension 108 on the
    # golden q=3, n=5 instance).  A dual rank one too high drops a pivot; the
    # pivots' sums the lines reach are at most the pivots, so the recorded
    # check lines_cover>=dim_vanishing_sums fails first (107 vs 108).  The
    # faults go in through vanishing.pivot_columns, the stage's elimination.
    FAULTS = {
        "dual_pivot_dropped": ("lambda cols: cols[:-1]", "109 pivots for a vanishing space of dimension 108"),
        "dual_rank_one_too_high": (
            "lambda cols: sorted(cols + [next(c for c in range(len(cols) + 1) if c not in cols)])",
            "certified check lines_cover>=dim_vanishing_sums failed: 107 vs 108",
        ),
    }
    SCRIPT = textwrap.dedent(
        """
        import importlib, json, sys
        if __debug__:
            sys.exit("expected an optimized interpreter")
        import sumsetcover as sc
        vanishing = importlib.import_module("sumsetcover.vanishing")
        real_pivots, fault = vanishing.pivot_columns, eval(sys.argv[2])

        def faulty_pivots(table, q):
            return fault(list(real_pivots(table, q)))

        vanishing.pivot_columns = faulty_pivots
        raw = json.loads(open(sys.argv[1]).read())
        S, T = (sc.PointSet.from_coords(3, 5, raw[k]) for k in "ST")
        try:
            sc.decompose(S, T)
        except sc.BoundViolated as exc:
            print("BoundViolated:", exc)
        else:
            print("no error")
        """
    )

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_raises(self, fault, monkeypatch):
        module = importlib.import_module("sumsetcover.vanishing")
        real, (code, message) = module.pivot_columns, self.FAULTS[fault]
        alter = eval(code)

        def faulty_pivots(table, q):
            return alter(list(real(table, q)))

        monkeypatch.setattr(module, "pivot_columns", faulty_pivots)
        with pytest.raises(sc.BoundViolated, match=re.escape(message)):
            sc.decompose(*TestCertifiedChecks.golden_pair())

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_raises_under_optimize(self, fault):
        code, message = self.FAULTS[fault]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT, str(GOLDEN_DIR / "q3_n5.json"), code],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"BoundViolated: {message}"


class TestLibraryCheckFaults:
    # Every theorem check that the library certifies outside run_pipeline,
    # one row each: (entry, module, stage, fault, message).  The row replaces
    # module.stage by fault(real stage), runs the entry on its fixed small
    # instance and expects BoundViolated with exactly the message.  PRELUDE
    # is the one source of the entries for the in-process rows and for the
    # python -O subprocess.
    PRELUDE = textwrap.dedent(
        """
        import importlib
        from dataclasses import replace
        import sumsetcover as sc
        P = sc.PointSet.from_coords
        oracle = importlib.import_module("sumsetcover.oracle")
        CAPSET = P(3, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        F2_2 = P(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        F5_PAIRS = tuple(P(5, 1, [(0,), (1,)]).ordered())

        def oracle_entry():
            # the oracle subcommand's composition, each stage read off oracle
            gs, gt = oracle.greedy_decomposition(F2_2, F2_2)
            res = oracle.oracle_min_decomposition(F2_2, F2_2)
            return sc.oracle_checks(F2_2, F2_2, res, len(gs) + len(gt), oracle.decompose(F2_2, F2_2))

        ENTRIES = {
            "symmetric": lambda: sc.symmetric_witness(P(3, 1, [(0,), (1,)])).checks,
            "capset": lambda: sc.check_capset_bound(CAPSET).checks,
            "sumfree": lambda: sc.check_sumfree_bound(sc.OrderedPairFamily(F5_PAIRS, F5_PAIRS)).checks,
            "oracle": oracle_entry,
            "bound": lambda: sc.bound_checks(3, 2, 7),  # 7: the minimized budget at q = 3, n = 2
        }

        def run_row(entry, module, stage, fault):
            mod = importlib.import_module(module)
            real = getattr(mod, stage)
            setattr(mod, stage, eval(fault)(real))
            try:
                return ENTRIES[entry]()
            finally:
                setattr(mod, stage, real)
        """
    )
    DEC, ORC = "sumsetcover.decompose", "sumsetcover.oracle"
    ROWS = {
        "witness_within_set": (
            "symmetric", DEC, "decompose",
            "lambda real: lambda *a, **k: replace(real(*a, **k), t_witness=P(3, 1, [(2,)]))",
            "certified check witness_within_set failed"),
        "witness_plus_set_covers": (
            "symmetric", DEC, "decompose",
            "lambda real: lambda S, *a, **k: replace(real(S, *a, **k), s_witness=S.empty(3, 1))",
            "certified check witness_plus_set_covers failed"),
        "witness_size<=bound": (
            "symmetric", DEC, "decompose",
            "lambda real: lambda *a, **k: replace(real(*a, **k), bound=1)",
            "certified check witness_size<=bound failed: 2 vs 1"),
        "size<=bound": (
            "capset", ORC, "capset_bound_M", "lambda real: lambda q, n: 3",
            "certified check size<=bound failed: 4 vs 3"),
        "symmetric_witness_is_whole_set": (
            "capset", ORC, "symmetric_subset",
            "lambda real: lambda S, **k: P(S.q, S.n, [v.coords for v in S.ordered()[1:]])",
            "certified check symmetric_witness_is_whole_set failed"),
        "n_pairs<=bound": (
            "sumfree", ORC, "capset_bound_M", "lambda real: lambda q, n: 1",
            "certified check n_pairs<=bound failed: 2 vs 1"),
        "n_pairs<=witness_total": (
            "sumfree", ORC, "decompose",
            "lambda real: lambda S, T, **k: replace(real(S, T, **k), s_witness=S.empty(5, 1), t_witness=S.empty(5, 1))",
            "certified check n_pairs<=witness_total failed: 2 vs 0"),
        "every_index_covered": (
            # one witness point per side, but pair (1, 1) is on neither
            "sumfree", ORC, "decompose",
            "lambda real: lambda S, T, **k: replace(real(S, T, **k), s_witness=P(5, 1, [(0,)]), t_witness=P(5, 1, [(0,)]))",
            "certified check every_index_covered failed"),
        "oracle_witness_valid": (
            "oracle", ORC, "oracle_min_decomposition",
            "lambda real: lambda S, T, **k: replace(real(S, T, **k), best_s=S.empty(2, 2), best_t=S.empty(2, 2))",
            "certified check oracle_witness_valid failed"),
        "oracle<=greedy": (
            "oracle", ORC, "greedy_decomposition", "lambda real: lambda S, T: (S.empty(2, 2), S.empty(2, 2))",
            "certified check oracle<=greedy failed: 1 vs 0"),
        "oracle<=pipeline": (
            "oracle", ORC, "decompose",
            "lambda real: lambda S, T, **k: replace(real(S, T, **k), s_witness=S.empty(2, 2), t_witness=S.empty(2, 2))",
            "certified check oracle<=pipeline failed: 1 vs 0"),
        "pipeline<=bound": (
            "oracle", ORC, "decompose", "lambda real: lambda S, T, **k: replace(real(S, T, **k), bound=0)",
            "certified check pipeline<=bound failed: 1 vs 0"),
        "chosen_bound<=capset_bound": (
            "bound", DEC, "capset_bound_M", "lambda real: lambda q, n: 6",
            "certified check chosen_bound<=capset_bound failed: 7 vs 6"),
        "counts_sum_to_q^n": (
            "bound", DEC, "degree_counts", "lambda real: lambda q, n: sc.CountTable(q, n, real(q, n).counts[:-1])",
            "certified check counts_sum_to_q^n failed: 8 vs 9"),
    }
    OPTIMIZED = ["witness_plus_set_covers", "every_index_covered", "oracle<=greedy"]
    RUNNER = textwrap.dedent(
        """
        import json, sys
        if __debug__:
            sys.exit("expected an optimized interpreter")
        try:
            run_row(*json.loads(sys.argv[1]))
        except sc.BoundViolated as exc:
            print("BoundViolated:", exc)
        else:
            print("no error")
        """
    )
    SCRIPT = PRELUDE + RUNNER

    @pytest.fixture(scope="class")
    def prelude(self):
        namespace: dict = {}
        exec(self.PRELUDE, namespace)
        return namespace

    def test_rows_name_every_check_in_order(self, prelude):
        # unfaulted, each entry passes exactly the checks its rows name
        for entry, run in prelude["ENTRIES"].items():
            checks = run()
            assert all(c.passed for c in checks), entry
            assert [c.name for c in checks] == [name for name, row in self.ROWS.items() if row[0] == entry]

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_fault_raises(self, name, prelude):
        entry, module, stage, fault, message = self.ROWS[name]
        mod = importlib.import_module(module)
        real = getattr(mod, stage)
        with pytest.raises(sc.BoundViolated) as info:
            prelude["run_row"](entry, module, stage, fault)
        assert str(info.value) == message
        assert getattr(mod, stage) is real

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_fault_raises_under_optimize(self, name):
        entry, module, stage, fault, message = self.ROWS[name]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT, json.dumps([entry, module, stage, fault])],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"BoundViolated: {message}"


class TestPipelineCheckFaults:
    # run_pipeline's eight recorded checks and its unrecorded pivot-count
    # raise, in TestLibraryCheckFaults' row format, on the golden q=3, n=5
    # instance, where dim and the sums the pivots' lines reach both equal
    # their bound (108).  dim is the number of the vanishing space's rows, so
    # one row less fails dim_vanishing.  Two rows do not fault a stage inside
    # the construction:
    # - cover_size<=rank_bound cannot fail alone: line_cover raises first on
    #   a cover above the rank bound it is given, so its row lowers that bound
    #   and expects line_cover's message;
    # - pivot_positions_distinct holds by construction, since sum_pivots maps
    #   distinct columns to distinct first positions; its row faults the
    #   value sum_pivots returns.
    PRELUDE = (
        TestLibraryCheckFaults.PRELUDE
        + f"GOLDEN_PATH = {str(GOLDEN_DIR / 'q3_n5.json')!r}\n"
        + textwrap.dedent(
            """
            import json
            RAW = json.loads(open(GOLDEN_PATH).read())
            GOLDEN = tuple(P(3, 5, RAW[k]) for k in "ST")
            S_ORD, T_ORD = GOLDEN[0].ordered(), GOLDEN[1].ordered()
            ENTRIES["pipeline"] = lambda: sc.run_pipeline(*GOLDEN).decomposition.certificate.checks
            ENTRIES["audit"] = lambda: importlib.import_module("sumsetcover.summatrix").rank_audit(
                sc.run_pipeline(*GOLDEN)
            )

            def clp_entry():
                # clp_decompose on each basis polynomial in turn, as the audit takes its rows
                run = sc.run_pipeline(*GOLDEN)
                for row in run.space.rows:
                    sc.clp_decompose(sc.poly_from_terms(3, 5, dict(zip(run.space.monos, row))), run.degree)

            ENTRIES["clp"] = clp_entry

            def repeat_a_sum(pivots):
                # the first pivot traded for a cell off the pivots whose sum another pivot has
                sums = {S_ORD[i] + T_ORD[j] for i, j in pivots[1:]}
                cell = next(
                    (i, j) for i, s in enumerate(S_ORD) for j, t in enumerate(T_ORD)
                    if (i, j) not in pivots and s + t in sums
                )
                return tuple(sorted(pivots[1:] + (cell,)))

            def one_more_pivot(pivots, index):
                # the first sum's first cell off the pivots, added to them
                return tuple(sorted(pivots + (next(c for c in index.values() if c not in pivots),)))
            """
        )
    )
    DEC = "sumsetcover.decompose"
    ROWS = {
        "witness_total<=bound": (
            "pipeline", DEC, "choose_degree", "lambda real: lambda q, n: (real(q, n)[0], 9)",
            "certified check witness_total<=bound failed: 10 vs 9"),
        "dim_vanishing>=m_d-q^n+|S+T|": (
            "pipeline", DEC, "vanishing_space",
            "lambda real: lambda *a, **k: (lambda s: replace(s, dim=s.dim - 1))(real(*a, **k))",
            "certified check dim_vanishing>=m_d-q^n+|S+T| failed: 107 vs 108"),
        "uncovered<=q^n-m_d": (
            # no line reaches a sum, so all 129 are patched
            "pipeline", DEC, "line_sums", "lambda real: lambda *a: set()",
            "certified check uncovered<=q^n-m_d failed: 129 vs 21"),
        "cover_size<=rank_bound": (
            "pipeline", DEC, "count_m", "lambda real: lambda q, n, d: 4",
            "minimum line cover 9 exceeds rank bound 8"),
        "pivot_positions_distinct": (
            "pipeline", DEC, "sum_pivots", "lambda real: lambda *a: (lambda p: p[:-1] + p[:1])(real(*a))",
            "certified check pivot_positions_distinct failed"),
        "pivot_sums_distinct": (
            "pipeline", DEC, "sum_pivots", "lambda real: lambda *a: repeat_a_sum(real(*a))",
            "certified check pivot_sums_distinct failed"),
        "lines_cover>=dim_vanishing_sums": (
            "pipeline", DEC, "line_cover",
            "lambda real: lambda *a: (lambda c: replace(c, cover_rows=c.cover_rows[1:]))(real(*a))",
            "certified check lines_cover>=dim_vanishing_sums failed: 98 vs 108"),
        "chosen_bound<=capset_bound": (
            "pipeline", DEC, "capset_bound_M", "lambda real: lambda q, n: 122",
            "certified check chosen_bound<=capset_bound failed: 123 vs 122"),
    }
    # raised, not recorded: one pivot per basis row (after the recorded
    # checks), the rank audit's basis rows against the run's dimension,
    # line_cover's Koenig cover against its matching and against the pivots
    # (its matching-is-maximum raise is faulted by a matching one pair short
    # in test_cover.py), and the term budget 2 * m(q, n, d // 2)
    # = 102 at d = 7, which the rank audit and clp_decompose share: both
    # raise first on the same basis row
    COVER, AUDIT = "sumsetcover.cover", "sumsetcover.summatrix"
    RAISES = {
        "pivots_number_dim": (
            "pipeline", DEC, "sum_pivots", "lambda real: lambda s, index: one_more_pivot(real(s, index), index)",
            "109 pivots for a vanishing space of dimension 108"),
        "koenig_cover_size==matching_size": (
            # a matched pair off the graph: no row or column of it is ever reached
            "pipeline", COVER, "maximum_matching", "lambda real: lambda adj: {**real(adj), -1: -1}",
            "Koenig cover 9 differs from matching 10"),
        "line_cover_covers_every_pivot": (
            # a search that reaches nothing matches nothing, so the cover is empty
            "pipeline", COVER, "_alternating_search", "lambda real: lambda *a: (None, {})",
            "line cover misses a pivot position"),
        "basis_rows==dim_vanishing": (
            # the kernel reader one row short: only the audit reads the basis
            "audit", "sumsetcover.vanishing", "kernel", "lambda real: lambda e: real(e)[:-1]",
            "107 basis rows for a vanishing space of dimension 108"),
        "term_count<=2*m(q,n,d//2)": (
            # monomial counts one degree low: the budget is 2 * m(3, 5, 2)
            "audit", AUDIT, "degree_counts",
            "lambda real: lambda q, n: sc.CountTable(q, n, (0,) + real(q, n).counts[:-1])",
            "57 rank-one terms exceed 2*m(q, n, 3) = 42"),
        "clp_term_count<=2*m(q,n,d//2)": (
            "clp", AUDIT, "degree_counts",
            "lambda real: lambda q, n: sc.CountTable(q, n, (0,) + real(q, n).counts[:-1])",
            "57 rank-one terms exceed 2*m(q, n, 3) = 42"),
    }
    OPTIMIZED = [
        "dim_vanishing>=m_d-q^n+|S+T|", "pivots_number_dim", "basis_rows==dim_vanishing",
        "term_count<=2*m(q,n,d//2)",
        "clp_term_count<=2*m(q,n,d//2)",
    ]
    SCRIPT = PRELUDE + TestLibraryCheckFaults.RUNNER

    @pytest.fixture(scope="class")
    def prelude(self):
        namespace: dict = {}
        exec(self.PRELUDE, namespace)
        return namespace

    def test_rows_name_every_check_in_order(self, prelude):
        checks = prelude["ENTRIES"]["pipeline"]()
        assert all(c.passed for c in checks)
        assert [c.name for c in checks] == list(self.ROWS)

    @pytest.mark.parametrize("name", sorted({**ROWS, **RAISES}))
    def test_fault_raises(self, name, prelude):
        entry, module, stage, fault, message = {**self.ROWS, **self.RAISES}[name]
        mod = importlib.import_module(module)
        real = getattr(mod, stage)
        with pytest.raises(sc.BoundViolated) as info:
            prelude["run_row"](entry, module, stage, fault)
        assert str(info.value) == message
        assert getattr(mod, stage) is real

    @pytest.mark.parametrize("name", OPTIMIZED)
    def test_fault_raises_under_optimize(self, name):
        entry, module, stage, fault, message = {**self.ROWS, **self.RAISES}[name]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT, json.dumps([entry, module, stage, fault])],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"BoundViolated: {message}"


def test_decompose_name_is_the_function_and_the_module_stays_reachable():
    # the package re-exports the function under its module's name
    module = importlib.import_module("sumsetcover.decompose")
    assert isinstance(module, types.ModuleType)
    assert isinstance(sc.decompose, types.FunctionType)
    assert sc.decompose is module.decompose
    assert module.run_pipeline is sc.run_pipeline


class TestSymmetricSubset:
    def test_interval_is_rigid(self):
        # {0,1} in F_3: no proper subset B has B + S = S + S
        S = sc.PointSet.from_coords(3, 1, [(0,), (1,)])
        double = sc.sumset(S, S)
        for mask in range(1 << len(S)):
            sub = sc.PointSet.from_vectors(3, 1, [p for i, p in enumerate(S) if mask >> i & 1])
            if len(sub) < len(S):
                assert sc.sumset(sub, S) != double
        assert sc.symmetric_subset(S) == S

    def test_group_case(self):
        F = sc.all_points(2, 1)
        witness = sc.symmetric_subset(F)
        assert witness.issubset(F)
        assert len(witness) <= 2
        assert sc.sumset(witness, F) == sc.sumset(F, F)

    def test_singleton(self):
        S = sc.PointSet.from_coords(5, 1, [(3,)])
        assert sc.symmetric_subset(S) == S

    @given(point_set=st.integers(1, 2**9 - 1))
    @settings(deadline=None, max_examples=40)
    def test_always_covers(self, point_set):
        S = subset_from_mask(3, 2, point_set)
        witness = sc.symmetric_subset(S)
        assert witness.issubset(S)
        assert sc.sumset(witness, S) == sc.sumset(S, S)
        _, bound = sc.choose_degree(3, 2)
        assert len(witness) <= bound


class TestVerifyDecomposition:
    def test_full_subsets_pass(self):
        S = subset_from_mask(3, 2, 0b110)
        T = subset_from_mask(3, 2, 0b011)
        assert sc.verify_decomposition(S, T, S, T)

    def test_empty_witnesses_fail_for_nonempty(self):
        S = subset_from_mask(3, 2, 0b110)
        empty = sc.PointSet.empty(3, 2)
        assert not sc.verify_decomposition(S, S, empty, empty)

    def test_non_subset_fails(self):
        S = sc.PointSet.from_coords(2, 1, [(0,)])
        other = sc.PointSet.from_coords(2, 1, [(1,)])
        assert not sc.verify_decomposition(S, S, other, S)

    def test_empty_instance_trivially_covered(self):
        empty = sc.PointSet.empty(2, 2)
        assert sc.verify_decomposition(empty, empty, empty, empty)


class TestVerifierEnumeration:
    """verify_decomposition forms each pair's sum at most once: the sums U
    of the pairs on a covered line first, then, unless U is all of F_q^n,
    the other pairs' sums until one misses U.  Its sums are counted through
    a module global `tuple` that shadows the builtin: one call per sum."""

    @pytest.fixture
    def formed(self, monkeypatch):
        module = importlib.import_module("sumsetcover.decompose")
        count = [0]
        monkeypatch.setattr(module, "tuple", lambda cells: count.__setitem__(0, count[0] + 1) or tuple(cells),
                            raising=False)
        return count

    def test_dense_pair_stops_at_the_whole_space(self, formed):
        F = sc.all_points(3, 3)
        dec = sc.decompose(F, F)
        sw, tw = dec.s_witness, dec.t_witness
        formed[0] = 0
        assert sc.verify_decomposition(F, F, sw, tw)
        # only the covered lines' pairs: the others are never summed
        on_lines = len(sw) * len(F) + (len(F) - len(sw)) * len(tw)
        assert formed[0] == on_lines < len(F) ** 2

    def test_each_pair_summed_at_most_once(self, formed):
        S, T = TestCertifiedChecks.golden_pair()
        dec = sc.decompose(S, T)
        formed[0] = 0
        assert sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness)
        assert formed[0] == len(S) * len(T)

    def test_a_miss_off_every_covered_line_fails(self, formed):
        # S + T is {0, e2, e1, e1 + e2}; the lines from (0, 0) reach all but
        # e1 + e2, the sum of the one pair off both of them
        S = sc.PointSet.from_coords(3, 2, [(0, 0), (1, 0)])
        T = sc.PointSet.from_coords(3, 2, [(0, 0), (0, 1)])
        zero = sc.PointSet.from_coords(3, 2, [(0, 0)])
        formed[0] = 0
        assert not sc.verify_decomposition(S, T, zero, zero)
        assert formed[0] == 4
        assert not verify_decomposition_sumset(S, T, zero, zero)
        assert sc.verify_decomposition(S, T, zero, T) and sc.verify_decomposition(S, T, S, zero)

    @given(st.data())
    @settings(deadline=None, max_examples=150)
    def test_agrees_with_the_sumset_verifier_on_subsets(self, data):
        # any subsets of S and T as witnesses, not only the pipeline's
        S, T = data.draw(small_pairs(primes=(2, 3, 5, 7), max_size=12))
        sw, tw = (
            sc.PointSet.from_vectors(A.q, A.n, data.draw(st.sets(st.sampled_from(A.ordered())))) if len(A) else A
            for A in (S, T)
        )
        assert sc.verify_decomposition(S, T, sw, tw) == verify_decomposition_sumset(S, T, sw, tw)

    def test_decides_under_optimize(self):
        code = textwrap.dedent(
            """
            import sys
            if __debug__:
                sys.exit("expected an optimized interpreter")
            import sumsetcover as sc
            F = sc.all_points(3, 3)
            dec = sc.decompose(F, F)
            S = sc.PointSet.from_coords(3, 2, [(0, 0), (1, 0)])
            T = sc.PointSet.from_coords(3, 2, [(0, 0), (0, 1)])
            zero = sc.PointSet.from_coords(3, 2, [(0, 0)])
            print(sc.verify_decomposition(F, F, dec.s_witness, dec.t_witness),
                  sc.verify_decomposition(S, T, zero, zero), sc.verify_decomposition(S, T, zero, T))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False", "True"]


class TestVerifierSharesNoCode:
    """verify_decomposition re-checks the pipeline with sums of its own: it
    decides with field.sum_index, field.sumset, the coded pass and the
    packed coding unusable everywhere."""

    def test_decides_with_the_enumerator_unusable(self, monkeypatch):
        S, T = TestCertifiedChecks.golden_pair()
        dec = sc.decompose(S, T)
        field = importlib.import_module("sumsetcover.field")
        enumerators = {field.sum_index, field.sumset, field.coded_sum_index}

        def unusable(*args, **kwargs):
            raise AssertionError("the pipeline's enumerator was called")

        monkeypatch.setattr(field.Lanes, "of", unusable)
        patched = set()
        for name, module in list(sys.modules.items()):
            for attr in ("sum_index", "sumset", "coded_sum_index"):
                if name.split(".")[0] == "sumsetcover" and getattr(module, attr, None) in enumerators:
                    monkeypatch.setattr(module, attr, unusable)
                    patched.add(name)
        assert {"sumsetcover", "sumsetcover.field", "sumsetcover.decompose", "sumsetcover.cli"} <= patched
        with pytest.raises(AssertionError, match="enumerator was called"):
            sc.decompose(S, T)
        sw, tw = dec.s_witness, dec.t_witness
        assert sc.verify_decomposition(S, T, sw, tw)
        # every witness point is needed on this instance
        for v in sw:
            assert not sc.verify_decomposition(S, T, sw.difference(sc.PointSet.from_vectors(3, 5, [v])), tw)
        for v in tw:
            assert not sc.verify_decomposition(S, T, sw, tw.difference(sc.PointSet.from_vectors(3, 5, [v])))

    @given(st.data())
    @settings(deadline=None, max_examples=120)
    def test_agrees_with_the_sumset_verifier(self, data):
        # the pipeline's witnesses, then perturbed, foreign and empty ones
        S, T = data.draw(small_pairs(max_size=10))
        q, n = S.q, S.n
        points = sc.all_points(q, n).ordered()
        dec = sc.decompose(S, T)
        empty = sc.PointSet.empty(q, n)
        a, b, c, d = (
            sc.PointSet.from_vectors(q, n, data.draw(st.sets(st.sampled_from(points), max_size=4)))
            for _ in range(4)
        )
        sw, tw = dec.s_witness, dec.t_witness
        candidates = [
            (sw, tw), (empty, empty), (S, T), (S, empty), (empty, T),
            (sw.difference(a), tw), (sw, tw.difference(b)),  # points dropped
            (sw.union(c), tw), (sw, tw.union(d)),  # points added, possibly foreign
            (S.difference(a), T.difference(b)), (a, d),
        ]
        for sw, tw in candidates:
            assert sc.verify_decomposition(S, T, sw, tw) == verify_decomposition_sumset(S, T, sw, tw), (sw, tw)


class TestOptimizedInterpreter:
    # Under python -O every assert statement is stripped; the certified
    # inequalities must still raise.  An empty line cover leaves all of S+T
    # to the patch step, more than the q^n - m_d sums it may take here.
    # With the cover restored, `decompose --certify-rank` on the golden
    # q=3, n=5 instance (argv[1]) must print its pinned report.
    SCRIPT = textwrap.dedent(
        """
        import contextlib, hashlib, importlib, io, itertools, json, random, sys
        if __debug__:
            sys.exit("expected an optimized interpreter")
        import sumsetcover as sc
        from sumsetcover.cli import run_command
        # the package attribute `decompose` is the function, not the module
        dec_mod = importlib.import_module("sumsetcover.decompose")
        real_line_cover = dec_mod.line_cover
        dec_mod.line_cover = lambda pivots, rank_bound: sc.LineCover((), ())
        rng = random.Random(5)
        pts = list(itertools.product(range(3), repeat=3))
        S = sc.PointSet.from_coords(3, 3, rng.sample(pts, 6))
        T = sc.PointSet.from_coords(3, 3, rng.sample(pts, 6))
        try:
            sc.decompose(S, T)
        except sc.BoundViolated as exc:
            print("BoundViolated:", exc)
        else:
            print("no error")
        dec_mod.line_cover = real_line_cover
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_command(["decompose", "--input", sys.argv[1], "--json", "--certify-rank"])
        report = json.loads(out.getvalue())
        del report["argv"], report["timing_ms"]
        print("certify-rank:", code, hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest())
        """
    )

    def test_bound_checks_survive_optimize(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT, str(GOLDEN_DIR / "q3_n5.json")],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("BoundViolated:"), proc.stdout
        assert proc.stdout.splitlines()[-1] == f"certify-rank: 0 {GOLDEN_DIGESTS['q3_n5.json']}"
