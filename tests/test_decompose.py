import importlib
import subprocess
import sys
import textwrap
import types

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import sumsetcover as sc

from conftest import SEEDED_GRID, seeded_pair, set_pairs, subprocess_env, subset_from_mask
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
