import argparse
import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sumsetcover import cli, monomials
from sumsetcover.cli import build_parser, parse_instance, run_command
from sumsetcover.errors import ParseError, ValidationError
from sumsetcover.field import DEFAULT_ENUM_CAP

from conftest import subprocess_env


def write_instance(tmp_path, name="inst.json", **payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    code = run_command(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParseInstance:
    def test_well_formed(self, tmp_path):
        path = write_instance(tmp_path, q=3, n=2, S=[[0, 0], [1, 2]], T=[[2, 1]])
        inst = parse_instance(path)
        assert inst.q == 3 and inst.n == 2
        assert len(inst.s_set) == 2 and len(inst.t_set) == 1
        assert [v.coords for v in inst.s_order] == [(0, 0), (1, 2)]

    def test_out_of_range_coordinate(self, tmp_path):
        path = write_instance(tmp_path, q=3, n=1, S=[[3]])
        with pytest.raises(ValidationError):
            parse_instance(path)

    def test_composite_q(self, tmp_path):
        path = write_instance(tmp_path, q=6, n=1, S=[[0]])
        with pytest.raises(ValidationError):
            parse_instance(path)

    def test_duplicates(self, tmp_path):
        path = write_instance(tmp_path, q=3, n=1, S=[[0], [0]])
        with pytest.raises(ValidationError):
            parse_instance(path)

    def test_missing_field(self, tmp_path):
        path = write_instance(tmp_path, q=3, n=1)
        with pytest.raises(ParseError):
            parse_instance(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_instance(str(path))

    def test_wrong_length_tuple(self, tmp_path):
        path = write_instance(tmp_path, q=3, n=2, S=[[0]])
        with pytest.raises(ValidationError):
            parse_instance(path)

    @pytest.mark.parametrize("payload", [
        {"q": 3, "n": True, "S": [[True], [2]], "T": [[0]]},
        {"q": True, "n": 1, "S": [[0]], "T": [[0]]},
    ])
    def test_boolean_q_or_n_rejected(self, tmp_path, payload):
        # JSON true loads as bool, a subclass of int
        path = write_instance(tmp_path, **payload)
        with pytest.raises(ParseError):
            parse_instance(path)
        assert run_command(["decompose", "--input", path]) == 2

    def test_boolean_coordinate_rejected(self, tmp_path):
        path = write_instance(tmp_path, q=3, n=2, S=[[0, False]], T=[[1, 1]])
        with pytest.raises(ParseError):
            parse_instance(path)
        assert run_command(["decompose", "--input", path]) == 2

    def test_explicit_orders(self, tmp_path):
        path = write_instance(
            tmp_path, q=5, n=1, S=[[0], [1]], T=[[0], [1]],
            S_order=[[1], [0]], T_order=[[0], [1]],
        )
        inst = parse_instance(path)
        assert [v.coords for v in inst.s_order] == [(1,), (0,)]


class TestBoundCommand:
    def test_known_table(self, capsys):
        code, report = run_json(capsys, ["bound", "--q", "3", "--n", "2"])
        assert code == 0
        out = report["outputs"]
        assert out["chosen_degree"] == 3
        assert out["chosen_bound"] == 7
        assert out["capset_bound"] == 9
        assert out["degree_table"][0] == {"d": 0, "m_d": 1, "bound_at_d": 10}
        assert report["ok"]

    def test_growth_flag(self, capsys):
        code, report = run_json(capsys, ["bound", "--q", "3", "--n", "1", "--growth-to", "6"])
        assert code == 0
        growth = report["outputs"]["growth"]
        assert growth[0] == "3"
        assert float(growth[5]) < 3.0

    @pytest.mark.parametrize("q, growth_to", [(3, 100000), (3, 3000), (7, 1000)])
    def test_growth_refused_before_any_work(self, q, growth_to, capsys, monkeypatch):
        # growth_estimate convolves up to growth_to, so it refuses with the
        # counting cap before the bound table or any growth term is counted
        def no_work(*args, **kwargs):
            raise AssertionError("counted before the cap refused")

        monkeypatch.setattr(cli, "degree_counts", no_work)
        monkeypatch.setattr(monomials, "_convolve_window", no_work)
        args = ["bound", "--q", str(q), "--n", "2", "--growth-to", str(growth_to)]
        assert run_command(args) == 3
        assert "counting monomials by degree" in capsys.readouterr().err

    @pytest.mark.parametrize("growth_to, digits", [(3, 20000), (3, 8000), (500, 1000)])
    def test_growth_roots_refused_before_any_work(self, growth_to, digits, capsys, monkeypatch):
        # the decimal roots at these precisions took 17 s to minutes; the
        # counts pass their cap, growth_estimate's digit^3 budget refuses the
        # roots before the bound table or any growth term is counted
        def no_work(*args, **kwargs):
            raise AssertionError("counted before the cap refused")

        monkeypatch.setattr(cli, "degree_counts", no_work)
        monkeypatch.setattr(monomials, "_convolve_window", no_work)
        args = ["bound", "--q", "3", "--n", "2", "--growth-to", str(growth_to), "--digits", str(digits)]
        assert run_command(args) == 3
        assert "growth roots take" in capsys.readouterr().err

    def test_composite_q_exit_two(self, capsys):
        assert run_command(["bound", "--q", "4", "--n", "1"]) == 2

    def test_huge_q_refused_before_counting(self):
        # counting monomials by degree at q = 10000019, n = 2 takes ~10^14 steps
        proc = subprocess.run(
            [sys.executable, "-m", "sumsetcover.cli", "bound", "--q", "10000019", "--n", "2"],
            capture_output=True, text=True, env=subprocess_env(), timeout=15,
        )
        assert proc.returncode == 3, proc.stderr
        assert "counting monomials by degree" in proc.stderr

    def test_huge_prime_q_refused_in_bounded_time(self):
        # q = 2**61 - 1 once hung in the primality test before any cap was checked
        proc = subprocess.run(
            [sys.executable, "-m", "sumsetcover.cli", "bound", "--q", str(2**61 - 1), "--n", "1"],
            capture_output=True, text=True, env=subprocess_env(), timeout=15,
        )
        assert proc.returncode == 3, proc.stderr
        assert "counting monomials by degree" in proc.stderr


class TestDecomposeCommand:
    def test_singletons(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=2, n=1, S=[[0]], T=[[1]])
        code, report = run_json(capsys, ["decompose", "--input", path])
        assert code == 0
        assert report["ok"]
        assert report["outputs"]["witness_total"] == 1

    def test_round_trip_with_verify(self, tmp_path, capsys):
        path = write_instance(
            tmp_path, q=3, n=2,
            S=[[0, 0], [1, 0], [2, 2], [1, 2]], T=[[0, 1], [2, 0], [1, 1]],
        )
        witness_path = str(tmp_path / "witness.json")
        code, report = run_json(
            capsys, ["decompose", "--input", path, "--output", witness_path]
        )
        assert code == 0 and report["ok"]
        code2, report2 = run_json(
            capsys, ["verify", "--input", path, "--witness", witness_path]
        )
        assert code2 == 0
        assert report2["outputs"]["verified"]

    def test_bogus_witness_fails(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=3, n=1, S=[[0], [1]], T=[[0], [1]])
        witness = tmp_path / "bad.json"
        witness.write_text(json.dumps({"S_witness": [], "T_witness": []}))
        code, report = run_json(
            capsys, ["verify", "--input", path, "--witness", str(witness)]
        )
        assert code == 1
        assert not report["outputs"]["verified"]

    def test_boolean_witness_coordinate_exit_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=3, n=1, S=[[0], [1]], T=[[0], [1]])
        witness = tmp_path / "bool.json"
        witness.write_text(json.dumps({"S_witness": [[True]], "T_witness": [[0]]}))
        assert run_command(["verify", "--input", path, "--witness", str(witness)]) == 2
        assert "S_witness[0] must be a list of integers" in capsys.readouterr().err

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=2, n=1, S=[[0]], T=[[1]])
        target = str(tmp_path / "no_such_dir" / "witness.json")
        assert run_command(["decompose", "--input", path, "--output", target]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {target}")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_forced_degree(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=3, n=1, S=[[0], [1]], T=[[0], [2]])
        code, report = run_json(capsys, ["decompose", "--input", path, "--d", "2"])
        assert code == 0
        assert report["outputs"]["degree"] == 2
        assert report["outputs"]["degree_source"] == "forced"

    def test_certify_rank(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=3, n=1, S=[[0], [1], [2]], T=[[0], [1], [2]])
        code, report = run_json(capsys, ["decompose", "--input", path, "--certify-rank"])
        assert code == 0
        certs = report["outputs"]["rank_certificates"]
        assert certs["max_term_count"] <= certs["rank_bound"]
        assert certs["max_rank"] <= certs["max_term_count"]

    def test_certify_rank_refused_before_the_pipeline(self, tmp_path, capsys, monkeypatch):
        # 400 points each in F_3^8: the audit's estimate is over its cap, so
        # --certify-rank is refused before run_pipeline starts
        def no_work(*args, **kwargs):
            raise AssertionError("the pipeline ran before the audit cap refused")

        monkeypatch.setattr(cli, "run_pipeline", no_work)
        points = [[i // 3**k % 3 for k in range(8)] for i in range(800)]
        path = write_instance(tmp_path, q=3, n=8, S=points[:400], T=points[400:])
        assert run_command(["decompose", "--input", path, "--certify-rank"]) == 3
        assert capsys.readouterr().err == (
            "error: refused by resource cap: rank audit takes 2722622544 word steps > cap 100000000\n"
        )

    def test_cap_refusal_exit_three(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=3, n=2, S=[[0, 0]], T=[[1, 1]])
        assert run_command(["decompose", "--input", path, "--cap", "8"]) == 3
        path = write_instance(tmp_path, q=10000019, n=2, S=[[0, 0]], T=[[0, 1]])
        assert run_command(["decompose", "--input", path]) == 3

    def test_empty_sets(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=3, n=2, S=[], T=[[1, 1]])
        code, report = run_json(capsys, ["decompose", "--input", path])
        assert code == 0
        assert report["outputs"]["witness_total"] == 0

    def test_missing_t_exit_two(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=3, n=1, S=[[0]])
        assert run_command(["decompose", "--input", path]) == 2

    def test_human_output_includes_json_block(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=2, n=1, S=[[0]], T=[[1]])
        code = run_command(["decompose", "--input", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "--- report (json) ---" in out
        blob = out.split("--- report (json) ---", 1)[1]
        assert json.loads(blob)["ok"]


class TestSymmetricCommand:
    def test_rigid_interval(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=3, n=1, S=[[0], [1]])
        code, report = run_json(capsys, ["symmetric", "--input", path])
        assert code == 0
        assert report["outputs"]["witness_size"] == 2


class TestCapsetCommand:
    def test_capset_passes(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=3, n=2, S=[[0, 0], [0, 1], [1, 0], [1, 1]])
        code, report = run_json(capsys, ["check-capset", "--input", path])
        assert code == 0
        assert report["outputs"]["applicable"] and report["outputs"]["passed"]

    def test_non_capset_not_applicable(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=3, n=1, S=[[0], [1], [2]])
        code, report = run_json(capsys, ["check-capset", "--input", path])
        assert code == 0
        assert not report["outputs"]["applicable"]


class TestSumfreeCommand:
    def test_f5_family(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=5, n=1, S=[[0], [1]], T=[[0], [1]])
        code, report = run_json(capsys, ["check-sumfree", "--input", path])
        assert code == 0
        assert report["outputs"]["matching_sumfree"]
        assert report["outputs"]["passed"]

    def test_f2_collision_fails(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=2, n=1, S=[[0], [1]], T=[[0], [1]])
        code, report = run_json(capsys, ["check-sumfree", "--input", path])
        assert code == 1
        assert not report["outputs"]["matching_sumfree"]


class TestOracleCommand:
    def test_small_instance(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=2, n=2,
                              S=[[0, 0], [0, 1], [1, 0], [1, 1]],
                              T=[[0, 0], [0, 1], [1, 0], [1, 1]])
        code, report = run_json(capsys, ["oracle", "--input", path])
        assert code == 0
        out = report["outputs"]
        assert out["best_total"] == 1
        assert out["best_total"] <= out["greedy_total"] <= out["bound"]

    def test_search_cap_exit_three(self, tmp_path, capsys):
        path = write_instance(tmp_path, q=2, n=2,
                              S=[[0, 0], [0, 1], [1, 0], [1, 1]],
                              T=[[0, 0], [0, 1], [1, 0], [1, 1]])
        assert run_command(["oracle", "--input", path, "--search-cap", "4"]) == 3


class TestTrialsCommand:
    def strip_timing(self, text):
        return re.sub(r'^\s*"timing_ms": .*$', "", text, flags=re.MULTILINE)

    def test_deterministic_reports(self, capsys):
        argv = ["trials", "--q", "2", "--n", "2", "--count", "20", "--seed", "7", "--json"]
        assert run_command(argv) == 0
        first = capsys.readouterr().out
        assert run_command(argv) == 0
        second = capsys.readouterr().out
        assert self.strip_timing(first) == self.strip_timing(second)

    def test_oracle_comparison(self, capsys):
        argv = [
            "trials", "--q", "2", "--n", "1", "--count", "10", "--seed", "3",
            "--oracle", "--json",
        ]
        code, report = run_json(capsys, argv[:-1])
        assert code == 0
        assert report["outputs"]["max_witness_total"] <= report["outputs"]["bound"]
        for row in report["outputs"]["trials"]:
            assert row["ok"]

    def test_bad_probability_exit_two(self, capsys):
        argv = ["trials", "--q", "2", "--n", "1", "--count", "1", "--seed", "0", "--p", "1.5"]
        assert run_command(argv) == 2

    def test_negative_count_exit_two(self, capsys):
        argv = ["trials", "--q", "2", "--n", "1", "--count", "-1", "--seed", "0"]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert "count must be >= 0" in captured.err and captured.out == ""


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sumsetcover.cli", "bound", "--q", "2", "--n", "1", "--json"],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["outputs"]["chosen_bound"] == 2

    def test_unknown_subcommand_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sumsetcover.cli", "frobnicate"],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 2


# subcommand -> {option: (required, default)}; every subcommand also has
# -h/--help and --json
PARSER_OPTIONS = {
    "bound": {"--q": (True, None), "--n": (True, None), "--growth-to": (False, 0), "--digits": (False, 30)},
    "decompose": {"--input": (True, None), "--d": (False, None), "--output": (False, None),
                  "--certify-rank": (False, False), "--cap": (False, DEFAULT_ENUM_CAP)},
    "verify": {"--input": (True, None), "--witness": (True, None)},
    "symmetric": {"--input": (True, None), "--d": (False, None), "--cap": (False, DEFAULT_ENUM_CAP)},
    "check-capset": {"--input": (True, None), "--cap": (False, DEFAULT_ENUM_CAP)},
    "check-sumfree": {"--input": (True, None), "--cap": (False, DEFAULT_ENUM_CAP)},
    "oracle": {"--input": (True, None), "--search-cap": (False, 16), "--cap": (False, DEFAULT_ENUM_CAP)},
    "trials": {"--q": (True, None), "--n": (True, None), "--count": (True, None), "--seed": (True, None),
               "--p": (False, 0.5), "--d": (False, None), "--oracle": (False, False),
               "--search-cap": (False, 16), "--cap": (False, DEFAULT_ENUM_CAP)},
}


def test_parser_options_pinned():
    """No subcommand gains or loses a flag, a required mark or a default."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(PARSER_OPTIONS)
    for name, sub in subparsers.choices.items():
        actions = sub._actions
        assert {o for a in actions for o in a.option_strings} == {"-h", "--help", "--json", *PARSER_OPTIONS[name]}
        assert {
            a.option_strings[-1]: (a.required, a.default) for a in actions if a.dest not in ("help", "json")
        } == PARSER_OPTIONS[name], name


GOLDEN_Q3_N3 = str(Path(__file__).parent / "golden" / "q3_n3.json")


def test_one_parser_serves_every_call(monkeypatch, capsys):
    """The parser is built once per process, and no flag of one call reaches the next."""
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    decompose = ["decompose", "--input", GOLDEN_Q3_N3]

    code, certified = run_json(capsys, decompose + ["--certify-rank"])
    assert code == 0 and "rank_certificates" in certified["outputs"]
    code, plain = run_json(capsys, decompose)
    assert code == 0 and "rank_certificates" not in plain["outputs"]

    code, forced = run_json(capsys, decompose + ["--d", "2"])
    assert code == 0 and (forced["outputs"]["degree"], forced["outputs"]["degree_source"]) == (2, "forced")
    code, chosen = run_json(capsys, decompose)
    assert code == 0 and chosen["outputs"]["degree_source"] == "minimized"
    assert chosen["outputs"]["degree"] == 3
    assert chosen == {**plain, "argv": chosen["argv"], "timing_ms": chosen["timing_ms"]}
    assert built == [1]


class TestCheckOwner:
    """The library evaluates every theorem check; cli.py builds only data verdicts."""

    DATA_VERDICTS = {
        "witnesses_within_parents",  # verify
        "coverage_equals_sumset",  # verify, and decompose's re-check
        "matching_sumfree",  # check-sumfree's precondition
        "all_trials_verified",  # trials aggregates
        "max_witness_total<=bound",
    }
    TREE = ast.parse(Path(cli.__file__).read_text())

    def test_cli_defines_no_check_helper(self):
        defined = set()
        for node in ast.walk(self.TREE):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        assert "run_command" in defined and "_check" not in defined

    def test_cli_builds_only_data_verdicts(self):
        names = []
        for node in ast.walk(self.TREE):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "Check" in (getattr(func, "id", None), getattr(func, "attr", None)):
                arg = node.args[0] if node.args else next(k.value for k in node.keywords if k.arg == "name")
                assert isinstance(arg, ast.Constant), ast.unparse(node)
                names.append(arg.value)
        assert names and set(names) <= self.DATA_VERDICTS
