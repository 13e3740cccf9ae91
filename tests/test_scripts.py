"""Smoke runs of the experiment scripts and of the README's Python examples,
and the README's module list and backticked references against the package
and the tests, so an API change cannot break them silently."""

import ast
import hashlib
import importlib
import importlib.util
import itertools
import json
import random
import re
from decimal import Decimal
import subprocess
import sys
from pathlib import Path

import pytest

import sumsetcover as sc
from sumsetcover.cli import EXIT_CAP_REFUSED, EXIT_INVALID_INPUT, run_command
from conftest import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name: str, *args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_growth_table():
    lines = run_script("growth_table.py", "--q", "3", "--n-max", "6")
    assert lines[0] == "q = 3"
    assert lines[1].split() == ["n", "budget", "3*m", "budget^(1/n)", "min_d", "budget"]
    # one row per n; the last is n = 6 with 3*m(3,6,4) = 504 and minimum 324
    assert len(lines) == 8
    assert lines[-1].split()[:2] == ["6", "504"] and lines[-1].split()[-1] == "324"


@pytest.mark.parametrize("q", [2, 3, 5])
def test_growth_table_rows_match_per_row_counts(q):
    # the script extends one count table row by row; every row up to n = 30
    # is what recounting that n from scratch gives
    lines = run_script("growth_table.py", "--q", str(q), "--n-max", "30")
    roots = sc.growth_estimate(q, 30, digits=22)
    assert len(lines) == 32
    for n, line in enumerate(lines[2:], start=1):
        budget = 3 * sc.count_m(q, n, (q - 1) * n // 3)
        minimized = min(sc.degree_bound(q, n, d) for d in range((q - 1) * n + 1))
        assert line.split() == [str(n), str(budget), str(round(roots[n - 1], 12)), str(minimized)]


def test_growth_table_prints_counts_past_the_float_range():
    # from n = 703 on the budgets exceed the largest float, about 1.8e308;
    # they print from their exact values
    lines = run_script("growth_table.py", "--q", "3", "--n-max", "720")
    row = lines[-1].split()
    counts = sc.capset_bound_M(3, 720), sc.choose_degree(3, 720)[1]
    assert row[0] == "720" and float(row[2]) < 3
    assert [row[1], row[3]] == [f"{Decimal(v):.6e}" for v in counts]
    assert row[1] == "1.130941e+316"


def test_growth_table_rounds_past_the_default_precision():
    # 40 decimal places need a wider context than the default 28 digits
    lines = run_script("growth_table.py", "--q", "3", "--n-max", "3", "--digits", "40")
    assert lines[-1].split()[:3] == ["3", "30", "3.1072325059538588668776624275223863628549"]
    assert lines[2].split()[2] == "3." + "0" * 40


def test_growth_table_refused_by_the_work_budget():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "growth_table.py"), "--q", "3", "--n-max", "3", "--digits", "6000"],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == (
        "error: refused by resource cap: growth roots take 434163602000 digit^3 steps > cap 100000000000\n"
    )


@pytest.mark.parametrize("script, args, message", [
    ("growth_table.py", ["--digits", "-10"], "digits must be >= 0, got -10"),
    ("growth_table.py", ["--digits", "-3"], "digits must be >= 0, got -3"),
    ("growth_table.py", ["--n-max", "0"], "n_max must be >= 1, got 0"),
    ("growth_table.py", ["--q", "4"], "q = 4 is not prime"),
    ("growth_table.py", ["--q", "1"], "q = 1 is not prime"),
    ("bound_slack.py", ["--q", "4"], "q = 4 is not prime"),
    ("bound_slack.py", ["--n", "0"], "n must be >= 1, got 0"),
    ("bound_slack.py", ["--count", "-1"], "count must be >= 0, got -1"),
    ("bound_slack.py", ["--p", "7"], "inclusion probability must be in [0, 1], got 7.0"),
    ("vanishing_oracles.py", ["--q", "4"], "q = 4 is not prime"),
    ("vanishing_oracles.py", ["--q", "1"], "q = 1 is not prime"),
    ("vanishing_oracles.py", ["--q", "2", "9"], "q = 9 is not prime"),
    ("vanishing_oracles.py", ["--n-max", "0"], "n must be >= 1, got 0"),
    ("bench_grid.py", ["--n-max", "0"], "n_max must be >= 1, got 0"),
])
def test_scripts_refuse_invalid_input(script, args, message):
    # as the CLI's bound does: one "error: invalid input" line, exit 2
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_INVALID_INPUT, "")
    assert proc.stderr == f"error: invalid input: {message}\n"


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_every_script_refuses_a_composite_q(script):
    # one refusal contract for every script, present and future
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--q", "4"],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_INVALID_INPUT, "", "error: invalid input: q = 4 is not prime\n")


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_every_script_refuses_a_q_past_the_primality_bound(script):
    # is_prime cannot decide this q; every script, present and future,
    # refuses it as the CLI does: one resource-cap line, exit 3
    q = "3317044064679887385962123"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--q", q],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_CAP_REFUSED, "", (
        f"error: refused by resource cap: q = {q} exceeds the primality bound 3317044064679887385961981\n"))


def test_bound_slack_refused_by_the_enumeration_cap():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "bound_slack.py"), "--q", "3", "--n", "14", "--count", "1"],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: refused by resource cap: q^n = 4782969 exceeds enumeration cap 4194304\n"


@pytest.mark.parametrize("q, n, seed, count, p", [(3, 2, 4, 6, "0.5"), (2, 3, 7, 8, "0.3"), (5, 1, 2, 5, "0.6")])
def test_bound_slack_and_trials_draw_the_same_pairs(capsys, q, n, seed, count, p):
    # both read sumsetcover.random_pairs: row by row, the same |S|, |T| and
    # pipeline witness total
    args = ["--q", str(q), "--n", str(n), "--seed", str(seed), "--count", str(count), "--p", p]
    lines = run_script("bound_slack.py", *args)
    slack = [(int(w[1]), int(w[2]), int(w[5])) for w in (line.split() for line in lines[1:count + 1])]
    assert run_command(["trials", *args, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["outputs"]["trials"]
    assert slack == [(r["sizes"]["S"], r["sizes"]["T"], r["witness_total"]) for r in rows]


def test_vanishing_oracles():
    lines = run_script("vanishing_oracles.py", "--q", "2", "3", "--n-max", "3", "--seed", "1")
    assert lines[0].split() == ["q", "n", "checks", "seconds"]
    assert [line.split()[:2] for line in lines[1:-1]] == [[str(q), str(n)] for q in (2, 3) for n in (1, 2, 3)]
    assert lines[-1].startswith("all ") and " checks passed in " in lines[-1]


def test_bench_grid():
    # the n <= 5 slice of the grid: one pair, re-derived here
    result = json.loads("\n".join(run_script("bench_grid.py", "--n-max", "5")))
    assert (result["q"], result["repeats"]) == (3, 3)
    [row] = result["instances"]
    rng = random.Random("single:5:14")
    points = list(itertools.product(range(3), repeat=5))
    S, T = (sc.PointSet.from_coords(3, 5, rng.sample(points, 14)) for _ in "ST")
    run = sc.run_pipeline(S, T)
    dec = run.decomposition
    witnesses = [[list(v.coords) for v in w] for w in (dec.s_witness, dec.t_witness)]
    assert row == {
        **row,
        "name": "single:5:14", "status": "ok", "sums": len(run.sum_set), "degree": run.degree,
        "m_d": run.space.ambient_dim, "dim": run.space.dim, "witness_total": dec.witness_total,
        "bound": dec.bound, "witness_sha256": hashlib.sha256(json.dumps(witnesses).encode()).hexdigest(),
    }
    assert len(row["wall_s_runs"]) == 3 and row["wall_s"] == sorted(row["wall_s_runs"])[1]
    assert len(row["verify_s_runs"]) == 3 and row["verify_s"] == sorted(row["verify_s_runs"])[1] > 0


def test_bench_grid_records_a_pair_over_budget():
    spec = importlib.util.spec_from_file_location("bench_grid", SCRIPTS / "bench_grid.py")
    bench_grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_grid)
    row = bench_grid.measure(3, "single", 5, 14, 1e-6)
    assert row == {"name": "single:5:14", "q": 3, "n": 5, "k": 14, "status": "skipped",
                   "reason": "over the 1e-06 s budget"}


def test_committed_bench_files_agree():
    # each BENCH_<k>.json at the root is one run of bench_grid.py: a pair
    # measured in more than one of them keeps its sizes and its witnesses
    fields = ("witness_sha256", "witness_total", "bound", "dim", "m_d", "sums")
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert len(files) >= 2
    seen: dict = {}
    for path in files:
        result = json.loads(path.read_text())
        for row in result["instances"]:
            if row["status"] == "ok":
                seen.setdefault((result["q"], row["name"]), []).append((path.name, {f: row[f] for f in fields}))
    shared = {key: runs for key, runs in seen.items() if len(runs) > 1}
    assert shared
    for key, runs in shared.items():
        assert all(r == runs[0][1] for _, r in runs), (key, runs)


def test_bound_slack():
    lines = run_script("bound_slack.py", "--q", "2", "--n", "2", "--count", "5", "--seed", "1")
    assert lines[0].split() == ["trial", "|S|", "|T|", "oracle", "greedy", "pipeline", "bound"]
    assert len([line for line in lines[1:6] if line.split()]) == 5
    assert any(line.startswith("greedy > bound: ") and line.endswith(" of 5 instances") for line in lines)
    assert any(line.startswith("greedy > pipeline: ") and line.endswith(" of 5 instances") for line in lines)


@pytest.mark.parametrize("patch, message", [
    ("sc.verify_decomposition = lambda *args: False",
     "trial 0: the pipeline witness pair does not cover S+T"),
    ("sc.oracle_min_decomposition = lambda *args, **kw: types.SimpleNamespace(best_total=99)",
     "trial 0: oracle minimum 99 exceeds the greedy cover"),
], ids=["unverified-witness", "oracle-above-greedy"])
def test_bound_slack_checks_run_under_optimize(patch, message):
    """The script's certified checks are explicit, so python -O keeps them."""
    script = str(SCRIPTS / "bound_slack.py")
    code = "\n".join([
        "import runpy, sys, types",
        "import sumsetcover as sc",
        patch,
        f"sys.argv = [{script!r}, '--q', '2', '--n', '2', '--count', '3', '--seed', '1']",
        f"runpy.run_path({script!r}, run_name='__main__')",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == 1
    assert message in proc.stderr


def test_readme_python_examples_run():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    for code in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 0, code + proc.stderr


def test_readme_key_modules_are_the_package_modules():
    # the modules are the paragraph's backticked names outside parentheses;
    # the names inside them describe a module
    readme = (ROOT / "README.md").read_text()
    paragraph = re.search(r"^Key modules: (.*?)\n\n", readme, re.M | re.S)
    assert paragraph, "README has no Key modules paragraph"
    depth, listed = 0, []
    for token in re.finditer(r"`([^`]*)`|[()]", paragraph.group(1)):
        if token.group(1) is None:
            depth += 1 if token.group() == "(" else -1
        elif depth == 0:
            listed.append(token.group(1))
    modules = {p.stem for p in (ROOT / "src" / "sumsetcover").glob("*.py")} - {"__init__", "errors"}
    assert sorted(listed) == sorted(modules)


def test_readme_references_resolve():
    # every `module.name` of a package module is an attribute of that module
    # (file names like `cli.py` aside), and every `tests/<file>.py::Name`
    # or `::Name::name` is a class or function defined in that file
    readme = (ROOT / "README.md").read_text()
    modules = {p.stem for p in (ROOT / "src" / "sumsetcover").glob("*.py")} - {"__init__"}
    names, tests = [], []
    for ref in re.findall(r"`([^`\n]+)`", readme):
        if (m := re.match(r"(\w+)\.(\w+)", ref)) and m.group(1) in modules and not ref.endswith(".py"):
            names.append(m.groups())
        elif m := re.fullmatch(r"(tests/\w+\.py)::(\w+(?:::\w+)?)", ref):
            tests.append(m.groups())
    assert names and tests
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"sumsetcover.{module}"), name)]
    for path, qualname in tests:
        scope = ast.parse((ROOT / path).read_text())
        for part in qualname.split("::"):
            scope = next((node for node in scope.body if getattr(node, "name", None) == part
                          and isinstance(node, (ast.ClassDef, ast.FunctionDef))), None)
            if scope is None:
                missing.append(f"{path}::{qualname}")
                break
    assert not missing
