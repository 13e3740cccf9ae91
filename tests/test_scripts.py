"""Smoke runs of the experiment scripts, so an API change cannot break them silently."""

import subprocess
import sys
from pathlib import Path

from conftest import subprocess_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


def test_bound_slack():
    lines = run_script("bound_slack.py", "--q", "2", "--n", "2", "--count", "5", "--seed", "1")
    assert lines[0].split() == ["trial", "|S|", "|T|", "oracle", "greedy", "pipeline", "bound"]
    assert len([line for line in lines[1:6] if line.split()]) == 5
    assert any(line.startswith("greedy > bound: ") and line.endswith(" of 5 instances") for line in lines)
    assert any(line.startswith("greedy > pipeline: ") and line.endswith(" of 5 instances") for line in lines)
