"""Pinned digests of full `decompose --json --certify-rank` reports.

The instance files under tests/golden/ are fixed (q in {2, 3, 5, 7}, one at
q=3, n=5).  Each report is hashed with its two run-dependent keys, `argv`
and `timing_ms`, removed and every other byte kept, so any change to a
witness, a certificate, a check or the key order of a report shows here.
A rewrite of the pipeline must leave these digests unchanged.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from sumsetcover.cli import run_command

GOLDEN_DIR = Path(__file__).parent / "golden"

DIGESTS = {
    "q2_n4.json": "373fb0b60973db9a4a9aed379e98d9533fc1a4c594c9dc4d09560e58022d0f43",
    "q2_n6.json": "6c28d1837b8777f3a60af297cb77c0bc4e64417aac1352eae9c75c9d9d6b19dd",
    "q3_n3.json": "0f0f7dddcf70ec323bd3edf5874570dc973e5bfa7bdbbaac0a05e2730cc55164",
    "q3_n5.json": "c47398c6ff2abfb45672f8c34d96820f910de5901672d4e68bd25e08577803e3",
    "q5_n2.json": "3f187f4d2022a506ea07ee966ebb15c2cc84dd8d4c3bcc3bb874bdae72bfaf0f",
    "q7_n2.json": "f27451626c332f79b737a4563af3f0c685781c4f409c152d2d032f36254b50cf",
}


def test_golden_set_is_complete():
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.json")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest_pinned(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(
            ["decompose", "--input", str(GOLDEN_DIR / name), "--json", "--certify-rank"]
        )
    assert code == 0
    report = json.loads(out.getvalue())
    del report["argv"], report["timing_ms"]
    blob = json.dumps(report, indent=2).encode()
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[name]


# `decompose` outputs the pins above do not reach: the human-readable mode,
# runs without --certify-rank, a forced degree (its report has no
# chosen_bound check) and an empty T (no pipeline run).  Stdout is hashed
# with the report's `argv` (it holds the instance path) and `timing_ms`
# dropped; every other byte, the human lines included, is kept.
MARKER = "--- report (json) ---\n"
EMPTY_T = {"q": 3, "n": 3, "S": [[0, 0, 0], [0, 1, 1], [1, 2, 2]], "T": []}

VARIANTS = [
    pytest.param("q3_n5.json", (), "6c116198bb4d0aeac26256def3637b610e3fe55b7768341c9a0007b8ae23991e",
                 id="q3_n5-human"),
    pytest.param("q2_n6.json", ("--certify-rank",),
                 "823000162daed1c0580ef529fb075f341ac7746a37d8cab7c2935199fe7408c1",
                 id="q2_n6-human-certify"),
    pytest.param("q5_n2.json", ("--json",), "d5bf585cc227d1034ace65b56d701fe75c0ebf45386fe85108b17f0a24a2eab2",
                 id="q5_n2-json"),
    pytest.param("q3_n3.json", ("--json", "--certify-rank", "--d", "2"),
                 "b536c7b688fabd07a2f81b9c4f35265b0d5bb46076f661a37856077b7e755429",
                 id="q3_n3-json-certify-d2"),
    pytest.param("q7_n2.json", ("--d", "2"), "229b779563e364b6828b961cf7fc404297848a902fef112ea5dc74c5fce95609",
                 id="q7_n2-human-d2"),
    pytest.param("empty_t", ("--json",), "990e802284f01d3fc45f6bb832c515de892eda836f0898a665f11f2de0adaa1c",
                 id="empty_t-json"),
    pytest.param("empty_t", ("--d", "2"), "d7c007470ff23c7629880e2ab3765bf6cf97fb9fcbe0967c6a1114be77505948",
                 id="empty_t-human-d2"),
]


@pytest.mark.parametrize("name, extra, digest", VARIANTS)
def test_decompose_variant_digest_pinned(name, extra, digest, tmp_path):
    path = GOLDEN_DIR / name
    if name == "empty_t":
        path = tmp_path / "empty_t.json"
        path.write_text(json.dumps(EMPTY_T))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(["decompose", "--input", str(path), *extra])
    assert code == 0
    human, _, text = out.getvalue().rpartition(MARKER)
    report = json.loads(text)
    del report["argv"], report["timing_ms"]
    blob = (human + json.dumps(report, indent=2)).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
