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
