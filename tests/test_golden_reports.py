"""Pinned stdout of every subcommand other than `decompose`, in both output modes.

`tests/test_golden.py` pins `decompose --json --certify-rank` on the files
under tests/golden/.  This module pins the other seven subcommands on small
inline instances: a passing case and, where the subcommand can fail, a
failing one, plus the invalid-input and cap-refusal paths.  Each case fixes
the exit code and the sha256 of stdout followed by stderr, once with --json
and once in the human-readable mode.  Before hashing, the report's `argv`
(it holds temporary file paths) is dropped, `timing_ms` is set to 0 and the
temporary directory in an error message reads `<tmp>`; every other byte is
kept, so a change to a report line, a check, a digest, the key order of a
report or an error message shows here.
"""

import hashlib
import json

import pytest

from sumsetcover.cli import run_command

MARKER = "--- report (json) ---\n"

FULL_F2_2 = [[0, 0], [0, 1], [1, 0], [1, 1]]

FILES = {
    "q3_pair": {"q": 3, "n": 2, "S": [[0, 0], [0, 1], [1, 2], [2, 2]], "T": [[0, 0], [1, 0], [2, 1]]},
    "q3_capset": {"q": 3, "n": 2, "S": [[0, 0], [0, 1], [1, 0], [1, 1]]},
    "q3_line": {"q": 3, "n": 1, "S": [[0], [1], [2]]},
    "q3_orders": {
        "q": 3, "n": 2, "S": [[0, 0], [1, 1]], "T": [[0, 1], [2, 2]],
        "S_order": [[1, 1], [0, 0]], "T_order": [[2, 2], [0, 1]],
    },
    "q5_family": {"q": 5, "n": 1, "S": [[0], [1]], "T": [[0], [1]]},
    "q2_collision": {"q": 2, "n": 1, "S": [[0], [1]], "T": [[0], [1]]},
    "q2_full": {"q": 2, "n": 2, "S": FULL_F2_2, "T": FULL_F2_2},
    "q2_empty_t": {"q": 2, "n": 2, "S": [[0, 1]], "T": []},
    "w_valid": {"S_witness": [[0, 0], [0, 1], [1, 2], [2, 2]], "T_witness": []},
    "w_empty": {"S_witness": [], "T_witness": []},
    "w_outside": {"S_witness": [[1, 1]], "T_witness": [[0, 0], [1, 0], [2, 1]]},
}

# case id -> (argv with {file} placeholders, exit code, sha256 with --json, sha256 human)
CASES = {
    "bound-q3-n2": (
        ["bound", "--q", "3", "--n", "2"], 0,
        "6318acfdb53b491cbffd0f3012bbacea7b973582034f8da602b5bd9e5d7e2cea",
        "01839d1a0129e516007382f8bf4581b2719db7df8f57ab79b6f09033420f3819",
    ),
    "bound-q5-n3-growth": (
        ["bound", "--q", "5", "--n", "3", "--growth-to", "4", "--digits", "12"], 0,
        "4553baecb664aa7df63e468cc1bf561acc1db0630e31ab0bcd54a78424f3ad7b",
        "ed213ca925ba2b2243b0cf0d2d38ba69cdb5887b45ff443e2f6c2fcc38e1d664",
    ),
    "bound-composite-q": (
        ["bound", "--q", "4", "--n", "2"], 2,
        "670ffb04dc69c1409f52318ec57c708d99a14789f0028abf098fe00bfc912ddf",
        "670ffb04dc69c1409f52318ec57c708d99a14789f0028abf098fe00bfc912ddf",
    ),
    "verify-valid": (
        ["verify", "--input", "{q3_pair}", "--witness", "{w_valid}"], 0,
        "b63dff949497b0b17bd01275ac0e734605ea1d29c61b3a3fb8538258ba4ec18b",
        "eb7cf7f2a0d21cf9bb2fc5c42d34556468deec4dd1bf766961fd1593b160514d",
    ),
    "verify-empty-witness": (
        ["verify", "--input", "{q3_pair}", "--witness", "{w_empty}"], 1,
        "0a95a288eb448eec123ac0a7d795ac7bffdee070c163ef66cbe27d45022feac5",
        "dd1a286b119c97d52674e89fe96636e76329b9351a9d894aa58a61eba8489cdd",
    ),
    "verify-witness-outside-parent": (
        ["verify", "--input", "{q3_pair}", "--witness", "{w_outside}"], 1,
        "6fbd4e4187a3903b8657e3c2e1abc43143d96aad593c0c735f8cc398a5db68c1",
        "0bbae656cf73c4891ce322d0f785f8ccf144a8ee18ac830452633acfb69cd01c",
    ),
    "verify-missing-witness-file": (
        ["verify", "--input", "{q3_pair}", "--witness", "{q3_pair}.missing"], 2,
        "261437198993ff153209b484414d02d9ee9c48dcba5694ab750e45227133086c",
        "261437198993ff153209b484414d02d9ee9c48dcba5694ab750e45227133086c",
    ),
    "symmetric-capset": (
        ["symmetric", "--input", "{q3_capset}"], 0,
        "71cb305c682b305a76330ce0688415429f3b37794bd840dbcdb11adfe80c87c5",
        "522f4562b25575fa7866bba11f10d826f3885159172e8bd172c62bc72680eda4",
    ),
    "symmetric-forced-degree": (
        ["symmetric", "--input", "{q3_pair}", "--d", "1"], 0,
        "c8e46b9911c18abfa19194ad9b5b7eaef26c10546c8403ebd482525e77a040fb",
        "d6c9e4221f96d7a91759ec4ca6d0deaf0de012d1226639bd8c55abab4859be92",
    ),
    "check-capset-applicable": (
        ["check-capset", "--input", "{q3_capset}"], 0,
        "e8b4afa4af8a0966553c90734fcb238bcf4c968c81ca2dee03f549f10a635b68",
        "405cf9975a699b6549059f75515c06505b149f3ad5bd18b1ba9b02520acdcd22",
    ),
    "check-capset-not-applicable": (
        ["check-capset", "--input", "{q3_line}"], 0,
        "edc9907a70aa841466dbcda6ed74c8656be4bfa1fa61b3ac516583d9976a1beb",
        "e5c5bf054a8b1ac1fce87def2ff368cdae18554d1e481cabe0717fb0d87d2874",
    ),
    "check-sumfree-pass": (
        ["check-sumfree", "--input", "{q5_family}"], 0,
        "eceff189b2631ee8853982b4718db5dc5de4437e47cf5173c0daa0eeae6123c6",
        "5c63bc02b9cdf642f891a8fb7ae96af861ccef2ef1d942c34e6354e59a7f11d9",
    ),
    "check-sumfree-explicit-orders": (
        ["check-sumfree", "--input", "{q3_orders}"], 0,
        "4e6729bf6cf9e2eecd841c064facbac7af1b449f5988777fffcae5901266fbe2",
        "7b72d516d70fe77b8353f74b07a0c0f516987f82341de7e71ea74c1ab1343239",
    ),
    "check-sumfree-collision": (
        ["check-sumfree", "--input", "{q2_collision}"], 1,
        "8bdf671f6718028b7d7517898530fb174706630a6f02c82564ae8a4877c62c12",
        "94f43c443af6f6f695dc4b61020e1399e8bf7dd533c4bbc0c356851e802234f5",
    ),
    "check-sumfree-missing-t": (
        ["check-sumfree", "--input", "{q3_capset}"], 2,
        "aa95bc28f3fd06dd16966058f32a29520174a8828015733de90771afdf33ddc2",
        "aa95bc28f3fd06dd16966058f32a29520174a8828015733de90771afdf33ddc2",
    ),
    "oracle-full-f2": (
        ["oracle", "--input", "{q2_full}"], 0,
        "2b63756dd263cb13b043fe6b557eb320ec32955dce6948867239ccd637ce135d",
        "d1ff34aea7683e94e99388584e8a641b1f9617bf711b6e389be20468606f4dc3",
    ),
    "oracle-pair": (
        ["oracle", "--input", "{q3_pair}"], 0,
        "f2690f3f64c7fc0bf040237050dd510b9a29828a04f65a267d10a9687f7d663f",
        "51d209dc9bed79a43b50bda86d600ea1fdce7d167a55c48c031c1d7a2d8941c2",
    ),
    "oracle-empty-t": (
        ["oracle", "--input", "{q2_empty_t}"], 0,
        "6c82df76d6bf562c88b0c82afb14f39c880d7a5bd2f3593eee7b21a0688bfc31",
        "2c95097257d6106d98c430d9080d5237582a2f78bc90c833d601133e169c6004",
    ),
    "oracle-search-cap": (
        ["oracle", "--input", "{q2_full}", "--search-cap", "4"], 3,
        "081037e9beaa1707814dbc3ba11e1571d7f29c8ed6e9e43c9a5d764aa9a3a62b",
        "081037e9beaa1707814dbc3ba11e1571d7f29c8ed6e9e43c9a5d764aa9a3a62b",
    ),
    "trials-q2": (
        ["trials", "--q", "2", "--n", "2", "--count", "6", "--seed", "7"], 0,
        "c23e2fc1e23330fb2ee1f1da968a6b071f302c9105f96b2d7f28a0f26541e13d",
        "899d53ff942e955da906a7ace1fcfa5d4524d55abb58e324423d85f08fdaffb1",
    ),
    "trials-q3-oracle": (
        ["trials", "--q", "3", "--n", "1", "--count", "5", "--seed", "3", "--p", "0.6",
         "--oracle", "--d", "1"], 0,
        "14e5b3b1c883955169335c80d6cffb78d7f3429e0aaf0c0c08d6164e6cdb4301",
        "8ed24eb34524ddf6f9110465d402fbf3a39d22c9a5dfbc186c2f1199b0a60dd6",
    ),
    "trials-zero-count": (
        ["trials", "--q", "5", "--n", "1", "--count", "0", "--seed", "0"], 0,
        "9244075407e2226d6f5ac1c304756128c04f66b961fbfd240d46b2671ca44c14",
        "6f3f3a0ebcbf3450530f604e610a74688381af9a8fba40b756d6549156ce472d",
    ),
    "trials-composite-q": (
        ["trials", "--q", "6", "--n", "1", "--count", "1", "--seed", "0"], 2,
        "843fcb72f4a32a810ce4aa4d678566ad9dfb095f434ce8adfd1aa4222fa0d17a",
        "843fcb72f4a32a810ce4aa4d678566ad9dfb095f434ce8adfd1aa4222fa0d17a",
    ),
    "trials-enum-cap": (
        ["trials", "--q", "3", "--n", "4", "--count", "1", "--seed", "0", "--cap", "80"], 3,
        "2900c5b709c17bc0ab1eca8ec8f56cff616db698f8c7383c9e55abedabe91575",
        "2900c5b709c17bc0ab1eca8ec8f56cff616db698f8c7383c9e55abedabe91575",
    ),
}


def normalized(stdout: str, as_json: bool) -> str:
    """stdout with the report's argv dropped and timing_ms set to 0."""
    if not stdout:
        return stdout
    head, sep, body = ("", "", stdout) if as_json else stdout.partition(MARKER)
    report = json.loads(body)
    del report["argv"]
    report["timing_ms"] = 0
    return head + sep + json.dumps(report, indent=2) + "\n"


def test_every_subcommand_but_decompose_is_pinned():
    assert {argv[0] for argv, *_ in CASES.values()} == {
        "bound", "verify", "symmetric", "check-capset", "check-sumfree", "oracle", "trials",
    }


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "human"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_and_exit_code_pinned(case, as_json, tmp_path, capsys):
    paths = {}
    for name, payload in FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    template, expected_code, json_digest, human_digest = CASES[case]
    argv = [arg.format(**paths) for arg in template] + (["--json"] if as_json else [])
    code = run_command(argv)
    captured = capsys.readouterr()
    text = normalized(captured.out, as_json) + captured.err.replace(str(tmp_path), "<tmp>")
    assert code == expected_code
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == (json_digest if as_json else human_digest)
