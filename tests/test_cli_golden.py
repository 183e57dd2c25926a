"""Byte-for-byte output of every command and format, against files in golden/.

Each case's stdout is kept in ``golden/<case>.out`` and its stderr, when it
has any, in ``golden/<case>.err``.  The certificate's timestamp is masked.
"""

import re
from pathlib import Path

import pytest

from qlogconvex import cli
from qlogconvex.cli import EXIT_OK, EXIT_VERIFICATION_FAILURE, main

GOLDEN = Path(__file__).parent / "golden"

SMALL_VERIFY = ["verify-paper", "--n-max-direct", "4", "--n-max-factorization", "4",
                "--n-max-sturm", "4", "--n-max-monotonicity", "4",
                "--n-max-root-ratio", "4", "--series-N", "100", "--jobs", "1"]

FORMATS = ("text", "csv", "json")

# case name -> (argv, exit code)
CASES = {
    **{f"families_{tag}_{fmt}": (["families", "--family", tag, "--n-max", "3",
                                  "--format", fmt], EXIT_OK)
       for tag in ("D", "W", "V", "F") for fmt in FORMATS},
    "families_W_from_2_text": (["families", "--family", "W", "--n-from", "2",
                                "--n-max", "3"], EXIT_OK),
    **{f"check_qlc_{fmt}": (["check", "qlc", "--family", "D", "--n-max", "6",
                             "--jobs", "1", "--format", fmt], EXIT_OK)
       for fmt in FORMATS},
    **{f"check_logconvex_{fmt}": (["check", "logconvex", "--n-max", "10",
                                   "--format", fmt], EXIT_OK)
       for fmt in FORMATS},
    **{f"check_crossing_{fmt}": (["check", "crossing", "--array", "narayana_a",
                                  "--n-max", "6", "--format", fmt], EXIT_OK)
       for fmt in FORMATS},
    **{f"series_{n}_{fmt}": (["series", "--series-N", str(n), "--format", fmt],
                             EXIT_OK if n == 100 else EXIT_VERIFICATION_FAILURE)
       for n in (100, 1) for fmt in FORMATS},
    **{f"verify_paper_{fmt}": ([*SMALL_VERIFY, "--format", fmt], EXIT_OK)
       for fmt in ("text", "csv")},
}


def _mask_timestamp(text: str) -> str:
    return re.sub(r"(?m)^timestamp: .*$", "timestamp: <masked>", text)


def _expected(case: str, suffix: str) -> str:
    path = GOLDEN / f"{case}.{suffix}"
    return path.read_bytes().decode("utf-8") if path.exists() else ""


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_bytes(capsys, case):
    argv, exit_code = CASES[case]
    assert main(argv) == exit_code
    captured = capsys.readouterr()
    assert _mask_timestamp(captured.out) == _expected(case, "out")
    assert captured.err == _expected(case, "err")


def test_failing_check_matches_golden_bytes(capsys, monkeypatch):
    # D_n = n + 1 is log-concave, so the strict log-convexity check fails at index 1
    monkeypatch.setattr(cli, "domb_numbers", lambda stop: [n + 1 for n in range(stop)])
    assert main(["check", "logconvex", "--n-max", "5"]) == EXIT_VERIFICATION_FAILURE
    captured = capsys.readouterr()
    assert captured.out == _expected("check_logconvex_failing", "out")
    assert captured.err == ""


def test_out_path_gets_the_stdout_bytes(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert main(["families", "--family", "D", "--n-max", "3", "--format", "csv",
                 "--out", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert target.read_bytes().decode("utf-8") == _expected("families_D_csv", "out")
