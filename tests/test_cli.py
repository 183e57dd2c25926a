import json
import os
import subprocess
import sys

import pytest

from qlogconvex import cli
from qlogconvex.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION_FAILURE, main
from qlogconvex.verification import ClaimRecord, VerificationConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_families_csv(capsys):
    code, out, _ = run_cli(capsys, "families", "--family", "D", "--n-max", "2", "--format", "csv")
    assert code == EXIT_OK
    rows = out.strip().splitlines()
    assert rows[0] == "n,k,coefficient"
    assert rows[1] == "0,0,1"
    assert rows[-1] == "2,2,6"


def test_families_text(capsys):
    code, out, _ = run_cli(capsys, "families", "--family", "W", "--n-from", "3",
                           "--n-max", "3", "--format", "text")
    assert code == EXIT_OK
    assert out.strip() == "1 9 9 1"


def test_families_json(capsys):
    code, out, _ = run_cli(capsys, "families", "--family", "V", "--n-max", "2",
                           "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["family"] == "V"
    assert data["rows"][2]["coefficients"] == ["1", "8", "6"]


def test_families_empty_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["families", "--family", "D", "--n-from", "2", "--n-max", "1"])
    assert excinfo.value.code == EXIT_USAGE


def test_families_unknown_tag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["families", "--family", "Z", "--n-max", "1"])
    assert excinfo.value.code == EXIT_USAGE


def test_families_writes_nothing_under_the_old_cache_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QLOGCONVEX_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "families", "--family", "W", "--n-max", "2")
    assert code == EXIT_OK and out == "1\n1 1\n1 4 1\n"
    assert list(tmp_path.iterdir()) == []


def test_check_qlc(capsys):
    code, out, _ = run_cli(capsys, "check", "qlc", "--family", "D", "--n-max", "15",
                           "--jobs", "1")
    assert code == EXIT_OK
    assert "result: pass" in out


def test_check_logconvex(capsys):
    code, out, _ = run_cli(capsys, "check", "logconvex", "--n-max", "40")
    assert code == EXIT_OK
    assert "pass" in out


def test_check_crossing_json(capsys):
    code, out, _ = run_cli(capsys, "check", "crossing", "--array", "domb_a",
                           "--n-max", "12", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["result"] == "pass"


def test_series_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "series", "--series-N", "100", "--digits", "40")
    assert code == EXIT_OK
    assert "result: pass" in out

    code, out, _ = run_cli(capsys, "series", "--series-N", "1", "--digits", "40")
    assert code == EXIT_VERIFICATION_FAILURE
    assert "partial_sum: 1.375" in out


def test_series_shows_the_distance_bound_in_scientific_form(capsys):
    code, out, _ = run_cli(capsys, "series", "--series-N", "100", "--digits", "15")
    assert code == EXIT_OK
    assert "distance_bound: 1.9e-29\n" in out
    assert "partial_sum: 1.470210387791445\n" in out
    code, out, _ = run_cli(capsys, "series", "--series-N", "1", "--digits", "40",
                           "--format", "json")
    assert code == EXIT_VERIFICATION_FAILURE
    assert json.loads(out)["distance_bound"] == "9.6e-02"


@pytest.mark.parametrize("digits", ["10", "14"])
def test_digits_that_can_only_fail_are_usage_errors(capsys, digits):
    code, out, err = run_cli(capsys, "series", "--series-N", "100", "--digits", digits)
    assert code == EXIT_USAGE
    assert out == "" and "use at least 15" in err
    code, out, err = run_cli(capsys, "verify-paper", "--digits", digits, "--jobs", "1")
    assert code == EXIT_USAGE
    assert out == "" and "use at least 15" in err


@pytest.mark.parametrize("argv", [
    ["check", "logconvex", "--n-max", "5", "--cache", "x"],
    ["series", "--cache", "x"],
    ["families", "--family", "D", "--n-max", "3", "--cache", "x"],
    ["verify-paper", "--jobs", "1", "--cache", "x"],
])
def test_cache_flag_only_where_it_is_read(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE
    assert "unrecognized arguments: --cache" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["series", "--series-N", "-1"], "series-N must be nonnegative, got -1"),
    (["check", "qlc", "--n-max", "0", "--jobs", "1"], "check qlc needs n-max >= 1, got 0"),
    (["check", "logconvex", "--n-max", "1"], "check logconvex needs n-max >= 2, got 1"),
    (["check", "qlc", "--n-max", "5", "--jobs", "-2"], "jobs must be at least 1, got -2"),
    (["check", "crossing", "--n-max", "0"], "check crossing needs n-max >= 1, got 0"),
])
def test_inputs_that_can_only_fail_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("flags, line", [
    (["--n-max-sturm", "0", "--jobs", "1"], "error: --n-max-sturm must be >= 1, got 0\n"),
    (["--series-N", "0", "--jobs", "1"], "error: --series-N must be >= 1, got 0\n"),
    (["--jobs", "0"], "error: --jobs must be >= 1, got 0\n"),
])
def test_verify_paper_names_the_bound_below_one(capsys, flags, line):
    assert run_cli(capsys, "verify-paper", *flags) == (EXIT_USAGE, "", line)


@pytest.mark.parametrize("kind, flag, value", [
    ("logconvex", "--jobs", "4"),
    ("logconvex", "--family", "W"),
    ("logconvex", "--array", "narayana_a"),
    ("crossing", "--jobs", "2"),
    ("crossing", "--family", "V"),
    ("qlc", "--array", "narayana_a"),
])
def test_check_rejects_flags_it_does_not_read(capsys, kind, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", kind, "--n-max", "3", flag, value])
    assert excinfo.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: check {kind} does not read {flag}" in captured.err


def test_check_applies_defaults_where_the_flag_is_read(capsys, monkeypatch):
    seen = {}
    record = ClaimRecord("qlc_D", {"family": "D", "n_max": "2"}, "pass")
    monkeypatch.setattr(cli, "qlc_check",
                        lambda tag, n_max, jobs: seen.update(tag=tag, jobs=jobs) or (record, []))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    code, out, _ = run_cli(capsys, "check", "qlc", "--n-max", "2")
    assert code == EXIT_OK and seen == {"tag": "D", "jobs": 3}
    code, out, _ = run_cli(capsys, "check", "crossing", "--n-max", "2")
    assert code == EXIT_OK and "array: domb_a" in out


def test_smallest_accepted_check_bounds(capsys):
    code, out, _ = run_cli(capsys, "check", "qlc", "--n-max", "1", "--jobs", "1")
    assert code == EXIT_OK and "result: pass" in out
    code, out, _ = run_cli(capsys, "check", "logconvex", "--n-max", "2")
    assert code == EXIT_OK and "result: pass" in out
    code, out, _ = run_cli(capsys, "check", "crossing", "--n-max", "1")
    assert code == EXIT_OK and "result: pass" in out


def test_failing_crossing_check_names_the_first_failing_n(capsys, monkeypatch):
    def sweep(array, n):
        return 0 if n >= 3 else None

    monkeypatch.setattr(cli, "criterion_c2_sweep", sweep)
    code, out, _ = run_cli(capsys, "check", "crossing", "--n-max", "5", "--format", "json")
    assert code == EXIT_VERIFICATION_FAILURE
    assert out == json.dumps({"check": "crossing", "array": "domb_a", "n_max": "5",
                              "result": "fail", "first_witness": "n=3"}, indent=2) + "\n"


@pytest.mark.parametrize("argv, shown", [
    ([], ["families", "check", "verify-paper", "series"]),
    (["families"], ["--family", "--n-from N_FROM", "--n-max N_MAX", "--format", "--out PATH"]),
    (["check"], ["--family", "--array", "--n-max N_MAX", "--jobs JOBS", "--format",
                 "--out PATH"]),
    (["verify-paper"], ["--n-max-direct N_MAX_DIRECT", "--n-max-factorization N_MAX_FACTORIZATION",
                        "--n-max-sturm N_MAX_STURM", "--n-max-monotonicity N_MAX_MONOTONICITY",
                        "--n-max-root-ratio N_MAX_ROOT_RATIO", "--series-N SERIES_N",
                        "--digits DIGITS", "--jobs JOBS", "--format", "--out PATH"]),
    (["series"], ["--series-N SERIES_N", "--digits DIGITS", "--format", "--out PATH"]),
])
def test_help_names_every_flag(capsys, argv, shown):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--help"])
    assert excinfo.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: qlogconvex")
    assert all(flag in out for flag in shown)


def test_verify_paper_small(tmp_path, capsys):
    out_path = str(tmp_path / "certificate.json")
    code, out, _ = run_cli(
        capsys, "verify-paper",
        "--n-max-direct", "10", "--n-max-factorization", "6", "--n-max-sturm", "8",
        "--n-max-monotonicity", "10", "--n-max-root-ratio", "6",
        "--series-N", "100", "--jobs", "1", "--out", out_path,
    )
    assert code == EXIT_OK
    assert "overall: pass" in out
    with open(out_path) as fh:
        data = json.load(fh)
    assert data["verdict"] == "pass"
    assert {c["claim"] for c in data["claims"]} == {
        "prop31", "prop32", "prop33", "claims123", "factorization", "cascade",
        "qlc_D", "qlc_W", "qlc_V", "qlc_F", "series", "monotonicity",
    }


def test_verify_paper_and_series_defaults_are_the_config_defaults(monkeypatch):
    defaults = VerificationConfig()
    args = cli.build_parser().parse_args(["verify-paper"])
    assert (args.n_max_direct, args.n_max_factorization, args.n_max_sturm,
            args.n_max_monotonicity, args.n_max_root_ratio, args.series_N,
            args.series_digits) == (
        defaults.n_max_direct, defaults.n_max_factorization, defaults.n_max_sturm,
        defaults.n_max_monotonicity, defaults.n_max_root_ratio, defaults.series_N,
        defaults.series_digits)
    assert args.parallelism == (os.cpu_count() or 1)
    series = cli.build_parser().parse_args(["series"])
    assert (series.series_N, series.series_digits) == (defaults.series_N,
                                                       defaults.series_digits)

    # one copy: a changed config default is the CLI's default too
    class Shifted(VerificationConfig):
        def __new__(cls, n_max_sturm=7, series_digits=50, **others):
            return super().__new__(cls, n_max_sturm=n_max_sturm, series_digits=series_digits,
                                   **others)

    monkeypatch.setattr(cli, "VerificationConfig", Shifted)
    assert cli.build_parser().parse_args(["verify-paper"]).n_max_sturm == 7
    assert cli.build_parser().parse_args(["series"]).series_digits == 50


def test_verify_paper_failure_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "verify-paper",
        "--n-max-direct", "4", "--n-max-factorization", "4", "--n-max-sturm", "4",
        "--n-max-monotonicity", "4", "--n-max-root-ratio", "4",
        "--series-N", "1", "--jobs", "1", "--format", "csv",
    )
    assert code == EXIT_VERIFICATION_FAILURE
    assert "series: FAIL" in err


def test_verify_paper_text_format(capsys):
    code, _, err = run_cli(
        capsys, "verify-paper",
        "--n-max-direct", "4", "--n-max-factorization", "4", "--n-max-sturm", "4",
        "--n-max-monotonicity", "4", "--n-max-root-ratio", "4",
        "--series-N", "100", "--jobs", "1", "--format", "text",
    )
    assert code == EXIT_OK
    assert "overall: pass" in err


def test_out_path_io_error(tmp_path, capsys):
    target = str(tmp_path / "missing-dir" / "out.csv")
    code, _, err = run_cli(capsys, "families", "--family", "D", "--n-max", "1",
                           "--out", target)
    assert code == EXIT_IO
    assert "error:" in err


def test_exit_codes_are_distinct():
    assert len({EXIT_OK, EXIT_VERIFICATION_FAILURE, EXIT_USAGE, EXIT_IO}) == 4


SRC = os.path.dirname(os.path.dirname(cli.__file__))
# loaded only by the runs that use them: a pool, the csv format, nothing else
NOT_AT_IMPORT = {"multiprocessing", "dataclasses", "inspect", "datetime", "csv"}


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a new interpreter that ignores PYTHON* variables and the
    user site, with the package's sources first on its path."""
    return subprocess.run([sys.executable, "-E", "-s", "-c",
                           f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
                          capture_output=True, text=True, timeout=120)


def test_import_loads_only_what_a_run_executes():
    # a module the interpreter's own start-up loaded is not the package's cost
    result = _fresh_python("before = set(sys.modules)\n"
                           "import qlogconvex, qlogconvex.cli\n"
                           "print(*set(sys.modules) - before)")
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "qlogconvex.cli" in loaded
    assert loaded & NOT_AT_IMPORT == set()


def test_pooled_run_from_a_cold_start(tmp_path):
    out_path = tmp_path / "certificate.json"
    argv = ["verify-paper", "--n-max-direct", "4", "--n-max-factorization", "4",
            "--n-max-sturm", "4", "--n-max-monotonicity", "4", "--n-max-root-ratio", "4",
            "--jobs", "2", "--out", str(out_path)]
    result = _fresh_python("from qlogconvex.cli import main\n"
                           f"code = main({argv!r})\n"
                           "print('multiprocessing' in sys.modules)\n"
                           "sys.exit(code)")
    assert result.returncode == EXIT_OK, result.stderr
    assert result.stdout.splitlines()[-1] == "True"
    assert json.loads(out_path.read_text())["verdict"] == "pass"


def test_pooled_workers_are_forked_under_a_spawn_default():
    # spawned workers would import the package afresh, without the tampered
    # psi1 below, and a pooled run would pass where the serial run fails
    script = """
import multiprocessing
multiprocessing.set_start_method("spawn")
from qlogconvex import proofpolys
from qlogconvex.polynomials import Poly
from qlogconvex.verification import VerificationConfig, run_full_verification
original = proofpolys.psi1_poly

def tampered(n, t):
    poly = original(n, t)
    return Poly((poly.coeffs[0] + 1,) + poly.coeffs[1:]) if (n, t) == (7, 3) else poly

proofpolys.psi1_poly = tampered
bounds = dict(n_max_direct=4, n_max_factorization=8, n_max_sturm=8,
              n_max_monotonicity=4, n_max_root_ratio=4)
failing = [[c.claim for c in run_full_verification(
    VerificationConfig(**bounds, parallelism=jobs)).claims if not c.passed] for jobs in (1, 2)]
print(failing[0] == failing[1], *failing[0])
"""
    result = _fresh_python(script)
    assert result.returncode == 0, result.stderr
    same, *failing = result.stdout.split()
    assert same == "True" and failing
