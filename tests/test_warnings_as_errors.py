"""The test suite runs with `pytest -W error`: a failing property must fail
its own test and leave the session running, whatever its failure report
imports."""

import os
import pathlib
import subprocess
import sys

import qlogconvex

TESTS = pathlib.Path(__file__).parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_a_failing_property(x):
    assert x < 5


def test_a_passing_test_after_it():
    pass
'''


def test_a_failing_property_under_warnings_as_errors_fails_alone(tmp_path):
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "conftest.py").write_text((TESTS / "conftest.py").read_text())
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    src = str(pathlib.Path(qlogconvex.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-W", "error", "-q", "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout
