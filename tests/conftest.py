import warnings

import pytest

from qlogconvex.families import DOMB_ARRAY, NARAYANA_ARRAY

# Hypothesis's pytest plugin imports its patch writer, and through it libcst,
# only when it reports a failing example.  libcst still declares a
# mypy_extensions TypedDict, whose DeprecationWarning becomes an error under
# `pytest -W error` inside the plugin's report hook and ends the session with
# INTERNALERROR before the remaining tests run.  Import it here with that one
# warning ignored; every other warning, those of qlogconvex included, stays an
# error.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message=r"mypy_extensions\.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips the patch and so the import
        pass


@pytest.fixture(autouse=True)
def _restore_array_memos():
    """Give every test the array memos as they were before it: a test that
    tampers with ``families._family_row`` or ``TriangularArray._row`` would
    otherwise leave up to three tampered rows in a memo's window for the
    later tests in the process to read."""
    saved = [(array, array._memo, dict(array._memo)) for array in (DOMB_ARRAY, NARAYANA_ARRAY)]
    yield
    for array, memo, rows in saved:
        memo.clear()
        memo.update(rows)
        array._memo = memo
