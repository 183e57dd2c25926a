import pytest

from qlogconvex.families import DOMB_ARRAY, NARAYANA_ARRAY


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
