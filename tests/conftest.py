import pytest

from qlogconvex.families import DOMB_ARRAY, NARAYANA_ARRAY


@pytest.fixture(autouse=True)
def _restore_array_memos():
    """Give every test the array memos as they were before it: a test that
    tampers with ``families._family_row`` while a memo is cold would
    otherwise leave its rows there for every later test in the process."""
    saved = [(array, array._memo, dict(array._memo)) for array in (DOMB_ARRAY, NARAYANA_ARRAY)]
    yield
    for array, memo, rows in saved:
        memo.clear()
        memo.update(rows)
        array._memo = memo
