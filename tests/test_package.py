import ast
import pathlib
from collections import Counter
from fractions import Fraction

import pytest

import qlogconvex

PACKAGE = pathlib.Path(qlogconvex.__file__).parent


def _imported_names(tree):
    """The names a module's import statements bind, ``__future__`` aside."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__" for alias in node.names}


def _used_names(tree):
    """Every name a module reads, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


def _read_names(tree):
    """Every name a module reads: loaded names, attributes and the names in
    string annotations, but not the names it only assigns."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            read |= _used_names(ast.parse(annotation.value, mode="eval"))
    return read


def _private_definitions(tree):
    """The top-level names a module defines that start with one underscore."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name)}
    return {name for name in defined if name.startswith("_") and not name.startswith("__")}


def test_every_private_top_level_name_is_read_by_some_module():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    assert [f"{path}: {name}" for path, tree in trees.items()
            for name in sorted(_private_definitions(tree) - read)] == []


def test_all_lists_each_export_once_and_every_one_resolves():
    names = qlogconvex.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(qlogconvex, name), name


def test_init_exports_every_name_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert _imported_names(tree) == set(qlogconvex.__all__) - {"__version__"}


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_reads(path):
    tree = ast.parse((PACKAGE / path).read_text())
    assert _imported_names(tree) - _used_names(tree) == set()


def test_no_proof_sweep_hands_an_integral_fraction_to_the_exact_kernels(monkeypatch):
    """An integral point reaches Horner evaluation, the root counts and the
    interval signs as an int; only a true p/q is a Fraction."""
    from qlogconvex import verification
    from qlogconvex.polynomials import Poly

    calls, integral = Counter(), []

    def spy(name, function):
        def wrapper(*args):
            calls[name] += 1
            integral.extend((name, arg) for arg in args
                            if type(arg) is Fraction and arg.denominator == 1)
            return function(*args)
        return wrapper

    monkeypatch.setattr(Poly, "__call__", spy("Poly.__call__", Poly.__call__))
    for name in ("sturm_count_roots", "sign_constant_on"):
        monkeypatch.setattr(verification, name, spy(name, getattr(verification, name)))
    records = (verification.verify_prop31(40) + verification.verify_claims(40)
               + verification.verify_prop32(12) + verification.verify_prop33(12)
               + [verification.identity_grid_check(name) for name in verification.GRID_IDENTITIES])
    assert all(record.passed for record in records)
    assert set(calls) == {"Poly.__call__", "sturm_count_roots", "sign_constant_on"}
    assert integral == []


def _except_owners(tree):
    """The top-level function that holds each ``except`` clause of a module,
    None for a clause outside every top-level function."""
    return [node.name if isinstance(node, ast.FunctionDef) else None
            for node in tree.body for inner in ast.walk(node)
            if isinstance(inner, ast.ExceptHandler)]


def test_a_broken_identity_is_a_failure_line_never_an_exception():
    """The rows report every break as a failure line, so ``verification``
    catches exceptions only where a pooled or failed sweep becomes an error
    record, and ``proofpolys`` raises nothing but a range check's
    ``ValueError``."""
    verification = ast.parse((PACKAGE / "verification.py").read_text())
    assert set(_except_owners(verification)) == {
        "_run_chunk", "_run_batch", "_qlc_f_and_v", "run_full_verification"}
    proofpolys = ast.parse((PACKAGE / "proofpolys.py").read_text())
    raised = [node.exc for node in ast.walk(proofpolys) if isinstance(node, ast.Raise)]
    assert raised and all(isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                          and exc.func.id == "ValueError" for exc in raised)
