"""Every name the package exports, and every field of its solver records,
has a reader outside the tests."""

import ast
import dataclasses
from pathlib import Path

import pytest

from coagdrift.profiles import Certification, TailFit, _Level
from coagdrift.tau_iteration import InnerSolveResult

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coagdrift"


def _names_read(paths):
    """Every ``Name`` and ``Attribute`` name that the code of ``paths``
    loads; a field's declaration or an assignment is no read."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _readers():
    """The package's modules but ``__init__`` and the benchmark's code."""
    code = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    return code + sorted((ROOT / "perfbench").glob("*.py"))


def test_no_export_is_read_only_by_the_tests():
    # a name imported into the package namespace is read by the package's
    # own modules or by the benchmark; the tests do not count
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert exported and sorted(exported - _names_read(_readers())) == []


@pytest.mark.parametrize("record", [InnerSolveResult, TailFit, Certification, _Level])
def test_no_record_field_is_read_only_by_the_tests(record):
    # a field that no package or benchmark code reads is test-only API
    fields = {field.name for field in dataclasses.fields(record)}
    assert fields and sorted(fields - _names_read(_readers())) == []
