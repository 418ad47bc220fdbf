"""Every name the package exports, every field of its solver records and
every attribute that its errors set has a reader outside the tests."""

import ast
import dataclasses
from pathlib import Path

import pytest

from coagdrift.profiles import Certification, TailFit, _Level
from coagdrift.tau_iteration import InnerSolveResult

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coagdrift"


def _loads(paths):
    """The ``Name`` and the ``Attribute`` names that the code of ``paths``
    loads; a field's declaration or an assignment is no read."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def _self_assigned(path):
    """Per class of ``path``, the attributes its methods assign as
    ``self.<name> = ...``."""
    fields = {}
    for cls in ast.parse(path.read_text(), str(path)).body:
        if isinstance(cls, ast.ClassDef):
            names = {node.attr for node in ast.walk(cls)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                     and isinstance(node.value, ast.Name) and node.value.id == "self"}
            if names:
                fields[cls.name] = names
    return fields


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
    names, attributes = _loads(_readers())
    assert exported and sorted(exported - names - attributes) == []


@pytest.mark.parametrize("record", [InnerSolveResult, TailFit, Certification, _Level])
def test_no_record_field_is_read_only_by_the_tests(record):
    # a field that no package or benchmark code reads is test-only API; it
    # is read through its owner, ``x.field``, and a bare name of the same
    # spelling (a parameter, say) is no read
    fields = {field.name for field in dataclasses.fields(record)}
    assert fields and sorted(fields - _loads(_readers())[1]) == []


@pytest.mark.parametrize("error", sorted(_self_assigned(PACKAGE / "errors.py")))
def test_no_error_attribute_is_read_only_by_the_tests(error):
    # an attribute that an error sets on itself is read through the error
    # by package or benchmark code, or it is test-only API
    fields = _self_assigned(PACKAGE / "errors.py")[error]
    assert sorted(fields - _loads(_readers())[1]) == []
