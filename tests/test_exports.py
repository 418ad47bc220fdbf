"""Every name the package exports has a reader outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coagdrift"


def _names_read(paths):
    """Every ``Name`` and ``Attribute`` name in the code of ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_no_export_is_read_only_by_the_tests():
    # a name imported into the package namespace is read by the package's
    # own modules or by the benchmark; the tests do not count
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    code = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    code += sorted((ROOT / "perfbench").glob("*.py"))
    assert exported and sorted(exported - _names_read(code)) == []
