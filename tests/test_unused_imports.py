"""No module imports a name it never uses.

A stdlib stand-in for a linter's unused-import rule, over the package's
modules (not ``__init__.py``, whose imports are its exports), the tests and
the scripts.  A name counts as used when it is read anywhere in the module,
an annotation or the base of an attribute included.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(
    os.path.relpath(path, ROOT)
    for pattern in ("src/posedit/*.py", "tests/*.py", "scripts/*.py")
    for path in glob.glob(os.path.join(ROOT, pattern))
    if os.path.basename(path) != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    with open(os.path.join(ROOT, module), "r", encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_the_guard_sees_every_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy.linalg\n"
        "from json import dumps, loads as load\n"
        "def f(x: dumps) -> None:\n"
        "    return numpy.pi\n"
    )
    assert unused_imports(source) == ["os", "osp", "load"]
