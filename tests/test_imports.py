"""Module boundaries: no module of the package imports another's private names."""

from __future__ import annotations

import ast
from pathlib import Path

import emaxbr

PACKAGE = Path(emaxbr.__file__).parent


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("emaxbr")):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []
