"""Module boundaries: no module of the package imports another's private names."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats roughly doubles the import time and memory of the package.
    code = (
        "import sys, emaxbr, emaxbr.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
