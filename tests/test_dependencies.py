"""The package has no runtime dependencies: every import is relative or from the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import rankloss


def test_imports_are_relative_or_stdlib():
    outside = []
    modules = sorted(Path(rankloss.__file__).parent.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
