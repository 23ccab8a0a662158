"""The package's imports, its public surface and its private code.

Every import is relative or from the standard library, and every public
module-level name, and every public method, classmethod and property of a
package class, has a caller in the package or a stated reason to stay.
Every private module-level function, class and constant is read by the
package's own code, and every code name a docstring or comment quotes in
backticks still names something in it.
"""

from __future__ import annotations

import ast
import re
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


# Public names no package code calls, kept for the acceptance criterion that
# runs them or the file format they write.
UNCALLED_BUT_KEPT = {
    "union_rank": "acceptance criterion 4, the matroid union rank",
    "hall_threshold_check": "acceptance criterion 5, matching duality",
    "defect": "acceptance criterion 5, matching duality",
    "half_dof_structure_check": "acceptance criterion 8, the converse-structure property",
    "emit_ensemble": "writer of the ensemble file format, the inverse of its loader",
    "emit_topology": "writer of the topology file format, the inverse of its loader",
}


def test_every_public_name_has_a_caller():
    # A public module-level function or class is used by the package's code
    # (a name, an attribute or an import; docstrings do not count), exported
    # in __all__, or kept in UNCALLED_BUT_KEPT: none serves only tests.
    defined: set[str] = set()
    used: set[str] = set()
    for path in sorted(Path(rankloss.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined.add(own)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:  # a recursive call is not a caller
                    used.add(name)
    assert set(UNCALLED_BUT_KEPT) <= defined
    assert sorted(defined - used - set(rankloss.__all__) - set(UNCALLED_BUT_KEPT)) == []


# Public methods and properties no package code reads, as Class.name.
UNREAD_BUT_KEPT = {
    "C1Verdict.certain": "acceptance criterion 10 checks that no certain C1 verdict contradicts C2",
    "StructureReport.violations": "acceptance criterion 8 reads the failing checks",
}


def _is_property(item: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id in ("property", "cached_property") for d in item.decorator_list)


def test_every_public_method_has_a_caller():
    # A public property of a package class is read as an attribute somewhere
    # in the package's code; a public method or classmethod is called there
    # (a field or property of the same name does not count); either may be
    # kept in UNREAD_BUT_KEPT instead.
    properties: set[str] = set()
    methods: set[str] = set()
    read: set[str] = set()
    called: set[str] = set()
    for path in sorted(Path(rankloss.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        (properties if _is_property(item) else methods).add(f"{stmt.name}.{item.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    assert set(UNREAD_BUT_KEPT) <= properties | methods
    unread = {name for name in properties if name.split(".")[1] not in read}
    unread |= {name for name in methods if name.split(".")[1] not in called}
    assert sorted(unread - set(UNREAD_BUT_KEPT)) == []


def test_every_private_name_is_read():
    # A private module-level function, class or constant is read somewhere
    # in the package's code (a loaded name, an attribute or an import; its
    # own definition and docstrings do not count): tests alone keep none.
    defined: set[str] = set()
    read: set[str] = set()
    for path in sorted(Path(rankloss.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own: set[str] = set()
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
            defined |= {name for name in own if name.startswith("_") and not name.startswith("__")}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name not in own:  # a recursive call is not a reader
                    read.add(name)
    assert defined
    assert sorted(defined - read) == []


# A backticked token part that reads as code: a leading underscore, snake_case
# with an underscore, or CamelCase.  A span of one word is read as code whatever
# its case.
CODE_LIKE = re.compile(r"_\w+|[a-z][a-z0-9]*(?:_[a-z0-9]+)+|(?:[A-Z][a-z0-9]+){2,}")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are module, class or function docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def test_backticked_code_names_exist():
    # A code-like part of a backticked span in the package's source names
    # something the package defines, reads, or writes as a string literal
    # (a report or file key), or is one of its modules; so a docstring
    # cannot keep citing a deleted function, method or key.
    paths = sorted(Path(rankloss.__file__).parent.glob("*.py"))
    known = {path.stem for path in paths}
    quoted: list[tuple[str, str]] = []
    for path in paths:
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                known.add(node.name)
            elif isinstance(node, ast.Name):
                known.add(node.id)
            elif isinstance(node, ast.Attribute):
                known.add(node.attr)
            elif isinstance(node, ast.alias):
                known.add(node.name)
            elif isinstance(node, ast.arg):
                known.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                known.add(node.value)
        for span in re.findall(r"`([^`\n]+)`", text):
            parts = re.findall(r"\w+", span)
            quoted += [(path.name, part) for part in parts if len(parts) == 1 or CODE_LIKE.fullmatch(part)]
    assert quoted
    assert sorted({(name, part) for name, part in quoted if part not in known}) == []
