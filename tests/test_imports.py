"""Import hygiene: every name a ``repro`` module imports is used.

No linter ships with the project's toolchain, so this walks the source
with ``ast`` alone.  A module fails when it binds an imported name that
nothing in it references.  ``__init__.py`` files are skipped (their
imports are the package's re-exports), a name listed in a module's
``__all__`` counts as used, and so does a name inside a string
annotation (``def f(plane: "DataPlane")``).
"""

import ast
import os

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro")


def _annotations(tree):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            found = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found = node.returns
        elif isinstance(node, ast.AnnAssign):
            found = node.annotation
        else:
            continue
        if found is not None:
            yield found


def _names_in(expression):
    """Names read inside a string annotation (none if it is not an
    expression)."""
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source):
    """``(line, name)`` for every imported name ``source`` never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        for name in names:
            imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names_in(node.value)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_sees_unused_and_string_annotation_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Dict, List, Optional\n"
        "from x import Plane, Exported\n"
        "__all__ = ['Exported']\n"
        "def f(plane: 'Optional[Plane]') -> Dict:\n"
        "    return os.sep\n")
    assert unused_imports(source) == [(3, "osp"), (4, "List")]


def test_no_module_imports_a_name_it_never_uses():
    offenders = []
    for folder, __, files in os.walk(SRC_ROOT):
        for name in sorted(files):
            if not name.endswith(".py") or name == "__init__.py":
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            rel = os.path.relpath(path, os.path.dirname(SRC_ROOT))
            offenders += [f"{rel}:{line}: {imported}"
                          for line, imported in unused_imports(source)]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)
