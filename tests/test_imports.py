"""Every library module uses each name it imports.

No linter ships with the test dependencies, so this reads the modules
with ``ast``.  ``__init__.py`` re-exports names it does not use, and
``from __future__`` imports bind nothing, so both are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "signedbn"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order.

    A name counts as read when it appears as a name anywhere, or inside a
    string annotation such as ``-> "SignedDigraph"``.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            read |= {
                node.id
                for node in ast.walk(ast.parse(annotation.value, mode="eval"))
                if isinstance(node, ast.Name)
            }
    return [name for name in imported if name not in read]


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from typing import Optional, Sequence\n"
        "from .graphs import Arc, scc\n"
        "def f(x: Optional[int]) -> 'Arc':\n"
        "    return regex.compile(x)\n"
    )
    assert unused_imports(source) == ["os", "Sequence", "scc"]


def test_library_modules_use_their_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: names
        for p in modules
        if (names := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}
