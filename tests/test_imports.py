"""Every library module uses each name it imports, and every private
name the library defines is read somewhere in it.

No linter ships with the test dependencies, so this reads the modules
with ``ast``.  ``__init__.py`` re-exports names it does not use, and
``from __future__`` imports bind nothing, so both are exempt.
"""

import ast
import types
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names and private methods that the modules
    of ``sources`` (module name to text) define and none of them reads,
    as ``module.name`` or ``module.Class.name``, in definition order.

    Private means a leading underscore, dunders excepted.  A name counts
    as read when it is loaded as a name or as an attribute; importing it
    alone does not count, and the import check catches such an import.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [
                    (f"{module}.{name.id}", name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
    return [label for label, name in defined if _is_private(name) and name not in read]


def test_checker_flags_an_unread_private_name():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_UNUSED, used = 1, 2\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "class _Index:\n"
            "    def __init__(self):\n"
            "        self._cache = None\n"
            "    def _build(self):\n"
            "        return self._cache\n"
            "    def _stale(self):\n"
            "        pass\n"
        ),
        "b": (
            "from .a import _helper, _Index, _stale\n"
            "def run():\n"
            "    return _helper(), _Index()._build()\n"
        ),
    }
    assert unread_private_names(sources) == ["a._UNUSED", "a._Index._stale"]


def test_library_reads_every_private_name_it_defines():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert sources
    assert unread_private_names(sources) == []


def test_only_structure_reads_the_fixed_point_bound():
    # ``structure`` composes the bound from tau~+ and g~+ for every caller;
    # ``codes`` defines it and ``__init__`` re-exports it.
    readers = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem in ("__init__", "codes", "structure"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                named = node.name
            elif isinstance(node, ast.Name):
                named = node.id
            else:
                named = getattr(node, "attr", None)
            if named == "fixed_point_bound":
                readers.add(path.stem)
    assert readers == set()


def test_kernels_names_the_module():
    import signedbn.kernels as kernels_module

    assert isinstance(kernels_module, types.ModuleType)
    assert kernels_module.kernels(kernels_module.Digraph(1)) == [frozenset({1})]
