"""Every library module uses each name it imports, every private name
the library defines is read somewhere in it, and every public function,
class and method is read by a module other than ``__init__`` or kept on
a list that says why.

No linter ships with the test dependencies, so this reads the modules
with ``ast``.  ``__init__.py`` re-exports names it does not use, and
``from __future__`` imports bind nothing, so both are exempt.
"""

import ast
import importlib
import types
from collections import Counter
from pathlib import Path

import signedbn

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "signedbn"
BENCH = PACKAGE.parent.parent / "bench"


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


def _loads(tree: ast.AST) -> Counter:
    """How often ``tree`` loads each name, as a name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def _definitions(trees: dict[str, ast.Module]):
    """(label, name, node) of each module-level name and each method that
    the modules of ``trees`` define, labelled ``module.name`` or
    ``module.Class.name``, in definition order."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            yield f"{module}.{name.id}", name.id, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names and private methods that the modules
    of ``sources`` (module name to text) define and none of them reads,
    as ``module.name`` or ``module.Class.name``, in definition order.

    Private means a leading underscore, dunders excepted.  A name counts
    as read when it is loaded as a name or as an attribute; importing it
    alone does not count, and the import check catches such an import.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = sum((_loads(tree) for tree in trees.values()), Counter())
    return [label for label, name, _ in _definitions(trees) if _is_private(name) and not read[name]]


def _public_reads(tree: ast.AST, modules) -> tuple[Counter, Counter]:
    """How often ``tree`` reads each name as a module-level name, by a name
    load or by a load of ``module.name`` for a module in ``modules``, and
    as a method, by any attribute load."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes[node.attr] += 1
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                names[node.attr] += 1
    return names, attributes


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """The public module-level functions and classes, and public methods,
    that the modules of ``sources`` define and none of them reads outside
    the definition itself, labelled as ``unread_private_names`` labels
    them, in definition order.

    Public means no leading underscore.  A module-level name is read by a
    name load or by a load of ``module.name``, where ``module`` is one of
    ``sources``; a method only by an attribute load.  So a local variable
    or argument does not read the method it shares a name with, and an
    attribute such as a dataclass field does not read the function.  A
    method that shares its spelling with an attribute read anywhere, such
    as ``list.reverse``, still counts as read.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = [_public_reads(tree, trees) for tree in trees.values()]
    names = sum((r[0] for r in reads), Counter())
    attributes = sum((r[1] for r in reads), Counter())
    unread = []
    for label, name, node in _definitions(trees):
        if name.startswith("_") or isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        method = label.count(".") == 2
        read = attributes if method else names
        if read[name] == _public_reads(node, trees)[method][name]:
            unread.append(label)
    return unread


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


def modules_naming(names: set[str], exempt: tuple[str, ...]) -> set[str]:
    """The library modules, those named in ``exempt`` aside, that name one
    of ``names``: in an import, as a name or as an attribute."""
    readers = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem in exempt:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                named = node.name
            elif isinstance(node, ast.Name):
                named = node.id
            else:
                named = getattr(node, "attr", None)
            if named in names:
                readers.add(path.stem)
    return readers


def test_only_structure_reads_the_fixed_point_bound():
    # ``structure`` composes the bound from tau~+ and g~+ for every caller;
    # ``codes`` defines it and ``__init__`` re-exports it.
    assert modules_naming({"fixed_point_bound"}, ("__init__", "codes", "structure")) == set()


def test_only_graphs_names_the_vertex_set_components():
    # The library reads strong components as the position masks that
    # ``graphs._components`` caches; ``graphs.scc`` builds the vertex-set
    # ``ComponentDecomposition`` for outside callers, and ``__init__``
    # re-exports both.
    assert modules_naming({"scc", "ComponentDecomposition"}, ("__init__", "graphs")) == set()


def test_kernels_names_the_module():
    import signedbn.kernels as kernels_module

    assert isinstance(kernels_module, types.ModuleType)
    assert kernels_module.kernels(kernels_module.Digraph(1)) == [frozenset({1})]


def test_checker_flags_an_unread_public_name():
    sources = {
        "a": (
            "LIMIT = 3\n"
            "def helper():\n"
            "    return LIMIT\n"
            "def recurse(n):\n"
            "    return recurse(n - 1) if n else 0\n"
            "class Index:\n"
            "    def build(self):\n"
            "        return Index()\n"
            "    def stale(self):\n"
            "        pass\n"
            "    def _private(self):\n"
            "        pass\n"
        ),
        "b": (
            "from .a import helper, Index\n"
            "def run():\n"
            "    return helper(), Index().build()\n"
        ),
    }
    assert unread_public_names(sources) == ["a.recurse", "a.Index.stale", "b.run"]


def test_checker_takes_no_local_or_field_for_a_public_name():
    sources = {
        "a": (
            "def tau(x):\n"
            "    return x\n"
            "def size(x):\n"
            "    return x\n"
            "class Table:\n"
            "    def table(self):\n"
            "        pass\n"
            "    def rows(self):\n"
            "        pass\n"
        ),
        "b": (
            "from . import a\n"
            "def run(report, table):\n"
            "    total = table + report.tau\n"
            "    return a.size(total), a.Table().rows(), a.Table\n"
        ),
    }
    assert unread_public_names(sources) == ["a.tau", "a.Table.table", "b.run"]


# Public names that no library module but ``__init__`` reads, and why each
# stays.  The bench tracer (``bench/spans.py``) patches several by name.
KEPT_PUBLIC_NAMES = {
    "boolnet.BooleanNetwork.pin": "ROADMAP item 10 shrinks counterexamples with it",
    "boolnet.count_consistent": "bench/test_bench.py reads it",
    "boolnet.sample_consistent": "the bench tracer patches it; README's tour calls it",
    "boolnet.max_fixed_points": "bench/workloads.py reads it; README's tour calls it",
    "codes.exact_max_code": "the bench tracer patches it; README documents it",
    "graphs.SignedDigraph.induced": "the bench tracer patches it",
    "graphs.SignedDigraph.remove_incoming": "the bench tracer patches it",
    "graphs.SignedDigraph.delete": "the bench tracer patches it",
    "graphs.SignedDigraph.consistent_subgraph": "README documents it, a definition of the paper",
    "graphs.reachable": "the bench tracer patches it",
    "graphs.scc": "the bench tracer patches it; conftest's negative-cycle oracle reads it",
    "structure.is_special_arc": "the bench tracer patches it",
    "structure.tau_plus": "the bench tracer patches it; README documents it",
    "structure.tau_tilde_plus": "the bench tracer patches it; README documents it",
    "structure.find_unbalanced_cycle": "README documents it, a definition of the paper",
}


def test_library_reads_every_public_name_it_defines():
    sources = {
        p.stem: p.read_text(encoding="utf-8")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    }
    assert sorted(unread_public_names(sources)) == sorted(KEPT_PUBLIC_NAMES)


def test_the_bench_tracer_finds_and_restores_every_name_it_patches(monkeypatch):
    # The tracer patches library names by their spelling, so deleting or
    # renaming one of them breaks ``install``.  It is read from ``bench/``
    # as the benchmark reads it; nothing there is edited.
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    assert any(owner is signedbn.graphs and attr == "reachable" for owner, attr, _ in patched)
    restored = [vars(owner)[attr] is original for owner, attr, original in patched]
    assert all(restored), [patch[:2] for patch, ok in zip(patched, restored) if not ok]
