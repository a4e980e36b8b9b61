"""The package's structure, read from its source with ``ast``: every import
sits at module level, the module-level imports among the package's modules
form no cycle, and only the oracle's constructor and its one hook touch the
interaction counters and the tap."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "matchleak"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
_BODIES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# the interaction counters and the tap, and the functions that may set them
_COUNTERS = {"_query_count", "_session_count"}
_TAP = "_tap"
_ACCOUNTING = {"Oracle.__init__", "Oracle._charge"}


def _tree(name: str) -> ast.Module:
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _nested_imports(tree: ast.AST) -> list[int]:
    """Line numbers of the imports inside a function or class body."""
    return sorted({
        node.lineno
        for body in ast.walk(tree)
        if isinstance(body, _BODIES)
        for node in ast.walk(body)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def _package_imports(tree: ast.AST, modules=MODULES) -> set[str]:
    """The package modules a module imports at module level, by name; the
    package itself is ``__init__``."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _BODIES):
            continue
        if isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("matchleak.")
            )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                base = node.module
            elif node.level == 0 and node.module and node.module.split(".")[0] == "matchleak":
                base = node.module.partition(".")[2] or None
            else:
                continue
            if base:
                found.add(base.split(".")[0])
            else:
                found.update(alias.name if alias.name in modules else "__init__" for alias in node.names)
        found |= _package_imports(node, modules)
    return found


def _accounting_sites(tree: ast.AST, scope: tuple[str, ...] = ()) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function or class, line) of every
    assignment to an interaction counter or the tap attribute, and of every
    other use of the tap, which covers a call through a local name."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope + (node.name,) if isinstance(node, _BODIES) else scope
        if isinstance(node, ast.Attribute) and (
            node.attr == _TAP or (node.attr in _COUNTERS and not isinstance(node.ctx, ast.Load))
        ):
            found.append((".".join(scope), node.lineno))
        found += _accounting_sites(node, inner)
    return found


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the graph as a path that ends where it starts, or None."""
    state: dict[str, str] = {}
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = "open"
        path.append(node)
        for succ in sorted(graph.get(node, ())):
            if state.get(succ) == "open":
                return path[path.index(succ):] + [succ]
            if succ not in state and (found := visit(succ)):
                return found
        state[node] = "done"
        path.pop()
        return None

    for node in sorted(graph):
        if node not in state and (found := visit(node)):
            return found
    return None


def test_the_checks_find_what_they_look_for():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from . import a, helper\n"
        "import matchleak.b\n"
        "if True:\n"
        "    from .c.d import e\n"
        "def f():\n"
        "    from .g import h\n"
        "class K:\n"
        "    import matchleak.i\n"
    )
    tree = ast.parse(source)
    assert _nested_imports(tree) == [8, 10]
    assert _package_imports(tree, modules=["a", "b", "c", "g", "i"]) == {"a", "__init__", "b", "c"}
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
    source = (
        "class Oracle:\n"
        "    def __init__(self, tap):\n"
        "        self._tap = tap\n"
        "    def query_count(self):\n"
        "        return self._query_count\n"
        "    def scan(self):\n"
        "        self._query_count += 1\n"
        "        tap = self._tap\n"
        "        tap(None, None)\n"
        "def reset(oracle):\n"
        "    oracle._session_count = oracle._query_count = 0\n"
    )
    assert _accounting_sites(ast.parse(source)) == [
        ("Oracle.__init__", 3), ("Oracle.scan", 7), ("Oracle.scan", 8), ("reset", 11), ("reset", 11),
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_at_module_level(name):
    assert _nested_imports(_tree(name)) == [], f"{name}.py imports inside a function or class body"


def test_no_import_cycle_within_the_package():
    graph = {name: _package_imports(_tree(name)) - {name} for name in MODULES}
    assert graph["__init__"] >= {"attacks", "bounds", "oracle", "space"}  # the parse sees the imports
    cycle = _cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_only_the_hook_counts_and_taps():
    # the next fast path cannot count around Oracle._charge or call the tap
    # past it
    sites = {name: _accounting_sites(_tree(name)) for name in MODULES}
    assert {where for where, _ in sites["oracle"]} == _ACCOUNTING  # the parse sees the hook
    stray = [
        f"{name}.py:{line} in {where}"
        for name in MODULES
        for where, line in sites[name]
        if not (name == "oracle" and where in _ACCOUNTING)
    ]
    assert stray == [], "counters or tap touched outside Oracle.__init__ and Oracle._charge: " + ", ".join(stray)
