"""The package's structure, read from its source with ``ast``: every import
sits at module level, the module-level imports among the package's modules
form no cycle, only the oracle's constructor and its one hook touch the
interaction counters and the tap, only the harness's trial runner reads
the counters outside the oracle, and no oracle method submits through
``query``."""

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
# the counters' public names, and the one function outside oracle.py that
# reads them: what a trial spent has one ledger, the oracle's
_COUNTS = {"query_count", "session_count"}
_LEDGER_READER = ("harness", "run_trial")


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


def _attribute_sites(tree: ast.AST, match, scope: tuple[str, ...] = ()) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function or class, line) of every
    attribute node that ``match`` accepts."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope + (node.name,) if isinstance(node, _BODIES) else scope
        if isinstance(node, ast.Attribute) and match(node):
            found.append((".".join(scope), node.lineno))
        found += _attribute_sites(node, match, inner)
    return found


def _accounting_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """The sites of every assignment to an interaction counter or the tap
    attribute, and of every other use of the tap, which covers a call
    through a local name."""
    return _attribute_sites(
        tree, lambda node: node.attr == _TAP or (node.attr in _COUNTERS and not isinstance(node.ctx, ast.Load))
    )


def _count_reads(tree: ast.AST) -> list[tuple[str, int]]:
    """The sites of every use of ``query_count`` or ``session_count``."""
    return _attribute_sites(tree, lambda node: node.attr in _COUNTS)


def _self_uses(tree: ast.AST, attr: str) -> list[tuple[str, int]]:
    """The sites of every use of ``self.<attr>``, a call or not, which
    covers a call through a local name."""
    return _attribute_sites(
        tree, lambda node: node.attr == attr and isinstance(node.value, ast.Name) and node.value.id == "self"
    )


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
    source = (
        "def attack(oracle):\n"
        "    q0 = oracle.query_count\n"
        "    return oracle.session_count - q0\n"
        "class Trial:\n"
        "    def run(self, o):\n"
        "        spent = o.query_count\n"
    )
    assert _count_reads(ast.parse(source)) == [("attack", 2), ("attack", 3), ("Trial.run", 6)]
    source = (
        "class Oracle:\n"
        "    def query(self, y):\n"
        "        return self._respond(y)\n"
        "    def climb(self, y):\n"
        "        ask = self.query\n"
        "        return ask(y), self.query(y), other.query(y)\n"
    )
    assert _self_uses(ast.parse(source), "query") == [("Oracle.climb", 5), ("Oracle.climb", 6)]


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_at_module_level(name):
    assert _nested_imports(_tree(name)) == [], f"{name}.py imports inside a function or class body"


def test_no_import_cycle_within_the_package():
    graph = {name: _package_imports(_tree(name)) - {name} for name in MODULES}
    assert graph["harness"] >= {"attacks", "bounds", "oracle", "space"}  # the parse sees the imports
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


def test_only_the_trial_runner_reads_the_counters():
    # an attack returns what it found; what it spent is read off the
    # oracle once, where run_trial writes the record
    module, function = _LEDGER_READER
    reads = {name: _count_reads(_tree(name)) for name in MODULES if name != "oracle"}
    assert {where for where, _ in reads[module]} == {function}  # the parse sees the reader
    stray = [
        f"{name}.py:{line} in {where or 'module level'}"
        for name, sites in reads.items()
        for where, line in sites
        if (name, where) != _LEDGER_READER
    ]
    assert stray == [], "oracle counters read outside harness.run_trial: " + ", ".join(stray)


def test_no_oracle_method_submits_through_query():
    # the bulk paths (scan, climb) answer through _respond and count in one
    # _charge; query carries only the attacks' one-at-a-time steps
    tree = _tree("oracle")
    assert {"Oracle.query", "Oracle._answers"} <= {where for where, _ in _self_uses(tree, "_respond")}
    stray = [f"oracle.py:{line} in {where}" for where, line in _self_uses(tree, "query") if where.startswith("Oracle.")]
    assert stray == [], "Oracle methods that submit through query: " + ", ".join(stray)
