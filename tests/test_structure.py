"""The package's module structure, read from its source with ast: every
import sits at module level, where a reader sees what a module depends
on, and the run-time imports among the package's modules form no cycle,
so each module can be imported and read before the ones that use it.
Imports under `if TYPE_CHECKING:` are for annotations only and do not
count."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shockwave_lab"
MODULES = {p.stem: ast.parse(p.read_text(), str(p))
           for p in sorted(PACKAGE.glob("*.py"))}


def _type_checking_only(node):
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING")


def _runtime_nodes(tree):
    """The nodes of tree outside `if TYPE_CHECKING:` blocks."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if _type_checking_only(node):
            todo.extend(node.orelse)
        else:
            todo.extend(ast.iter_child_nodes(node))


def _imported_modules(node):
    """The package modules an import statement loads."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        if node.module is None:  # from . import name
            return {a.name for a in node.names if a.name in MODULES}
        return {node.module.split(".")[0]}
    if isinstance(node, ast.ImportFrom) and node.module:
        parts = node.module.split(".")
        if parts[0] == "shockwave_lab":
            if len(parts) > 1:
                return {parts[1]}
            return {a.name for a in node.names if a.name in MODULES}
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names
                if a.name.startswith("shockwave_lab.")}
    return set()


def _import_graph():
    return {name: {m for node in _runtime_nodes(tree)
                   for m in _imported_modules(node) if m != name}
            for name, tree in MODULES.items()}


def _cycles(graph):
    """Each cycle of graph as the path that closes it."""
    found, done = [], set()

    def visit(name, path):
        if name in path:
            found.append(path[path.index(name):] + [name])
            return
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, path + [name])
        done.add(name)

    for name in sorted(graph):
        visit(name, [])
    return found


def test_no_import_inside_a_function():
    nested = [f"{name}.py:{inner.lineno}"
              for name, tree in MODULES.items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for inner in ast.walk(node)
              if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside function bodies: {nested}"


def test_no_cycle_among_runtime_imports():
    cycles = [" -> ".join(c) for c in _cycles(_import_graph())]
    assert not cycles, f"run-time import cycles: {cycles}"


def test_guard_sees_a_cycle_and_skips_type_checking_blocks():
    """The guard itself: a cycle is found, and an edge that exists only
    under `if TYPE_CHECKING:` is not one."""
    assert _cycles({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == [
        ["a", "b", "c", "a"]]
    tree = ast.parse("from typing import TYPE_CHECKING\n"
                     "from .kernels import gradient\n"
                     "if TYPE_CHECKING:\n"
                     "    from .solver import Grid1D\n")
    assert {m for node in _runtime_nodes(tree)
            for m in _imported_modules(node)} == {"kernels"}
