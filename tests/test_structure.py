"""The package's module structure, read from its source with ast: every
import sits at module level, where a reader sees what a module depends
on, and the run-time imports among the package's modules form no cycle,
so each module can be imported and read before the ones that use it.
Imports under `if TYPE_CHECKING:` are for annotations only and do not
count.  A module-level name is assigned in one module only: a constant
that two modules need is defined once and imported.  Every function,
class and method of the package has a caller in the package or in the
benchmark (perfbench/): code that only tests call belongs beside the
tests, in tests/oracles.py."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shockwave_lab"
MODULES = {p.stem: ast.parse(p.read_text(), str(p))
           for p in sorted(PACKAGE.glob("*.py"))}
BENCHMARK = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))}


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


def _module_assignments(tree):
    """The names that the module-level statements of tree assign, dunder
    names excluded."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names |= {n.id for t in targets for n in ast.walk(t)
                  if isinstance(n, ast.Name) and not n.id.startswith("__")}
    return names


def _definitions(modules):
    """(label, name) of each module-level function and class of modules,
    and of each method of those classes that is not a dunder."""
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                yield from ((f"{module}.{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef))
                            and not item.name.startswith("__"))


def _referenced_names(tree, strings):
    """The names that tree reads as a name or an attribute, and with
    strings, the string constants that are identifiers, as the benchmark's
    (owner, "name", span) patch rows name what they wrap."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            names.add(node.value)
    return names


def _uncalled(package, benchmark):
    """The labels of the definitions of package whose name neither
    package nor benchmark references.  It matches by name, so a name
    clash can hide a definition that nothing calls, never flag a called
    one."""
    called = set().union(
        *(_referenced_names(tree, strings=False) for tree in package.values()),
        *(_referenced_names(tree, strings=True) for tree in benchmark.values()))
    return [label for label, name in _definitions(package)
            if name not in called]


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


def test_each_module_constant_assigned_once():
    owners = {}
    for name, tree in MODULES.items():
        for assigned in _module_assignments(tree):
            owners.setdefault(assigned, []).append(name)
    twice = {k: v for k, v in owners.items() if len(v) > 1}
    assert not twice, f"module-level names assigned in two modules: {twice}"


def test_each_package_definition_has_a_caller():
    uncalled = _uncalled(MODULES, BENCHMARK)
    assert not uncalled, (f"package definitions that nothing in src/ or "
                          f"perfbench/ calls: {uncalled}")


def test_caller_guard_sees_an_uncalled_function_and_a_patch_row():
    """The guard itself: a function that nothing calls is found, a method
    read as an attribute is called, and a benchmark string row
    (owner, "name", span) calls what it names."""
    package = {"mod": ast.parse("class Box:\n"
                                "    def __init__(self):\n"
                                "        self.size()\n"
                                "    def size(self):\n"
                                "        return helper()\n"
                                "def helper():\n"
                                "    return Box\n"
                                "def dead():\n"
                                "    return 2\n"
                                "def patched():\n"
                                "    return 3\n")}
    rows = ast.parse("import mod\n"
                     "PATCHES = ((mod, 'patched', 'mod.patched'),)\n")
    assert _uncalled(package, {}) == ["mod.dead", "mod.patched"]
    assert _uncalled(package, {"spans": rows}) == ["mod.dead"]


def test_cli_import_loads_no_heavy_scipy_module():
    """Importing the CLI loads none of scipy.interpolate, scipy.special
    and scipy.optimize, which add ~0.25 s and ~23 MB to its import; of
    scipy, the package needs only scipy.linalg."""
    heavy = ("scipy.interpolate", "scipy.special", "scipy.optimize")
    code = ("import sys, shockwave_lab.cli; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert out.stdout.split() == []
