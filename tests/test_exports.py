"""Every name a module exports in ``__all__`` exists, so a stale export left
by a deletion fails here and not at ``from carleman.<module> import *``; and
every function, class and method of the package is reached by a command or
by the benchmark, so code that only tests call fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import carleman

MODULES = ["carleman"] + [f"carleman.{m.name}" for m in pkgutil.iter_modules(carleman.__path__)]

SRC = Path(carleman.__file__).parent
BENCH = SRC.parents[1] / "bench"

# called by argparse itself, never by name from the package
CALLED_BY_LIBRARY = {"cli._Parser.error"}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def _definitions(tree):
    """(qualified name, node) of each module-level function and class and of
    each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _bench_roots(defs, methods):
    """The names ``bench/*.py`` imports from the package, the attributes it
    reads of imported modules, and the methods it calls on what they return."""
    roots = set()
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            package, _, sub = (getattr(node, "module", None) or "").partition(".")
            if isinstance(node, ast.ImportFrom) and package == "carleman":
                for alias in node.names:
                    if sub:
                        roots.add(f"{sub}.{alias.name}")
                    else:
                        modules[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                base = node.value
                owner = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                if owner in modules:
                    roots.add(f"{modules[owner]}.{node.attr}")
                roots.update(methods.get(node.attr, ()))
    return roots & set(defs)


def _unreached():
    """Definitions of the package that no chain of references reaches from
    ``cli.main`` and the benchmark's roots.

    A name resolves through the module's own definitions and its relative
    imports; ``module.name`` through an imported package module; any other
    ``obj.attr`` reaches every method called ``attr``.  A reached class
    reaches its dunder methods, which the language calls.
    """
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    defs, scopes, methods = {}, {}, {}
    for mod, tree in trees.items():
        scope = {}
        for qual, node in _definitions(tree):
            defs[f"{mod}.{qual}"] = node
            if "." in qual:
                methods.setdefault(qual.split(".")[1], []).append(f"{mod}.{qual}")
            else:
                scope[qual] = f"{mod}.{qual}"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = f"{node.module}.{alias.name}" if node.module else alias.name
                    scope[alias.asname or alias.name] = target
        scopes[mod] = scope

    seen = {"cli.main"} | _bench_roots(defs, methods)
    todo = list(seen)

    def reach(key):
        if key in defs and key not in seen:
            seen.add(key)
            todo.append(key)

    def visit(mod, node):
        scope = scopes[mod]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in scope:
                reach(scope[sub.id])
            elif isinstance(sub, ast.Attribute):
                base = sub.value
                if isinstance(base, ast.Name) and scope.get(base.id) in trees:
                    reach(f"{scope[base.id]}.{sub.attr}")
                for key in methods.get(sub.attr, ()):
                    reach(key)

    for mod, tree in trees.items():  # what runs at import
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                for dec in stmt.decorator_list:
                    visit(mod, dec)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                visit(mod, stmt)
    while todo:
        key = todo.pop()
        mod, node = key.split(".")[0], defs[key]
        if not isinstance(node, ast.ClassDef):
            visit(mod, node)
            continue
        for base in node.bases:
            visit(mod, base)
        for stmt in node.body:
            if not isinstance(stmt, ast.FunctionDef):
                visit(mod, stmt)
                continue
            for dec in stmt.decorator_list:
                visit(mod, dec)
            if stmt.name.startswith("__") and stmt.name.endswith("__"):
                reach(f"{key}.{stmt.name}")
    return sorted(set(defs) - seen - CALLED_BY_LIBRARY)


def test_every_definition_is_reached_by_a_command_or_the_benchmark():
    assert _unreached() == []

