"""Source checks: every Sphinx cross-reference in the package's docstrings
names something that exists, and the package imports only the standard
library."""

import ast
import builtins
import importlib
import pathlib
import re
import sys

import rrw

PACKAGE = pathlib.Path(rrw.__file__).resolve().parent

REFERENCE = re.compile(r":(?:func|meth|class|data):`~?([^`]+)`")


def _resolves(module, name):
    """True if ``name`` is a name in ``module``, a method of one of its
    classes, a name in the rrw package or a builtin, or a dotted path from
    one of those (``rrw.core.System`` from the package)."""
    if name.startswith("rrw."):
        path, _, attr = name.rpartition(".")
        return hasattr(importlib.import_module(path), attr)
    first, *rest = name.split(".")
    classes = [value for value in vars(module).values()
               if isinstance(value, type)
               and value.__module__ == module.__name__]
    roots = [vars(module), vars(rrw), vars(builtins)]
    roots += [vars(cls) for cls in classes if not rest]
    for root in roots:
        if first in root:
            target = root[first]
            for attr in rest:
                if not hasattr(target, attr):
                    return False
                target = getattr(target, attr)
            return True
    return False


def test_every_docstring_reference_resolves():
    unresolved = []
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "rrw" if path.stem == "__init__" else f"rrw.{path.stem}")
        for name in REFERENCE.findall(path.read_text(encoding="utf-8")):
            count += 1
            if not _resolves(module, name):
                unresolved.append(f"{path.name}: {name}")
    assert count > 60
    assert not unresolved, unresolved


def test_the_package_imports_only_the_standard_library():
    # the runtime stays stdlib-only: every import is relative or names a
    # standard-library module
    outside = []
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                count += 1
                if name.partition(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert count > 20
    assert not outside, outside


def test_the_oracle_loads_nothing_of_the_engine_but_its_data_types():
    # the oracle is an independent check of the engine only while it shares
    # no engine code: its definitions may load the engine's result and
    # bounds types, and no other name imported from the engine
    tree = ast.parse((PACKAGE / "equivalence.py").read_text(encoding="utf-8"))
    from_engine = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").rpartition(".")[2] == "engine"
        for alias in node.names
    }
    assert {"BoundedLanguage", "StepBounds"} <= from_engine
    oracle = {"_Oracle", "_oracle_gc", "reference_enumerate"}
    definitions = [node for node in tree.body
                   if getattr(node, "name", None) in oracle]
    assert {node.name for node in definitions} == oracle
    loaded = {
        (definition.name, node.id)
        for definition in definitions
        for node in ast.walk(definition)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        and node.id in from_engine - {"BoundedLanguage", "StepBounds"}
    }
    assert not loaded, sorted(loaded)
