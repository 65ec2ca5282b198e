"""The package names the benchmark harness in perfbench/ uses, read off its
sources.

The harness is not part of this suite, so a package name that only it calls
could be deleted with every test here still passing.  These tests read
perfbench/*.py with `ast`, import nothing from there, and ask that each
name it imports from the package, each attribute it reads off a package
module or class, each attribute its tracer wraps and each operator it
applies to a permutation exists.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from fillperm import Permutation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(PERFBENCH.glob("*.py"))
}
MISSING = object()


def _bindings(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Each name the file binds to the package: `from fillperm[.mod] import
    attr` gives (module, attr), `name = importlib.import_module("fillperm.mod")`
    gives (module, None)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fillperm":
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "importlib.import_module"
        ):
            (target,) = node.targets
            (arg,) = node.value.args
            if arg.value.split(".")[0] == "fillperm":
                out[target.id] = (arg.value, None)
    return out


def _resolve(module: str, attr: str | None) -> object:
    mod = importlib.import_module(module)
    if attr is None:
        return mod
    if hasattr(mod, attr):
        return getattr(mod, attr)
    try:
        return importlib.import_module(f"{module}.{attr}")
    except ModuleNotFoundError:
        return MISSING


def test_imported_names_exist():
    imported = [binding for tree in TREES.values() for binding in _bindings(tree).values()]
    assert imported
    missing = [f"{module}.{attr}" for module, attr in imported if _resolve(module, attr) is MISSING]
    assert missing == []


def test_attributes_read_off_the_package_exist():
    read = []
    for file, tree in TREES.items():
        owners = {name: _resolve(*binding) for name, binding in _bindings(tree).items()}
        read += [
            (file, node.value.id, node.attr, owners[node.value.id])
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in owners
        ]
    assert read
    missing = [
        f"{file}: {name}.{attr}" for file, name, attr, owner in read if not hasattr(owner, attr)
    ]
    assert missing == []


def test_wrapped_attributes_exist():
    # the tracer swaps each (owner, attribute) pair in WRAPPED by name, so
    # a re-import kept only for it must stay where it is
    tree = TREES["tracing.py"]
    owners = {name: _resolve(*binding) for name, binding in _bindings(tree).items()}
    (wrapped,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["WRAPPED"]
    ]
    pairs = [(entry.elts[0].id, entry.elts[1].value) for entry in wrapped.elts]
    assert pairs
    missing = [f"{name}.{attr}" for name, attr in pairs if not hasattr(owners[name], attr)]
    assert missing == []


def test_powers_of_generators_have_pow():
    # the surgery workload raises the relabeling generators to powers
    powered = []
    for tree in TREES.values():
        gens = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "generators"
            for target in ast.walk(node.targets[0])
            if isinstance(target, ast.Name)
        }
        powered += [
            node.left.id
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Name)
            and node.left.id in gens
        ]
    assert not powered or "__pow__" in vars(Permutation)
