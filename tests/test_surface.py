"""The public surface does not outgrow its callers.

Every name a package module exports (its ``__all__``, or its public top-level
defs and classes when it has none) must be used somewhere outside its own
definition: in the package, in ``scripts/`` or in ``perfbench/``.  Tests do
not count.  An import is not a use, so a re-export from ``__init__`` does not
keep a name alive.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bszego"
CALLERS = (ROOT / "scripts", ROOT / "perfbench")

def _package_sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _caller_sources():
    return [path.read_text() for folder in CALLERS for path in sorted(folder.glob("*.py"))]


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return set(ast.literal_eval(node.value))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def _uses(tree):
    """(name, owner) for every name or attribute read; owner is the enclosing top-level
    def or class, None at module level.  Imports and ``__all__`` strings are not uses."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def unreached(package, callers):
    """Sorted exported names of the package sources ({module: text}) that neither another
    definition in the package nor any of the caller sources uses."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    used = {name for source in callers for name, _ in _uses(ast.parse(source))}
    for tree in trees.values():
        used |= {name for name, owner in _uses(tree) if name != owner}
    return sorted({name for tree in trees.values() for name in _exported(tree)} - used)


def test_every_exported_name_is_reached():
    assert unreached(_package_sources(), _caller_sources()) == []


def test_an_unused_exported_def_is_caught():
    package = _package_sources()
    before = "__all__ = [\n"
    assert package["poly_core"].count(before) == 1
    package["poly_core"] = (
        package["poly_core"].replace(before, before + '    "cheb_U",\n')
        + "\n\ndef cheb_U(n, x):\n    return cheb_U(n - 1, x) if n else x\n"
    )
    assert unreached(package, _caller_sources()) == ["cheb_U"]
