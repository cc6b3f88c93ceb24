"""Static checks of the package source: every public name is reached, every
imported name is used, and every package error is raised somewhere.

No linter is a dependency, so these walk syntax trees with ``ast``.  An
identifier is a ``Name``, the attribute of an ``Attribute`` or an imported
name; a string that spells a name does not count.
"""

import ast
from pathlib import Path

import pytest

from tauspec import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tauspec"
MODULES = sorted(PACKAGE.glob("*.py"))
# The code a user or a check runs: the command line, the scripts, the
# acceptance criteria and the benchmark.
ROOTS = [
    PACKAGE / "cli.py",
    *sorted((ROOT / "scripts").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "bench").glob("*.py")),
]

# Public names that no root reaches, each with the reason it stays.
ALLOWED = {
    "normal_response": "the paper's saturated-front response for tau2 > 0, the normal "
    "front",
    "anomalous_response": "the mirror branch of normal_response, for tau2 < 0; kept "
    "with it",
    "combined_response": "the step-weighted sum of the two front branches; kept with "
    "them",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def identifiers(node: ast.AST) -> set:
    """Every identifier under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
    return names


def bound_names(stmt: ast.stmt) -> list:
    """The names a top-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [n.id for target in stmt.targets for n in ast.walk(target)
                if isinstance(n, ast.Name)]
    return []


def exported(tree: ast.Module) -> list:
    """The ``__all__`` of a module, or no names."""
    for stmt in tree.body:
        if "__all__" in bound_names(stmt):
            return ast.literal_eval(stmt.value)
    return []


def reached_names() -> set:
    """Every identifier of the roots, and of each top-level definition in
    the package that binds a name already reached, until none is added."""
    definitions = {}
    for path in MODULES:
        for stmt in parse(path).body:
            for name in bound_names(stmt):
                definitions.setdefault(name, []).append(stmt)
    reached = set().union(*(identifiers(parse(path)) for path in ROOTS))
    todo = list(reached)
    while todo:
        for stmt in definitions.pop(todo.pop(), ()):
            new = identifiers(stmt) - reached
            reached |= new
            todo.extend(new)
    return reached


PUBLIC = {name: path.stem for path in MODULES for name in exported(parse(path))}
REACHED = reached_names()


def test_every_public_name_is_reached_or_allowed():
    assert sorted(f"{PUBLIC[n]}.{n}" for n in PUBLIC.keys() - REACHED - ALLOWED.keys()) == []


def test_every_allowed_name_is_public_and_unreached():
    assert sorted(n for n in ALLOWED if n not in PUBLIC or n in REACHED) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = parse(path)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported(tree))
    assert sorted(imported - used) == []


def test_every_package_error_is_raised():
    raised = set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised |= identifiers(exc)
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.TauspecError)}
    assert sorted(classes - {"TauspecError", "GridError"} - raised) == []
