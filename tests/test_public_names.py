"""Static checks of the package source: every public name is reached, every
defaulted parameter is passed and every public method or property is read,
every imported name is used, and every package error is raised somewhere.

No linter is a dependency, so these walk syntax trees with ``ast``.  An
identifier is a ``Name``, the attribute of an ``Attribute`` or an imported
name; a string that spells a name does not count.
"""

import ast
from collections import defaultdict
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

# The roots and the package code: where an option must be passed or a
# method read to stay.
CODE = ROOTS + [path for path in MODULES if path not in ROOTS]

# Defaulted parameters that no call in CODE is seen to pass, each with the
# reason it stays.
UNPASSED = {
    f"{reader}.fh": "TABLE_FORMATS forwards it through lambda *args, and detected "
    "passes it to that lambda"
    for reader in ("read_spectrum", "read_temporal", "read_barrier_table")
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


def passed_arguments() -> tuple:
    """For each callee name in CODE, the keywords some call passes it, and
    the most arguments a call passes it by position.  A ``*args`` call
    passes only the required parameters: its positions stop at the star."""
    keywords, positions = defaultdict(set), defaultdict(int)
    for path in CODE:
        for call in ast.walk(parse(path)):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                keywords[name] |= {k.arg for k in call.keywords}
                stars = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
                positions[name] = max(positions[name], (stars or [len(call.args)])[0])
    return keywords, positions


def _defaulted(callee: str, args: ast.arguments, first: int) -> list:
    """(callee, parameter, position) of each defaulted parameter in ``args``,
    counted from the ``first`` positional one; position None for a
    keyword-only one."""
    params = [a.arg for a in args.posonlyargs + args.args][first:]
    return ([(callee, p, i) for i, p in enumerate(params)
             if i >= len(params) - len(args.defaults)]
            + [(callee, a.arg, None)
               for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def public_methods(node: ast.ClassDef) -> list:
    return [m for m in node.body
            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]


def defaulted(node) -> list:
    """The defaulted parameters of a public function, or of the fields and
    the public methods (past self or cls) of a public class."""
    if isinstance(node, ast.FunctionDef):
        return _defaulted(node.name, node.args, 0)
    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
    out = [(node.name, s.target.id, i) for i, s in enumerate(fields) if s.value is not None]
    for method in public_methods(node):
        out += _defaulted(method.name, method.args, 1)
    return out


def public_definitions():
    """Each public top-level function or class of the package."""
    for path in MODULES:
        tree = parse(path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported(tree):
                yield node


def unpassed_parameters() -> list:
    keywords, positions = passed_arguments()
    return sorted(f"{callee}.{param}" for node in public_definitions()
                  for callee, param, i in defaulted(node)
                  if param not in keywords[callee]
                  and (i is None or positions[callee] <= i))


def unread_methods() -> list:
    read = {node.attr for path in CODE for node in ast.walk(parse(path))
            if isinstance(node, ast.Attribute)}
    return sorted(f"{node.name}.{method.name}" for node in public_definitions()
                  if isinstance(node, ast.ClassDef) for method in public_methods(node)
                  if method.name not in read)


def test_every_defaulted_parameter_is_passed_or_allowed():
    """An option that only tests set is a constant of its module."""
    assert [n for n in unpassed_parameters() if n not in UNPASSED] == []


def test_every_allowed_parameter_is_unpassed():
    assert sorted(UNPASSED.keys() - set(unpassed_parameters())) == []


def test_every_public_method_or_property_is_read():
    assert unread_methods() == []


def test_every_public_name_is_reached():
    assert sorted(f"{PUBLIC[n]}.{n}" for n in PUBLIC.keys() - REACHED) == []


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
