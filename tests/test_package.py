"""The package namespace."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import coxsums

SOURCE = Path(coxsums.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_export_resolves():
    missing = [name for name in coxsums.__all__ if not hasattr(coxsums, name)]
    assert not missing


def referenced_names(node):
    """Every name that a Name, an Attribute or an import alias under node refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def attribute_names(node):
    """Every name that an attribute access (x.name) under node reads."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr


def traced_paths():
    """Every entry path that the benchmark tracer wraps, split at its dots, read
    from perfbench/tracing.py without installing the tracer."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [path.split(".") for _, _, path in module.TRACED]


def test_every_top_level_definition_is_reached():
    # A function or class counts as reached when code elsewhere in the package
    # names it (a mention in a docstring does not), when the package exports
    # it, or when the benchmark tracer wraps it.  A named (non-dunder) method
    # or property of a class counts as reached when code outside it reads it
    # as an attribute (x.name; a local variable of the same name does not
    # count), or when the tracer wraps it.
    trees = [(path.name, ast.parse(path.read_text())) for path in sorted(SOURCE.glob("*.py"))]
    named = Counter(name for _, tree in trees for name in referenced_names(tree))
    attributes = Counter(name for _, tree in trees for name in attribute_names(tree))
    paths = traced_paths()
    reached = set(coxsums.__all__) | {path[0] for path in paths}
    reached_members = {path[-1] for path in paths if len(path) > 1}
    unreached = []
    for module, tree in trees:
        for statement in tree.body:
            if not isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                continue
            definitions = [(statement.name, statement, reached, named, referenced_names)]
            if isinstance(statement, ast.ClassDef):
                definitions += [
                    (
                        f"{statement.name}.{member.name}",
                        member,
                        reached_members,
                        attributes,
                        attribute_names,
                    )
                    for member in statement.body
                    if isinstance(member, ast.FunctionDef)
                    and not (member.name.startswith("__") and member.name.endswith("__"))
                ]
            for label, node, exempt, counted, names in definitions:
                own = Counter(names(node))
                if node.name not in exempt and counted[node.name] == own[node.name]:
                    unreached.append(f"{module}: {label}")
    assert not unreached


def test_every_imported_name_is_used():
    # __init__ imports names to export them; any other module that imports a
    # name must read it (a mention in a docstring does not count).
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}: {name}")
    assert not unused
