"""The package namespace."""

import ast
import importlib.util
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


def traced_roots():
    """The first part of every entry path that the benchmark tracer wraps, read
    from perfbench/tracing.py without installing the tracer."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {path.split(".")[0] for _, _, path in module.TRACED}


def test_every_top_level_definition_is_reached():
    # A function or class counts as reached when code elsewhere in the package
    # names it (a mention in a docstring does not), when the package exports
    # it, or when the benchmark tracer wraps it.
    statements = [
        (path.name, statement)
        for path in sorted(SOURCE.glob("*.py"))
        for statement in ast.parse(path.read_text()).body
    ]
    names = [set(referenced_names(statement)) for _, statement in statements]
    reached = set(coxsums.__all__) | traced_roots()
    unreached = [
        f"{module}: {statement.name}"
        for i, (module, statement) in enumerate(statements)
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
        and statement.name not in reached
        and not any(statement.name in other for j, other in enumerate(names) if j != i)
    ]
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
