"""Every exported name and public method is used by library code, a script or the benchmark.

A name that only the tests reach is not part of the paper's pipeline: it
belongs in ``tests/oracles.py`` if a test compares against it, and nowhere
otherwise.  The check reads source files only; it edits nothing.

Methods are matched by name alone: a public method or property of a package
class counts as used when any caller file mentions that name as a variable
or an attribute.  So a method that shares its name with a function or with
another object's attribute is not caught: a method named ``observed_mean``
would pass as used because the estimator ``univariate.observed_mean`` is
called.  Dataclass fields and other class attributes are not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "missingrobust"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def public_methods() -> set[tuple[str, str]]:
    """(class, name) of every public method and property defined in the package."""
    return {
        (node.name, item.name)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def caller_files() -> list[Path]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    bench = ROOT / "perfbench"
    files += [p for p in sorted(bench.rglob("*.py")) if (bench / "tests") not in p.parents]
    return files


def referenced_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def used_names() -> set[str]:
    return set().union(*(referenced_names(p) for p in caller_files()))


def test_every_export_has_a_caller_outside_the_tests():
    unused = sorted(exported_names() - used_names())
    assert not unused, f"exported but used only by tests: {unused}"


def test_every_public_method_has_a_caller_outside_the_tests():
    used = used_names()
    unused = sorted(f"{cls}.{name}" for cls, name in public_methods() if name not in used)
    assert not unused, f"public methods used only by tests: {unused}"
