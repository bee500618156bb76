"""Every name the package exports is used by library code, a script or the benchmark.

A name that only the tests reach is not part of the paper's pipeline: it
belongs in ``tests/oracles.py`` if a test compares against it, and nowhere
otherwise.  The check reads source files only; it edits nothing.
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


def test_every_export_has_a_caller_outside_the_tests():
    used = set().union(*(referenced_names(p) for p in caller_files()))
    unused = sorted(exported_names() - used)
    assert not unused, f"exported but used only by tests: {unused}"
