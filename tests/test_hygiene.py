"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "superalg"


def unused_imports(source: str):
    """Names a module imports but never uses; `# noqa: F401` lines are re-exports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            bound = alias.asname or alias.name.split(".")[0]
            imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_caught():
    source = "from typing import Dict, Sequence\nimport os\nfrom . import kept  # noqa: F401\nx: Dict = {}\n"
    assert unused_imports(source) == [(1, "Sequence"), (2, "os")]


def test_every_import_in_the_package_is_used():
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: bad for name, bad in found.items() if bad} == {}
