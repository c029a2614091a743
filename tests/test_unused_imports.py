"""No module imports a name it never uses.

Every ``.py`` file under ``src/``, ``tests/`` and ``demos/`` is parsed with
``ast``; a name bound by an import must appear as a name somewhere else in
the file. Package ``__init__.py`` files are exempt: their imports are the
package's re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """(line, name) of each name the source imports and never uses."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(pi, system)\n"
    assert unused_imports(source) == [(1, "os"), (3, "tau")]


def test_no_unused_imports():
    files = [
        path
        for top in ("src", "tests", "demos")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert files
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
