"""Every public entry point of the library is named outside its definition.

Each public function, class, method and property defined at module or class
level in ``src/dualrel`` must be named by the code that ships with it: a
name or attribute in ``src/`` (the re-exports of package ``__init__.py``
files do not count), ``bench/`` or ``demos/``, or a part of a dotted span
name in ``bench/tracing.py``'s ``SPANS``. A use inside the entry point's own
definition does not count. Tests do not count either: an entry point only
the tests call is code the library does not need.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def definitions(tree):
    """(qualified name, name, first line, last line) of each public
    module-level function or class and each public method of such a class."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return found


def references(tree):
    """(line, name) of every name and attribute the tree reads or writes."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
    return found


def span_names(tree):
    """Each dot-separated part of the keys of the module's ``SPANS`` dict."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets)):
            return {part for key in node.value.keys for part in key.value.split(".")}
    return set()


def unreferenced(library, users, spans=()):
    """Qualified names of the entry points defined in ``library`` (path ->
    source) that no source in ``library`` or ``users`` names outside the
    entry point's own lines, and that ``spans`` does not hold."""
    trees = {path: ast.parse(source) for path, source in {**users, **library}.items()}
    named_at = {}
    for path, tree in trees.items():
        for line, name in references(tree):
            named_at.setdefault(name, []).append((path, line))
    return [
        qualified
        for path in library
        for qualified, name, first, last in definitions(trees[path])
        if name not in spans and all(
            other == path and first <= line <= last
            for other, line in named_at.get(name, ())
        )
    ]


def test_scan_finds_an_entry_point_only_its_own_body_names():
    library = {
        "lib.py": (
            "def used():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def _private():\n    pass\n"
            "class Table:\n"
            "    def read(self):\n        return used()\n"
            "    @property\n    def width(self):\n        return 2\n"
            "    def traced(self):\n        pass\n"
            "    def __len__(self):\n        return 0\n"
        ),
    }
    users = {"demo.py": "import lib\nprint(lib.Table().width)\n"}
    assert unreferenced(library, users, spans={"traced"}) == [
        "recursive", "Table.read",
    ]


def test_every_entry_point_is_named_outside_its_definition():
    def sources(top):
        return {
            str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
            for path in sorted((ROOT / top).rglob("*.py"))
            if path.name != "__init__.py"
        }

    library = sources("src")
    assert library
    tracing = (ROOT / "bench" / "tracing.py").read_text(encoding="utf-8")
    spans = span_names(ast.parse(tracing))
    assert spans
    found = unreferenced(library, {**sources("bench"), **sources("demos")}, spans)
    assert not found, (
        "entry points named only by their own definitions or the tests:\n"
        + "\n".join(found)
    )
