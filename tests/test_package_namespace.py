"""The package namespace holds only the names its documented users import.

``src/dualrel/__init__.py`` re-exports a name only if a ``python`` code
block of ``README.md`` or a file under ``demos/`` imports it with
``from dualrel import ...``. Everything else is imported from its module
(``dualrel.training.TrainingDiverged``, say), so a re-export nobody reads
is a second path to keep in step with the first.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def imported_names(source, module=None):
    """Names a source binds with ``from <module> import ...``; with module
    None, those of its relative imports (``from .x import ...``)."""
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 if module is None
             else node.level == 0 and node.module == module)
        for alias in node.names
    }


def unused_exports(package_init, readme, users):
    """Sorted names the package's ``__init__`` source imports that neither a
    ``python`` block of the README text nor a source in ``users`` imports
    from ``dualrel``."""
    sources = [*PYTHON_BLOCK.findall(readme), *users]
    wanted = set().union(*(imported_names(source, "dualrel") for source in sources))
    return sorted(imported_names(package_init) - wanted)


def test_scan_finds_a_re_export_no_user_imports():
    package_init = (
        "from .datagen import generate_dataset, load_dataset\n"
        "from .training import train as run\n"
        "from .model import DualBranchModel\n"
        "__version__ = '0'\n"
    )
    readme = (
        "```python\nfrom dualrel import generate_dataset\n```\n"
        "```\nfrom dualrel import DualBranchModel\n```\n"
    )
    users = ["from dualrel import run\nfrom dualrel.datagen import load_dataset\n"]
    assert unused_exports(package_init, readme, users) == [
        "DualBranchModel", "load_dataset",
    ]


def test_every_re_export_is_imported_by_the_readme_or_a_demo():
    package_init = (ROOT / "src/dualrel/__init__.py").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    demos = [path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "demos").rglob("*.py"))]
    assert demos and PYTHON_BLOCK.search(readme)
    found = unused_exports(package_init, readme, demos)
    assert not found, (
        "re-exported by dualrel/__init__.py but imported from dualrel by "
        "neither README.md nor demos/:\n" + "\n".join(found)
    )
