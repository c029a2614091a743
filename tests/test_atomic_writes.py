"""Every file the library writes goes through ``datagen.open_atomic``.

Every ``.py`` file under ``src/dualrel`` is parsed with ``ast``. Outside the
body of ``open_atomic`` no call may write a file: an ``open`` (the builtin,
or a ``.open`` method) whose mode holds ``w``, ``a``, ``x`` or ``+``, a
builtin ``open`` whose mode is not a string literal, ``write_text``,
``write_bytes``, ``tofile``, or one of numpy's ``save*`` functions. Inside
an ``open_atomic`` block the writes go to a temp file that is renamed into
place only on success, so a failing run leaves no partial file.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODE_CHARS = set("rwaxbt+")
WRITE_CHARS = set("wax+")
WRITE_METHODS = {"write_text", "write_bytes", "tofile"}


def _is_write_mode(node):
    """Whether ``node`` is a string literal that reads as a writing mode."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and set(node.value) <= MODE_CHARS and bool(set(node.value) & WRITE_CHARS))


def _writes(call):
    """Whether the call opens or writes a file for writing."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
        return any(
            _is_write_mode(mode) or not isinstance(mode, ast.Constant) for mode in modes
        )
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "open":  # Path.open(mode) or module.open(path, mode)
        modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[:2]
        return any(_is_write_mode(mode) for mode in modes)
    return func.attr in WRITE_METHODS or (
        func.attr.startswith("save")
        and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
    )


def direct_writes(source, exempt="open_atomic"):
    """(line, call) of each file-writing call in ``source`` outside the
    functions named ``exempt``."""
    tree = ast.parse(source)
    spans = [
        (node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == exempt
    ]
    return sorted(
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _writes(node)
        and not any(first <= node.lineno <= last for first, last in spans)
    )


def test_scan_finds_each_direct_write():
    source = (
        "import numpy as np\n"
        "def open_atomic(path, mode='w'):\n"
        "    with open(path + '.tmp', mode) as fh:\n"
        "        yield fh\n"
        "def reads(path):\n"
        "    open(path)\n"
        "    open(path, 'rb')\n"
        "    open(path, encoding='utf-8')\n"
        "    path.open()\n"
        "    save_checkpoint(path)\n"
        "def writes(path, mode, array):\n"
        "    open(path, 'w')\n"
        "    open(path, mode='ab')\n"
        "    open(path, 'r+')\n"
        "    open(path, mode)\n"
        "    path.open('x')\n"
        "    path.write_text('')\n"
        "    path.write_bytes(b'')\n"
        "    np.save(path, array)\n"
        "    np.savez(path, a=array)\n"
        "    array.tofile(path)\n"
    )
    assert [line for line, _ in direct_writes(source)] == list(range(12, 22))


def test_every_library_write_goes_through_open_atomic():
    files = sorted((ROOT / "src" / "dualrel").rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(ROOT)}:{line}: {call}"
        for path in files
        for line, call in direct_writes(path.read_text(encoding="utf-8"))
    ]
    assert not found, "files written outside datagen.open_atomic:\n" + "\n".join(found)
