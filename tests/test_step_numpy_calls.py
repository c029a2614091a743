"""The training step's modules call the ufunc or array method that a NumPy
Python wrapper forwards to, not the wrapper.

At this package's shapes a training step is mostly calls of a few
microseconds, so a wrapper's own Python frame is a visible share of each.
``np.sum``/``np.max``/``np.min``/``np.mean`` forward to ``np.add.reduce``,
``np.maximum.reduce``, ``np.minimum.reduce`` (and a division by the count),
``np.swapaxes`` to the ``swapaxes`` method, ``np.stack`` of equal-shape
arrays to a ``np.concatenate`` and a reshape, and ``np.zeros_like`` to
``np.zeros`` of the shape; each replacement gives the same bits. The
``.mT`` and ``.mH`` attributes are rejected too: they need numpy 2, and
``pyproject.toml`` allows numpy 1.24.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEP_MODULES = ("numerics", "losses", "model", "semantic_context", "training")
WRAPPERS = {"sum", "max", "min", "mean", "swapaxes", "stack", "zeros_like"}
NUMPY2_ATTRIBUTES = {"mT", "mH"}


def wrapper_uses(source):
    """(line, text) of each NumPy wrapper or numpy-2 attribute the source uses."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        if (node.attr in WRAPPERS and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif node.attr in NUMPY2_ATTRIBUTES:
            found.append((node.lineno, f".{node.attr}"))
    return sorted(found)


def test_scan_finds_wrappers_and_numpy2_attributes():
    source = (
        "import numpy as np\n"
        "a = np.sum(x, axis=0)\n"
        "b = np.add.reduce(x, axis=0) + x.sum()\n"
        "c = x.mT @ np.stack([x, x])\n"
        "f = numpy.zeros_like\n"
    )
    assert wrapper_uses(source) == [
        (2, "np.sum"), (4, ".mT"), (4, "np.stack"), (5, "numpy.zeros_like"),
    ]


def test_step_modules_call_no_numpy_wrapper():
    found = [
        f"src/dualrel/{module}.py:{line}: {text}"
        for module in STEP_MODULES
        for line, text in wrapper_uses(
            (ROOT / "src" / "dualrel" / f"{module}.py").read_text(encoding="utf-8")
        )
    ]
    assert not found, "NumPy wrappers in the step modules:\n" + "\n".join(found)
