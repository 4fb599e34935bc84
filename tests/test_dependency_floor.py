"""The numpy floor that pyproject.toml declares, checked without installing it.

The suite runs on whatever numpy is installed, so a name that only a newer
numpy has, or one that numpy 2 removed, would pass every other test.  This
scans the source for numpy attributes (``np.name``, ``numpy.linalg.name``,
``from numpy import name``) and refuses two lists of names: those missing
from numpy 1.24, the declared floor, and those gone or deprecated in
numpy 2.  A failure names file:line.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "adiakit"

# absent from numpy 1.24 (added with the array API in numpy 2.0 / 2.1)
NEWER_THAN_FLOOR = {
    "vecdot", "matrix_transpose", "concat", "permute_dims", "astype",
    "trapezoid", "cumulative_sum", "unique_values", "isdtype",
    "linalg.vecdot", "linalg.matrix_norm", "linalg.vector_norm",
    "linalg.svdvals", "linalg.outer",
}

# removed or deprecated in numpy 2
GONE_IN_NUMPY_2 = {
    "product", "cumproduct", "alltrue", "sometrue", "float_", "complex_",
    "NaN", "Inf", "trapz", "in1d", "row_stack",
}

NUMPY_NAMES = {"np", "numpy"}


def dotted(node):
    """``np.linalg.norm`` -> ["np", "linalg", "norm"]; None if the chain
    does not start at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def numpy_names(tree):
    """(line, name below numpy) for every numpy attribute and import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = dotted(node)
            if chain and chain[0] in NUMPY_NAMES:
                yield node.lineno, ".".join(chain[1:])
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "numpy"):
            prefix = node.module.split(".")[1:]
            for alias in node.names:
                yield node.lineno, ".".join(prefix + [alias.name])


def offending(root=SRC):
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in numpy_names(tree):
            if name in NEWER_THAN_FLOOR:
                found.append(f"{path}:{line}: np.{name} is not in numpy 1.24")
            elif name in GONE_IN_NUMPY_2:
                found.append(f"{path}:{line}: np.{name} is gone or "
                             "deprecated in numpy 2")
    return sorted(set(found))


def test_source_uses_only_names_between_the_floor_and_numpy_2():
    found = offending()
    assert not found, "\n".join(found)


def test_scan_sees_every_spelling(tmp_path):
    (tmp_path / "planted.py").write_text(
        "import numpy as np\n"
        "import numpy\n"
        "from numpy import trapz\n"
        "from numpy.linalg import vector_norm\n"
        "x = np.vecdot(a, b)\n"
        "y = numpy.linalg.matrix_norm(a)\n"
        "z = a.astype(float) + np.linalg.norm(a) + np.sum(a)\n")
    assert [entry.split(": ", 1)[1] for entry in offending(tmp_path)] == [
        "np.trapz is gone or deprecated in numpy 2",
        "np.linalg.vector_norm is not in numpy 1.24",
        "np.vecdot is not in numpy 1.24",
        "np.linalg.matrix_norm is not in numpy 1.24",
    ]
