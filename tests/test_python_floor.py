"""The package declares requires-python >= 3.10; its code must parse there,
and it imports nothing beyond the standard library and numpy."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    """Syntax newer than 3.10 (except*, PEP 695 generics, ...) fails here.

    This checks the grammar only: a standard-library function or argument
    added after 3.10 still parses, so it goes unnoticed.
    """
    rejected = []
    for folder in ("src/qgen", "tests", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            try:
                ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
            except SyntaxError as exc:
                rejected.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert rejected == []


def test_package_imports_only_stdlib_and_numpy():
    """numpy is the one declared dependency; a module such as requests
    that comes back fails here, not on a machine without it. Every import
    statement counts, those inside functions too, which importing qgen
    (test_import_loads_no_third_party_package_but_numpy) does not run."""
    allowed = sys.stdlib_module_names | {"numpy", "qgen"}
    foreign = []
    for path in sorted((ROOT / "src" / "qgen").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert foreign == []


# numpy names added in 2.0; pyproject.toml declares numpy>=1.24, which no
# test here runs
NUMPY_2_NAMES = {
    "vecdot", "matvec", "vecmat", "unstack", "cumulative_sum", "cumulative_prod",
    "concat", "permute_dims", "bitwise_count", "isdtype", "astype", "matrix_transpose",
    "pow", "acos", "asin", "atan", "atan2", "acosh", "asinh", "atanh",
    "bitwise_left_shift", "bitwise_right_shift", "bitwise_invert",
}


def test_package_uses_no_numpy_2_name():
    """A numpy-2 function such as np.vecdot fails here, not on numpy 1.x.

    Every attribute reached from a name bound to numpy (``np.vecdot``,
    ``np.linalg.vecdot``), and every name imported from numpy or one of its
    modules, counts; an attribute of an array (``a.astype``) does not."""
    found = []
    for path in sorted((ROOT / "src" / "qgen").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {"numpy"} | {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "numpy"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                names = [node.attr] if isinstance(root, ast.Name) and root.id in aliases else []
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [alias.name for alias in node.names]
                if node.module.partition(".")[0] != "numpy":
                    continue
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}" for name in names if name in NUMPY_2_NAMES
            ]
    assert found == []
