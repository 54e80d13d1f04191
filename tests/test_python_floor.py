"""The package declares requires-python >= 3.10; its code must parse there."""

from __future__ import annotations

import ast
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
