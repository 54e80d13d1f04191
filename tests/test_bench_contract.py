"""The names the benchmark traces exist and are called by a pipeline run.

bench/child.py wraps module attributes of qgen.pipeline and qgen.scoring
listed in its TRACED table. A refactor that renames or inlines one of
them would make the traced benchmark print a "not traced" line or report
a layer as idle; this test catches that in the test suite instead. The
table is read with ast, so bench/ is neither imported nor edited.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

from qgen import pipeline, scoring
from qgen.pipeline import RunConfig, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
MODULES = {"pipeline": pipeline, "scoring": scoring}


def traced_names() -> list[tuple[str, str]]:
    tree = ast.parse((ROOT / "bench" / "child.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/child.py defines no TRACED table")


TRACED = traced_names()


def test_traced_names_exist():
    missing = [(m, a) for m, a in TRACED if not callable(getattr(MODULES[m], a, None))]
    assert missing == []


def test_golden_run_calls_every_traced_name(tmp_path, monkeypatch):
    called = set()

    def recording(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called.add(key)
            return fn(*args, **kwargs)

        return wrapper

    for module, attr in TRACED:
        fn = getattr(MODULES[module], attr)
        monkeypatch.setattr(MODULES[module], attr, recording((module, attr), fn))
    # the config of demos/04_full_run.py
    run_pipeline(
        RunConfig(
            dataset=str(ROOT / "demos" / "data" / "mini_squad.json"),
            vectors=str(ROOT / "demos" / "data" / "vectors_50d.txt"),
            out=str(tmp_path / "full_run"),
            seed=7,
            sample_size=4,
            threshold=0.7,
        )
    )
    assert [name for name in TRACED if name not in called] == []
