"""The narrative demos and README's Python examples run against the package in src/."""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_corpus_tour.py",
        "02_dataset_stats.py",
        "03_similarity.py",
        "04_full_run.py",
        "05_http_backend.py",
    ],
)
def test_demo_exits_cleanly(demo, tmp_path):
    # each demo runs from a copy of demos/, so demo 04 rewrites the copy's
    # golden run, not the committed one
    demos = shutil.copytree(ROOT / "demos", tmp_path / "demos")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demos / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for block in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", block],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, f"{block}\n{proc.stderr}"
