"""The narrative demos run to completion against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# demo 04 writes the golden run and is covered by test_golden.py
@pytest.mark.parametrize(
    "demo",
    ["01_corpus_tour.py", "02_dataset_stats.py", "03_similarity.py", "05_http_backend.py"],
)
def test_demo_exits_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
