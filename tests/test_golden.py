"""The committed golden run in demos/out/full_run/ and reading run files back."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from qgen.cli import main
from qgen.pipeline import RunConfig, load_run, run_pipeline

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = DEMOS / "out" / "full_run"

# manifest fields that hold wall-clock values, and config fields that hold paths
VOLATILE = ("started_at", "finished_at", "backend_latency_s")
VOLATILE_CONFIG = ("dataset", "vectors", "out")


def _stable_manifest(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc = {k: v for k, v in doc.items() if k not in VOLATILE}
    doc["config"] = {
        k: v for k, v in doc["config"].items() if k not in VOLATILE_CONFIG
    }
    return doc


def test_golden_run_reproduces_byte_for_byte(tmp_path):
    # the config of demos/04_full_run.py
    out = tmp_path / "full_run"
    run_pipeline(
        RunConfig(
            dataset=str(DEMOS / "data" / "mini_squad.json"),
            vectors=str(DEMOS / "data" / "vectors_50d.txt"),
            out=str(out),
            backend="mock",
            seed=7,
            sample_size=4,
            threshold=0.7,
        )
    )
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        if name == "manifest.json":
            assert _stable_manifest(out / name) == _stable_manifest(GOLDEN / name)
        else:
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_load_run_without_rng_algorithm(tmp_path):
    # run files written before rng_algorithm was recorded load with ""
    run_dir = tmp_path / "old_run"
    shutil.copytree(GOLDEN, run_dir)
    doc = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
    del doc["info"]["rng_algorithm"]
    (run_dir / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    run = load_run(run_dir)
    assert run.info.rng_algorithm == ""
    assert run.info.seed == 7


MISTYPED_SCORE = (
    '{"context_id":0,"index":0,"per_baseline":[],"prompt_id":"A",'
    '"question":"Q?","question_max":"high","zero_vector_flag":false}\n'
)


def golden_run_json(**info) -> str:
    doc = json.loads((GOLDEN / "run.json").read_text(encoding="utf-8"))
    doc["info"].update(info)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("run.json", '{"info": {}}', "run.json: missing or malformed field"),
        ("run.json", "{not json", "run.json: "),
        ("run.json", None, "run.json: file not found"),
        ("scores.jsonl", MISTYPED_SCORE, "scores.jsonl: missing or malformed field"),
        ("run.json", golden_run_json(threshold="high"), "run.json: missing or malformed field"),
        ("manifest.json", None, "manifest.json: file not found"),
        ("manifest.json", '{"config": {"top_keywords": "5"}}', "manifest.json: "),
    ],
    ids=[
        "missing-keys",
        "invalid-json",
        "missing-file",
        "mistyped-score",
        "mistyped-info",
        "missing-manifest",
        "mistyped-top-keywords",
    ],
)
def test_report_on_bad_run_json_exits_with_data_error(
    tmp_path, capsys, name, content, message
):
    run_dir = tmp_path / "run"
    shutil.copytree(GOLDEN, run_dir)
    if content is None:
        (run_dir / name).unlink()
    else:
        (run_dir / name).write_text(content, encoding="utf-8")
    assert main(["report", "--run", str(run_dir)]) == 2
    assert message in capsys.readouterr().err
