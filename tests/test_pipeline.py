"""End-to-end pipeline runs, persistence, partial failure, CLI exit codes."""

from __future__ import annotations

import errno
import gc
import io
import json
import os
import re
import shutil
import signal
import sys
import tempfile
import threading
import time
import weakref
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import pytest

from qgen import pipeline
from qgen.cli import build_parser, main
from qgen.errors import (
    BackendRejected,
    BackendTimeout,
    BackendUnavailable,
    ConfigError,
    PipelineError,
    SchemaError,
)
from qgen.promptgen import HttpBackend, MockBackend
from qgen.rng import ALGORITHM
from qgen.pipeline import (
    ENV_TOKEN,
    ENV_URL,
    RunConfig,
    fig7_csv,
    fig8_csv,
    load_config,
    load_run,
    run_pipeline,
)

from conftest import build_synth_articles, corpus_vocab, make_squad_doc, write_vector_file
from test_corpus import collections  # noqa: F401 (a fixture)
from test_promptgen import scripted_server

FIVE_QUESTIONS = "\n".join(
    [
        "1. What is the first thing?",
        "2. Who did the second thing?",
        "3. When was the third thing?",
        "4. Where is the fourth thing?",
        "5. Why does the fifth thing matter?",
    ]
)


def write_config(tmp_path: Path, dataset, vectors, **overrides) -> Path:
    doc = {
        "dataset": str(dataset),
        "vectors": str(vectors),
        "out": str(tmp_path / "out"),
        "sample_size": 2,
        **overrides,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture()
def config_path(tmp_path, mini_squad_path, demo_vectors_path) -> Path:
    return write_config(tmp_path, mini_squad_path, demo_vectors_path)


# -- config loading -----------------------------------------------------------

def test_load_config_defaults(config_path):
    cfg = load_config(config_path, env={})
    assert cfg.backend == "mock"
    assert cfg.seed == 0
    assert cfg.sample_size == 2
    assert cfg.threshold == 0.7
    assert cfg.prompts == "ABCD"
    assert cfg.questions_per_prompt == 5
    assert cfg.temperature == 0.5
    assert cfg.max_in_flight == 4


def test_load_config_resolves_relative_paths(tmp_path, mini_squad_path, demo_vectors_path):
    shutil.copy(mini_squad_path, tmp_path / "data.json")
    shutil.copy(demo_vectors_path, tmp_path / "vecs.txt")
    doc = {"dataset": "data.json", "vectors": "vecs.txt", "out": "results"}
    (tmp_path / "nested").mkdir()
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(doc), encoding="utf-8")
    cfg = load_config(cfg_file, env={})
    assert cfg.dataset == str(tmp_path / "data.json")
    assert cfg.vectors == str(tmp_path / "vecs.txt")
    assert cfg.out == str(tmp_path / "results")


def test_load_config_rejects_unknown_keys(tmp_path, mini_squad_path, demo_vectors_path):
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path, tempersture=0.9)
    with pytest.raises(ConfigError) as err:
        load_config(path, env={})
    assert "tempersture" in str(err.value)


def test_load_config_missing_required(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"dataset": "x.json"}', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path, env={})
    assert "vectors" in str(err.value) and "out" in str(err.value)


def test_load_config_bad_json_and_missing_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{oops", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path, env={})
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json", env={})
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path, env={})


def test_load_config_env_overrides_endpoint_only(config_path):
    env = {ENV_URL: "http://override:9", ENV_TOKEN: "sekrit"}
    cfg = load_config(config_path, env=env)
    assert cfg.backend_url == "http://override:9"
    assert cfg.backend_token == "sekrit"
    # empty values do not override
    cfg2 = load_config(config_path, env={ENV_URL: "", ENV_TOKEN: ""})
    assert cfg2.backend_url is None
    assert cfg2.backend_token is None


def test_validate_rejects_bad_values(config_path):
    cfg = load_config(config_path, env={})
    from dataclasses import replace

    for bad in (
        replace(cfg, backend="llama"),
        replace(cfg, backend="http", backend_url=None),
        replace(cfg, seed=-1),
        replace(cfg, sample_size=0),
        replace(cfg, threshold=1.5),
        replace(cfg, prompts="AX"),
        replace(cfg, prompts="AAB"),
        replace(cfg, prompts=""),
        replace(cfg, max_in_flight=0),
        replace(cfg, temperature=-0.1),
        replace(cfg, temperature=float("nan")),
        replace(cfg, temperature=float("inf")),
        replace(cfg, questions_per_prompt=0),
        replace(cfg, max_output_tokens=0),
        replace(cfg, top_keywords=0),
        replace(cfg, dataset="/nonexistent/data.json"),
        # "" would be the current directory, whose files a failed run removes
        replace(cfg, out=""),
        # wrong types are rejected before any range check
        replace(cfg, seed="7"),
        replace(cfg, threshold="0.7"),
        replace(cfg, max_in_flight="2"),
        replace(cfg, sample_size=2.5),
    ):
        with pytest.raises(ConfigError):
            bad.validate()


# -- full mock run -------------------------------------------------------------

def test_run_pipeline_shapes_and_artifacts(config_path, tmp_path):
    cfg = load_config(config_path, env={})
    run = run_pipeline(cfg)
    # 2 contexts x 4 prompts, 5 questions each
    assert len(run.results) == 8
    assert sum(len(c.records) for c in run.results) == 40
    assert list(run.summaries) == ["A", "B", "C", "D"]
    for summary in run.summaries.values():
        assert summary.n_questions == 10
    out = Path(cfg.out)
    assert {p.name for p in out.iterdir()} == {
        "manifest.json",
        "scores.jsonl",
        *pipeline._COMPLETE_RUN_ONLY,
    }
    assert len((out / "scores.jsonl").read_text().splitlines()) == 40
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["cells"] == 8
    assert manifest["questions"] == 40
    assert manifest["backend_calls"] == 8
    assert manifest["backend_retries"] == 0
    assert manifest["rng_algorithm"] == ALGORITHM
    assert manifest["config"]["backend_token"] is False
    assert manifest["seed"] == 0
    # scores are ordered by (context_id, prompt_id, index)
    rows = [
        json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()
    ]
    keys = [(r["context_id"], r["prompt_id"], r["index"]) for r in rows]
    assert keys == sorted(keys)


def edit_vectors_in_place(vectors):
    # same length and modification time
    stat = vectors.stat()
    text = vectors.read_text(encoding="utf-8")
    vectors.write_text(text.replace("1", "2"), encoding="utf-8", newline="")
    os.utime(vectors, ns=(stat.st_atime_ns, stat.st_mtime_ns))


def put_bad_byte_in_row_2(vectors):
    data = vectors.read_bytes()
    at = data.index(b"\n", data.index(b"\n") + 1) + 1
    vectors.write_bytes(data[:at] + b"\xff" + data[at + 1 :])


def run_artifacts(out: Path) -> dict:
    """Every file in out by name, with the manifest's wall-clock values
    left out."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    for key in ("started_at", "finished_at", "backend_latency_s"):
        del manifest[key]
    return {**files, "manifest.json": manifest}


@pytest.mark.parametrize(
    "change",
    [edit_vectors_in_place, put_bad_byte_in_row_2, Path.unlink],
    ids=["edited", "not-utf8", "removed"],
)
def test_vector_file_changed_after_load_changes_no_artifact(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, change
):
    # the rows a run scores are those parsed at load, read from its spool:
    # a file changed once it is loaded and digested changes nothing
    vectors = tmp_path / "vectors.txt"
    shutil.copy(demo_vectors_path, vectors)
    config = write_config(tmp_path, mini_squad_path, vectors)
    assert main(["run", "--config", str(config)]) == 0
    unchanged = run_artifacts(tmp_path / "out")
    digest = pipeline._sha256_file

    def digest_then_change(path):
        value = digest(path)
        change(vectors)
        return value

    monkeypatch.setattr(pipeline, "_sha256_file", digest_then_change)
    assert main(["run", "--config", str(config)]) == 0
    assert vectors.exists() is (change is not Path.unlink)
    got = run_artifacts(tmp_path / "out")
    assert got["manifest.json"]["status"] == "complete"
    assert got == unchanged


def test_spool_that_cannot_be_written_fails_at_load(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, capsys
):
    # a full disk under the spool fails the run before any call
    spools = []

    class FullDisk(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def temporary_file(*args, **kwargs):
        spools.append(FullDisk())
        return spools[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    config = write_config(tmp_path, mini_squad_path, demo_vectors_path)
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: stage 'load': ")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["status"], manifest["stage"]) == ("failed", "load")
    assert manifest["error"] == "OSError: [Errno 28] No space left on device"
    assert (manifest["backend_calls"], manifest["cells"]) == (0, 0)
    assert len(spools) == 2 and all(spool.closed for spool in spools)


class SlowFirstCallsBackend(MockBackend):
    """Its first three calls take 60, 40 and 20 ms, the rest no time, so
    with more than one call in flight completions come back out of job
    order."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed=seed)
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, request):
        with self.lock:
            self.calls += 1
            n = self.calls
        time.sleep(0.02 * max(0, 4 - n))
        return super().complete(request)


@pytest.mark.parametrize(
    "second", [{}, {"prompts": "DCBA"}, {"max_in_flight": 1}, {"max_in_flight": 32}],
    ids=["same", "prompts-reversed", "one-in-flight", "more-in-flight-than-jobs"],
)
def test_run_pipeline_is_deterministic(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, second
):
    monkeypatch.setattr(pipeline, "make_backend", lambda cfg: SlowFirstCallsBackend(cfg.seed))
    outs = []
    for name, overrides in (("one", {}), ("two", second)):
        path = write_config(
            tmp_path, mini_squad_path, demo_vectors_path,
            out=str(tmp_path / name), seed=11, **overrides,
        )
        run_pipeline(load_config(path, env={}))
        outs.append(tmp_path / name)
    same = [
        "scores.jsonl",
        "table2.csv",
        "run.json",
        "fig1_lengths.csv",
        "fig2_keywords.csv",
        "fig6_boxplot.csv",
        "fig7_matches.csv",
        "fig8_max_series.csv",
        "report.md",
    ]
    for name in same:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    m0 = json.loads((outs[0] / "manifest.json").read_text())
    m1 = json.loads((outs[1] / "manifest.json").read_text())
    for volatile in ("started_at", "finished_at", "backend_latency_s"):
        m0.pop(volatile), m1.pop(volatile)
    for key in ("out", *second):
        m0["config"].pop(key), m1["config"].pop(key)
    assert m0 == m1


def test_seed_changes_sample_and_scores(tmp_path, mini_squad_path, demo_vectors_path):
    texts = []
    for seed in (0, 1):
        path = write_config(
            tmp_path, mini_squad_path, demo_vectors_path,
            out=str(tmp_path / f"seed{seed}"), seed=seed, sample_size=2,
        )
        run_pipeline(load_config(path, env={}))
        texts.append((tmp_path / f"seed{seed}" / "scores.jsonl").read_text())
    assert texts[0] != texts[1]


def test_load_run_round_trip(config_path):
    cfg = load_config(config_path, env={})
    run = run_pipeline(cfg)
    assert load_run(cfg.out) == run
    assert run.shortfalls == []


def test_shortfall_run_end_to_end(tmp_path, mini_squad_path, demo_vectors_path):
    # the mock answers "Generate 5" with five questions, so asking for six
    # leaves every cell short
    path = write_config(
        tmp_path, mini_squad_path, demo_vectors_path, questions_per_prompt=6
    )
    cfg = load_config(path, env={})
    run = run_pipeline(cfg)
    out = Path(cfg.out)
    context_ids = sorted({cell.context_id for cell in run.results})
    expected = [
        {"context_id": cid, "prompt_id": pid, "got": 5, "expected": 6}
        for cid in context_ids
        for pid in "ABCD"
    ]
    assert json.loads((out / "run.json").read_text())["shortfalls"] == expected
    assert run.shortfalls == expected
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["shortfall_count"] == 8
    report = (out / "report.md").read_bytes()
    assert b"8 prompt cell(s) yielded fewer than the configured" in report
    assert load_run(out) == run
    (out / "report.md").unlink()
    assert main(["report", "--run", str(out)]) == 0
    assert (out / "report.md").read_bytes() == report


class StopwordsBackend(MockBackend):
    """Answers every call with questions made of stopwords only."""

    def complete(self, request):
        return "1. What is it?\n2. Who was he?"


def test_run_whose_questions_are_all_stopwords_completes(config_path, monkeypatch):
    monkeypatch.setattr(pipeline, "make_backend", lambda cfg: StopwordsBackend())
    cfg = load_config(config_path, env={})
    run = run_pipeline(cfg)
    out = Path(cfg.out)
    assert json.loads((out / "manifest.json").read_text())["status"] == "complete"
    assert (out / "fig2_keywords.csv").read_text() == "token,count\n"
    assert load_run(out) == run
    names = [name for name in pipeline._COMPLETE_RUN_ONLY if name.startswith(("fig", "report"))]
    originals = {name: (out / name).read_bytes() for name in names}
    for name in names:
        (out / name).unlink()
    assert main(["report", "--run", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in names} == originals


def test_line_separator_in_baseline_id_round_trips(
    tmp_path, mini_squad_path, demo_vectors_path
):
    # scores.jsonl keeps U+2028 raw inside strings; reading it back must
    # split records at "\n" only
    doc = json.loads(mini_squad_path.read_text(encoding="utf-8"))
    doc["data"][0]["paragraphs"][0]["qas"][0]["id"] += "\u2028"
    dataset = tmp_path / "squad.json"
    dataset.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    path = write_config(tmp_path, dataset, demo_vectors_path, sample_size=6)
    cfg = load_config(path, env={})
    run = run_pipeline(cfg)
    out = Path(cfg.out)
    assert "\u2028" in (out / "scores.jsonl").read_text(encoding="utf-8")
    assert load_run(out) == run
    report = (out / "report.md").read_bytes()
    (out / "report.md").unlink()
    assert main(["report", "--run", str(out)]) == 0
    assert (out / "report.md").read_bytes() == report


def test_prompt_subset_runs(tmp_path, mini_squad_path, demo_vectors_path):
    path = write_config(
        tmp_path, mini_squad_path, demo_vectors_path, prompts="AC", sample_size=3
    )
    run = run_pipeline(load_config(path, env={}))
    assert list(run.summaries) == ["A", "C"]
    assert len(run.results) == 6
    fig7 = "".join(fig7_csv(run)).splitlines()
    assert len(fig7) == 1 + 2
    fig8 = "".join(fig8_csv(run)).splitlines()
    assert fig8[0] == "context_id,A,C"
    assert len(fig8) == 1 + 3


def test_figure_shapes(config_path):
    cfg = load_config(config_path, env={})
    run = run_pipeline(cfg)
    out = Path(cfg.out)
    fig7 = (out / "fig7_matches.csv").read_text().splitlines()
    assert fig7[0] == "prompt,match_count"
    assert len(fig7) == 1 + 4
    fig8 = (out / "fig8_max_series.csv").read_text().splitlines()
    assert fig8[0] == "context_id,A,B,C,D"
    assert len(fig8) == 1 + cfg.sample_size
    fig6 = (out / "fig6_boxplot.csv").read_text().splitlines()
    assert len(fig6) == 1 + 4
    report = (out / "report.md").read_text()
    assert str(run.info.seed) in report
    assert run.info.vector_digest in report


def test_dataset_released_before_scoring(config_path, monkeypatch):
    # only the sampled contexts are read after sampling, so the parsed
    # dataset must not be held through the vector parse or scoring
    loaded = []
    alive_at_load, alive_at_score = [], []
    load_squad, score_cell = pipeline.load_squad, pipeline.score_cell
    load_vectors_path = pipeline.load_vectors_path

    def keep_weakref(path):
        dataset = load_squad(path)
        loaded.append(weakref.ref(dataset))
        return dataset

    def record_alive_at_load(path):
        alive_at_load.append(loaded[0]() is not None)
        return load_vectors_path(path)

    def record_alive(*args):
        alive_at_score.append(loaded[0]() is not None)
        return score_cell(*args)

    monkeypatch.setattr(pipeline, "load_squad", keep_weakref)
    monkeypatch.setattr(pipeline, "load_vectors_path", record_alive_at_load)
    monkeypatch.setattr(pipeline, "score_cell", record_alive)
    run_pipeline(load_config(config_path, env={}))
    assert alive_at_load == [False]
    assert alive_at_score == [False] * 8


@pytest.mark.parametrize("failure", ["sample-too-large", "no-baselines"])
def test_sample_failure_comes_before_the_vector_parse(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, failure
):
    # the dataset and the sample are checked before the vector file, the
    # longest part of the set-up, is parsed at all
    dataset, sample_size = mini_squad_path, 7
    if failure == "no-baselines":
        doc = json.loads(mini_squad_path.read_text(encoding="utf-8"))
        doc["data"][0]["paragraphs"][0]["qas"] = []
        dataset = tmp_path / "no_baselines.json"
        dataset.write_text(json.dumps(doc), encoding="utf-8")
        sample_size = 6
    loads = []
    monkeypatch.setattr(pipeline, "load_vectors_path", loads.append)
    path = write_config(tmp_path, dataset, demo_vectors_path, sample_size=sample_size)
    with pytest.raises(PipelineError) as err:
        run_pipeline(load_config(path, env={}))
    assert err.value.stage == "sample"
    assert type(err.value.cause).__name__ == {
        "sample-too-large": "SampleTooLarge",
        "no-baselines": "EmptyRecords",
    }[failure]
    assert loads == []


# -- HTTP-backed runs and failure handling ------------------------------------------

def http_config(tmp_path, mini_squad_path, demo_vectors_path, url, **overrides):
    return write_config(
        tmp_path,
        mini_squad_path,
        demo_vectors_path,
        backend="http",
        backend_url=url,
        sample_size=1,
        max_in_flight=1,
        **overrides,
    )


def test_run_pipeline_http_backend_end_to_end(tmp_path, mini_squad_path, demo_vectors_path):
    with scripted_server(["ok"] * 4, reply={"text": FIVE_QUESTIONS}) as (url, state):
        path = http_config(tmp_path, mini_squad_path, demo_vectors_path, url)
        run = run_pipeline(load_config(path, env={}))
    assert len(run.results) == 4
    assert len(state["captured"]) == 4
    prompts = [c["body"]["prompt"] for c in state["captured"]]
    assert all("\nText: " in p and p.endswith("\nQuestions:") for p in prompts)
    manifest = json.loads((Path(tmp_path / "out") / "manifest.json").read_text())
    assert manifest["backend_calls"] == 4


def test_partial_failure_persists_completed_cells(tmp_path, mini_squad_path, demo_vectors_path):
    script = ["ok", "ok", "ok", 400]
    with scripted_server(script, reply={"text": FIVE_QUESTIONS}) as (url, _):
        path = http_config(tmp_path, mini_squad_path, demo_vectors_path, url)
        with pytest.raises(PipelineError) as err:
            run_pipeline(load_config(path, env={}))
    assert err.value.cells_done == 3
    assert err.value.stage == "generate"
    out = tmp_path / "out"
    lines = (out / "scores.jsonl").read_text().splitlines()
    assert len(lines) == 15  # 3 completed cells x 5 questions
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["stage"] == "generate"
    assert manifest["cells"] == 3
    assert "BackendRejected" in manifest["error"]


def test_completion_with_a_lone_surrogate_fails_the_run_at_generate(
    tmp_path, mini_squad_path, demo_vectors_path
):
    reply = {"text": "1. What is \ud800 here?"}
    with scripted_server([], reply=reply) as (url, state):
        path = http_config(tmp_path, mini_squad_path, demo_vectors_path, url)
        assert main(["run", "--config", str(path)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (manifest["status"], manifest["stage"]) == ("failed", "generate")
    assert manifest["error"].startswith("BackendRejected: completion is not valid Unicode")
    assert len(state["captured"]) == manifest["backend_calls"]


def test_dataset_string_with_a_lone_surrogate_fails_the_run_at_load(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, capsys
):
    # a complete run first: the failed run must leave none of its files
    config = write_config(tmp_path, mini_squad_path, demo_vectors_path)
    assert main(["run", "--config", str(config)]) == 0
    doc = json.loads(mini_squad_path.read_text(encoding="utf-8"))
    for article in doc["data"]:
        for para in article["paragraphs"]:
            for qa in para["qas"]:
                qa["id"] += "\ud800"
    dataset = tmp_path / "squad.json"
    # json.dumps escapes the surrogate, so the file is valid UTF-8 JSON
    dataset.write_text(json.dumps(doc), encoding="utf-8")
    backend = FailFirstBackend("none")
    monkeypatch.setattr(pipeline, "make_backend", lambda cfg: backend)
    capsys.readouterr()
    config = write_config(tmp_path, dataset, demo_vectors_path)
    assert main(["run", "--config", str(config)]) == 2
    path = "$.data[0].paragraphs[0].qas[0].id"
    assert capsys.readouterr().err == (
        f"error: stage 'load': {path}: not valid Unicode (a lone surrogate)\n"
    )
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["status"], manifest["stage"]) == ("failed", "load")
    assert manifest["error"] == f"SchemaError: {path}: not valid Unicode (a lone surrogate)"
    assert (manifest["backend_calls"], manifest["cells"]) == (0, 0)
    assert backend.calls == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json", "scores.jsonl"]
    assert (tmp_path / "out" / "scores.jsonl").read_bytes() == b""


def test_total_backend_failure_no_cells(tmp_path, mini_squad_path, demo_vectors_path):
    with scripted_server([400] * 8) as (url, _):
        path = http_config(tmp_path, mini_squad_path, demo_vectors_path, url)
        with pytest.raises(PipelineError) as err:
            run_pipeline(load_config(path, env={}))
    assert err.value.cells_done == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["cells"] == 0


class FailFirstBackend(MockBackend):
    """With failure "rejected" its first call raises BackendRejected, with
    "unparseable" it returns a completion with no questions; with any
    other failure no call fails. Every call that does not fail takes
    about 50 ms."""

    def __init__(self, failure: str = "rejected") -> None:
        super().__init__(seed=0)
        self.failure = failure
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, request):
        with self.lock:
            self.calls += 1
            first = self.calls == 1
        if first and self.failure == "unparseable":
            return "no questions here"
        if first and self.failure == "rejected":
            raise BackendRejected("rejected")
        time.sleep(0.05)
        return super().complete(request)


@pytest.mark.parametrize("failure", ["rejected", "unparseable", "unrenderable"])
def test_first_backend_failure_stops_queued_calls(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, failure
):
    backend = FailFirstBackend(failure)
    monkeypatch.setattr(pipeline, "make_backend", lambda cfg: backend)
    renders = []
    real_render = pipeline.render_prompt

    def render_prompt(pid, context):
        with backend.lock:
            renders.append(pid)
            first = len(renders) == 1
        if first and failure == "unrenderable":
            raise ValueError("unrenderable")
        return real_render(pid, context)

    monkeypatch.setattr(pipeline, "render_prompt", render_prompt)
    # 6 contexts x 4 prompts = 24 jobs
    path = write_config(
        tmp_path, mini_squad_path, demo_vectors_path, sample_size=6, max_in_flight=2
    )
    with pytest.raises(PipelineError) as err:
        run_pipeline(load_config(path, env={}))
    assert err.value.stage == "generate"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    # the failed job and at most the one in flight beside it
    assert len(renders) <= 2
    assert manifest["backend_calls"] == backend.calls <= 2
    if failure == "unrenderable":
        assert manifest["error"] == "ValueError: unrenderable"


class SlowFirstFailSecondBackend(MockBackend):
    """Its first call takes 0.2 s; its second is rejected at once."""

    def __init__(self) -> None:
        super().__init__(seed=0)
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, request):
        with self.lock:
            self.calls += 1
            n = self.calls
        if n == 2:
            raise BackendRejected("rejected")
        if n == 1:
            time.sleep(0.2)
        return super().complete(request)


def test_context_without_baselines_fails_before_any_call(
    tmp_path, mini_squad_path, demo_vectors_path, capsys
):
    doc = json.loads(mini_squad_path.read_text(encoding="utf-8"))
    doc["data"][0]["paragraphs"][0]["qas"] = []
    dataset = tmp_path / "no_baselines.json"
    dataset.write_text(json.dumps(doc), encoding="utf-8")
    # all 6 contexts are sampled, context 0 among them
    path = write_config(tmp_path, dataset, demo_vectors_path, sample_size=6)
    assert main(["run", "--config", str(path)]) == 2
    assert "context 0 has no baseline questions" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stage"] == "sample"
    assert (manifest["backend_calls"], manifest["cells"]) == (0, 0)


def test_completion_in_flight_beside_failed_call_is_scored(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch
):
    monkeypatch.setattr(
        pipeline, "make_backend", lambda cfg: SlowFirstFailSecondBackend()
    )
    path = write_config(
        tmp_path, mini_squad_path, demo_vectors_path, sample_size=6, max_in_flight=2
    )
    # one cell was scored before the abort: a partial run
    assert main(["run", "--config", str(path)]) == 4
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stage"] == "generate"
    assert (manifest["backend_calls"], manifest["cells"]) == (2, 1)
    assert len((out / "scores.jsonl").read_text().splitlines()) == 5


class FailAtCallBackend(MockBackend):
    """Its call number ``at``, counting from 1, fails after ``retries``
    retries: it raises ``failure``, BackendRejected if None, or returns it
    as the completion if it is a string. ``last_retries`` is shared by
    the threads, so only one call at a time may have retries."""

    def __init__(self, at: int, failure=None, retries: int = 0) -> None:
        super().__init__(seed=0)
        self.at = at
        self.failure = BackendRejected("rejected") if failure is None else failure
        self.retries = retries
        self.calls = 0
        self.last_retries = 0
        self.lock = threading.Lock()

    def complete(self, request):
        with self.lock:
            self.calls += 1
            failing = self.calls == self.at
        self.last_retries = self.retries if failing else 0
        if not failing:
            return super().complete(request)
        if isinstance(self.failure, str):
            return self.failure
        raise self.failure


@pytest.mark.parametrize(
    "at, lists", [(5, [4]), (7, [4, 2])], ids=["context-without-lists", "context-with-two"]
)
def test_cosines_taken_once_per_context_with_a_returned_list(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, at, lists
):
    # one call at a time, so the calls before call ``at`` come back and
    # none is sent after it; a context none of whose lists came back is
    # skipped, and the others get one map over the lists that did
    monkeypatch.setattr(pipeline, "make_backend", lambda cfg: FailAtCallBackend(at))
    taken = []
    context_cosines = pipeline.context_cosines

    def spying(baselines, question_lists, table):
        taken.append((baselines, len(question_lists)))
        return context_cosines(baselines, question_lists, table)

    monkeypatch.setattr(pipeline, "context_cosines", spying)
    path = write_config(
        tmp_path, mini_squad_path, demo_vectors_path, sample_size=3, max_in_flight=1
    )
    with pytest.raises(PipelineError) as err:
        run_pipeline(load_config(path, env={}))
    assert (err.value.stage, err.value.cells_done) == ("generate", sum(lists))
    assert [n for _, n in taken] == lists
    # each map is of another context's baselines
    assert len({baselines for baselines, _ in taken}) == len(lists)


def test_failed_call_counted_in_manifest_totals(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch
):
    # the second call is answered 503 three times and gives up
    script = ["ok", 503, 503, 503]
    with scripted_server(script, reply={"text": FIVE_QUESTIONS}) as (url, state):
        monkeypatch.setattr(
            pipeline, "make_backend", lambda cfg: HttpBackend(url, sleep=lambda s: None)
        )
        path = http_config(tmp_path, mini_squad_path, demo_vectors_path, url)
        with pytest.raises(PipelineError):
            run_pipeline(load_config(path, env={}))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["backend_retries"] == 2
    assert manifest["backend_calls"] + manifest["backend_retries"] == len(state["captured"])


@pytest.mark.parametrize("failing_stage", ["load", "generate"])
def test_failed_rerun_leaves_only_its_own_files(
    tmp_path, mini_squad_path, demo_vectors_path, failing_stage
):
    out = tmp_path / "out"
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path)
    run_pipeline(load_config(path, env={}))
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    if failing_stage == "load":
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        path = write_config(tmp_path, bad, demo_vectors_path)
        with pytest.raises(PipelineError) as err:
            run_pipeline(load_config(path, env={}))
        cells, sent = 0, 0
    else:
        # one cell completes, then the backend rejects the next call
        with scripted_server(["ok", 400], reply={"text": FIVE_QUESTIONS}) as (url, state):
            path = http_config(tmp_path, mini_squad_path, demo_vectors_path, url)
            with pytest.raises(PipelineError) as err:
                run_pipeline(load_config(path, env={}))
        cells, sent = 1, len(state["captured"])
    assert err.value.stage == failing_stage
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json",
        "notes.txt",
        "scores.jsonl",
    ]
    rows = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
    assert len(rows) == 5 * cells
    assert all(row["question"] in FIVE_QUESTIONS for row in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["cells"] == cells
    # the rejected call counts too
    assert manifest["backend_calls"] + manifest["backend_retries"] == sent


UNPARSEABLE = "I cannot think of any question about this text. " * 5


@pytest.mark.parametrize(
    "failure, retries",
    [
        (BackendUnavailable("HTTP 503"), 2),
        (BackendRejected("HTTP 400: bad request"), 0),
        (BackendTimeout("no answer within 30.0s after 3 attempts"), 2),
        (UNPARSEABLE, 0),
    ],
    ids=["unavailable", "rejected", "timeout", "no-questions"],
)
def test_failed_manifest_names_the_failed_job(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, failure, retries
):
    # all 6 contexts, one call at a time in job order: call 6 is the job
    # (context 1, prompt B)
    backend = FailAtCallBackend(6, failure, retries)
    monkeypatch.setattr(pipeline, "make_backend", lambda cfg: backend)
    path = write_config(
        tmp_path, mini_squad_path, demo_vectors_path, sample_size=6, max_in_flight=1
    )
    with pytest.raises(PipelineError) as err:
        run_pipeline(load_config(path, env={}))
    assert (err.value.stage, err.value.cells_done) == ("generate", 5)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    job = {"context_id": 1, "prompt_id": "B", "attempts": retries + 1}
    if isinstance(failure, str):
        assert len(failure) > 200
        job["completion"] = failure[:200]
        assert manifest["error"] == "NoQuestionsFound: response contained no parseable questions"
    else:
        assert manifest["error"] == f"{type(failure).__name__}: {failure}"
    assert manifest["failed_job"] == job
    assert manifest["backend_calls"] == 6


def test_manifest_names_no_job_for_a_failure_outside_the_calls(
    tmp_path, mini_squad_path, demo_vectors_path
):
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path, sample_size=7)
    with pytest.raises(PipelineError):
        run_pipeline(load_config(path, env={}))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["status"], manifest["stage"]) == ("failed", "sample")
    assert "failed_job" not in manifest


def failing_unlink(monkeypatch, path: Path, refuse=lambda n: True):
    """Make Path.unlink raise EACCES for path only, on the calls whose
    number n, counting from 1, refuse(n) is true; the list of the numbers
    of the calls for path, each negated if it was refused."""
    calls = []
    unlink = Path.unlink

    def faulty(self, missing_ok=False):
        if self == path:
            n = len(calls) + 1
            calls.append(-n if refuse(n) else n)
            if refuse(n):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
        return unlink(self, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", faulty)
    return calls


def directory_bytes(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_manifest_that_cannot_be_removed_is_a_config_error(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, capsys
):
    # the previous run's directory is left as it was, and no input is read
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path)
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    before = directory_bytes(out)
    calls = failing_unlink(monkeypatch, out / "manifest.json")
    monkeypatch.setattr(pipeline, "load_squad", lambda path: pytest.fail("input was read"))
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--seed", "3"]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot remove {out / 'manifest.json'}: Permission denied\n"
    )
    assert calls == [-1]
    assert directory_bytes(out) == before


def test_stale_artifact_that_cannot_be_removed_leaves_no_manifest(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch
):
    # a failed run whose cleanup cannot remove the previous table2.csv
    # writes no manifest beside it, and raises an error naming it
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path, max_in_flight=1)
    run_pipeline(load_config(path, env={}))
    out = tmp_path / "out"
    monkeypatch.setattr(pipeline, "make_backend", lambda cfg: FailAtCallBackend(2, UNPARSEABLE))
    failing_unlink(monkeypatch, out / "table2.csv")
    with pytest.raises(ConfigError, match=re.escape(f"cannot remove {out / 'table2.csv'}: ")):
        run_pipeline(load_config(path, env={}))
    assert not (out / "manifest.json").exists()
    assert (out / "table2.csv").exists()


def test_failed_run_removes_a_temporary_file_its_write_left(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch
):
    # the table2.csv write fails, and so does the removal of its temporary
    # file; the failure cleanup removes it, so the failed manifest sits
    # beside scores.jsonl alone
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path)
    run_pipeline(load_config(path, env={}))
    out = tmp_path / "out"

    def full_disk(cells):
        yield "context_id,prompt,question,question_max,prompt_max\n"
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(pipeline, "table2_csv", full_disk)
    # the write removes a stale temporary file first, and the one it made
    # after the failure: that second removal is refused
    calls = failing_unlink(monkeypatch, out / ".table2.csv.tmp", lambda n: n == 2)
    with pytest.raises(PipelineError) as err:
        run_pipeline(load_config(path, env={}))
    assert err.value.stage == "persist"
    assert calls == [1, -2, 3]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "scores.jsonl"]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["status"], manifest["stage"]) == ("failed", "persist")


def test_report_names_a_temporary_file_it_cannot_remove(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, capsys
):
    # the fig6_boxplot.csv write fails, and so does the removal of the
    # temporary file it made: the file left beside the complete manifest
    # is named, not passed over
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path)
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    tmp = out / ".fig6_boxplot.csv.tmp"

    def full_disk(run):
        yield "prompt,mean,median,q1,q3,whisker_lo,whisker_hi,outliers\n"
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(pipeline, "fig6_csv", full_disk)
    calls = failing_unlink(monkeypatch, tmp, lambda n: n == 2)
    capsys.readouterr()
    assert main(["report", "--run", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot remove {tmp}: Permission denied\n"
    assert calls == [1, -2]
    assert tmp.exists()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "complete"


@pytest.mark.parametrize(
    "failure",
    [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), KeyboardInterrupt()],
    ids=["full-disk", "interrupt"],
)
def test_write_that_cannot_remove_its_temporary_file(tmp_path, monkeypatch, failure):
    # the write's error is the cause of the ConfigError naming the file;
    # an interrupt passes through as it is
    def failing_chunks():
        yield "new,row\n"
        raise failure

    tmp = tmp_path / ".table2.csv.tmp"
    failing_unlink(monkeypatch, tmp, lambda n: n == 2)
    if isinstance(failure, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            pipeline._write_files(tmp_path, {"table2.csv": failing_chunks()})
    else:
        with pytest.raises(ConfigError) as err:
            pipeline._write_files(tmp_path, {"table2.csv": failing_chunks()})
        assert str(err.value) == f"cannot remove {tmp}: Permission denied"
        assert err.value.__cause__ is failure
    assert [p.name for p in tmp_path.iterdir()] == [tmp.name]


def test_interrupted_rerun_leaves_no_manifest(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch
):
    out = tmp_path / "out"
    cfg = load_config(write_config(tmp_path, mini_squad_path, demo_vectors_path), env={})
    run_pipeline(replace(cfg, seed=7, sample_size=4))

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "emit_figures", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(replace(cfg, seed=3))
    # the seed-7 figures and report are still there, but no manifest
    # claims them for the seed-3 run
    assert (out / "fig8_max_series.csv").exists()
    assert not (out / "manifest.json").exists()
    assert main(["report", "--run", str(out)]) == 2
    # nor does load_run read the seed-3 run.json beside the seed-7 scores
    with pytest.raises(SchemaError, match="manifest.json: file not found"):
        load_run(out)


class InterruptingBackend(MockBackend):
    """Its call number `at` is interrupted: with how "raise" the call
    raises KeyboardInterrupt, with how "signal" it sends SIGINT to the
    process, which the main thread receives, and then takes 0.25 s. Every
    other call takes 50 ms. ``sent_at`` is the monotonic time of the
    SIGINT, None until it is sent."""

    def __init__(self, at: int, how: str) -> None:
        super().__init__(seed=0)
        self.at = at
        self.how = how
        self.calls = 0
        self.lock = threading.Lock()
        self.sent_at = None

    def complete(self, request):
        with self.lock:
            self.calls += 1
            n = self.calls
        if n == self.at and self.how == "raise":
            raise KeyboardInterrupt
        if n == self.at:
            self.sent_at = time.monotonic()
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.2)
        time.sleep(0.05)
        return super().complete(request)


@pytest.mark.parametrize("how", ["raise", "signal"])
def test_interrupt_stops_the_calls(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, how
):
    at, in_flight = 3, 2
    backend = InterruptingBackend(at, how)
    monkeypatch.setattr(pipeline, "make_backend", lambda cfg: backend)
    # 6 contexts x 4 prompts = 24 jobs
    cfg = load_config(
        write_config(
            tmp_path, mini_squad_path, demo_vectors_path,
            sample_size=6, max_in_flight=in_flight,
        ),
        env={},
    )
    before = set(threading.enumerate())
    # when the main thread took the SIGINT, to tell a late signal from a
    # lost one if the run ends without it
    received = []

    def on_sigint(signum, frame):
        received.append(time.monotonic())
        signal.default_int_handler(signum, frame)

    previous = signal.signal(signal.SIGINT, on_sigint)
    start = time.monotonic()
    try:
        run_pipeline(cfg)
    except KeyboardInterrupt:
        pass
    else:
        ended = time.monotonic() - start
        sent = "never" if backend.sent_at is None else f"{backend.sent_at - start:.3f} s"
        got = ", ".join(f"{t - start:.3f} s" for t in received) or "never"
        pytest.fail(
            f"DID NOT RAISE {KeyboardInterrupt}: SIGINT sent at {sent}, received "
            f"at {got}, run ended at {ended:.3f} s"
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    assert set(threading.enumerate()) <= before
    sent = backend.calls
    # a call still running would be counted by now
    time.sleep(0.1)
    assert backend.calls == sent
    # the interrupted call and those in flight beside it; a signal reaches
    # the main thread a moment after it is sent, so one more may start
    assert sent <= at + in_flight - (how == "raise")
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("outcome", ["complete", "load", "score", "interrupt"])
def test_run_leaves_the_collector_as_it_found_it(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, outcome, enabled
):
    dataset = mini_squad_path
    expected = nullcontext()
    if outcome == "load":
        dataset = tmp_path / "bad.json"
        dataset.write_text("{broken", encoding="utf-8")
        expected = pytest.raises(PipelineError, match="stage 'load'")
    elif outcome == "score":

        def fail(*args, **kwargs):
            raise ValueError("no score")

        monkeypatch.setattr(pipeline, "score_cell", fail)
        expected = pytest.raises(PipelineError, match="stage 'score'")
    elif outcome == "interrupt":
        monkeypatch.setattr(pipeline, "make_backend", lambda cfg: InterruptingBackend(3, "raise"))
        expected = pytest.raises(KeyboardInterrupt)
    cfg = load_config(write_config(tmp_path, dataset, demo_vectors_path), env={})
    try:
        (gc.enable if enabled else gc.disable)()
        with expected:
            run_pipeline(cfg)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


class CollectorWatchingBackend(MockBackend):
    """Records, on each call, whether the cyclic collector is on."""

    def __init__(self) -> None:
        super().__init__(seed=0)
        self.seen: list[bool] = []

    def complete(self, request):
        self.seen.append(gc.isenabled())
        return super().complete(request)


def test_collector_is_on_during_every_call(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch
):
    # an exception kept across a call's retries holds a reference cycle
    # through its traceback, which only the collector frees
    backend = CollectorWatchingBackend()
    monkeypatch.setattr(pipeline, "make_backend", lambda cfg: backend)
    cfg = load_config(
        write_config(tmp_path, mini_squad_path, demo_vectors_path, sample_size=4), env={}
    )
    run_pipeline(cfg)
    assert backend.seen == [True] * 16


def test_no_collection_from_load_until_the_dataset_is_dropped(
    tmp_path, monkeypatch, collections
):
    # 2,000 contexts make a collection due as soon as the parse returns
    doc = make_squad_doc(build_synth_articles(2000))
    dataset = tmp_path / "squad.json"
    dataset.write_text(json.dumps(doc), encoding="utf-8")
    vectors = write_vector_file(tmp_path / "vectors.txt", corpus_vocab(doc))
    marks = {}
    real_load_squad = pipeline.load_squad

    def load_squad(path):
        # start from empty generations, as the run's own allocations do
        gc.collect()
        marks["entered"] = len(collections)
        loaded = real_load_squad(path)
        # called as the run drops the dataset, its last reference
        weakref.finalize(loaded, lambda: marks.setdefault("dropped", len(collections)))
        return loaded

    monkeypatch.setattr(pipeline, "load_squad", load_squad)
    run_pipeline(load_config(write_config(tmp_path, dataset, vectors), env={}))
    assert marks["dropped"] == marks["entered"]
    # and the collector ran again after
    assert len(collections) > marks["dropped"]
    assert gc.isenabled()


@pytest.mark.parametrize("in_flight", [1, 2, 32])
@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_dispatcher_starts_one_thread_per_call_in_flight(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, in_flight, fails
):
    started = []
    real_start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    monkeypatch.setattr(
        pipeline, "make_backend", lambda cfg: FailFirstBackend("rejected" if fails else "none")
    )
    # the demo config: 4 contexts x 4 prompts = 16 jobs
    cfg = load_config(
        write_config(
            tmp_path, mini_squad_path, demo_vectors_path,
            sample_size=4, max_in_flight=in_flight,
        ),
        env={},
    )
    if fails:
        with pytest.raises(PipelineError):
            run_pipeline(cfg)
    else:
        run_pipeline(cfg)
    assert len(started) == min(in_flight, 16)
    assert not set(started) & set(threading.enumerate())


def test_dispatcher_sends_each_job_once_under_contention(tmp_path, synth_corpus, monkeypatch):
    # more workers than cores, switching threads as often as the
    # interpreter allows: two workers taking one job index would render
    # its prompt twice and leave another job unsent, and a call record
    # lost between the workers would show in the manifest's call count
    dataset, vectors = synth_corpus
    renders = []
    real_render = pipeline.render_prompt

    def render_prompt(pid, context):
        renders.append((pid, context))
        return real_render(pid, context)

    monkeypatch.setattr(pipeline, "render_prompt", render_prompt)
    cfg = load_config(
        write_config(tmp_path, dataset, vectors, sample_size=60, max_in_flight=8), env={}
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run = run_pipeline(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert len(renders) == len(set(renders)) == len(run.results) == 60 * 4
    manifest = json.loads((Path(cfg.out) / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["backend_calls"] == 60 * 4


@pytest.mark.parametrize("outcome", ["complete", "generate", "load"])
def test_manifest_is_written_once_and_last(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch, outcome
):
    written = []
    real_write_files = pipeline._write_files

    def recording_write_files(out, files):
        written.extend(files)
        return real_write_files(out, files)

    monkeypatch.setattr(pipeline, "_write_files", recording_write_files)
    dataset = mini_squad_path
    if outcome == "generate":
        monkeypatch.setattr(pipeline, "make_backend", lambda cfg: FailFirstBackend())
    elif outcome == "load":
        dataset = tmp_path / "bad.json"
        dataset.write_text("{broken", encoding="utf-8")
    cfg = load_config(write_config(tmp_path, dataset, demo_vectors_path), env={})
    if outcome == "complete":
        run_pipeline(cfg)
        assert sorted(written) == sorted(
            [*pipeline._COMPLETE_RUN_ONLY, "scores.jsonl", "manifest.json"]
        )
    else:
        with pytest.raises(PipelineError) as err:
            run_pipeline(cfg)
        assert err.value.stage == outcome
        assert written == ["scores.jsonl", "manifest.json"]
    assert written[-1] == "manifest.json"
    assert written.count("manifest.json") == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == ("complete" if outcome == "complete" else "failed")


def test_big_files_are_streamed_to_write_files(config_path, monkeypatch):
    handed = {}
    real_write_files = pipeline._write_files

    def recording_write_files(out, files):
        handed.update(files)
        return real_write_files(out, files)

    monkeypatch.setattr(pipeline, "_write_files", recording_write_files)
    run_pipeline(load_config(config_path, env={}))
    for name in ("scores.jsonl", "table2.csv"):
        assert isinstance(handed[name], Iterator), name


def test_interrupted_write_keeps_previous_file(tmp_path):
    pipeline._write_files(tmp_path, {"table2.csv": ("old,row\n",)})

    def torn_chunks():
        yield "new,row\n" * 50
        raise OSError("disk full")

    with pytest.raises(OSError):
        pipeline._write_files(tmp_path, {"table2.csv": torn_chunks()})
    assert (tmp_path / "table2.csv").read_text() == "old,row\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table2.csv"]


@pytest.mark.parametrize("failing", ["write", "close"])
def test_full_disk_raises_config_error_and_keeps_previous_file(tmp_path, monkeypatch, failing):
    pipeline._write_files(tmp_path, {"table2.csv": ("old,row\n",)})
    real_open = open

    class FullDisk:
        """The temporary file, on a disk that fills at its first write or at close."""

        def __init__(self, fd, *args, **kwargs):
            self.fh = real_open(fd, *args, **kwargs)

        def write(self, chunk):
            if failing == "write":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.fh.write(chunk)

        def close(self):
            self.fh.close()
            if failing == "close":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(pipeline, "open", FullDisk, raising=False)
    target = tmp_path / "table2.csv"
    message = f"^cannot write {re.escape(str(target))}: No space left on device$"
    with pytest.raises(ConfigError, match=message):
        pipeline._write_files(tmp_path, {"table2.csv": ("new,row\n",) * 3})
    assert target.read_text() == "old,row\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table2.csv"]


@pytest.mark.parametrize(
    "out, name, blocked",
    [
        ("missing", "run.json", None),
        (".", "fig7_matches.csv", "fig7_matches.csv"),
        (".", "fig8_max_series.csv", ".fig8_max_series.csv.tmp"),
    ],
    ids=["missing-directory", "target-is-directory", "temporary-is-directory"],
)
def test_unwritable_file_raises_config_error_naming_it(tmp_path, out, name, blocked):
    # the directory is made by make_out_dir, never here; a directory in
    # the way is left as it is
    if blocked:
        (tmp_path / blocked).mkdir()
    target = tmp_path / out / name
    with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(target))}: "):
        pipeline._write_files(tmp_path / out, {name: ("new\n",)})
    assert [p.name for p in tmp_path.iterdir()] == ([blocked] if blocked else [])


def test_data_error_writes_failure_manifest(tmp_path, demo_vectors_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    path = write_config(tmp_path, bad, demo_vectors_path)
    with pytest.raises(PipelineError) as err:
        run_pipeline(load_config(path, env={}))
    assert err.value.stage == "load"
    assert err.value.cells_done == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["stage"] == "load"


# -- CLI ----------------------------------------------------------------------------

def test_cli_run_success(config_path, capsys):
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "run complete: 8 cells, 40 questions" in out
    assert "prompt A:" in out and "prompt D:" in out


def test_cli_run_overrides(tmp_path, mini_squad_path, demo_vectors_path, capsys):
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path)
    override_out = tmp_path / "elsewhere"
    code = main(
        [
            "run",
            "--config", str(path),
            "--seed", "5",
            "--sample-size", "3",
            "--threshold", "0.5",
            "--out", str(override_out),
        ]
    )
    assert code == 0
    manifest = json.loads((override_out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["config"]["sample_size"] == 3
    assert manifest["config"]["threshold"] == 0.5
    assert manifest["cells"] == 12


def test_cli_run_backend_override_with_env_url(
    tmp_path, mini_squad_path, demo_vectors_path, capsys, monkeypatch
):
    reply = {"choices": [{"text": FIVE_QUESTIONS}]}
    with scripted_server(["ok"] * 4, reply=reply) as (url, state):
        monkeypatch.setenv(ENV_URL, url)
        path = write_config(tmp_path, mini_squad_path, demo_vectors_path, sample_size=1)
        assert main(["run", "--config", str(path), "--backend", "openai"]) == 0
    assert len(state["captured"]) == 4
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["backend"] == {"kind": "openai", "url": url, "model": None}


def test_cli_run_accepts_every_backend_kind():
    args = build_parser().parse_args(
        ["run", "--config", "c.json", "--backend", "openai"]
    )
    assert args.backend == "openai"


def test_cli_run_flags_name_config_fields():
    # a flag whose dest names no RunConfig field would be ignored silently
    args = vars(build_parser().parse_args(["run", "--config", "c.json"]))
    assert args.pop("command") == "run"
    assert args.pop("config") == "c.json"
    assert args
    assert set(args) <= set(RunConfig.__dataclass_fields__)


def test_cli_exit_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
    # JSON text must be UTF-8
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"seed": 1}\xff')
    assert main(["run", "--config", str(not_utf8)]) == 1
    assert "config is not valid JSON" in capsys.readouterr().err


def test_cli_exit_config_error_on_mistyped_value(
    tmp_path, mini_squad_path, demo_vectors_path, capsys
):
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path, seed="7")
    assert main(["run", "--config", str(path)]) == 1
    assert "seed must be int" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"temperature": float("nan")}, "temperature must be float"),
        ({"backend": "http", "backend_url": "file:///tmp/reply.json"}, "http(s)://"),
        # relative to the config file, so under tmp_path
        ({"out": "file"}, "cannot create output directory"),
        ({"out": "file/sub"}, "cannot create output directory"),
        ({"out": ""}, "config key 'out' must be a non-empty string"),
    ],
    ids=["nan-temperature", "file-url", "out-is-file", "out-under-file", "out-empty"],
)
def test_cli_exit_config_error_before_reading_input(
    tmp_path, mini_squad_path, demo_vectors_path, capsys, monkeypatch, overrides, message
):
    (tmp_path / "file").write_bytes(b"kept")
    monkeypatch.setattr(pipeline, "load_squad", lambda path: pytest.fail("input was read"))
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path, **overrides)
    assert main(["run", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "file").read_bytes() == b"kept"


@pytest.mark.parametrize(
    "token, netloc",
    [("SECRET\n", "{host}"), (None, "user:SECRET@{host}"), (None, "user:SECRET@{host}:x")],
    ids=["token-with-newline", "password-in-url", "password-and-bad-port"],
)
def test_cli_unsendable_secret_is_config_error_never_echoed(
    tmp_path, mini_squad_path, demo_vectors_path, capsys, monkeypatch, token, netloc
):
    if token is not None:
        monkeypatch.setenv(ENV_TOKEN, token)
    with scripted_server([]) as (url, state):
        host = url.split("/")[2]
        url = url.replace(host, netloc.format(host=host))
        path = http_config(tmp_path, mini_squad_path, demo_vectors_path, url)
        assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "backend" in err and "SECRET" not in err
    # refused before the output directory is made, so no file holds it
    assert not (tmp_path / "out").exists()
    assert state["captured"] == []


def test_cli_exit_config_error_on_empty_out_flag(
    tmp_path, mini_squad_path, demo_vectors_path, capsys, monkeypatch
):
    # --out "" is not the current directory, whose report.md and run.json a
    # failed run would delete
    for name in ("report.md", "run.json"):
        (tmp_path / name).write_bytes(b"kept")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pipeline, "load_squad", lambda path: pytest.fail("input was read"))
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path)
    assert main(["run", "--config", str(path), "--out", ""]) == 1
    assert "out must be a non-empty path" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "report.md", "run.json"]
    assert (tmp_path / "report.md").read_bytes() == (tmp_path / "run.json").read_bytes() == b"kept"


@pytest.mark.parametrize("name", ["manifest.json", "scores.jsonl", "run.json", "fig1_lengths.csv"])
def test_cli_run_refuses_directory_at_artifact_name(
    tmp_path, mini_squad_path, demo_vectors_path, capsys, monkeypatch, name
):
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path)
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "out"
    (out / name).unlink()
    (out / name).mkdir()
    before = {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()}
    backend = FailFirstBackend("none")
    monkeypatch.setattr(pipeline, "make_backend", lambda cfg: backend)
    monkeypatch.setattr(pipeline, "load_squad", lambda path: pytest.fail("input was read"))
    capsys.readouterr()
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out / name}: Is a directory\n"
    assert backend.calls == 0
    assert {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()} == before


def test_cli_deeply_nested_json_is_malformed(tmp_path, demo_vectors_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    reason = "nesting too deep: line 1 column 1 (char 0)"
    assert main(["stats", "--dataset", str(deep), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: invalid JSON: {reason}\n"
    assert main(["run", "--config", str(deep)]) == 1
    assert capsys.readouterr().err == f"error: config is not valid JSON: {reason}\n"
    path = write_config(tmp_path, deep, demo_vectors_path)
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: stage 'load': invalid JSON: {reason}\n"


def test_cli_exit_data_error(tmp_path, demo_vectors_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    path = write_config(tmp_path, bad, demo_vectors_path)
    assert main(["run", "--config", str(path)]) == 2


def test_cli_exit_backend_error(tmp_path, mini_squad_path, demo_vectors_path, capsys):
    with scripted_server([400] * 8) as (url, _):
        path = http_config(tmp_path, mini_squad_path, demo_vectors_path, url)
        assert main(["run", "--config", str(path)]) == 3


def test_cli_exit_partial(tmp_path, mini_squad_path, demo_vectors_path, capsys):
    with scripted_server(["ok", "ok", "ok", 400], reply={"text": FIVE_QUESTIONS}) as (url, _):
        path = http_config(tmp_path, mini_squad_path, demo_vectors_path, url)
        assert main(["run", "--config", str(path)]) == 4


# qgen stats on demos/data/mini_squad.json
STATS_FIG1 = b"bin_lo,bin_hi,count\n4,5,1\n5,6,0\n6,7,5\n7,8,2\n8,9,3\n9,10,5\n10,11,2\n"
STATS_FIG2 = (
    b"token,count\nkess,4\nalderbrook,3\nclocks,3\nriver,3\naster,2\nbrass,2\n"
    b"escapement,2\nfirst,2\nlargest,2\nmany,2\nobservatory,2\nsurvey,2\nweir,2\n"
    b"accurate,1\nadded,1\naltitude,1\napprentices,1\narrive,1\nbecome,1\nbuilt,1\n"
)


def test_cli_stats(tmp_path, mini_squad_path, capsys):
    out = tmp_path / "stats"
    assert main(["stats", "--dataset", str(mini_squad_path), "--out", str(out)]) == 0
    assert (out / "fig1_lengths.csv").read_bytes() == STATS_FIG1
    assert (out / "fig2_keywords.csv").read_bytes() == STATS_FIG2
    stdout = capsys.readouterr().out
    assert "18 questions over 6 contexts" in stdout


def test_cli_stats_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # invalid JSON, and valid JSON followed by a byte that is not UTF-8
    for content in (b"{broken", b'{"data": []}\xff'):
        bad.write_bytes(content)
        assert main(["stats", "--dataset", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "invalid JSON" in capsys.readouterr().err


def test_cli_stats_unusable_out(tmp_path, mini_squad_path, capsys, monkeypatch):
    out = tmp_path / "file"
    out.write_bytes(b"kept")
    monkeypatch.setattr("qgen.cli.load_squad", lambda path: pytest.fail("input was read"))
    assert main(["stats", "--dataset", str(mini_squad_path), "--out", str(out)]) == 1
    assert f"error: cannot create output directory {out}" in capsys.readouterr().err
    assert out.read_bytes() == b"kept"
    # an empty --out is not the current directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig1_lengths.csv").write_bytes(b"kept")
    assert main(["stats", "--dataset", str(mini_squad_path), "--out", ""]) == 1
    assert "error: out must be a non-empty path" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig1_lengths.csv", "file"]
    assert (tmp_path / "fig1_lengths.csv").read_bytes() == b"kept"


@pytest.mark.parametrize(
    "overrides", [{}, {"top_keywords": 5}], ids=["default", "top_keywords-5"]
)
def test_cli_report_reemits_byte_identical(
    tmp_path, mini_squad_path, demo_vectors_path, capsys, overrides
):
    config_path = write_config(tmp_path, mini_squad_path, demo_vectors_path, **overrides)
    assert main(["run", "--config", str(config_path)]) == 0
    cfg = load_config(config_path, env={})
    out = Path(cfg.out)
    originals = {
        name: (out / name).read_bytes()
        for name in (
            "fig1_lengths.csv",
            "fig2_keywords.csv",
            "fig6_boxplot.csv",
            "fig7_matches.csv",
            "fig8_max_series.csv",
            "report.md",
        )
    }
    for name in originals:
        (out / name).unlink()
    assert main(["report", "--run", str(out)]) == 0
    for name, data in originals.items():
        assert (out / name).read_bytes() == data, name


def test_cli_report_missing_dir(tmp_path, capsys):
    assert main(["report", "--run", str(tmp_path / "ghost")]) == 1
