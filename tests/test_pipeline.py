"""End-to-end pipeline runs, persistence, partial failure, CLI exit codes."""

from __future__ import annotations

import json
import shutil
import threading
import time
from pathlib import Path

import pytest

from qgen import pipeline
from qgen.cli import build_parser, main
from qgen.errors import BackendRejected, ConfigError, PipelineError
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
    assert len(run.records()) == 40
    assert sorted(run.summaries) == ["A", "B", "C", "D"]
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


def test_run_pipeline_is_deterministic(tmp_path, mini_squad_path, demo_vectors_path):
    outs = []
    for name in ("one", "two"):
        path = write_config(
            tmp_path, mini_squad_path, demo_vectors_path,
            out=str(tmp_path / name), seed=11,
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
    m0["config"].pop("out"), m1["config"].pop("out")
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


def test_prompt_subset_runs(tmp_path, mini_squad_path, demo_vectors_path):
    path = write_config(
        tmp_path, mini_squad_path, demo_vectors_path, prompts="AC", sample_size=3
    )
    run = run_pipeline(load_config(path, env={}))
    assert sorted(run.summaries) == ["A", "C"]
    assert len(run.results) == 6
    fig7 = fig7_csv(run).splitlines()
    assert len(fig7) == 1 + 2
    fig8 = fig8_csv(run).splitlines()
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
    """Rejects its first call; every later call takes about 50 ms."""

    def __init__(self) -> None:
        super().__init__(seed=0)
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, request):
        with self.lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            raise BackendRejected("rejected")
        time.sleep(0.05)
        return super().complete(request)


def test_first_backend_failure_stops_queued_calls(
    tmp_path, mini_squad_path, demo_vectors_path, monkeypatch
):
    backend = FailFirstBackend()
    monkeypatch.setattr(pipeline, "make_backend", lambda cfg: backend)
    # 6 contexts x 4 prompts = 24 calls
    path = write_config(
        tmp_path, mini_squad_path, demo_vectors_path, sample_size=6, max_in_flight=2
    )
    with pytest.raises(PipelineError) as err:
        run_pipeline(load_config(path, env={}))
    assert err.value.stage == "generate"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    # the failed call and at most the one in flight beside it
    assert manifest["backend_calls"] == backend.calls <= 2


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


def test_interrupted_write_keeps_previous_file(tmp_path, monkeypatch):
    pipeline._write_files(tmp_path, {"table2.csv": "old,row\n"})
    real_write_text = Path.write_text

    def torn_write_text(self, text, *args, **kwargs):
        real_write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", torn_write_text)
    with pytest.raises(OSError):
        pipeline._write_files(tmp_path, {"table2.csv": "new,row\n" * 100})
    assert (tmp_path / "table2.csv").read_text() == "old,row\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table2.csv"]


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


def test_cli_run_accepts_every_backend_kind():
    args = build_parser().parse_args(
        ["run", "--config", "c.json", "--backend", "openai"]
    )
    assert args.backend == "openai"


def test_cli_exit_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err


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
    ],
    ids=["nan-temperature", "file-url"],
)
def test_cli_exit_config_error_before_reading_input(
    tmp_path, mini_squad_path, demo_vectors_path, capsys, overrides, message
):
    path = write_config(tmp_path, mini_squad_path, demo_vectors_path, **overrides)
    assert main(["run", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_cli_stats(tmp_path, mini_squad_path, capsys):
    out = tmp_path / "stats"
    assert main(["stats", "--dataset", str(mini_squad_path), "--out", str(out)]) == 0
    assert (out / "fig1_lengths.csv").is_file()
    assert (out / "fig2_keywords.csv").is_file()
    stdout = capsys.readouterr().out
    assert "18 questions over 6 contexts" in stdout


def test_cli_stats_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["stats", "--dataset", str(bad), "--out", str(tmp_path / "o")]) == 2


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
