"""The committed golden run in demos/out/full_run/ and reading run files back."""

from __future__ import annotations

import builtins
import errno
import io
import json
import os
import random
import shutil
import subprocess
import sys
import types
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from qgen import pipeline, similarity
from qgen.cli import main
from qgen.corpus import ContextRecord, load_squad
from qgen.errors import ConfigError, PipelineError, SchemaError
from qgen.pipeline import RunConfig, load_run, run_pipeline
from qgen.scoring import ScoreRecord
from qgen.similarity import VectorIndex, load_vectors, tokenize

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


def golden_config(out: Path) -> RunConfig:
    """The config of demos/04_full_run.py, writing to out."""
    return RunConfig(
        dataset=str(DEMOS / "data" / "mini_squad.json"),
        vectors=str(DEMOS / "data" / "vectors_50d.txt"),
        out=str(out),
        backend="mock",
        seed=7,
        sample_size=4,
        threshold=0.7,
    )


def assert_golden(out: Path) -> None:
    """The run in out is the golden run, manifest paths and times aside."""
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        if name == "manifest.json":
            assert _stable_manifest(out / name) == _stable_manifest(GOLDEN / name)
        else:
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_golden_run_reproduces_byte_for_byte(tmp_path):
    out = tmp_path / "full_run"
    run_pipeline(golden_config(out))
    assert_golden(out)


@pytest.mark.parametrize("salt", ["1", "2"])
def test_golden_run_does_not_depend_on_the_hash_salt(tmp_path, salt):
    # the vector load's duplicate check uses str hashes, salted per process
    out = tmp_path / "full_run"
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import json, sys; from qgen import RunConfig, run_pipeline; "
    code += "run_pipeline(RunConfig(**json.loads(sys.argv[1])))"
    subprocess.run(
        [sys.executable, "-c", code, json.dumps(asdict(golden_config(out)))],
        env={**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": path},
        check=True,
        timeout=120,
    )
    assert_golden(out)


def test_run_builds_only_sampled_records(tmp_path, monkeypatch):
    # the dataset has 6 contexts; only the 4 sampled ones become records
    built = []
    init = ContextRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("context_id"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ContextRecord, "__init__", counted)
    run = run_pipeline(golden_config(tmp_path / "full_run"))
    assert len(built) == 4
    # each built once, in the sorted order of the sample
    assert built == sorted({cell.context_id for cell in run.results})


def test_run_parses_the_vector_file_once(tmp_path, monkeypatch):
    # the 167-row demo file is parsed once whole at load, then only the
    # rows of the distinct in-vocabulary tokens of the sampled baselines
    # and the generated questions are selected, from the spool, with no
    # second parse; no full matrix is built
    parsed, selected = [], []
    parse_block, select = similarity._parse_block, VectorIndex.select

    def counting(lines, dim):
        parsed.append(len(lines))
        return parse_block(lines, dim)

    def spying(self, tokens):
        chosen = select(self, tokens)
        selected.append((self, chosen))
        return chosen

    monkeypatch.setattr(similarity, "_parse_block", counting)
    monkeypatch.setattr(VectorIndex, "select", spying)
    config = golden_config(tmp_path / "full_run")
    run = run_pipeline(config)
    (loaded, chosen), = selected
    records = {r.context_id: r for r in load_squad(config.dataset).records}
    texts = [rec.question for cell in run.results for rec in cell.records]
    sampled = {cell.context_id for cell in run.results}
    texts += [b.question for cid in sampled for b in records[cid].baselines]
    tokens = {tok for text in texts for tok in tokenize(text)}
    with open(config.vectors, encoding="utf-8") as fh:
        reference = load_vectors(fh)
    assert set(chosen.index) == tokens & reference.index.keys()
    assert (len(loaded), len(chosen)) == (167, 73)
    assert parsed == [167]
    assert not hasattr(loaded, "matrix")


def test_run_opens_the_vector_file_only_at_load(tmp_path, monkeypatch):
    # once to parse it and once to digest it, both after the sample is
    # drawn and before any call: no stage after "load" reads the file
    config = golden_config(tmp_path / "full_run")
    events = []
    real_open, sample, generate = open, pipeline.sample_contexts, pipeline.generate

    def recording_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == config.vectors:
            events.append(sys._getframe(1).f_code.co_name)
        return real_open(file, *args, **kwargs)

    def sampling(*args, **kwargs):
        events.append("sample")
        return sample(*args, **kwargs)

    def calling(*args, **kwargs):
        events.append("generate")
        return generate(*args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    monkeypatch.setattr(pipeline, "sample_contexts", sampling)
    monkeypatch.setattr(pipeline, "generate", calling)
    run_pipeline(config)
    assert events == ["sample", "load_vectors_path", "_sha256_file"] + ["generate"] * 16


def test_scores_line_keys_are_score_record_fields():
    line = (GOLDEN / "scores.jsonl").read_text(encoding="utf-8").split("\n")[0]
    assert sorted(json.loads(line)) == sorted(f.name for f in fields(ScoreRecord))


def test_load_run_without_rng_algorithm(tmp_path):
    # every run file records rng_algorithm, so one without it is malformed
    run_dir = tmp_path / "old_run"
    shutil.copytree(GOLDEN, run_dir)
    doc = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
    del doc["info"]["rng_algorithm"]
    (run_dir / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError, match="run.json: missing or malformed field: 'rng_algorithm'$"):
        load_run(run_dir)


def score_line(**fields) -> str:
    doc = {
        "context_id": 0,
        "index": 0,
        "per_baseline": [],
        "prompt_id": "A",
        "question": "Q?",
        "question_max": 0.5,
        "zero_vector_flag": False,
    }
    doc.update(fields)
    return json.dumps(doc) + "\n"


def golden_run_json(**info) -> str:
    doc = json.loads((GOLDEN / "run.json").read_text(encoding="utf-8"))
    doc["info"].update(info)
    return json.dumps(doc)


def golden_scores(edit) -> str:
    """The golden scores.jsonl after edit(list of its lines, without "\n")."""
    lines = (GOLDEN / "scores.jsonl").read_text(encoding="utf-8").split("\n")[:-1]
    return "".join(line + "\n" for line in edit(lines))


def with_fields(line: str, **fields) -> str:
    return json.dumps({**json.loads(line), **fields})


def with_first_score(line: str, score: float) -> str:
    doc = json.loads(line)
    doc["per_baseline"][0][1] = score
    return json.dumps(doc)


def manifest(cells=16, questions_per_prompt=5, top_keywords=5) -> str:
    """A complete run's manifest with the fields report reads."""
    config = {"questions_per_prompt": questions_per_prompt, "top_keywords": top_keywords}
    return json.dumps({"status": "complete", "config": config, "cells": cells, "questions": 80})


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("run.json", '{"info": {}}', "run.json: missing or malformed field"),
        ("run.json", "{not json", "run.json: "),
        ("run.json", None, "run.json: file not found"),
        ("scores.jsonl", score_line(question_max="high"), "scores.jsonl: line 1: missing or malformed field"),
        ("run.json", golden_run_json(threshold="high"), "run.json: missing or malformed field"),
        ("run.json", golden_run_json(threshold=1.5), "run.json: missing or malformed field"),
        ("scores.jsonl", score_line(per_baseline="abc"), "scores.jsonl: line 1: missing or malformed field"),
        ("scores.jsonl", score_line(extra=1), "scores.jsonl: line 1: missing or malformed field"),
        ("manifest.json", None, "manifest.json: file not found"),
        ("manifest.json", manifest(top_keywords="5"), "manifest.json: missing or malformed field: top_keywords must be"),
        ("manifest.json", manifest(questions_per_prompt="5"), "manifest.json: missing or malformed field: questions_per_prompt must be"),
        ("manifest.json", manifest(cells=0), "manifest.json: missing or malformed field: cells must be"),
        ("manifest.json", '{"status": "failed", "config": {"top_keywords": 5}}', "manifest.json: run status is 'failed'"),
        ("run.json", (GOLDEN / "run.json").read_bytes() + b"\xff", "run.json: "),
        ("scores.jsonl", (GOLDEN / "scores.jsonl").read_bytes() + b"\xff", "scores.jsonl: "),
        ("scores.jsonl", score_line(per_baseline=[["b0"]]), "'per_baseline' entries must be [id, score]"),
        ("scores.jsonl", golden_scores(lambda ls: ls[:1] + ls), "scores.jsonl: cell (0, 'A') is not indexed"),
        ("scores.jsonl", golden_scores(lambda ls: [ls[0], with_fields(ls[1], index=0), *ls[2:]]), "scores.jsonl: cell (0, 'A') is not indexed"),
        # the first two cells, (0, A) and (0, B), swapped as blocks
        ("scores.jsonl", golden_scores(lambda ls: ls[5:10] + ls[:5] + ls[10:]), "scores.jsonl: cell (0, 'A') is out of order"),
        ("scores.jsonl", golden_scores(lambda ls: ls[:1] + [""] + ls[1:]), "scores.jsonl: line 2: Expecting value"),
        ("scores.jsonl", golden_scores(lambda ls: ls[:40] + [""] + ls[40:]), "scores.jsonl: line 41: Expecting value: column 1\n"),
        ("scores.jsonl", golden_scores(lambda ls: [*ls[:57], with_fields(ls[57], question_max="high"), *ls[58:]]), "scores.jsonl: line 58: missing or malformed field: 'question_max' must be float, got 'high'\n"),
        ("scores.jsonl", golden_scores(lambda ls: [*ls[:63], ls[63][:-5], *ls[64:]]), "scores.jsonl: line 64: Expecting value: column 255\n"),
        ("scores.jsonl", golden_scores(lambda ls: ls[:-1]), "scores.jsonl: (cells, questions) is (16, 79)"),
        ("scores.jsonl", golden_scores(lambda ls: [line for line in ls if '"prompt_id":"D"' not in line]), "scores.jsonl: (cells, questions) is (12, 60)"),
        # lines no run writes: score_cell's question_max is the largest of
        # at least one cosine, each in [-1, 1], for a prompt id A-D
        ("scores.jsonl", golden_scores(lambda ls: [with_fields(ls[0], question_max=5.0), *ls[1:]]), "scores.jsonl: line 1: missing or malformed field: 'question_max' must be the largest score, got 5.0\n"),
        ("scores.jsonl", golden_scores(lambda ls: [with_fields(ls[0], question_max=0.5), *ls[1:]]), "scores.jsonl: line 1: missing or malformed field: 'question_max' must be the largest score, got 0.5\n"),
        ("scores.jsonl", golden_scores(lambda ls: [with_fields(ls[0], per_baseline=[]), *ls[1:]]), "scores.jsonl: line 1: missing or malformed field: 'per_baseline' must not be empty\n"),
        ("scores.jsonl", golden_scores(lambda ls: [with_first_score(ls[0], 2.0), *ls[1:]]), "scores.jsonl: line 1: missing or malformed field: 'per_baseline' entries must be [id, score], score in [-1, 1], got ['demo-0000', 2.0]\n"),
        ("scores.jsonl", golden_scores(lambda ls: [line.replace('"prompt_id":"D"', '"prompt_id":"Z"') for line in ls]), "scores.jsonl: line 16: missing or malformed field: 'prompt_id' must be one of ('A', 'B', 'C', 'D'), got 'Z'\n"),
        # JSON values of the wrong kind, and unknown or missing keys, named
        ("manifest.json", '""', "manifest.json: missing or malformed field: the file is not a JSON object\n"),
        ("manifest.json", "0.5", "manifest.json: missing or malformed field: the file is not a JSON object\n"),
        ("manifest.json", json.dumps({"status": "complete", "config": [], "cells": 16, "questions": 80}), "manifest.json: missing or malformed field: 'config' is not a JSON object\n"),
        ("run.json", "[]", "run.json: missing or malformed field: the file is not a JSON object\n"),
        ("run.json", '{"info": []}', "run.json: missing or malformed field: 'info' is not a JSON object\n"),
        ("run.json", '{"info": {}}', "run.json: missing or malformed field: 'seed'\n"),
        ("scores.jsonl", golden_scores(lambda ls: ["[]", *ls[1:]]), "scores.jsonl: line 1: missing or malformed field: the line is not a JSON object\n"),
        ("scores.jsonl", golden_scores(lambda ls: [with_fields(ls[0], extra=1), *ls[1:]]), "scores.jsonl: line 1: missing or malformed field: unknown key 'extra'\n"),
        # nesting too deep for the decoder is malformed JSON too
        ("manifest.json", "[" * 100_000, "manifest.json: nesting too deep: line 1 column 1 (char 0)\n"),
        ("run.json", "[" * 100_000, "run.json: nesting too deep: line 1 column 1 (char 0)\n"),
        ("scores.jsonl", golden_scores(lambda ls: ["[" * 100_000, *ls[1:]]), "scores.jsonl: line 1: nesting too deep: column 1\n"),
    ],
    ids=[
        "missing-keys",
        "invalid-json",
        "missing-file",
        "mistyped-score",
        "mistyped-info",
        "threshold-out-of-range",
        "per-baseline-not-pairs",
        "unknown-score-key",
        "missing-manifest",
        "mistyped-top-keywords",
        "mistyped-questions-per-prompt",
        "zero-cells",
        "failed-run",
        "run-json-not-utf8",
        "scores-not-utf8",
        "per-baseline-entry-not-pair",
        "scores-duplicate-line",
        "scores-renumbered",
        "scores-out-of-order",
        "scores-blank-line",
        "scores-blank-line-41",
        "scores-mistyped-line-58",
        "scores-truncated-line-64",
        "scores-dropped-last-line",
        "scores-dropped-prompt",
        "question-max-above-cosines",
        "question-max-below-cosines",
        "per-baseline-empty",
        "cosine-above-one",
        "unknown-prompt-id",
        "manifest-string",
        "manifest-number",
        "config-list",
        "run-json-list",
        "info-list",
        "info-empty",
        "scores-line-list",
        "scores-extra-key",
        "manifest-too-deep",
        "run-json-too-deep",
        "scores-line-too-deep",
    ],
)
def test_report_on_bad_run_json_exits_with_data_error(
    tmp_path, capsys, name, content, message
):
    run_dir = tmp_path / "run"
    shutil.copytree(GOLDEN, run_dir)
    if content is None:
        (run_dir / name).unlink()
    elif isinstance(content, bytes):
        (run_dir / name).write_bytes(content)
    else:
        (run_dir / name).write_text(content, encoding="utf-8")
    assert main(["report", "--run", str(run_dir)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("name", ["dataset", "manifest.json", "run.json", "scores.jsonl"])
def test_input_path_missing_or_directory_exits_without_traceback(tmp_path, capsys, name, kind):
    # a run file is read by qgen report, the dataset by qgen stats
    run_dir = tmp_path / "run"
    shutil.copytree(GOLDEN, run_dir)
    path = tmp_path / "data.json" if name == "dataset" else run_dir / name
    path.unlink(missing_ok=True)
    if kind == "directory":
        path.mkdir()
    if name == "dataset":
        out = tmp_path / "out"
        assert main(["stats", "--dataset", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: dataset file not found: {path}\n"
        assert not out.exists()
        return
    reason = "file not found" if kind == "missing" else "cannot read: Is a directory"
    assert main(["report", "--run", str(run_dir)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"


@pytest.mark.parametrize("command", ["report", "stats"])
def test_directory_at_output_name_exits_without_traceback(tmp_path, capsys, command):
    run_dir = tmp_path / "run"
    shutil.copytree(GOLDEN, run_dir)
    if command == "report":
        target = run_dir / "fig1_lengths.csv"
        argv = ["report", "--run", str(run_dir)]
    else:
        target = run_dir / "fig2_keywords.csv"
        argv = ["stats", "--dataset", str(DEMOS / "data" / "mini_squad.json"), "--out", str(run_dir)]
    target.unlink()
    target.mkdir()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {target}: Is a directory\n"
    assert target.is_dir()
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(p.name for p in GOLDEN.iterdir())


def test_report_never_writes_through_a_symlink_at_its_temporary_name(tmp_path):
    # a stale temporary is removed, not followed into the file it names
    run_dir = tmp_path / "run"
    shutil.copytree(GOLDEN, run_dir)
    victim = tmp_path / "victim.txt"
    victim.write_bytes(b"not a report\n")
    (run_dir / ".report.md.tmp").symlink_to(Path("..") / "victim.txt")
    assert main(["report", "--run", str(run_dir)]) == 0
    assert victim.read_bytes() == b"not a report\n"
    report = run_dir / "report.md"
    assert not report.is_symlink() and report.is_file()
    assert report.read_bytes() == (GOLDEN / "report.md").read_bytes()
    assert not (run_dir / ".report.md.tmp").exists()


def test_report_ignores_stored_shortfalls(tmp_path):
    # shortfalls are derived from scores.jsonl and the manifest's
    # questions_per_prompt; run.json's copy is written, never read
    run_dir = tmp_path / "run"
    shutil.copytree(GOLDEN, run_dir)
    doc = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
    doc["shortfalls"] = [1]
    (run_dir / "run.json").write_text(json.dumps(doc), encoding="utf-8")
    (run_dir / "report.md").unlink()
    assert main(["report", "--run", str(run_dir)]) == 0
    assert (run_dir / "report.md").read_bytes() == (GOLDEN / "report.md").read_bytes()


# -- every filesystem fault of a run -------------------------------------------------

class FileFaults:
    """Number the filesystem operations a run makes through the names
    pipeline calls, from 1: each call of os.open, os.replace, open,
    load_squad and load_vectors_path, each write and close of a file open
    returned, and each Path.unlink of a path in the output directory. The
    operation numbered n raises at[n], if there is one."""

    def __init__(self, monkeypatch, out: Path, at: dict) -> None:
        self.count = 0
        self.at = at
        os_names = types.ModuleType("os")
        os_names.__dict__.update(vars(os))
        os_names.open = self.faulty(os.open)
        os_names.replace = self.faulty(os.replace)
        monkeypatch.setattr(pipeline, "os", os_names)
        for name in ("load_squad", "load_vectors_path"):
            monkeypatch.setattr(pipeline, name, self.faulty(getattr(pipeline, name)))
        monkeypatch.setattr(pipeline, "open", self.faulty(self.opened), raising=False)
        unlink = Path.unlink

        def faulty_unlink(path, missing_ok=False):
            if path.parent == out:
                self.hit()
            return unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", faulty_unlink)

    def hit(self) -> None:
        self.count += 1
        if self.count in self.at:
            raise self.at[self.count]

    def faulty(self, call):
        def wrapped(*args, **kwargs):
            self.hit()
            return call(*args, **kwargs)

        return wrapped

    def opened(self, *args, **kwargs):
        faults = self

        class File:
            """The file open returns, whose write and close count."""

            def __init__(self) -> None:
                self.fh = builtins.open(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info) -> None:
                self.close()

            def write(self, chunk):
                faults.hit()
                return self.fh.write(chunk)

            def close(self) -> None:
                # the file is closed whether or not the fault is raised
                self.fh.close()
                faults.hit()

        return File()


GOLDEN_BYTES = {path.name: path.read_bytes() for path in GOLDEN.iterdir()}


def eacces() -> OSError:
    return PermissionError(errno.EACCES, os.strerror(errno.EACCES))


def faulted_run(monkeypatch, out: Path, at: dict) -> tuple[object, int]:
    """Run the golden config over the golden run in out with the faults
    at; what it raised, or None, and the operations it made."""
    # a run leaves only files in out
    out.mkdir(exist_ok=True)
    for path in out.iterdir():
        path.unlink()
    for name, data in GOLDEN_BYTES.items():
        (out / name).write_bytes(data)
    with monkeypatch.context() as patch:
        faults = FileFaults(patch, out, at)
        try:
            run_pipeline(golden_config(out))
        # an interrupt too: the sweep interrupts each operation
        except BaseException as exc:
            return exc, faults.count
    return None, faults.count


def broken_invariant(out: Path, raised, interrupt: bool) -> str | None:
    """What the directory and the outcome of a faulted run break of the
    persistence contract, or None."""
    if isinstance(raised, OSError):
        return f"raw {type(raised).__name__}: {raised}"
    if interrupt and not isinstance(raised, KeyboardInterrupt):
        return f"the interrupt became {raised!r}"
    if not interrupt and not isinstance(raised, (type(None), PipelineError, ConfigError)):
        return f"raised {raised!r}"
    names = sorted(p.name for p in out.iterdir())
    if "manifest.json" not in names:
        return None if raised is not None else "a run that returned wrote no manifest"
    status = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["status"]
    if status == "complete":
        # the previous run's, if the run failed before it removed it
        try:
            assert_golden(out)
        except AssertionError as exc:
            return f"a complete manifest beside other bytes: {exc}"
        return None
    if not isinstance(raised, PipelineError):
        return f"a {status} manifest, and the run raised {raised!r}"
    if names != ["manifest.json", "scores.jsonl"]:
        return f"a failed manifest beside {names}"
    return None


# the fault pairs the sweep runs, a seeded sample of all of them
PAIR_FAULTS = 200


def test_every_filesystem_fault_keeps_the_persistence_contract(tmp_path, monkeypatch):
    out = tmp_path / "full_run"
    raised, ops = faulted_run(monkeypatch, out, {})
    assert raised is None
    assert_golden(out)
    broken = []

    def check(at: dict, interrupt: bool = False) -> int:
        raised, made = faulted_run(monkeypatch, out, at)
        what = broken_invariant(out, raised, interrupt)
        if what is not None:
            broken.append((sorted(at), type(next(iter(at.values()))).__name__, what))
        return made

    # every single interrupt, and every single OSError; a run failed at
    # operation n makes other operations after it, and a second fault is
    # drawn from those
    for n in range(1, ops + 1):
        check({n: KeyboardInterrupt()}, interrupt=True)
    pairs = [(n, m) for n in range(1, ops + 1) for m in range(n + 1, check({n: eacces()}) + 1)]
    for n, m in random.Random(17).sample(pairs, PAIR_FAULTS):
        check({n: eacces(), m: eacces()})
    assert broken == [], "\n".join(map(str, broken))
    # the counts pin the sweep: 257 operations, each interrupted alone and
    # failed alone, and a sample of the pairs
    assert (ops, len(pairs)) == (257, 17789)

