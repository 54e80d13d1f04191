"""End-to-end orchestration: config, run execution, artifacts, figures.

A run parses the dataset, samples contexts, renders the prompt variants,
collects completions with bounded concurrency, parses and scores the
questions, and persists everything into one output directory:

- ``manifest.json``  config snapshot, vector digest, backend identity,
  timestamps, status (the only file containing wall-clock values)
- ``scores.jsonl``   one scored question per line: a ScoreRecord's fields
- ``table2.csv``     context_id, prompt, question, question_max, prompt_max
- ``run.json``       summaries, max series, run metadata
- ``report.md``      human-readable summary
- ``fig*.csv``       figure data series

Aside from manifest timestamps, every artifact is a pure function of the
config, so rerunning with the mock backend and the same seed reproduces
the directory byte for byte. A run removes the previous ``manifest.json``
before it reads any input and writes its own after every other file, so
a directory with a manifest holds only that manifest's run, and an
interrupted run leaves no manifest. A failed run leaves only
``scores.jsonl``, holding every cell whose completion came back, and a
manifest with status "failed", naming the failed call's job if a call
failed; it removes the other artifacts an earlier run left in the
directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from importlib import resources
from itertools import chain, groupby
from pathlib import Path
from string import Template
from typing import Iterable, Iterator, get_args, get_type_hints

from .corpus import (
    SquadDataset,
    collector_paused,
    load_squad,
    loads_json,
    sample_contexts,
)
from .errors import ConfigError, EmptyRecords, MalformedJson, PipelineError, SchemaError
from .promptgen import (
    PROMPT_IDS,
    Backend,
    BackendRequest,
    CallRecord,
    HttpBackend,
    MockBackend,
    OpenAICompletionsBackend,
    generate,
    parse_questions,
    render_prompt,
)
from .rng import ALGORITHM as RNG_ALGORITHM
from .scoring import (
    DEFAULT_THRESHOLD,
    EvalRun,
    PromptContextResult,
    RunInfo,
    ScoreRecord,
    assemble_run,
    context_cosines,
    score_cell,
)
from .similarity import load_vectors_path, vocabulary
from .textstats import (
    bundled_stopwords,
    csv_quote,
    frequent_words,
    histogram_to_csv,
    keywords_to_csv,
    question_length_histogram,
)

ENV_URL = "QGEN_BACKEND_URL"
ENV_TOKEN = "QGEN_BACKEND_TOKEN"

BACKEND_KINDS = ("mock", "http", "openai")


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one pipeline run."""

    dataset: str
    vectors: str
    out: str
    backend: str = "mock"
    backend_url: str | None = None
    backend_token: str | None = None
    backend_model: str | None = None
    seed: int = 0
    sample_size: int = 50
    temperature: float = 0.5
    questions_per_prompt: int = 5
    threshold: float = DEFAULT_THRESHOLD
    prompts: str = "ABCD"
    max_output_tokens: int = 256
    max_in_flight: int = 4
    top_keywords: int = 20

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not any(_has_type(value, kind) for kind in _CONFIG_TYPES[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if not self.out:
            raise ConfigError("out must be a non-empty path")
        if self.backend not in BACKEND_KINDS:
            raise ConfigError(
                f"backend must be one of {BACKEND_KINDS}, got {self.backend!r}"
            )
        if self.backend != "mock" and not self.backend_url:
            raise ConfigError(f"backend {self.backend!r} requires backend_url")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.sample_size < 1:
            raise ConfigError("sample_size must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must be in [0, 1]")
        if self.temperature < 0:
            raise ConfigError("temperature must be >= 0")
        if self.questions_per_prompt < 1:
            raise ConfigError("questions_per_prompt must be >= 1")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.max_output_tokens < 1:
            raise ConfigError("max_output_tokens must be >= 1")
        if self.top_keywords < 1:
            raise ConfigError("top_keywords must be >= 1")
        if not self.prompts:
            raise ConfigError("prompts must name at least one prompt id")
        seen = set()
        for pid in self.prompts:
            if pid not in PROMPT_IDS:
                raise ConfigError(f"unknown prompt id {pid!r} (valid: A-D)")
            if pid in seen:
                raise ConfigError(f"duplicate prompt id {pid!r}")
            seen.add(pid)
        for label, path in (("dataset", self.dataset), ("vectors", self.vectors)):
            if not Path(path).is_file():
                raise ConfigError(f"{label} file not found: {path}")


def _has_type(value, kind: type) -> bool:
    """isinstance for JSON values: a bool is no int, an int is a float too,
    and a float is finite (JSON has no NaN or Infinity)."""
    if isinstance(value, bool):
        return kind is bool
    if isinstance(value, float):
        return kind is float and math.isfinite(value)
    return isinstance(value, (int, float) if kind is float else kind)


_CONFIG_FIELDS = frozenset(RunConfig.__dataclass_fields__)
# each field's accepted types, e.g. (int,) or (str, NoneType)
_CONFIG_TYPES = {
    name: get_args(hint) or (hint,) for name, hint in get_type_hints(RunConfig).items()
}
_PATH_FIELDS = ("dataset", "vectors", "out")


def load_config(path: str | Path, env: dict | None = None) -> RunConfig:
    """Read a JSON config file and apply environment overrides.

    The file is a single JSON object whose keys mirror RunConfig fields;
    unknown keys are rejected so typos fail loudly. QGEN_BACKEND_URL and
    QGEN_BACKEND_TOKEN override endpoint and auth only. Relative paths in
    the file resolve against the file's directory.
    """
    env = dict(os.environ) if env is None else env
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = loads_json(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(doc) - _CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in _PATH_FIELDS if k not in doc]
    if missing:
        raise ConfigError(f"config missing required keys: {', '.join(missing)}")
    for key in _PATH_FIELDS:
        value = doc[key]
        if not isinstance(value, str) or not value:
            raise ConfigError(f"config key {key!r} must be a non-empty string")
        if not Path(value).is_absolute():
            doc[key] = str(p.parent / value)
    cfg = RunConfig(**doc)
    if env.get(ENV_URL):
        cfg = replace(cfg, backend_url=env[ENV_URL])
    if env.get(ENV_TOKEN):
        cfg = replace(cfg, backend_token=env[ENV_TOKEN])
    return cfg


def make_backend(cfg: RunConfig) -> Backend:
    if cfg.backend == "mock":
        return MockBackend(seed=cfg.seed)
    if cfg.backend == "http":
        return HttpBackend(url=cfg.backend_url, token=cfg.backend_token)
    return OpenAICompletionsBackend(
        url=cfg.backend_url, token=cfg.backend_token, model=cfg.backend_model
    )


def make_out_dir(path: str | Path) -> Path:
    """Create the output directory if need be. An empty string, which
    Path would take for the current directory, raises ConfigError, and so
    does a path that cannot be a directory, naming it."""
    if path == "":
        raise ConfigError("out must be a non-empty path")
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    return out_dir


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _public_config(cfg: RunConfig) -> dict:
    """Config snapshot for the manifest; auth material is never persisted."""
    doc = asdict(cfg)
    doc["backend_token"] = bool(cfg.backend_token)
    return doc


# artifacts of a complete run that a failed run removes, so no stale copy
# from an earlier run sits next to the failed manifest
_COMPLETE_RUN_ONLY = (
    "table2.csv",
    "run.json",
    "report.md",
    "fig1_lengths.csv",
    "fig2_keywords.csv",
    "fig6_boxplot.csv",
    "fig7_matches.csv",
    "fig8_max_series.csv",
)


def run_pipeline(cfg: RunConfig) -> EvalRun:
    """Execute a full run and persist all artifacts under cfg.out.

    Each call renders its prompt, fetches a completion and parses its
    questions, one stage, "generate"; each prompt lives only as long as
    its call. The calls are made by min(max_in_flight, jobs) threads,
    which take job indexes in order from one shared iterator and put each
    question list, or the exception its call raised, into that job's
    slot. After the first call that fails in any of the three, no further
    call is sent; calls in flight finish and are scored, in job order, and
    then the failure in the first slot that holds one is raised. A Ctrl-C
    while the calls run stops them the same way: the calls in flight
    finish, no thread is left running, and the KeyboardInterrupt passes
    through.

    The set-up runs cheapest first. The dataset is parsed (stage "load"),
    the sample drawn and every sampled context checked for baseline
    questions (stage "sample"), and the dataset dropped, all before the
    vector file is opened: a bad dataset, a sample larger than it
    (SampleTooLarge) or a sampled context without baseline questions
    (EmptyRecords) fails the run without the vector parse, and the
    dataset's memory is free for it. The vector file is then parsed and
    checked in full at stage "load", before any call, and its rows and
    tokens are copied to a private spool of unlinked temporary files (rows
    x dim x 8 bytes plus the tokens, in ``tempfile.gettempdir()``; a spool
    that cannot be written fails the run there). Once the calls are done,
    at stage "score", the rows of the tokens of the sampled baselines and
    the returned questions are read from the spool, never from the file
    again: a file edited, truncated or removed after the load changes no
    artifact. The recorded digest is that of a read of the file just after
    the load, so an edit during the load itself goes undetected. Each
    context whose calls returned any question list gets one
    context_cosines map, over those lists, which scores all its cells. The
    jobs, and so every output, are in (context_id, prompt_id) order, and
    every artifact is written line by line, never held whole in memory.

    The cyclic garbage collector is paused (corpus.collector_paused) over
    two stretches of the main thread that build no reference cycle: the
    whole set-up, from the dataset's parse through the vector digest, and
    from stage "score" through the report. Each restores the state it
    found, however it ends. It is on while the calls run: an exception
    kept across a call's retries holds a cycle through its traceback,
    which only the collector frees. The pause is process-wide, so this
    holds for one run per process at a time; a run in another thread may
    make its calls while this one has the collector paused.

    The previous manifest.json is removed before any input is read, and
    the new one is written once, after every other file: by then
    scores.jsonl holds the scored cells, and the manifest's status is
    "complete", or "failed" with the stage and cause. A failed call also
    puts its job in the failed manifest, as "failed_job": the context_id
    and prompt_id, the attempts sent (0 if the prompt failed to render),
    and, if a completion came back with no question in it, its first 200
    characters as "completion". Before a failed manifest is written, the
    other artifacts of an earlier run and any temporary file a failed
    write left (``.<name>.tmp``) are removed. A failure is then re-raised
    wrapped in PipelineError. A run interrupted by a BaseException that is
    not an Exception leaves no manifest. An invalid config or backend URL
    raises ConfigError before any input is read or file touched, and so
    does a directory at the name of an artifact, before the previous
    manifest is removed. A previous manifest, or an earlier run's
    artifact that a failed run must remove, that cannot be removed
    raises ConfigError naming it, and no manifest is written.
    """
    cfg.validate()
    backend = make_backend(cfg)
    out_dir = make_out_dir(cfg.out)
    # a directory at an artifact's name could be neither replaced nor
    # removed by the failure cleanup, so it is refused before any change
    for name in ("manifest.json", "scores.jsonl", *_COMPLETE_RUN_ONLY):
        if (out_dir / name).is_dir():
            raise ConfigError(f"cannot write {out_dir / name}: Is a directory")
    _remove(out_dir / "manifest.json")
    started = _utcnow()
    cells: list[PromptContextResult] = []
    call_log: list[CallRecord] = []
    error: Exception | None = None
    # the job whose failure the run raises, for the manifest
    failed_job: dict | None = None

    stage = "load"
    try:
        # the collector would scan the JSON tree, built and freed with no
        # reference cycle, once more after the parse, and find nothing
        with collector_paused():
            dataset = load_squad(cfg.dataset)
            stage = "sample"
            sampled = sample_contexts(dataset, cfg.sample_size, cfg.seed)
            # only the sampled records are read from here on; holding the rest
            # through the vector parse, or any later stage, would raise the peak
            del dataset
            for record in sampled:
                if not record.baselines:
                    raise EmptyRecords(f"context {record.context_id} has no baseline questions")
            stage = "load"
            table = load_vectors_path(cfg.vectors)
            vector_digest = _sha256_file(cfg.vectors)

        stage = "generate"
        info = RunInfo(
            seed=cfg.seed,
            threshold=cfg.threshold,
            sample_size=cfg.sample_size,
            backend=backend.identity(),
            vector_digest=vector_digest,
            rng_algorithm=RNG_ALGORITHM,
        )
        # sampled is sorted by context id, so the jobs are in (context_id,
        # prompt_id) order, the order of every artifact
        jobs = [(record, pid) for record in sampled for pid in sorted(cfg.prompts)]
        # slots[i] is job i's question list, or the exception its call
        # raised, or None if it was never called; failures[i] names a
        # failed job i
        slots: list = [None] * len(jobs)
        failures: dict[int, dict] = {}
        pending = iter(range(len(jobs)))
        taking = threading.Lock()
        # set by the first failed call, or by an interrupt of the main
        # thread; a worker checks it before each call, so none is sent
        # after, however soon the worker takes its next job
        stop = threading.Event()

        def call(i: int) -> None:
            record, pid = jobs[i]
            sent: list[CallRecord] = []
            raw = None
            try:
                request = BackendRequest(
                    prompt=render_prompt(pid, record.text),
                    temperature=cfg.temperature,
                    max_tokens=cfg.max_output_tokens,
                )
                raw = generate(backend, request, sent)
                slots[i] = parse_questions(raw, cfg.questions_per_prompt)
            except BaseException as exc:
                stop.set()
                slots[i] = exc
                failures[i] = _failed_job(record.context_id, pid, sent, raw)
            finally:
                call_log.extend(sent)

        def work(done: threading.Event) -> None:
            try:
                while not stop.is_set():
                    with taking:
                        i = next(pending, None)
                    if i is None:
                        return
                    call(i)
            finally:
                done.set()

        finished = [threading.Event() for _ in range(min(cfg.max_in_flight, len(jobs)))]
        workers = [
            threading.Thread(target=work, args=(done,), name=f"qgen-call-{n}")
            for n, done in enumerate(finished)
        ]
        try:
            for worker in workers:
                worker.start()
            for done in finished:
                done.wait()
        except BaseException:
            # a Ctrl-C, say: the calls in flight finish and no other is sent
            stop.set()
            raise
        finally:
            # a started worker is joined only once it is done: Python 3.11
            # takes a thread whose join was interrupted for stopped
            for worker, done in zip(workers, finished):
                if worker.ident is not None:
                    done.wait()
                    worker.join()
        stage = "score"
        # the records, the figures and the report hold no reference cycle:
        # the collections their objects would trigger find nothing
        with collector_paused():
            # only the rows of the tokens the run scores are read from the
            # spool; the index and its spool go with the table this one
            # replaces. The texts are streamed, repeats and all: a set of the
            # distinct ones raised large-mock's peak RSS by 0.8 MB
            baselines = (b.question for record in sampled for b in record.baselines)
            questions = (q for slot in slots if isinstance(slot, list) for q in slot)
            table = table.select(vocabulary(chain(baselines, questions)))
            # every question list that came back is scored, in job order, before
            # the first failed job's error is raised; a context's cells share
            # one map of cosines, taken over the lists of the context that came
            # back and dropped when the next context starts
            for record, context_jobs in groupby(zip(jobs, slots), key=lambda js: js[0][0]):
                returned = [(pid, qs) for (_, pid), qs in context_jobs if isinstance(qs, list)]
                if returned:
                    cosines = context_cosines(record.baselines, [qs for _, qs in returned], table)
                for pid, questions in returned:
                    cells.append(
                        score_cell(
                            record.context_id, pid, questions, record.baselines, table, cosines
                        )
                    )
            stage = "generate"
            for i, slot in enumerate(slots):
                if isinstance(slot, BaseException):
                    failed_job = failures[i]
                    raise slot
            stage = "aggregate"
            run = assemble_run(info, cells, cfg.questions_per_prompt)
            stage = "persist"
            persist_run(run, out_dir)
            emit_figures(run, out_dir, top_keywords=cfg.top_keywords)
            write_report(run, out_dir)
        outcome = {
            "status": "complete",
            "rng_algorithm": info.rng_algorithm,
            "vector_digest": info.vector_digest,
            "backend": info.backend,
            "questions": sum(len(c.records) for c in cells),
            "zero_vector_count": run.zero_vector_count,
            "shortfall_count": len(run.shortfalls),
        }
    except Exception as exc:
        # a temporary file too: _write_files may have failed to remove it
        for name in _COMPLETE_RUN_ONLY:
            _remove(out_dir / name)
            _remove(out_dir / f".{name}.tmp")
        error = exc
        outcome = {"status": "failed", "stage": stage, "error": f"{type(exc).__name__}: {exc}"}
        if failed_job is not None:
            outcome["failed_job"] = failed_job
    _write_files(out_dir, {"scores.jsonl": scores_to_jsonl(cells)})
    manifest = {
        "config": _public_config(cfg),
        "seed": cfg.seed,
        "started_at": started,
        "finished_at": _utcnow(),
        "backend_calls": len(call_log),
        "backend_retries": sum(c.retries for c in call_log),
        "backend_latency_s": round(sum(c.latency_s for c in call_log), 6),
        "cells": len(cells),
        **outcome,
    }
    text = json.dumps(manifest, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    _write_files(out_dir, {"manifest.json": (text,)})
    if error is not None:
        raise PipelineError(stage, error, cells_done=len(cells)) from error
    return run


# the characters of a completion no question was parsed from that a
# failed manifest keeps
_COMPLETION_SHOWN = 200


def _failed_job(context_id: int, prompt_id: str, sent: list[CallRecord], raw) -> dict:
    """A failed job for the manifest: its context and prompt, the attempts
    its call made (none if it failed before it was sent), and the start of
    the completion, if one came back."""
    job = {
        "context_id": context_id,
        "prompt_id": prompt_id,
        "attempts": sum(record.retries + 1 for record in sent),
    }
    if raw is not None:
        job["completion"] = raw[:_COMPLETION_SHOWN]
    return job


# -- persistence ---------------------------------------------------------------

# the keys of a scores.jsonl line, ScoreRecord's fields, with the types
# load_run checks before scoring computes with them; per_baseline is a
# JSON list, checked pair by pair by _baseline_score
_RECORD_TYPES = {**get_type_hints(ScoreRecord), "per_baseline": list}


# run.json info field types, checked the same way
_INFO_TYPES = get_type_hints(RunInfo)


def _object(value, what: str) -> dict:
    """value, if it is a JSON object; a TypeError naming what if not."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} is not a JSON object")
    return value


def _checked(doc: dict, types: dict[str, type]) -> dict:
    """doc, if its keys are those of types and each value has its key's
    type; a KeyError or TypeError naming the first key that is not."""
    for key, kind in types.items():
        if not _has_type(doc[key], kind):
            raise TypeError(f"{key!r} must be {kind.__name__}, got {doc[key]!r}")
    # doc holds every key of types, so any further key is unknown
    if len(doc) > len(types):
        raise TypeError(f"unknown key {min(doc.keys() - types.keys())!r}")
    return doc


def _baseline_score(pair) -> tuple[str, float]:
    if not (
        isinstance(pair, list)
        and len(pair) == 2
        and _has_type(pair[0], str)
        and _has_type(pair[1], float)
        and -1.0 <= pair[1] <= 1.0
    ):
        raise TypeError(
            f"'per_baseline' entries must be [id, score], score in [-1, 1], got {pair!r}"
        )
    return pair[0], pair[1]


def _record_from_json(doc) -> ScoreRecord:
    """A scores.jsonl line's record, as score_cell makes one: a known
    prompt id, at least one baseline score, and question_max the largest
    of them. Any other line raises TypeError or KeyError."""
    _checked(_object(doc, "the line"), _RECORD_TYPES)
    if doc["prompt_id"] not in PROMPT_IDS:
        raise TypeError(f"'prompt_id' must be one of {PROMPT_IDS}, got {doc['prompt_id']!r}")
    pairs = tuple(map(_baseline_score, doc["per_baseline"]))
    if not pairs:
        raise TypeError("'per_baseline' must not be empty")
    question_max = doc["question_max"]
    if question_max != max(score for _, score in pairs):
        raise TypeError(f"'question_max' must be the largest score, got {question_max!r}")
    return ScoreRecord(**{**doc, "per_baseline": pairs})


def scores_to_jsonl(cells: list[PromptContextResult]) -> Iterator[str]:
    for cell in cells:
        for rec in cell.records:
            # not vars(rec): it would give every record a __dict__ it keeps
            yield _json_dumps({name: getattr(rec, name) for name in _RECORD_TYPES}) + "\n"


def _fmt(x: float) -> str:
    return repr(float(x))


def table2_csv(cells: list[PromptContextResult]) -> Iterator[str]:
    """Per-question rows mirroring a prompt-max table layout."""
    yield "context_id,prompt,question,question_max,prompt_max\n"
    for cell in cells:
        cell_max = _fmt(cell.prompt_max)
        for rec in cell.records:
            yield (
                f"{cell.context_id},{cell.prompt_id},"
                f"{csv_quote(rec.question)},"
                f"{_fmt(rec.question_max)},{cell_max}\n"
            )


def run_to_json(run: EvalRun) -> str:
    doc = {
        "info": vars(run.info),
        "summaries": {pid: vars(s) for pid, s in run.summaries.items()},
        "max_series": {
            pid: [[cid, value] for cid, value in series]
            for pid, series in run.max_series.items()
        },
        "prompt_max": {
            pid: max(v for _, v in series)
            for pid, series in run.max_series.items()
        },
        "zero_vector_count": run.zero_vector_count,
        "shortfalls": run.shortfalls,
    }
    return _json_dumps(doc) + "\n"


def persist_run(run: EvalRun, out_dir: Path) -> None:
    _write_files(out_dir, {"table2.csv": table2_csv(run.results), "run.json": (run_to_json(run),)})


@contextmanager
def _reading(path: Path):
    """Raise a missing or unreadable file, bad JSON or UTF-8, a missing or
    mistyped field or another ValueError met reading path as a QgenError
    naming the file."""
    try:
        yield path
    except FileNotFoundError as exc:
        raise SchemaError(str(path), "file not found") from exc
    except OSError as exc:
        raise SchemaError(str(path), f"cannot read: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedJson(f"{path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise SchemaError(str(path), f"missing or malformed field: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(str(path), str(exc)) from exc


def _score_records(path: Path, fh) -> Iterator[ScoreRecord]:
    """The records of a scores.jsonl stream. A line that is not JSON or not
    a record raises MalformedJson or SchemaError naming the file and the
    line; for bad JSON, the decoder's column within that line."""
    for n, line in enumerate(fh, 1):
        try:
            record = _record_from_json(loads_json(line))
        except json.JSONDecodeError as exc:
            raise MalformedJson(f"{path}: line {n}: {exc.msg}: column {exc.colno}") from exc
        except (KeyError, TypeError) as exc:
            raise SchemaError(str(path), f"line {n}: missing or malformed field: {exc}") from exc
        yield record


def load_run(out_dir: str | Path) -> EvalRun:
    """Rebuild an EvalRun from the directory of a complete run.

    manifest.json must say status "complete"; it gives questions_per_prompt
    and the cell and question counts. run.json gives the run info, and
    assemble_run recomputes the rest from scores.jsonl, read line by line
    in the order the run wrote it: each cell indexed 0, 1, 2, ..., as many
    as the manifest counts, in the order assemble_run checks. A missing or
    unreadable file, a value that is not a JSON object where one is read,
    a missing, unknown or mistyped field, a scores.jsonl line no run
    writes or a cell out of order raises SchemaError, and invalid JSON or
    UTF-8 or a blank line MalformedJson, each naming the file; a
    scores.jsonl line that fails as JSON or as a record is named too.
    """
    out = Path(out_dir)
    with _reading(out / "manifest.json") as path:
        manifest = _object(loads_json(path.read_text(encoding="utf-8")), "the file")
        status = manifest["status"]
        if status != "complete":
            raise SchemaError(str(path), f"run status is {status!r}, not 'complete'")
        expected = _count(_object(manifest["config"], "'config'"), "questions_per_prompt")
        counts = (_count(manifest, "cells"), _count(manifest, "questions"))
    with _reading(out / "run.json") as path:
        doc = _object(loads_json(path.read_text(encoding="utf-8")), "the file")
        info = RunInfo(**_checked(_object(doc["info"], "'info'"), _INFO_TYPES))
        if not 0.0 <= info.threshold <= 1.0:
            raise TypeError(f"'threshold' must be in [0, 1], got {info.threshold!r}")
    cells: list[PromptContextResult] = []
    # a line ends at "\n" only: the writer leaves \x85, \u2028 and \u2029
    # raw inside strings
    with _reading(out / "scores.jsonl") as path, open(path, encoding="utf-8", newline="\n") as fh:
        records = _score_records(path, fh)
        for key, group in groupby(records, key=lambda r: (r.context_id, r.prompt_id)):
            recs = tuple(group)
            if any(rec.index != i for i, rec in enumerate(recs)):
                raise SchemaError(str(path), f"cell {key} is not indexed 0, 1, 2, ...")
            cells.append(PromptContextResult(*key, records=recs))
        read = (len(cells), sum(len(c.records) for c in cells))
        if read != counts:
            raise SchemaError(str(path), f"(cells, questions) is {read}, manifest {counts}")
        return assemble_run(info, cells, expected)


def _count(doc: dict, key: str) -> int:
    """A manifest value that must be an int >= 1."""
    value = doc[key]
    if not _has_type(value, int) or value < 1:
        raise TypeError(f"{key} must be an int >= 1, got {value!r}")
    return value


def load_top_keywords(out_dir: str | Path) -> int:
    """The top_keywords setting a persisted run was made with, from its manifest."""
    with _reading(Path(out_dir) / "manifest.json") as path:
        manifest = _object(loads_json(path.read_text(encoding="utf-8")), "the file")
        return _count(_object(manifest["config"], "'config'"), "top_keywords")


# -- figures -------------------------------------------------------------------

def fig6_csv(run: EvalRun) -> Iterator[str]:
    yield "prompt,mean,median,q1,q3,whisker_lo,whisker_hi,outliers\n"
    for pid, s in run.summaries.items():
        outliers = ";".join(_fmt(v) for v in s.outliers)
        yield (
            f"{pid},{_fmt(s.mean)},{_fmt(s.median)},{_fmt(s.q1)},{_fmt(s.q3)},"
            f"{_fmt(s.whisker_lo)},{_fmt(s.whisker_hi)},{csv_quote(outliers)}\n"
        )


def fig7_csv(run: EvalRun) -> Iterator[str]:
    yield "prompt,match_count\n"
    for pid, s in run.summaries.items():
        yield f"{pid},{s.match_count}\n"


def fig8_csv(run: EvalRun) -> Iterator[str]:
    yield "context_id," + ",".join(run.max_series) + "\n"
    # every series lists the same context ids, ascending (see EvalRun)
    for points in zip(*run.max_series.values()):
        yield f"{points[0][0]}," + ",".join(_fmt(value) for _, value in points) + "\n"


def emit_figures(run: EvalRun, out: str | Path, top_keywords: int) -> list[Path]:
    """Write the five figure-data CSVs for a completed run.

    Figure 1/2 series here are over the run's generated questions; the
    dataset-level variants come from emit_dataset_figures instead.
    """
    questions = [rec.question for cell in run.results for rec in cell.records]
    files = _question_figures(questions, top_keywords)
    files["fig6_boxplot.csv"] = fig6_csv(run)
    files["fig7_matches.csv"] = fig7_csv(run)
    files["fig8_max_series.csv"] = fig8_csv(run)
    return _write_files(out, files)


def emit_dataset_figures(dataset: SquadDataset, out: str | Path) -> list[Path]:
    """Write fig1/fig2 series over the dataset's baseline questions, with
    RunConfig's default top_keywords."""
    return _write_files(out, _question_figures(dataset.questions(), RunConfig.top_keywords))


def _question_figures(questions: list[str], top_keywords: int) -> dict[str, Iterator[str]]:
    """Figure 1 (length histogram) and figure 2 (keywords) over the questions."""
    hist = question_length_histogram(questions)
    keywords = frequent_words(questions, bundled_stopwords(), top_k=top_keywords)
    return {
        "fig1_lengths.csv": histogram_to_csv(hist),
        "fig2_keywords.csv": keywords_to_csv(keywords),
    }


def _write_files(out: str | Path, files: dict[str, Iterable[str]]) -> list[Path]:
    """Write each file, given as its text in chunks, whole or not at all.

    The chunks are written one by one to a temporary name in the same
    directory, which is then renamed onto the target, so a write
    interrupted by any exception, one raised by the chunks' iterator
    included, leaves the previous file, not a torn one. A stale file at
    the temporary name is removed first and the name is created afresh,
    so a symlink there is never followed. A file built as one string is
    passed as a 1-tuple. The directory must exist. A temporary file that
    cannot be removed, created, written or closed, or a target that
    cannot be replaced, a directory say, raises ConfigError naming the
    target; an exception raised by the chunks passes through as it is.
    When a write fails, the temporary file it created is removed; if that
    removal fails too, ConfigError names the file left behind, with the
    write's error as its cause. An interrupt passes through as it is.
    """
    out_dir = Path(out)
    written = []
    for name, chunks in files.items():
        target = out_dir / name
        tmp = out_dir / f".{name}.tmp"
        created = False
        try:
            with _writing(target):
                tmp.unlink(missing_ok=True)
                fd = os.open(tmp, _CREATE_NEW, 0o666)
                created = True
                fh = open(fd, "w", encoding="utf-8")
            try:
                for chunk in chunks:
                    # not _writing: a context manager per line cost six
                    # times the writes (0.15 s against 0.02 s per 60,000)
                    try:
                        fh.write(chunk)
                    except OSError as exc:
                        raise _cannot_write(target, exc) from exc
            finally:
                with _writing(target):
                    fh.close()
            with _writing(target):
                os.replace(tmp, target)
        except BaseException as exc:
            try:
                tmp.unlink(missing_ok=True)
            except OSError as err:
                # an entry this call did not create, a directory say, is
                # what could not be opened, and the error names the target
                if created and isinstance(exc, Exception):
                    raise ConfigError(f"cannot remove {tmp}: {err.strerror}") from exc
            raise
        written.append(target)
    return written


# a new file, never one that is there already nor the target of a symlink
_CREATE_NEW = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW


def _remove(path: Path) -> None:
    """Remove path if it is there; ConfigError naming it if it cannot be."""
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot remove {path}: {exc.strerror}") from exc


def _cannot_write(target: Path, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {target}: {exc.strerror}")


@contextmanager
def _writing(target: Path):
    try:
        yield
    except OSError as exc:
        raise _cannot_write(target, exc) from exc


# -- report --------------------------------------------------------------------

def write_report(run: EvalRun, out: str | Path) -> Path:
    rows = []
    for pid, s in run.summaries.items():
        rows.append(
            f"| {pid} | {s.n_questions} | {s.mean:.4f} | {s.median:.4f} "
            f"| {s.match_count} |"
        )
    shortfall_note = ""
    if run.shortfalls:
        shortfall_note = (
            f"\n{len(run.shortfalls)} prompt cell(s) yielded fewer than the "
            "configured questions per prompt; per-prompt totals above "
            "reflect the questions actually parsed.\n"
        )
    template = resources.files("qgen").joinpath("data/report_template.md")
    body = Template(template.read_text(encoding="utf-8")).substitute(
        backend=_json_dumps(run.info.backend),
        seed=str(run.info.seed),
        sample_size=str(run.info.sample_size),
        threshold=_fmt(run.info.threshold),
        vector_digest=run.info.vector_digest,
        summary_rows="\n".join(rows),
        zero_vector_count=str(run.zero_vector_count),
        shortfall_note=shortfall_note,
    )
    return _write_files(out, {"report.md": (body,)})[0]
