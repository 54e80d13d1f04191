"""End-to-end orchestration: config, run execution, artifacts, figures.

A run parses the dataset, samples contexts, renders the prompt variants,
collects completions with bounded concurrency, parses and scores the
questions, and persists everything into one output directory:

- ``manifest.json``  config snapshot, vector digest, backend identity,
  timestamps, status (the only file containing wall-clock values)
- ``scores.jsonl``   one scored question per line
- ``table2.csv``     context_id, prompt, question, question_max, prompt_max
- ``run.json``       summaries, max series, run metadata
- ``report.md``      human-readable summary
- ``fig*.csv``       figure data series

Aside from manifest timestamps, every artifact is a pure function of the
config, so rerunning with the mock backend and the same seed reproduces
the directory byte for byte. A failed run leaves only ``scores.jsonl``,
holding the cells scored before the abort, and a manifest with status
"failed"; it removes the other artifacts an earlier run left in the
directory.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from string import Template
from typing import get_args, get_type_hints

from .corpus import SquadDataset, load_squad, sample_contexts
from .errors import ConfigError, MalformedJson, PipelineError, SchemaError
from .promptgen import (
    PROMPT_IDS,
    Backend,
    BackendRequest,
    CallRecord,
    GeneratedQuestion,
    HttpBackend,
    MockBackend,
    OpenAICompletionsBackend,
    default_templates,
    generate,
    parse_questions,
    render_prompt,
)
from .rng import ALGORITHM as RNG_ALGORITHM
from .scoring import (
    EvalRun,
    PromptContextResult,
    RunInfo,
    ScoreRecord,
    assemble_run,
    prompt_max,
    score_cell,
)
from .similarity import load_vectors_path
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
    threshold: float = 0.7
    prompts: str = "ABCD"
    max_output_tokens: int = 256
    max_in_flight: int = 4
    top_keywords: int = 20

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not any(_has_type(value, kind) for kind in _CONFIG_TYPES[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
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
            raise ConfigError("prompts must name at least one template")
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
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
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
    try:
        cfg = RunConfig(**doc)
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
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

    Completions are scored once every call has returned or one has
    failed; the final assembly re-sorts by (context_id, prompt_id), so
    outputs do not depend on completion order. After the first failed
    backend call no further call is sent; calls in flight finish. On any
    abort, the cells scored so far are written to scores.jsonl next to a
    manifest with status "failed" naming the stage and cause, and the
    error is re-raised wrapped in PipelineError. An invalid config or
    backend URL raises ConfigError before any input is read or file
    written.
    """
    cfg.validate()
    backend = make_backend(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = _utcnow()
    cells: list[PromptContextResult] = []
    shortfalls: list[dict] = []
    call_log: list[CallRecord] = []

    stage = "load"
    try:
        dataset = load_squad(cfg.dataset)
        table = load_vectors_path(cfg.vectors)
        vector_digest = _sha256_file(cfg.vectors)
        stage = "sample"
        sampled = sample_contexts(dataset, cfg.sample_size, cfg.seed)

        stage = "generate"
        info = RunInfo(
            seed=cfg.seed,
            threshold=cfg.threshold,
            sample_size=cfg.sample_size,
            backend=backend.identity(),
            vector_digest=vector_digest,
            rng_algorithm=RNG_ALGORITHM,
        )
        baselines = {r.context_id: r.baselines for r in sampled}
        jobs = [
            (
                record.context_id,
                template.id,
                BackendRequest(
                    prompt=render_prompt(template, record.text),
                    temperature=cfg.temperature,
                    max_tokens=cfg.max_output_tokens,
                ),
            )
            for record in sampled
            for template in default_templates(cfg.prompts)
        ]
        # set by the first failed call; a worker checks it before each
        # call, so none is sent after a failure, however soon the worker
        # picks up its next job
        stop = threading.Event()

        def call(request: BackendRequest) -> str | None:
            if stop.is_set():
                return None
            try:
                return generate(backend, request, call_log)
            except Exception:
                stop.set()
                raise

        with ThreadPoolExecutor(max_workers=cfg.max_in_flight) as pool:
            futures = {pool.submit(call, request): (cid, pid) for cid, pid, request in jobs}
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_EXCEPTION)
                # score completed cells before surfacing any failure so
                # the failure path salvages everything that finished
                for future in sorted(done, key=lambda f: f.exception() is not None):
                    cid, pid = futures[future]
                    stage = "generate"
                    raw = future.result()
                    if raw is None:  # skipped after a failed call
                        continue
                    stage = "score"
                    parsed = parse_questions(raw, cfg.questions_per_prompt)
                    if parsed.shortfall:
                        shortfalls.append(
                            {
                                "context_id": cid,
                                "prompt_id": pid,
                                "got": len(parsed.texts),
                                "expected": cfg.questions_per_prompt,
                            }
                        )
                    cells.append(
                        score_cell(cid, pid, list(parsed.texts), baselines[cid], table)
                    )
        stage = "aggregate"
        run = assemble_run(info, cells, cfg.threshold, shortfalls)
        stage = "persist"
        persist_run(run, cfg, out_dir, started, call_log)
        emit_figures(run, out_dir, top_keywords=cfg.top_keywords)
        write_report(run, out_dir)
    except Exception as exc:
        for name in _COMPLETE_RUN_ONLY:
            (out_dir / name).unlink(missing_ok=True)
        cells.sort(key=lambda c: (c.context_id, c.prompt_id))
        _write_files(out_dir, {"scores.jsonl": scores_to_jsonl(cells)})
        _write_manifest(
            out_dir, cfg, started, call_log,
            status="failed",
            stage=stage,
            error=f"{type(exc).__name__}: {exc}",
            cells=len(cells),
        )
        raise PipelineError(stage, exc, cells_done=len(cells)) from exc
    return run


# -- persistence ---------------------------------------------------------------

def _record_to_json(rec: ScoreRecord) -> dict:
    return {
        "context_id": rec.generated.context_id,
        "prompt_id": rec.generated.prompt_id,
        "index": rec.generated.index,
        "question": rec.generated.text,
        "per_baseline": [[bid, score] for bid, score in rec.per_baseline],
        "question_max": rec.question_max,
        "zero_vector_flag": rec.zero_vector_flag,
    }


# scores.jsonl field types that load_run checks before scoring computes with them
_RECORD_TYPES = {
    "context_id": int,
    "prompt_id": str,
    "index": int,
    "question": str,
    "question_max": float,
    "zero_vector_flag": bool,
}


# run.json info field types, checked the same way
_INFO_TYPES = get_type_hints(RunInfo)


def _check_types(doc: dict, types: dict[str, type]) -> None:
    for key, kind in types.items():
        if not _has_type(doc[key], kind):
            raise TypeError(f"{key!r} must be {kind.__name__}, got {doc[key]!r}")


def _record_from_json(doc: dict) -> ScoreRecord:
    _check_types(doc, _RECORD_TYPES)
    return ScoreRecord(
        generated=GeneratedQuestion(
            context_id=doc["context_id"],
            prompt_id=doc["prompt_id"],
            index=doc["index"],
            text=doc["question"],
        ),
        per_baseline=tuple((bid, score) for bid, score in doc["per_baseline"]),
        question_max=doc["question_max"],
        zero_vector_flag=doc["zero_vector_flag"],
    )


def scores_to_jsonl(cells: list[PromptContextResult]) -> str:
    out = io.StringIO()
    for cell in cells:
        for rec in cell.records:
            out.write(_json_dumps(_record_to_json(rec)))
            out.write("\n")
    return out.getvalue()


def _fmt(x: float) -> str:
    return repr(float(x))


def table2_csv(cells: list[PromptContextResult]) -> str:
    """Per-question rows mirroring a prompt-max table layout."""
    out = io.StringIO()
    out.write("context_id,prompt,question,question_max,prompt_max\n")
    for cell in cells:
        for rec in cell.records:
            out.write(
                f"{cell.context_id},{cell.prompt_id},"
                f"{csv_quote(rec.generated.text)},"
                f"{_fmt(rec.question_max)},{_fmt(cell.prompt_max)}\n"
            )
    return out.getvalue()


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


def persist_run(
    run: EvalRun,
    cfg: RunConfig,
    out_dir: Path,
    started: str,
    call_log: list[CallRecord] | None = None,
) -> None:
    _write_files(
        out_dir,
        {
            "scores.jsonl": scores_to_jsonl(run.results),
            "table2.csv": table2_csv(run.results),
            "run.json": run_to_json(run),
        },
    )
    _write_manifest(
        out_dir, cfg, started, call_log or [],
        status="complete",
        rng_algorithm=run.info.rng_algorithm,
        vector_digest=run.info.vector_digest,
        backend=run.info.backend,
        cells=len(run.results),
        questions=sum(len(c.records) for c in run.results),
        zero_vector_count=run.zero_vector_count,
        shortfall_count=len(run.shortfalls),
    )


def _write_manifest(
    out_dir: Path, cfg: RunConfig, started: str, call_log: list[CallRecord], **fields
) -> None:
    """Write manifest.json: the config, timestamps and call totals, plus fields."""
    manifest = {
        "config": _public_config(cfg),
        "seed": cfg.seed,
        "started_at": started,
        "finished_at": _utcnow(),
        "backend_calls": len(call_log),
        "backend_retries": sum(c.retries for c in call_log),
        "backend_latency_s": round(sum(c.latency_s for c in call_log), 6),
        **fields,
    }
    text = json.dumps(manifest, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    _write_files(out_dir, {"manifest.json": text})


@contextmanager
def _reading(path: Path):
    """Raise a missing file, invalid JSON or a missing or mistyped field
    met while reading path as SchemaError or MalformedJson naming the file."""
    try:
        yield path
    except FileNotFoundError as exc:
        raise SchemaError(str(path), "file not found") from exc
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"{path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise SchemaError(str(path), f"missing or malformed field: {exc}") from exc


def load_run(out_dir: str | Path) -> EvalRun:
    """Rebuild an EvalRun from a persisted run directory.

    Only the run info and shortfalls are read from run.json; summaries,
    max series and the zero-vector count are recomputed from
    scores.jsonl by assemble_run, so a loaded run always agrees with its
    scores. A missing file or a missing or mistyped field raises
    SchemaError and invalid JSON raises MalformedJson, each naming the file.
    """
    out = Path(out_dir)
    with _reading(out / "run.json") as path:
        doc = json.loads(path.read_text(encoding="utf-8"))
        info, shortfalls = RunInfo(**doc["info"]), doc["shortfalls"]
        _check_types(vars(info), _INFO_TYPES)
    with _reading(out / "scores.jsonl") as path:
        records = [
            _record_from_json(json.loads(line))
            for line in path.read_text(encoding="utf-8").splitlines()
            if line
        ]
    by_cell: dict[tuple[int, str], list[ScoreRecord]] = {}
    for rec in records:
        key = (rec.generated.context_id, rec.generated.prompt_id)
        by_cell.setdefault(key, []).append(rec)
    cells = [
        PromptContextResult(
            context_id=cid,
            prompt_id=pid,
            records=tuple(sorted(recs, key=lambda r: r.generated.index)),
            prompt_max=prompt_max(recs),
        )
        for (cid, pid), recs in by_cell.items()
    ]
    return assemble_run(info, cells, info.threshold, shortfalls)


def load_top_keywords(out_dir: str | Path) -> int:
    """The top_keywords setting a persisted run was made with, from its manifest."""
    with _reading(Path(out_dir) / "manifest.json") as path:
        value = json.loads(path.read_text(encoding="utf-8"))["config"]["top_keywords"]
        if not _has_type(value, int) or value < 1:
            raise TypeError(f"top_keywords must be an int >= 1, got {value!r}")
    return value


# -- figures -------------------------------------------------------------------

def fig6_csv(run: EvalRun) -> str:
    out = io.StringIO()
    out.write("prompt,mean,median,q1,q3,whisker_lo,whisker_hi,outliers\n")
    for pid in sorted(run.summaries):
        s = run.summaries[pid]
        outliers = ";".join(_fmt(v) for v in s.outliers)
        out.write(
            f"{pid},{_fmt(s.mean)},{_fmt(s.median)},{_fmt(s.q1)},{_fmt(s.q3)},"
            f"{_fmt(s.whisker_lo)},{_fmt(s.whisker_hi)},{csv_quote(outliers)}\n"
        )
    return out.getvalue()


def fig7_csv(run: EvalRun) -> str:
    out = io.StringIO()
    out.write("prompt,match_count\n")
    for pid in sorted(run.summaries):
        out.write(f"{pid},{run.summaries[pid].match_count}\n")
    return out.getvalue()


def fig8_csv(run: EvalRun) -> str:
    prompt_ids = sorted(run.max_series)
    out = io.StringIO()
    out.write("context_id," + ",".join(prompt_ids) + "\n")
    series = {pid: dict(run.max_series[pid]) for pid in prompt_ids}
    context_ids = sorted({cid for s in run.max_series.values() for cid, _ in s})
    for cid in context_ids:
        row = ",".join(_fmt(series[pid][cid]) for pid in prompt_ids)
        out.write(f"{cid},{row}\n")
    return out.getvalue()


def emit_figures(run: EvalRun, out: str | Path, top_keywords: int) -> list[Path]:
    """Write the five figure-data CSVs for a completed run.

    Figure 1/2 series here are over the run's generated questions; the
    dataset-level variants come from emit_dataset_figures instead.
    """
    questions = [rec.generated.text for rec in run.records()]
    files = _question_figures(questions, top_keywords)
    files["fig6_boxplot.csv"] = fig6_csv(run)
    files["fig7_matches.csv"] = fig7_csv(run)
    files["fig8_max_series.csv"] = fig8_csv(run)
    return _write_files(out, files)


def emit_dataset_figures(
    dataset: SquadDataset, out: str | Path, top_keywords: int = RunConfig.top_keywords
) -> list[Path]:
    """Write fig1/fig2 series over the dataset's baseline questions."""
    return _write_files(out, _question_figures(dataset.questions(), top_keywords))


def _question_figures(questions: list[str], top_keywords: int) -> dict[str, str]:
    """Figure 1 (length histogram) and figure 2 (keywords) over the questions."""
    hist = question_length_histogram(questions)
    keywords = frequent_words(questions, bundled_stopwords(), top_k=top_keywords)
    return {
        "fig1_lengths.csv": histogram_to_csv(hist),
        "fig2_keywords.csv": keywords_to_csv(keywords),
    }


def _write_files(out: str | Path, files: dict[str, str]) -> list[Path]:
    """Write each file whole or not at all.

    The text goes to a temporary name in the same directory and is then
    renamed onto the target, so an interrupted write leaves the previous
    file, not a torn one.
    """
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in files.items():
        target = out_dir / name
        tmp = out_dir / f".{name}.tmp"
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        written.append(target)
    return written


# -- report --------------------------------------------------------------------

def _report_template() -> Template:
    text = (
        resources.files("qgen")
        .joinpath("data/report_template.md")
        .read_text(encoding="utf-8")
    )
    return Template(text)


def write_report(run: EvalRun, out: str | Path) -> Path:
    rows = []
    for pid in sorted(run.summaries):
        s = run.summaries[pid]
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
    body = _report_template().substitute(
        backend=_json_dumps(run.info.backend),
        seed=str(run.info.seed),
        sample_size=str(run.info.sample_size),
        threshold=_fmt(run.info.threshold),
        vector_digest=run.info.vector_digest,
        summary_rows="\n".join(rows),
        zero_vector_count=str(run.zero_vector_count),
        shortfall_note=shortfall_note,
    )
    return _write_files(out, {"report.md": body})[0]
