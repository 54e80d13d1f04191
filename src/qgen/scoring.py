"""Similarity scoring of generated questions against baselines.

Each generated question is compared with every baseline question of its
context; the maximum of those cosine similarities is the question's score
(``question_max``). Per (context, prompt) cell, ``prompt_max`` is the
maximum over its questions. A question "matches" when its question_max
strictly exceeds the threshold, and per-prompt distributions of
question_max are summarized with linear-interpolation quartiles and Tukey
whiskers.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, EmptyRecords, MissingCell
from .promptgen import GeneratedQuestion
from .similarity import EmbeddingTable, cosine_similarity, sentence_vector

DEFAULT_THRESHOLD = 0.7


@dataclass(frozen=True)
class ScoreRecord:
    """One generated question scored against its context's baselines."""

    generated: GeneratedQuestion
    per_baseline: tuple[tuple[str, float], ...]
    question_max: float
    zero_vector_flag: bool


@dataclass(frozen=True)
class PromptContextResult:
    """A prompt's scored questions for one context, and their maximum."""

    context_id: int
    prompt_id: str
    records: tuple[ScoreRecord, ...]
    prompt_max: float


@dataclass(frozen=True)
class BoxStats:
    """Distribution summary: quartiles, Tukey whiskers, explicit outliers."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    whisker_lo: float
    whisker_hi: float
    outliers: tuple[float, ...]
    n: int


@dataclass(frozen=True)
class PromptSummary:
    prompt_id: str
    n_questions: int
    mean: float
    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outliers: tuple[float, ...]
    match_count: int


@dataclass(frozen=True)
class RunInfo:
    """Config snapshot stamped onto an EvalRun.

    ``rng_algorithm`` names the sampling PRNG so an independent
    implementation can reproduce the context sample from the seed.
    """

    seed: int
    threshold: float
    sample_size: int
    backend: dict
    vector_digest: str
    rng_algorithm: str = ""


@dataclass
class EvalRun:
    """All scoring outputs for one run, in deterministic order.

    ``shortfalls`` lists the cells that parsed fewer questions than
    requested, as {context_id, prompt_id, got, expected} dicts.
    """

    info: RunInfo
    results: list[PromptContextResult]
    summaries: dict[str, PromptSummary]
    max_series: dict[str, list[tuple[int, float]]]
    zero_vector_count: int
    shortfalls: list[dict] = field(default_factory=list)

    def records(self) -> list[ScoreRecord]:
        return [rec for cell in self.results for rec in cell.records]


def score_question(
    generated: GeneratedQuestion,
    baselines,
    table: EmbeddingTable,
) -> ScoreRecord:
    """Score one question against every baseline, in baseline order.

    ``baselines`` is the context's BaselineQuestion sequence. The zero
    vector flag is set when either side of any comparison had no in-
    vocabulary tokens; those comparisons contribute 0.0.
    """
    if not baselines:
        raise EmptyRecords(
            f"context {generated.context_id} has no baseline questions"
        )
    qvec = sentence_vector(generated.text, table)
    per_baseline: list[tuple[str, float]] = []
    zero_flag = qvec.is_zero
    best = -math.inf
    for baseline in baselines:
        bvec = sentence_vector(baseline.question, table)
        if bvec.is_zero:
            zero_flag = True
        sim = cosine_similarity(qvec, bvec)
        per_baseline.append((baseline.id, sim))
        if sim > best:
            best = sim
    return ScoreRecord(
        generated=generated,
        per_baseline=tuple(per_baseline),
        question_max=best,
        zero_vector_flag=zero_flag,
    )


def score_cell(
    context_id: int,
    prompt_id: str,
    questions: list[str],
    baselines,
    table: EmbeddingTable,
) -> PromptContextResult:
    """Score a cell's question texts and fold in the prompt max."""
    records = tuple(
        score_question(
            GeneratedQuestion(
                context_id=context_id, prompt_id=prompt_id, index=i, text=text
            ),
            baselines,
            table,
        )
        for i, text in enumerate(questions)
    )
    return PromptContextResult(
        context_id=context_id,
        prompt_id=prompt_id,
        records=records,
        prompt_max=prompt_max(list(records)),
    )


def prompt_max(records: list[ScoreRecord]) -> float:
    """Maximum question_max across the records."""
    if not records:
        raise EmptyRecords("prompt_max of zero records is undefined")
    best = records[0].question_max
    for rec in records[1:]:
        if rec.question_max > best:
            best = rec.question_max
    return best


def count_matches(records: list[ScoreRecord], threshold: float) -> int:
    """Questions whose question_max strictly exceeds the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    return sum(1 for rec in records if rec.question_max > threshold)


def summarize(scores: list[float]) -> BoxStats:
    """Five-number summary with linear-interpolation quartiles.

    Whiskers sit on the most extreme data points inside the Tukey fences
    (q1 - 1.5 IQR, q3 + 1.5 IQR); points beyond are outliers, sorted
    ascending.
    """
    if not scores:
        raise EmptyInput("cannot summarize zero scores")
    arr = np.asarray(scores, dtype=np.float64)
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0], method="linear")
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    outliers = arr[(arr < lo_fence) | (arr > hi_fence)]
    # the fences always bracket at least one data point, so inside is
    # never empty
    return BoxStats(
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(arr.max()),
        mean=float(arr.sum() / arr.size),
        whisker_lo=float(inside.min()),
        whisker_hi=float(inside.max()),
        outliers=tuple(float(v) for v in np.sort(outliers)),
        n=int(arr.size),
    )


def summarize_prompt(
    results: list[PromptContextResult], prompt_id: str, threshold: float
) -> PromptSummary:
    """Summary of one prompt's question_max distribution over all cells."""
    records = [
        rec
        for cell in results
        if cell.prompt_id == prompt_id
        for rec in cell.records
    ]
    if not records:
        raise EmptyRecords(f"no records for prompt {prompt_id!r}")
    stats = summarize([rec.question_max for rec in records])
    return PromptSummary(
        prompt_id=prompt_id,
        n_questions=stats.n,
        mean=stats.mean,
        median=stats.median,
        q1=stats.q1,
        q3=stats.q3,
        whisker_lo=stats.whisker_lo,
        whisker_hi=stats.whisker_hi,
        outliers=stats.outliers,
        match_count=count_matches(records, threshold),
    )


def build_max_series(
    results: list[PromptContextResult],
) -> dict[str, list[tuple[int, float]]]:
    """Per-prompt (context_id, prompt_max) series, sorted by context id.

    The results must cover the full context × prompt grid; a hole raises
    MissingCell naming the gap, since a silent gap would misalign the
    series.
    """
    by_cell: dict[tuple[int, str], float] = {}
    for cell in results:
        by_cell[(cell.context_id, cell.prompt_id)] = cell.prompt_max
    context_ids = sorted({cell.context_id for cell in results})
    prompt_ids = sorted({cell.prompt_id for cell in results})
    series: dict[str, list[tuple[int, float]]] = {}
    for pid in prompt_ids:
        row: list[tuple[int, float]] = []
        for cid in context_ids:
            if (cid, pid) not in by_cell:
                raise MissingCell(cid, pid)
            row.append((cid, by_cell[(cid, pid)]))
        series[pid] = row
    return series


def assemble_run(
    info: RunInfo,
    results: list[PromptContextResult],
    threshold: float,
    shortfalls: Iterable[dict] = (),
) -> EvalRun:
    """Order results and shortfalls deterministically; attach summaries and series."""
    ordered = sorted(results, key=lambda c: (c.context_id, c.prompt_id))
    prompt_ids = sorted({c.prompt_id for c in ordered})
    summaries = {
        pid: summarize_prompt(ordered, pid, threshold) for pid in prompt_ids
    }
    zero_count = sum(
        1 for cell in ordered for rec in cell.records if rec.zero_vector_flag
    )
    return EvalRun(
        info=info,
        results=ordered,
        summaries=summaries,
        max_series=build_max_series(ordered),
        zero_vector_count=zero_count,
        shortfalls=sorted(shortfalls, key=lambda s: (s["context_id"], s["prompt_id"])),
    )
