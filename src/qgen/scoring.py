"""Similarity scoring of generated questions against baselines.

A (context, prompt) cell is scored by one function, :func:`score_cell`,
from the cosines :func:`context_cosines` takes for the whole context: it
pools each distinct sentence of the context once, however many prompts
it has, and compares every one with every baseline question in one
stacked product. The maximum of a question's cosine similarities is the
question's score (``question_max``), and ``prompt_max`` is the maximum
over the cell's questions. A question "matches" when its question_max
strictly exceeds the threshold, and per-prompt distributions of
question_max are summarized with linear-interpolation quartiles and Tukey
whiskers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import EmptyInput, EmptyRecords, MissingCell
from .similarity import EmbeddingTable, cosine_similarity, sentence_vector

DEFAULT_THRESHOLD = 0.7


@dataclass(frozen=True)
class ScoreRecord:
    """One generated question scored against its context's baselines.

    ``index`` is the question's position in its cell. The fields are the
    keys of a scores.jsonl line, where ``per_baseline`` is written as a
    list of ``[baseline id, cosine]`` pairs.
    """

    context_id: int
    prompt_id: str
    index: int
    question: str
    per_baseline: tuple[tuple[str, float], ...]
    question_max: float
    zero_vector_flag: bool


@dataclass(frozen=True)
class PromptContextResult:
    """A prompt's scored questions for one context."""

    context_id: int
    prompt_id: str
    records: tuple[ScoreRecord, ...]

    @property
    def prompt_max(self) -> float:
        """The maximum question_max over the cell's records."""
        return prompt_max(self.records)


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
    rng_algorithm: str


@dataclass
class EvalRun:
    """All scoring outputs for one run, in deterministic order.

    ``summaries`` and ``max_series`` are in ascending prompt id order, and
    every prompt's ``max_series`` lists the same context ids, ascending.
    ``shortfalls`` lists the cells with fewer records than the questions
    asked per prompt, as {context_id, prompt_id, got, expected} dicts.
    """

    info: RunInfo
    results: list[PromptContextResult]
    summaries: dict[str, PromptSummary]
    max_series: dict[str, list[tuple[int, float]]]
    zero_vector_count: int
    shortfalls: list[dict]


def context_cosines(
    baselines, question_lists: Sequence[Sequence[str]], table: EmbeddingTable
) -> dict[str, tuple[list[float], bool]]:
    """Map each distinct text of a context to its cosines and its zero
    vector flag.

    ``baselines`` is the context's BaselineQuestion sequence, and the
    texts are their questions and those of ``question_lists``. Each text
    is pooled once in ``table``, the baselines' first, and one
    :func:`cosine_similarity` call takes the cosines of every text against
    every baseline, in baseline order. The flag is set when the text's
    vector or any baseline's had no in-vocabulary tokens; those
    comparisons are 0.0. A context without baselines raises EmptyRecords.
    """
    if not baselines:
        raise EmptyRecords("a context with no baseline questions has no cosines")
    texts = dict.fromkeys(chain((b.question for b in baselines), *question_lists))
    vectors = {text: sentence_vector(text, table) for text in texts}
    bvecs = [vectors[b.question] for b in baselines]
    any_zero_baseline = any(bvec.is_zero for bvec in bvecs)
    rows = cosine_similarity(list(vectors.values()), bvecs)
    return {
        text: (row, vec.is_zero or any_zero_baseline)
        for (text, vec), row in zip(vectors.items(), rows)
    }


def score_cell(
    context_id: int,
    prompt_id: str,
    questions: list[str],
    baselines,
    table: EmbeddingTable,
    cosines: dict[str, tuple[list[float], bool]] | None = None,
) -> PromptContextResult:
    """Score a cell's question texts against its context's baselines.

    ``baselines`` is the context's BaselineQuestion sequence. ``cosines``
    is :func:`context_cosines`' map for the context, over lists that hold
    ``questions``: one map serves all the cells of a context, which pools
    each distinct sentence once. None means the map of this cell alone.
    A question's ``per_baseline`` holds its cosines in baseline order, its
    ``question_max`` is their maximum, and its zero vector flag is the
    map's.
    """
    if not baselines:
        raise EmptyRecords(f"context {context_id} has no baseline questions")
    if cosines is None:
        cosines = context_cosines(baselines, [questions], table)
    ids = [b.id for b in baselines]
    records = []
    for i, text in enumerate(questions):
        sims, zero = cosines[text]
        records.append(
            ScoreRecord(
                context_id=context_id,
                prompt_id=prompt_id,
                index=i,
                question=text,
                per_baseline=tuple(zip(ids, sims)),
                question_max=max(sims),
                zero_vector_flag=zero,
            )
        )
    return PromptContextResult(
        context_id=context_id, prompt_id=prompt_id, records=tuple(records)
    )


def prompt_max(records: Sequence[ScoreRecord]) -> float:
    """Maximum question_max across the records."""
    if not records:
        raise EmptyRecords("prompt_max of zero records is undefined")
    return max(r.question_max for r in records)


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


def assemble_run(
    info: RunInfo, results: list[PromptContextResult], expected: int
) -> EvalRun:
    """Take the cells in (context_id, prompt_id) order, each once, raising
    ValueError at the first that is not; build each prompt's max series and
    summary, matches counted at info.threshold; list every cell with fewer
    than ``expected`` records. The first hole in the context × prompt grid,
    prompts then contexts ascending, raises MissingCell."""
    by_prompt: dict[str, dict[int, PromptContextResult]] = {}
    key: tuple = ()
    for cell in results:
        key, before = (cell.context_id, cell.prompt_id), key
        if key <= before:
            raise ValueError(f"cell {key} is out of order")
        by_prompt.setdefault(cell.prompt_id, {})[cell.context_id] = cell
    context_ids = list(dict.fromkeys(c.context_id for c in results))
    summaries: dict[str, PromptSummary] = {}
    max_series: dict[str, list[tuple[int, float]]] = {}
    for pid, cells in sorted(by_prompt.items()):
        if len(cells) < len(context_ids):
            raise MissingCell(min(set(context_ids) - cells.keys()), pid)
        # a cell without records raises EmptyRecords here
        max_series[pid] = [(cid, cells[cid].prompt_max) for cid in context_ids]
        records = [rec for cid in context_ids for rec in cells[cid].records]
        stats = summarize([rec.question_max for rec in records])
        summaries[pid] = PromptSummary(
            prompt_id=pid,
            n_questions=stats.n,
            mean=stats.mean,
            median=stats.median,
            q1=stats.q1,
            q3=stats.q3,
            whisker_lo=stats.whisker_lo,
            whisker_hi=stats.whisker_hi,
            outliers=stats.outliers,
            match_count=count_matches(records, info.threshold),
        )
    zero_count = sum(
        1 for cell in results for rec in cell.records if rec.zero_vector_flag
    )
    return EvalRun(
        info=info,
        results=results,
        summaries=summaries,
        max_series=max_series,
        zero_vector_count=zero_count,
        shortfalls=[
            {
                "context_id": cell.context_id,
                "prompt_id": cell.prompt_id,
                "got": len(cell.records),
                "expected": expected,
            }
            for cell in results
            if len(cell.records) < expected
        ],
    )
