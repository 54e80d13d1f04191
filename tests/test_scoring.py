"""Similarity scoring, match counting, and distribution summaries."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from qgen import scoring, similarity
from qgen.corpus import Answer, BaselineQuestion
from qgen.errors import EmptyInput, EmptyRecords, MissingCell
from qgen.scoring import (
    DEFAULT_THRESHOLD,
    EvalRun,
    PromptContextResult,
    RunInfo,
    ScoreRecord,
    assemble_run,
    context_cosines,
    count_matches,
    prompt_max,
    score_cell,
    summarize,
)
from qgen.similarity import SentenceVector, cosine_similarity, load_vectors, sentence_vector

WORDS = {
    "what": (0.6, 0.1, 0.2),
    "is": (0.1, 0.5, 0.1),
    "the": (0.2, 0.2, 0.2),
    "capital": (0.9, -0.3, 0.4),
    "city": (0.8, -0.2, 0.5),
    "river": (-0.4, 0.7, 0.1),
    "long": (-0.3, 0.6, 0.3),
    "who": (0.5, 0.2, -0.6),
    "built": (0.1, -0.7, 0.8),
}

TABLE = load_vectors(
    "\n".join(f"{w} " + " ".join(repr(c) for c in cs) for w, cs in WORDS.items())
)


def baseline(qid: str, question: str) -> BaselineQuestion:
    return BaselineQuestion(
        id=qid, question=question, answers=(Answer(text="x", answer_start=0),)
    )


def record_with_max(value: float, context_id: int = 0, prompt_id: str = "A",
                    index: int = 0, zero: bool = False) -> ScoreRecord:
    return ScoreRecord(
        context_id=context_id,
        prompt_id=prompt_id,
        index=index,
        question="what is",
        per_baseline=(("b0", value),),
        question_max=value,
        zero_vector_flag=zero,
    )


def cell_with_maxes(context_id: int, prompt_id: str, values: list[float]):
    records = tuple(
        record_with_max(v, context_id, prompt_id, i) for i, v in enumerate(values)
    )
    return PromptContextResult(context_id=context_id, prompt_id=prompt_id, records=records)


def reference_cosine(a: SentenceVector, b: SentenceVector) -> float:
    """The per-pair formula the stacked products replaced: np.dot over
    np.linalg.norm, 0.0 for a zero norm, clamped in Python."""
    norm_a, norm_b = float(np.linalg.norm(a.values)), float(np.linalg.norm(b.values))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    value = float(np.dot(a.values, b.values)) / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))


# -- score_cell -----------------------------------------------------------------

def score_one(text: str, baselines) -> ScoreRecord:
    """The record of a one-question cell."""
    return score_cell(0, "A", [text], baselines, TABLE).records[0]


def test_score_cell_indexes_and_prompt_max():
    cell = score_cell(
        3,
        "B",
        ["what is the capital", "who built the river", "the long city"],
        [baseline("b0", "what is the capital")],
        TABLE,
    )
    assert cell.context_id == 3
    assert cell.prompt_id == "B"
    assert [r.index for r in cell.records] == [0, 1, 2]
    assert all(r.context_id == 3 and r.prompt_id == "B" for r in cell.records)
    assert cell.prompt_max == max(r.question_max for r in cell.records)


def test_score_cell_self_similarity_is_one():
    rec = score_one("what is the capital", [baseline("b0", "what is the capital")])
    assert rec.question_max == pytest.approx(1.0, abs=1e-9)
    assert not rec.zero_vector_flag


def test_score_cell_per_baseline_order_and_max():
    baselines = [
        baseline("b0", "who built the river"),
        baseline("b1", "what is the capital"),
        baseline("b2", "the long river"),
    ]
    rec = score_one("what is the city", baselines)
    assert [qid for qid, _ in rec.per_baseline] == ["b0", "b1", "b2"]
    assert rec.question_max == max(v for _, v in rec.per_baseline)


def test_score_cell_matches_brute_force():
    rng = random.Random(31)
    vocab = list(WORDS)

    def sentence():
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))

    for _ in range(50):
        questions = [sentence() for _ in range(rng.randint(1, 5))]
        baselines = [baseline(f"b{i}", sentence()) for i in range(rng.randint(1, 4))]
        cell = score_cell(0, "A", questions, baselines, TABLE)
        assert [r.question for r in cell.records] == questions
        for qtext, rec in zip(questions, cell.records):
            qvec = sentence_vector(qtext, TABLE)
            expected = [
                reference_cosine(qvec, sentence_vector(b.question, TABLE))
                for b in baselines
            ]
            assert [v.hex() for _, v in rec.per_baseline] == [v.hex() for v in expected]
            assert rec.question_max == max(expected)


def test_score_cell_zero_vector_from_generated_side():
    rec = score_one("zz yy", [baseline("b0", "what is the capital")])
    assert rec.zero_vector_flag
    assert rec.question_max == 0.0
    assert rec.per_baseline == (("b0", 0.0),)


def test_score_cell_zero_vector_from_baseline_side():
    rec = score_one(
        "what is the capital",
        [baseline("b0", "zz yy"), baseline("b1", "what is the capital")],
    )
    assert rec.zero_vector_flag
    assert rec.per_baseline[0][1] == 0.0
    assert rec.question_max == pytest.approx(1.0, abs=1e-9)


def test_score_cell_empty_baselines():
    with pytest.raises(EmptyRecords):
        score_cell(0, "A", ["what is"], [], TABLE)


def test_context_cosines_empty_baselines():
    with pytest.raises(EmptyRecords):
        context_cosines([], [["q"]], TABLE)


def test_score_cell_builds_each_distinct_sentence_vector_once(monkeypatch):
    sentences = []

    def counting(sentence, table):
        sentences.append(sentence)
        return sentence_vector(sentence, table)

    monkeypatch.setattr(scoring, "sentence_vector", counting)
    questions = ["what is the capital", "who built the river", "the long city"]
    baselines = [
        baseline("b0", "what is the capital"),
        baseline("b1", "the long river"),
        baseline("b2", "who built it"),
        baseline("b3", "zz yy"),
    ]
    cell = score_cell(0, "A", questions, baselines, TABLE)
    # the first question is baseline b0's text, built once for both
    assert len(sentences) == len(set(questions + [b.question for b in baselines])) == 6
    assert sorted(sentences) == sorted(set(questions + [b.question for b in baselines]))
    assert len(cell.records) == 3


def record_bits(records) -> list:
    """The records' fields, with every float as its bits."""
    return [
        (r.context_id, r.prompt_id, r.index, r.question, r.zero_vector_flag,
         r.question_max.hex(), [(qid, v.hex()) for qid, v in r.per_baseline])
        for r in records
    ]


def test_shared_vectors_score_as_fresh_ones():
    # a context's cells share one map of cosines in run_pipeline, taken
    # over all their question lists; each cell scored with a map of its
    # own gives the same records, bit for bit
    rng = random.Random(47)
    vocab = [*WORDS, "zz", "what?"]

    def sentence():
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))

    for context_id in range(30):
        baselines = [baseline(f"b{i}", sentence()) for i in range(rng.randint(1, 4))]
        pool = [b.question for b in baselines] + [sentence() for _ in range(3)]
        cells = {
            pid: [rng.choice(pool) for _ in range(rng.randint(0, 5))] for pid in "ABCD"
        }
        shared_map = context_cosines(baselines, list(cells.values()), TABLE)
        for pid, questions in cells.items():
            shared = score_cell(context_id, pid, questions, baselines, TABLE, shared_map)
            fresh = score_cell(context_id, pid, questions, baselines, TABLE)
            assert shared == fresh
            assert record_bits(shared.records) == record_bits(fresh.records)
        texts = {b.question for b in baselines}.union(*cells.values())
        assert shared_map.keys() == texts


def cosine_bits(cosines: dict) -> dict:
    """A context_cosines map with every float as its bits."""
    return {text: ([v.hex() for v in row], zero) for text, (row, zero) in cosines.items()}


def test_vectors_left_from_another_context_score_the_same():
    # a map is taken per context, so one taken before for another context
    # that shares texts with this one changes neither this context's map
    # nor its records
    first = [baseline("b0", "what is the capital"), baseline("b1", "the long river")]
    second = [baseline("c0", "who built the city"), baseline("c1", "what is the capital")]
    questions = ["the long river", "who built the city", "what is the capital zz"]
    left = context_cosines(first, [questions], TABLE)
    after = context_cosines(second, [questions], TABLE)
    scored = score_cell(2, "A", questions, second, TABLE, after)
    fresh = score_cell(2, "A", questions, second, TABLE)
    assert record_bits(scored.records) == record_bits(fresh.records)
    assert cosine_bits(after) == cosine_bits(context_cosines(second, [questions], TABLE))
    # each map holds its own context's texts, against its own baselines
    assert set(left) == {b.question for b in first} | set(questions)
    assert set(after) == {b.question for b in second} | set(questions)
    assert [rec.per_baseline[0][0] for rec in scored.records] == ["c0"] * 3


def test_cell_without_questions_has_no_records():
    baselines = [baseline("b0", "what is the capital")]
    assert score_cell(4, "B", [], baselines, TABLE).records == ()
    cosines = context_cosines(baselines, [[], ["the long river"]], TABLE)
    assert score_cell(4, "B", [], baselines, TABLE, cosines).records == ()


@pytest.mark.parametrize("dim", [1, 2, 50])
def test_stacked_cosines_match_the_per_pair_formula_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    words = [f"w{i}" for i in range(30)]
    # magnitudes over six decades, so a change in the order of the sums shows
    rows = rng.normal(size=(len(words), dim)) * 10.0 ** rng.uniform(-3, 3, (len(words), 1))
    rows[0] = -0.0
    rows[2] = -rows[1]
    table = load_vectors(
        "\n".join(f"{w} " + " ".join(repr(v) for v in row) for w, row in zip(words, rows.tolist()))
    )
    vocab = words + ["oov"]
    sentences = [["oov"], ["w0"], ["w1", "w2"], ["w1"], ["w2"]] + [
        [vocab[i] for i in rng.integers(0, len(vocab), size=int(rng.integers(1, 8)))]
        for _ in range(40)
    ]
    vectors = [sentence_vector(tokens, table) for tokens in sentences]
    # a covered sentence whose mean is exactly zero, and -0.0 components
    assert not vectors[2].is_zero and not vectors[2].values.any()
    vectors.append(SentenceVector(np.full(dim, -0.0), covered=1, total=1))
    vectors.append(SentenceVector(np.where(np.arange(dim) % 2, -0.0, 1.5), covered=1, total=1))
    expected = [[reference_cosine(a, b).hex() for b in vectors] for a in vectors]
    assert [[cosine_similarity(a, b).hex() for b in vectors] for a in vectors] == expected
    got = cosine_similarity(vectors, vectors)
    assert [[v.hex() for v in row] for row in got] == expected
    some = vectors[7:12]
    got = cosine_similarity(vectors, some)
    assert [[v.hex() for v in row] for row in got] == [row[7:12] for row in expected]
    norms = similarity._row_norms(np.stack([v.values for v in vectors]))
    assert [v.hex() for v in norms.tolist()] == [v.norm.hex() for v in vectors]
    # and through a context: per_baseline is the formula's, flag and all
    baselines = [baseline(f"b{i}", " ".join(tokens)) for i, tokens in enumerate(sentences[:6])]
    questions = [" ".join(tokens) for tokens in sentences[6:]]
    cell = score_cell(0, "A", questions, baselines, table)
    bvecs = [sentence_vector(b.question, table) for b in baselines]
    for text, rec in zip(questions, cell.records):
        qvec = sentence_vector(text, table)
        want = [reference_cosine(qvec, bvec) for bvec in bvecs]
        assert [v.hex() for _, v in rec.per_baseline] == [v.hex() for v in want]
        assert rec.zero_vector_flag  # baseline b0 has no known token


# -- prompt_max -------------------------------------------------------------------

def test_prompt_max_examples():
    vals = [0.833, 0.534, 0.749, 0.857, 0.935]
    assert prompt_max([record_with_max(v, index=i) for i, v in enumerate(vals)]) == 0.935
    vals2 = [0.879, 0.535, 0.749, 0.956, 0.934]
    assert prompt_max([record_with_max(v, index=i) for i, v in enumerate(vals2)]) == 0.956


def test_prompt_max_single_and_empty():
    assert prompt_max([record_with_max(0.42)]) == 0.42
    with pytest.raises(EmptyRecords):
        prompt_max([])


# -- count_matches -----------------------------------------------------------------

def test_count_matches_example_strict_inequality():
    records = [
        record_with_max(v, index=i)
        for i, v in enumerate([0.833, 0.534, 0.749, 0.857, 0.935])
    ]
    assert count_matches(records, 0.7) == 4
    # strictly greater: a value equal to the threshold does not match
    assert count_matches([record_with_max(0.7)], 0.7) == 0
    assert count_matches(records, 1.0) == 0


def test_count_matches_monotonic_non_increasing():
    rng = random.Random(37)
    records = [record_with_max(rng.random(), index=i) for i in range(40)]
    thresholds = [i / 20 for i in range(21)]
    counts = [count_matches(records, t) for t in thresholds]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_count_matches_brute_force_and_bounds():
    rng = random.Random(41)
    records = [record_with_max(rng.random(), index=i) for i in range(25)]
    for t in [0.0, 0.3, 0.7, 0.99]:
        assert count_matches(records, t) == sum(
            1 for r in records if r.question_max > t
        )
    with pytest.raises(ValueError):
        count_matches(records, 1.5)
    with pytest.raises(ValueError):
        count_matches(records, -0.1)


# -- summarize ---------------------------------------------------------------------

def manual_percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def test_summarize_quartiles_example():
    stats = summarize([1.0, 2.0, 3.0, 4.0])
    assert stats.q1 == pytest.approx(1.75, abs=1e-12)
    assert stats.median == pytest.approx(2.5, abs=1e-12)
    assert stats.q3 == pytest.approx(3.25, abs=1e-12)
    assert stats.mean == pytest.approx(2.5, abs=1e-12)
    assert (stats.minimum, stats.maximum) == (1.0, 4.0)
    assert (stats.whisker_lo, stats.whisker_hi) == (1.0, 4.0)
    assert stats.outliers == ()
    assert stats.n == 4


def test_summarize_constant_list_degenerate():
    stats = summarize([0.5] * 7)
    assert stats.q1 == stats.median == stats.q3 == 0.5
    assert stats.whisker_lo == stats.whisker_hi == 0.5
    assert stats.outliers == ()


def test_summarize_outliers_and_whiskers():
    stats = summarize([1.0, 1.0, 1.0, 1.0, 10.0])
    # IQR is zero, so the fences collapse onto 1.0 and 10.0 is an outlier
    assert stats.outliers == (10.0,)
    assert stats.whisker_hi == 1.0
    assert stats.maximum == 10.0


def test_summarize_matches_manual_oracle():
    rng = random.Random(43)
    for _ in range(200):
        values = [rng.random() for _ in range(rng.randint(1, 30))]
        stats = summarize(values)
        assert abs(stats.q1 - manual_percentile(values, 0.25)) <= 1e-12
        assert abs(stats.median - manual_percentile(values, 0.50)) <= 1e-12
        assert abs(stats.q3 - manual_percentile(values, 0.75)) <= 1e-12
        assert abs(stats.mean - sum(values) / len(values)) <= 1e-12
        lo_fence = stats.q1 - 1.5 * (stats.q3 - stats.q1)
        hi_fence = stats.q3 + 1.5 * (stats.q3 - stats.q1)
        inside = [v for v in values if lo_fence <= v <= hi_fence]
        assert stats.whisker_lo == min(inside)
        assert stats.whisker_hi == max(inside)
        assert list(stats.outliers) == sorted(
            v for v in values if v < lo_fence or v > hi_fence
        )
        assert stats.n == len(values)


def test_summarize_empty_raises():
    with pytest.raises(EmptyInput):
        summarize([])


# -- assemble_run ------------------------------------------------------------------

def make_info() -> RunInfo:
    return RunInfo(
        seed=0,
        threshold=DEFAULT_THRESHOLD,
        sample_size=2,
        backend={"kind": "mock", "seed": 0},
        vector_digest="abc",
        rng_algorithm="xoshiro256**",
    )


def test_assemble_run_summary_pools_across_cells():
    results = [
        cell_with_maxes(0, "A", [0.9, 0.2]),
        cell_with_maxes(0, "B", [0.1, 0.1]),
        cell_with_maxes(1, "A", [0.8, 0.75]),
        cell_with_maxes(1, "B", [0.1, 0.1]),
    ]
    summary = assemble_run(make_info(), results, expected=2).summaries["A"]
    assert summary.prompt_id == "A"
    assert summary.n_questions == 4
    assert summary.match_count == 3
    oracle = summarize([0.9, 0.2, 0.8, 0.75])
    assert summary.median == oracle.median
    assert summary.mean == oracle.mean
    assert summary.outliers == oracle.outliers


def grid_results() -> list[PromptContextResult]:
    return [
        cell_with_maxes(0, "A", [0.9]),
        cell_with_maxes(0, "B", [0.3]),
        cell_with_maxes(1, "A", [0.6]),
        cell_with_maxes(1, "B", [0.4]),
    ]


def test_assemble_run_max_series_projection():
    series = assemble_run(make_info(), grid_results(), expected=1).max_series
    assert list(series) == ["A", "B"]
    assert series["A"] == [(0, 0.9), (1, 0.6)]
    assert series["B"] == [(0, 0.3), (1, 0.4)]


def test_assemble_run_missing_cell():
    results = [c for c in grid_results() if (c.context_id, c.prompt_id) != (0, "B")]
    with pytest.raises(MissingCell) as err:
        assemble_run(make_info(), results, expected=1)
    assert (err.value.context_id, err.value.prompt_id) == (0, "B")
    assert "0" in str(err.value) and "B" in str(err.value)


def test_assemble_run_cell_without_records():
    results = grid_results()
    results[3] = PromptContextResult(context_id=1, prompt_id="B", records=())
    with pytest.raises(EmptyRecords):
        assemble_run(make_info(), results, expected=1)


@pytest.mark.parametrize(
    "keys",
    [[(0, "B"), (0, "A")], [(0, "A"), (0, "A")], [(0, "A"), (0, "B"), (0, "A")]],
    ids=["swapped", "repeated", "repeated-apart"],
)
def test_assemble_run_rejects_cells_out_of_order(keys):
    # in each, a (0, "A") is the first cell not above the one before it
    results = [cell_with_maxes(cid, pid, [0.5]) for cid, pid in keys]
    with pytest.raises(ValueError, match=r"^cell \(0, 'A'\) is out of order$"):
        assemble_run(make_info(), results, expected=1)


def test_assemble_run_keeps_order_and_counts():
    results = [
        cell_with_maxes(0, "A", [0.9]),
        cell_with_maxes(0, "B", [0.2]),
        cell_with_maxes(1, "A", [0.8]),
        cell_with_maxes(1, "B", [0.4]),
    ]
    zero_cell = results[1]
    results[1] = PromptContextResult(
        context_id=zero_cell.context_id,
        prompt_id=zero_cell.prompt_id,
        records=(record_with_max(0.0, 0, "B", zero=True),),
    )
    run = assemble_run(make_info(), results, expected=1)
    assert [(c.context_id, c.prompt_id) for c in run.results] == [
        (0, "A"),
        (0, "B"),
        (1, "A"),
        (1, "B"),
    ]
    assert run.results is results
    assert list(run.summaries) == ["A", "B"]
    assert run.zero_vector_count == 1
    assert run.info.rng_algorithm == "xoshiro256**"
    assert run.max_series["A"] == [(0, 0.9), (1, 0.8)]
    assert sum(len(c.records) for c in run.results) == 4


def test_assemble_run_summary_match_counts():
    results = [
        cell_with_maxes(0, "A", [0.833, 0.534, 0.749, 0.857, 0.935]),
        cell_with_maxes(0, "B", [0.1, 0.2, 0.3, 0.4, 0.5]),
    ]
    run = assemble_run(make_info(), results, expected=5)
    assert run.summaries["A"].match_count == 4
    assert run.summaries["B"].match_count == 0
    assert run.summaries["A"].n_questions == 5
