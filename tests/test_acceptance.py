"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints nothing of its own; conftest's terminal summary emits one
line per criterion. Criterion 1 needs the official SQuAD v1.1 files and
skips when they are not on disk. Criterion 5's containment clause is
expected to fail: the bound it states does not hold for stride-overlap
chunking (see the assertion message for a counterexample); coverage and
overlap are verified before that clause so the failure is isolated.
"""

from __future__ import annotations

import json
import os
import random
import time
from importlib import resources
from pathlib import Path

import pytest

from qgen.corpus import chunk_context, load_squad
from qgen.pipeline import RunConfig, run_pipeline
from qgen.scoring import (
    PromptContextResult,
    ScoreRecord,
    count_matches,
    prompt_max,
    score_cell,
    summarize,
)
from qgen.similarity import (
    SentenceVector,
    cosine_similarity,
    load_vectors,
    sentence_vector,
)
from qgen.textstats import question_length_histogram

from conftest import sha_vector


# -- criterion 1: SQuAD fidelity -------------------------------------------------

SQUAD_FILES = ("train-v1.1.json", "dev-v1.1.json")
EXPECTED_COUNTS = {"train-v1.1.json": 87599, "dev-v1.1.json": 10570}


def _squad_dir() -> Path | None:
    candidates = []
    if os.environ.get("QGEN_SQUAD_DIR"):
        candidates.append(Path(os.environ["QGEN_SQUAD_DIR"]))
    candidates += [
        Path("/root/data/squad"),
        Path("/root/data"),
        Path.home() / "data" / "squad",
        Path(__file__).resolve().parent.parent / "data" / "squad",
    ]
    for cand in candidates:
        if all((cand / name).is_file() for name in SQUAD_FILES):
            return cand
    return None


def test_criterion_1():
    squad_dir = _squad_dir()
    if squad_dir is None:
        pytest.skip(
            "official SQuAD v1.1 files not found; set QGEN_SQUAD_DIR to a "
            "directory holding train-v1.1.json and dev-v1.1.json to enable"
        )
    started = time.monotonic()
    for name in SQUAD_FILES:
        ds = load_squad(squad_dir / name)
        assert ds.example_count == EXPECTED_COUNTS[name], name
    assert time.monotonic() - started < 30.0


# -- criterion 2: Table 2 aggregation oracle ---------------------------------------

TABLE2_QUESTION_MAXES = {
    "A": [0.833, 0.534, 0.749, 0.857, 0.935],
    "B": [0.833, 0.472, 0.722, 0.433, 0.639],
    "C": [0.865, 0.534, 0.749, 0.857, 0.719],
    "D": [0.879, 0.535, 0.749, 0.956, 0.934],
}

TABLE2_PROMPT_MAXES = {"A": 0.935, "B": 0.833, "C": 0.865, "D": 0.956}


def records_for(prompt_id: str) -> list[ScoreRecord]:
    return [
        ScoreRecord(
            context_id=0,
            prompt_id=prompt_id,
            index=i,
            question=f"q{i}",
            per_baseline=(("b0", value),),
            question_max=value,
            zero_vector_flag=False,
        )
        for i, value in enumerate(TABLE2_QUESTION_MAXES[prompt_id])
    ]


def test_criterion_2():
    for pid, expected in TABLE2_PROMPT_MAXES.items():
        assert prompt_max(records_for(pid)) == expected, pid
    assert count_matches(records_for("A"), 0.7) == 4


# -- criterion 3: similarity property suite ------------------------------------------

def _random_table(rng: random.Random, vocab_size: int, dim: int):
    lines = []
    for i in range(vocab_size):
        comps = " ".join(repr(rng.uniform(-1.0, 1.0)) for _ in range(dim))
        lines.append(f"w{i} {comps}")
    return load_vectors("\n".join(lines))


def test_criterion_3():
    started = time.monotonic()
    rng = random.Random(101)
    table = _random_table(rng, vocab_size=200, dim=16)
    vocab = [f"w{i}" for i in range(200)]

    def random_tokens() -> list[str]:
        n = rng.randint(1, 8)
        toks = [rng.choice(vocab) for _ in range(n)]
        if rng.random() < 0.05:
            toks[rng.randrange(n)] = "oov-token"
        return toks

    pairs = 10000
    for _ in range(pairs):
        ta, tb = random_tokens(), random_tokens()
        sa = sentence_vector(ta, table)
        sb = sentence_vector(tb, table)
        ab = cosine_similarity(sa, sb)
        # symmetry, exact
        assert ab == cosine_similarity(sb, sa)
        # bounds within clamp
        assert -1.0 <= ab <= 1.0
        # self-similarity
        if not sa.is_zero:
            assert abs(cosine_similarity(sa, sa) - 1.0) <= 1e-9
        # scale invariance
        scaled = SentenceVector(
            values=sa.values * 3.7, covered=sa.covered, total=sa.total
        )
        assert abs(cosine_similarity(scaled, sb) - ab) <= 1e-9
        # permutation invariance
        shuffled = list(ta)
        rng.shuffle(shuffled)
        assert abs(cosine_similarity(sentence_vector(shuffled, table), sb) - ab) <= 1e-12
    assert time.monotonic() - started < 10.0


# -- criterion 4: brute-force equivalence ---------------------------------------------

def manual_percentile(ordered: list[float], p: float) -> float:
    pos = (len(ordered) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def test_criterion_4():
    started = time.monotonic()
    rng = random.Random(404)
    table = _random_table(rng, vocab_size=60, dim=8)
    vocab = [f"w{i}" for i in range(60)]

    class FakeBaseline:
        __slots__ = ("id", "question")

        def __init__(self, bid: str, question: str) -> None:
            self.id = bid
            self.question = question

    # question_max against a naive per-baseline loop, exact
    for _ in range(1000):
        qtext = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
        baselines = [
            FakeBaseline(f"b{i}", " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6))))
            for i in range(rng.randint(1, 5))
        ]
        rec = score_cell(0, "A", [qtext], baselines, table).records[0]
        qvec = sentence_vector(qtext, table)
        naive = [
            cosine_similarity(qvec, sentence_vector(b.question, table))
            for b in baselines
        ]
        assert [v for _, v in rec.per_baseline] == naive
        assert rec.question_max == max(naive)

    def fake_records(values: list[float]) -> list[ScoreRecord]:
        return [
            ScoreRecord(
                context_id=0,
                prompt_id="A",
                index=i,
                question="q",
                per_baseline=(("b", v),),
                question_max=v,
                zero_vector_flag=False,
            )
            for i, v in enumerate(values)
        ]

    # prompt_max and match counts against max() and a naive sum, exact
    for _ in range(1000):
        values = [rng.random() for _ in range(rng.randint(1, 12))]
        records = fake_records(values)
        assert prompt_max(records) == max(values)
        threshold = rng.random()
        assert count_matches(records, threshold) == sum(
            1 for v in values if v > threshold
        )

    # distribution summary against a sort-based oracle, <= 1e-12
    for _ in range(1000):
        values = [rng.random() for _ in range(rng.randint(1, 25))]
        stats = summarize(values)
        ordered = sorted(values)
        assert abs(stats.q1 - manual_percentile(ordered, 0.25)) <= 1e-12
        assert abs(stats.median - manual_percentile(ordered, 0.50)) <= 1e-12
        assert abs(stats.q3 - manual_percentile(ordered, 0.75)) <= 1e-12
        assert abs(stats.mean - sum(values) / len(values)) <= 1e-12
        lo_fence = stats.q1 - 1.5 * (stats.q3 - stats.q1)
        hi_fence = stats.q3 + 1.5 * (stats.q3 - stats.q1)
        inside = [v for v in values if lo_fence <= v <= hi_fence]
        assert abs(stats.whisker_lo - min(inside)) <= 1e-12
        assert abs(stats.whisker_hi - max(inside)) <= 1e-12
        assert list(stats.outliers) == sorted(
            v for v in values if v < lo_fence or v > hi_fence
        )
    assert time.monotonic() - started < 10.0


# -- criterion 5: chunking property -----------------------------------------------------

def chunk_token_spans(text: str, chunks) -> list[tuple[int, int]]:
    tokens = text.split()
    index_at = {}
    col = 0
    for i, tok in enumerate(tokens):
        col = text.index(tok, col)
        index_at[col] = i
        col += len(tok)
    spans = []
    for chunk in chunks:
        first = index_at[chunk.start]
        spans.append((first, first + len(chunk.text.split())))
    return spans


def test_criterion_5():
    started = time.monotonic()
    rng = random.Random(505)
    cases = []
    for _ in range(500):
        n_tokens = rng.randint(1, 50)
        text = " ".join(
            "".join(rng.choice("abcdefg") for _ in range(rng.randint(1, 6)))
            for _ in range(n_tokens)
        )
        max_len = rng.randint(2, 12)
        doc_stride = rng.randint(1, max_len - 1)
        cases.append((text, n_tokens, max_len, doc_stride))

    violations = []
    for text, n_tokens, max_len, doc_stride in cases:
        chunks = chunk_context(text, max_len, doc_stride)
        spans = chunk_token_spans(text, chunks)
        # full token coverage
        covered = set()
        for lo, hi in spans:
            covered.update(range(lo, hi))
        assert covered == set(range(n_tokens))
        # exact doc_stride overlap between consecutive chunks
        for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
            assert hi1 - lo2 == doc_stride
        # containment of every span of length <= max_len - doc_stride,
        # by exhaustive enumeration
        limit = max_len - doc_stride
        for length in range(1, limit + 1):
            for lo in range(0, n_tokens - length + 1):
                hi = lo + length
                if not any(wlo <= lo and hi <= whi for wlo, whi in spans):
                    violations.append(
                        (n_tokens, max_len, doc_stride, (lo, hi))
                    )
    assert time.monotonic() - started < 10.0
    assert not violations, (
        "containment does not hold for stride-overlap chunking: with step "
        "max_len - doc_stride, consecutive windows share doc_stride "
        "positions, so the longest span guaranteed to lie inside one window "
        "has doc_stride + 1 tokens, not max_len - doc_stride. First "
        "counterexamples as (n_tokens, max_len, doc_stride, span): "
        f"{violations[:3]} ({len(violations)} spans across "
        f"{len({v[:3] for v in violations})} cases)"
    )


# -- criterion 6: deterministic end-to-end ------------------------------------------------

def test_criterion_6(synth_corpus, tmp_path):
    started = time.monotonic()
    dataset, vectors = synth_corpus
    runs = []
    for name in ("first", "second"):
        cfg = RunConfig(
            dataset=str(dataset),
            vectors=str(vectors),
            out=str(tmp_path / name),
            seed=7,
            sample_size=50,
        )
        runs.append(run_pipeline(cfg))
    for pid in "ABCD":
        assert runs[0].summaries[pid].n_questions == 250, pid
    compare = [
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
    for name in compare:
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, name
    # manifests agree on everything except timestamps and wall-clock latency
    m_first = json.loads((tmp_path / "first" / "manifest.json").read_text())
    m_second = json.loads((tmp_path / "second" / "manifest.json").read_text())
    for volatile in ("started_at", "finished_at", "backend_latency_s"):
        m_first.pop(volatile), m_second.pop(volatile)
    m_first["config"].pop("out"), m_second["config"].pop("out")
    assert m_first == m_second
    assert m_first["questions"] == 1000
    assert time.monotonic() - started < 60.0


# -- criterion 7: reference values are documentation, not targets ----------------------------

def test_criterion_7():
    template = (
        resources.files("qgen")
        .joinpath("data/report_template.md")
        .read_text(encoding="utf-8")
    )
    assert "## Reference values" in template
    for value in ("0.6444", "0.6387", "0.6321", "0.6227"):
        assert value in template, value
    assert "A 79, B 64, C 76, D 81" in template
    assert "A 0.73, B 0.42, C 0.70, D 0.77" in template
    assert "250" in template
    # they are rendered verbatim, never substituted from run output
    for value in ("0.6444", "79", "0.42"):
        assert f"${value}" not in template


# -- criterion 8: histogram conservation -------------------------------------------------------

def test_criterion_8():
    started = time.monotonic()
    rng = random.Random(808)
    for _ in range(1000):
        n = rng.randint(1, 60)
        lengths = [rng.randint(1, 25) for _ in range(n)]
        if rng.random() < 0.4:
            lengths.append(rng.randint(80, 300))
        questions = [" ".join(["w"] * length) for length in lengths]
        hist = question_length_histogram(questions, bin_width=rng.choice([1, 1, 2, 3]))
        assert sum(hist.counts) + hist.excluded_outliers == len(questions)
    assert time.monotonic() - started < 5.0
