"""Corpus layer: parsing, validation, reversal, sampling, chunking."""

from __future__ import annotations

import json
import random

import pytest

from qgen.corpus import (
    chunk_context,
    chunks_to_jsonl,
    load_squad,
    parse_squad,
    reverse_dataset,
    reversed_to_jsonl,
    sample_contexts,
    to_squad_json,
)
from qgen.errors import (
    InvalidChunkParams,
    MalformedJson,
    SampleTooLarge,
    SchemaError,
    SpanError,
)

from conftest import build_synth_articles, make_squad_doc


def doc_bytes(doc: dict) -> bytes:
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


# -- parsing -----------------------------------------------------------------

def test_parse_empty_corpus():
    ds = parse_squad('{"data": []}')
    assert len(ds.records) == 0
    assert ds.example_count == 0


def test_parse_hand_fixture():
    context = "Paris is the capital of France. It hosts the Louvre."
    doc = make_squad_doc(
        [("France", [(context, [
            ("What is the capital of France?", "Paris"),
            ("Which museum does Paris host?", "Louvre"),
        ])])]
    )
    ds = parse_squad(doc_bytes(doc))
    assert len(ds.records) == 1
    assert ds.example_count == 2
    rec = ds.records[0]
    assert rec.context_id == 0
    assert rec.title == "France"
    assert rec.text == context
    assert [b.question for b in rec.baselines] == [
        "What is the capital of France?",
        "Which museum does Paris host?",
    ]
    for b in rec.baselines:
        for a in b.answers:
            assert context[a.answer_start : a.answer_start + len(a.text)] == a.text


def test_parse_assigns_flat_context_ids(mini_squad_path):
    ds = load_squad(mini_squad_path)
    assert [r.context_id for r in ds.records] == list(range(len(ds.records)))
    assert ds.example_count == sum(len(r.baselines) for r in ds.records)


def test_parse_accepts_stream_and_text(mini_squad_path):
    raw = mini_squad_path.read_bytes()
    with open(mini_squad_path, "rb") as fh:
        from_stream = parse_squad(fh)
    assert parse_squad(raw) == from_stream == parse_squad(raw.decode("utf-8"))


def test_parse_unicode_offsets_count_scalar_values():
    context = "Beyoncé was born in 1981 in Texas."
    start = context.index("1981")
    doc = {
        "data": [{"title": "B", "paragraphs": [{"context": context, "qas": [{
            "id": "q1",
            "question": "When was Beyoncé born?",
            "answers": [{"text": "1981", "answer_start": start}],
        }]}]}]
    }
    ds = parse_squad(doc_bytes(doc))
    answer = ds.records[0].baselines[0].answers[0]
    assert answer.answer_start == start == 20


def test_parse_malformed_json():
    with pytest.raises(MalformedJson):
        parse_squad("{not json")


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda d: d.pop("data"), "$.data"),
        (lambda d: d["data"][0].pop("title"), "data[0].title"),
        (lambda d: d["data"][0].pop("paragraphs"), "data[0].paragraphs"),
        (lambda d: d["data"][0]["paragraphs"][0].pop("context"), "paragraphs[0].context"),
        (lambda d: d["data"][0]["paragraphs"][0].pop("qas"), "paragraphs[0].qas"),
        (lambda d: d["data"][0]["paragraphs"][0]["qas"][0].pop("question"), "qas[0].question"),
        (lambda d: d["data"][0]["paragraphs"][0]["qas"][0].pop("id"), "qas[0].id"),
        (lambda d: d["data"][0]["paragraphs"][0]["qas"][0].pop("answers"), "qas[0].answers"),
    ],
)
def test_parse_schema_errors_carry_json_path(mutate, path_fragment):
    doc = make_squad_doc([("T", [("Alpha beta gamma.", [("What comes first?", "Alpha")])])])
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        parse_squad(doc_bytes(doc))
    assert path_fragment in str(err.value)


def test_parse_rejects_wrong_types():
    doc = make_squad_doc([("T", [("Alpha beta.", [("What?", "Alpha")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["question"] = 7
    with pytest.raises(SchemaError) as err:
        parse_squad(doc_bytes(doc))
    assert "expected str" in str(err.value)


def test_parse_rejects_empty_answers_list():
    doc = make_squad_doc([("T", [("Alpha beta.", [("What?", "Alpha")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"] = []
    with pytest.raises(SchemaError) as err:
        parse_squad(doc_bytes(doc))
    assert "unanswerable" in str(err.value)


def test_parse_rejects_blank_question_and_empty_context():
    doc = make_squad_doc([("T", [("Alpha beta.", [("What?", "Alpha")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["question"] = "   "
    with pytest.raises(SchemaError):
        parse_squad(doc_bytes(doc))
    doc2 = make_squad_doc([("T", [("Alpha beta.", [("What?", "Alpha")])])])
    doc2["data"][0]["paragraphs"][0]["context"] = ""
    with pytest.raises(SchemaError):
        parse_squad(doc_bytes(doc2))


def test_parse_span_error_names_qas_id():
    doc = make_squad_doc([("T", [("Alpha beta gamma.", [("What?", "beta")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = 0
    with pytest.raises(SpanError) as err:
        parse_squad(doc_bytes(doc))
    assert "fx-00000" in str(err.value)
    assert err.value.qas_id == "fx-00000"


def test_parse_span_error_out_of_bounds():
    doc = make_squad_doc([("T", [("Alpha beta.", [("What?", "beta")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = 100
    with pytest.raises(SpanError):
        parse_squad(doc_bytes(doc))


# -- serialization round trip --------------------------------------------------

def test_parse_serialize_parse_identity(mini_squad_path):
    ds = load_squad(mini_squad_path)
    assert parse_squad(doc_bytes(to_squad_json(ds))) == ds


def test_round_trip_groups_consecutive_titles():
    articles = [
        ("One", [("First context here.", [("What is here?", "First")]),
                 ("Second context there.", [("What is there?", "Second")])]),
        ("Two", [("Third context now.", [("What is now?", "Third")])]),
    ]
    ds = parse_squad(doc_bytes(make_squad_doc(articles)))
    doc = to_squad_json(ds)
    assert [a["title"] for a in doc["data"]] == ["One", "Two"]
    assert len(doc["data"][0]["paragraphs"]) == 2
    assert parse_squad(doc_bytes(doc)) == ds


# -- reversal -------------------------------------------------------------------

def test_reverse_swaps_roles():
    doc = make_squad_doc(
        [("X", [("Marie Curie was born in 1867.", [("When was X born?", "1867")])])]
    )
    ds = parse_squad(doc_bytes(doc))
    examples = reverse_dataset(ds)
    assert len(examples) == 1
    assert examples[0].input_answer == "1867"
    assert examples[0].target_question == "When was X born?"
    assert examples[0].context == "Marie Curie was born in 1867."


def test_reverse_count_and_order(mini_squad_path):
    ds = load_squad(mini_squad_path)
    examples = reverse_dataset(ds)
    assert len(examples) == ds.example_count
    expected = [
        (b.question, b.answers[0].text)
        for r in ds.records
        for b in r.baselines
    ]
    assert [(e.target_question, e.input_answer) for e in examples] == expected


def test_reverse_uses_first_answer():
    doc = make_squad_doc([("T", [("Alpha beta gamma.", [("What?", "Alpha")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"].append(
        {"text": "beta", "answer_start": 6}
    )
    ds = parse_squad(doc_bytes(doc))
    assert reverse_dataset(ds)[0].input_answer == "Alpha"


def test_reverse_round_trip_restores_pairing():
    ds = parse_squad(doc_bytes(make_squad_doc(build_synth_articles(10))))
    pairs = {
        (b.question, b.answers[0].text) for r in ds.records for b in r.baselines
    }
    back = {(e.target_question, e.input_answer) for e in reverse_dataset(ds)}
    assert back == pairs


# -- sampling --------------------------------------------------------------------

def test_sample_exhaustive_returns_all(mini_squad_path):
    ds = load_squad(mini_squad_path)
    assert sample_contexts(ds, len(ds.records), seed=1) == list(ds.records)


def test_sample_deterministic_and_sorted(mini_squad_path):
    ds = load_squad(mini_squad_path)
    a = sample_contexts(ds, 3, seed=9)
    b = sample_contexts(ds, 3, seed=9)
    assert a == b
    ids = [r.context_id for r in a]
    assert ids == sorted(ids)
    assert len(set(ids)) == 3


def test_sample_too_large(mini_squad_path):
    ds = load_squad(mini_squad_path)
    with pytest.raises(SampleTooLarge):
        sample_contexts(ds, len(ds.records) + 1, seed=0)
    with pytest.raises(ValueError):
        sample_contexts(ds, 0, seed=0)


def test_sample_single_draw_frequencies():
    doc = make_squad_doc(build_synth_articles(4))
    ds = parse_squad(doc_bytes(doc))
    counts = [0, 0, 0, 0]
    trials = 10000
    for seed in range(trials):
        picked = sample_contexts(ds, 1, seed=seed)
        counts[picked[0].context_id] += 1
    for c in counts:
        assert abs(c / trials - 0.25) < 0.02


# -- chunking ---------------------------------------------------------------------

def token_windows(text: str, chunks) -> list[list[str]]:
    return [c.text.split() for c in chunks]


def test_chunk_single_window():
    text = " ".join(f"t{i}" for i in range(10))
    chunks = chunk_context(text, max_len=20, doc_stride=5)
    assert len(chunks) == 1
    assert chunks[0].text == text
    assert (chunks[0].start, chunks[0].end) == (0, len(text))


def test_chunk_hand_trace_windows():
    tokens = [f"t{i}" for i in range(10)]
    text = " ".join(tokens)
    chunks = chunk_context(text, max_len=6, doc_stride=2)
    assert token_windows(text, chunks) == [tokens[0:6], tokens[4:10]]


def test_chunk_text_is_exact_slice():
    text = "  alpha   beta\tgamma\ndelta epsilon  "
    for chunk in chunk_context(text, max_len=2, doc_stride=1):
        assert text[chunk.start : chunk.end] == chunk.text
        assert not chunk.text[0].isspace() and not chunk.text[-1].isspace()


def test_chunk_invalid_params():
    for max_len, stride in [(5, 5), (3, 7), (0, 0), (4, -1)]:
        with pytest.raises(InvalidChunkParams):
            chunk_context("a b c", max_len, stride)


def test_chunk_empty_text():
    assert chunk_context("", 5, 2) == []
    assert chunk_context("   \n\t ", 5, 2) == []


def random_text(rng: random.Random, n_tokens: int) -> str:
    words = []
    for i in range(n_tokens):
        length = rng.randint(1, 8)
        words.append("".join(rng.choice("abcdefgh") for _ in range(length)))
    return " ".join(words)


def test_chunk_coverage_and_exact_overlap_properties():
    rng = random.Random(2024)
    for _ in range(300):
        n_tokens = rng.randint(1, 60)
        text = random_text(rng, n_tokens)
        tokens = text.split()
        max_len = rng.randint(1, 20)
        doc_stride = rng.randint(0, max_len - 1)
        chunks = chunk_context(text, max_len, doc_stride)
        windows = token_windows(text, chunks)
        assert all(len(w) <= max_len for w in windows)
        # map each window back to its token index range via character offsets
        seen = set()
        spans = []
        offset_of = {}
        col = 0
        for i, tok in enumerate(tokens):
            col = text.index(tok, col)
            offset_of[col] = i
            col += len(tok)
        for chunk, w in zip(chunks, windows):
            first_idx = offset_of[chunk.start]
            spans.append((first_idx, first_idx + len(w)))
            seen.update(range(first_idx, first_idx + len(w)))
        assert seen == set(range(n_tokens))
        # exact positional overlap between consecutive windows
        for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
            assert hi1 - lo2 == doc_stride
        # true containment bound: spans of <= doc_stride + 1 tokens always fit
        for lo in range(n_tokens):
            hi = min(n_tokens, lo + doc_stride + 1)
            assert any(wlo <= lo and hi <= whi for wlo, whi in spans)


# -- jsonl emitters -----------------------------------------------------------------

def test_reversed_jsonl_round_trip(mini_squad_path):
    ds = load_squad(mini_squad_path)
    examples = reverse_dataset(ds)
    lines = reversed_to_jsonl(examples).splitlines()
    assert len(lines) == len(examples)
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["target_question"] == examples[0].target_question
    assert parsed[0]["input_answer"] == examples[0].input_answer
    first = examples[0]
    assert lines[0] == (
        f'{{"context": {json.dumps(first.context, ensure_ascii=False)}, '
        f'"input_answer": {json.dumps(first.input_answer, ensure_ascii=False)}, '
        f'"target_question": {json.dumps(first.target_question, ensure_ascii=False)}}}'
    )


def test_chunks_jsonl_round_trip():
    chunks = chunk_context("a b c d e f g h", 3, 1)
    lines = chunks_to_jsonl(chunks).splitlines()
    assert lines[0] == '{"start": 0, "end": 5, "text": "a b c"}'
    parsed = [json.loads(line) for line in lines]
    assert [(p["start"], p["end"], p["text"]) for p in parsed] == [
        (c.start, c.end, c.text) for c in chunks
    ]
