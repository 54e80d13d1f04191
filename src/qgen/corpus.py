"""SQuAD v1.1 corpus handling.

Parses the official JSON layout (``data[].paragraphs[].{context,qas[]}``)
into validated records, reverses question/answer roles for generation
inputs, draws reproducible context samples, and splits long contexts into
overlapping token chunks.

Offsets count Unicode scalar values, which is what Python string indexing
does and what the official v1.1 files are consistent under. v2-style
unanswerable entries (empty ``answers``) are rejected at parse time.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import IO, Iterable

from .errors import (
    InvalidChunkParams,
    MalformedJson,
    SampleTooLarge,
    SchemaError,
    SpanError,
)
from .rng import Xoshiro256

_TOKEN_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class Answer:
    text: str
    answer_start: int


@dataclass(frozen=True)
class BaselineQuestion:
    id: str
    question: str
    answers: tuple[Answer, ...]


@dataclass(frozen=True)
class ContextRecord:
    context_id: int
    title: str
    text: str
    baselines: tuple[BaselineQuestion, ...]


@dataclass(frozen=True)
class SquadDataset:
    records: tuple[ContextRecord, ...]
    example_count: int

    def questions(self) -> list[str]:
        return [b.question for r in self.records for b in r.baselines]


@dataclass(frozen=True)
class ReversedExample:
    context: str
    input_answer: str
    target_question: str


@dataclass(frozen=True)
class Chunk:
    start: int
    end: int
    text: str


def _require(obj, key: str, kind, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    value = obj[key]
    if not isinstance(value, kind):
        raise SchemaError(
            f"{path}.{key}",
            f"expected {kind.__name__}, got {type(value).__name__}",
        )
    return value


def parse_squad(source: str | bytes | IO) -> SquadDataset:
    """Parse SQuAD v1.1 JSON from a string, bytes, or readable stream.

    One :class:`ContextRecord` per paragraph, in file order, with
    ``context_id`` assigned 0, 1, 2, ... Raises :class:`MalformedJson` on a
    syntax error, :class:`SchemaError` (with JSON path) on a missing or
    mistyped field, and :class:`SpanError` (with the qas id) when an
    answer's offsets do not slice the context to its text.
    """
    raw = source.read() if hasattr(source, "read") else source
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from exc

    data = _require(doc, "data", list, "$")
    records: list[ContextRecord] = []
    example_count = 0
    context_id = 0
    for ai, article in enumerate(data):
        apath = f"$.data[{ai}]"
        title = _require(article, "title", str, apath)
        paragraphs = _require(article, "paragraphs", list, apath)
        for pi, para in enumerate(paragraphs):
            ppath = f"{apath}.paragraphs[{pi}]"
            context = _require(para, "context", str, ppath)
            if not context:
                raise SchemaError(f"{ppath}.context", "context text is empty")
            qas = _require(para, "qas", list, ppath)
            baselines: list[BaselineQuestion] = []
            for qi, qa in enumerate(qas):
                qpath = f"{ppath}.qas[{qi}]"
                qid = _require(qa, "id", str, qpath)
                question = _require(qa, "question", str, qpath)
                if not question.strip():
                    raise SchemaError(f"{qpath}.question", "question is blank")
                answers_raw = _require(qa, "answers", list, qpath)
                if not answers_raw:
                    raise SchemaError(
                        f"{qpath}.answers",
                        "empty answers list (v2-style unanswerable entries "
                        "are not supported)",
                    )
                answers: list[Answer] = []
                for xi, ans in enumerate(answers_raw):
                    xpath = f"{qpath}.answers[{xi}]"
                    text = _require(ans, "text", str, xpath)
                    start = _require(ans, "answer_start", int, xpath)
                    if not text:
                        raise SchemaError(f"{xpath}.text", "answer text is empty")
                    if start < 0 or start + len(text) > len(context):
                        raise SpanError(
                            qid,
                            f"offsets [{start}, {start + len(text)}) fall "
                            f"outside the {len(context)}-char context",
                        )
                    if context[start : start + len(text)] != text:
                        raise SpanError(
                            qid,
                            f"context slice at {start} is "
                            f"{context[start:start + len(text)]!r}, "
                            f"expected {text!r}",
                        )
                    answers.append(Answer(text=text, answer_start=start))
                baselines.append(
                    BaselineQuestion(id=qid, question=question, answers=tuple(answers))
                )
                example_count += 1
            records.append(
                ContextRecord(
                    context_id=context_id,
                    title=title,
                    text=context,
                    baselines=tuple(baselines),
                )
            )
            context_id += 1
    return SquadDataset(records=tuple(records), example_count=example_count)


def load_squad(path) -> SquadDataset:
    with open(path, "rb") as fh:
        return parse_squad(fh)


def to_squad_json(ds: SquadDataset) -> dict:
    """Rebuild the SQuAD JSON document for a dataset.

    Consecutive records sharing a title are grouped under one article, so
    parse -> serialize -> parse reproduces the same records, ids, offsets,
    and order.
    """
    articles: list[dict] = []
    for rec in ds.records:
        paragraph = {
            "context": rec.text,
            "qas": [
                {
                    "id": b.id,
                    "question": b.question,
                    "answers": [
                        {"text": a.text, "answer_start": a.answer_start}
                        for a in b.answers
                    ],
                }
                for b in rec.baselines
            ],
        }
        if articles and articles[-1]["title"] == rec.title:
            articles[-1]["paragraphs"].append(paragraph)
        else:
            articles.append({"title": rec.title, "paragraphs": [paragraph]})
    return {"version": "1.1", "data": articles}


def reverse_dataset(ds: SquadDataset) -> list[ReversedExample]:
    """Swap question/answer roles: one example per (question, first answer).

    The first answer keeps the mapping deterministic; train entries have a
    single answer each, dev entries may carry several.
    """
    out: list[ReversedExample] = []
    for rec in ds.records:
        for b in rec.baselines:
            out.append(
                ReversedExample(
                    context=rec.text,
                    input_answer=b.answers[0].text,
                    target_question=b.question,
                )
            )
    return out


def sample_contexts(ds: SquadDataset, n: int, seed: int) -> list[ContextRecord]:
    """Draw n distinct records uniformly without replacement, sorted by id.

    The draw is a partial Fisher-Yates shuffle on a seeded xoshiro256**
    stream (see :mod:`qgen.rng`), so a fixed seed reproduces the same
    sample on any platform.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    if n > len(ds.records):
        raise SampleTooLarge(
            f"requested {n} contexts but the dataset has {len(ds.records)}"
        )
    rng = Xoshiro256(seed)
    picked = rng.sample_indices(len(ds.records), n)
    return [ds.records[i] for i in sorted(picked)]


def chunk_context(text: str, max_len: int, doc_stride: int) -> list[Chunk]:
    """Split a context into overlapping whitespace-token windows.

    Tokens are maximal runs of non-whitespace with their character offsets.
    Windows hold at most ``max_len`` tokens and slide by
    ``max_len - doc_stride``, so every consecutive pair shares exactly
    ``doc_stride`` tokens; the final window is cut at the last token and
    may be shorter. Chunk boundaries snap to token boundaries and the
    chunk text is the exact context slice between them.
    """
    if doc_stride < 0 or max_len <= doc_stride:
        raise InvalidChunkParams(
            f"need max_len > doc_stride >= 0, got max_len={max_len}, "
            f"doc_stride={doc_stride}"
        )
    spans = [(m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]
    if not spans:
        return []
    n = len(spans)
    step = max_len - doc_stride
    windows = [(0, min(max_len, n))]
    while windows[-1][1] < n:
        p = windows[-1][0] + step
        windows.append((p, min(p + max_len, n)))
    chunks = []
    for lo, hi in windows:
        start = spans[lo][0]
        end = spans[hi - 1][1]
        chunks.append(Chunk(start=start, end=end, text=text[start:end]))
    return chunks


def reversed_to_jsonl(examples: Iterable[ReversedExample]) -> str:
    return "".join(json.dumps(vars(ex), ensure_ascii=False) + "\n" for ex in examples)


def chunks_to_jsonl(chunks: Iterable[Chunk]) -> str:
    return "".join(json.dumps(vars(c), ensure_ascii=False) + "\n" for c in chunks)
