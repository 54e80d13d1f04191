"""SQuAD v1.1 corpus handling.

Parses the official JSON layout (``data[].paragraphs[].{context,qas[]}``)
into validated records, reverses question/answer roles for generation
inputs, draws reproducible context samples, and splits long contexts into
overlapping token chunks.

Every check runs at parse time; a record is then built from its validated
paragraph only when it is read, so a run that samples 50 of 2,067 contexts
builds 50 records, and no error waits until a read.

Offsets count Unicode scalar values, which is what Python string indexing
does and what the official v1.1 files are consistent under. v2-style
unanswerable entries (empty ``answers``) are rejected at parse time.
"""

from __future__ import annotations

import gc
import json
import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import IO

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


class ContextRecords(Sequence):
    """The records of a parsed dataset: a read-only sequence that builds
    ``ContextRecord(context_id=i, ...)`` from the i-th validated paragraph
    each time index i is read.

    A read builds a new object, so ``records[i] is records[i]`` may be
    false, but the two are equal. A slice gives a tuple. Two sequences are
    equal, and hash alike, when their records are. A record holds only
    strings and ints of the JSON tree, never the tree or the sequence.
    """

    __slots__ = ("_paragraphs",)

    def __init__(self, paragraphs: list[tuple[str, dict]]):
        # (article title, paragraph object) in file order, all validated
        self._paragraphs = paragraphs

    def __len__(self) -> int:
        return len(self._paragraphs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._build, range(len(self._paragraphs))[index]))
        # range indexing normalises a negative index and raises IndexError
        return self._build(range(len(self._paragraphs))[index])

    def __iter__(self):
        return map(self._build, range(len(self._paragraphs)))

    def __eq__(self, other):
        if not isinstance(other, ContextRecords):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def _build(self, context_id: int) -> ContextRecord:
        title, para = self._paragraphs[context_id]
        return ContextRecord(
            context_id=context_id,
            title=title,
            text=para["context"],
            baselines=tuple(
                BaselineQuestion(
                    id=qa["id"],
                    question=qa["question"],
                    answers=tuple(
                        Answer(text=ans["text"], answer_start=ans["answer_start"])
                        for ans in qa["answers"]
                    ),
                )
                for qa in para["qas"]
            ),
        )


@dataclass(frozen=True)
class SquadDataset:
    """A parsed dataset. ``records`` is a :class:`ContextRecords`, built on
    access; ``len(records)``, ``example_count``, ``questions()`` and
    :func:`reverse_dataset` read the validated paragraphs and build no
    record. Two datasets are equal when their records are."""

    records: ContextRecords

    @property
    def example_count(self) -> int:
        return sum(len(para["qas"]) for _, para in self.records._paragraphs)

    def questions(self) -> list[str]:
        return [qa["question"] for _, para in self.records._paragraphs for qa in para["qas"]]


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
    # a JSON true or false is a Python bool, which is an int too
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
        raise SchemaError(
            f"{path}.{key}",
            f"expected {kind.__name__}, got {type(value).__name__}",
        )
    return value


def loads_json(text: str):
    """json.loads, with a document nested too deep to decode raised as the
    JSONDecodeError of any other malformed one."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise json.JSONDecodeError("nesting too deep", text, 0) from exc


class collector_paused:
    """Pause the process-wide cyclic garbage collector for the with block
    and restore the state it found, however the block ends. For work that
    builds or scans many objects and no reference cycle; the pause holds
    for every thread of the process, so work another thread does in the
    meantime runs without the collector too: what a caller says of when
    the collector is on holds for one such caller per process at a time.
    A class, not a generator: a
    generator's exit allocates once the collector is back on, which would
    start the collection made due inside the block."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self.enabled:
            gc.enable()


def parse_squad(source: str | bytes | IO) -> SquadDataset:
    """Parse SQuAD v1.1 JSON from a string, bytes, or readable stream.

    One :class:`ContextRecord` per paragraph, in file order, with
    ``context_id`` assigned 0, 1, 2, ... Raises :class:`MalformedJson` on a
    syntax error, nesting too deep or non-UTF-8 bytes, :class:`SchemaError`
    (with JSON path) on a missing or mistyped field, and :class:`SpanError`
    (with the qas id) when an answer's offsets do not slice the context to
    its text.

    Every paragraph is validated here, so every error is raised here. The
    dataset keeps each validated paragraph of the decoded JSON and its
    article's title; ``records`` is a read-only :class:`ContextRecords`
    that builds a record only when it is read, not a tuple. The tree is
    freed with the dataset.

    The process-wide cyclic garbage collector is paused while it runs, by
    :func:`collector_paused`, and restored as it was on return or raise.
    The JSON tree holds no reference cycles, so refcounting frees it as
    before; but a collection triggered by the growing tree would rescan
    it and find nothing, which cost over a third of the parse of a
    10,000-context file. ``run_pipeline`` keeps the collector paused on
    past the return, until the dataset is dropped, so the tree is not
    scanned after the parse either.
    """
    # the collection the parse has made due starts at the caller's next
    # allocation once the collector is on again, not inside the parse
    with collector_paused():
        return _parse_squad(source)


def _parse_squad(source: str | bytes | IO) -> SquadDataset:
    try:
        raw = source.read() if hasattr(source, "read") else source
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        doc = loads_json(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from exc

    data = _require(doc, "data", list, "$")
    validated: list[tuple[str, dict]] = []
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
            validated.append((title, para))
    return SquadDataset(records=ContextRecords(validated))


def load_squad(path) -> SquadDataset:
    """:func:`parse_squad` of the file at path: every check runs here, and
    ``records`` is a read-only sequence built on access, not a tuple."""
    with open(path, "rb") as fh:
        return parse_squad(fh)


def reverse_dataset(ds: SquadDataset) -> list[ReversedExample]:
    """Swap question/answer roles: one example per (question, first answer).

    The first answer keeps the mapping deterministic; train entries have a
    single answer each, dev entries may carry several.
    """
    return [
        ReversedExample(
            context=para["context"],
            input_answer=qa["answers"][0]["text"],
            target_question=qa["question"],
        )
        for _, para in ds.records._paragraphs
        for qa in para["qas"]
    ]


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
