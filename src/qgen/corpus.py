"""SQuAD v1.1 corpus handling.

Parses the official JSON layout (``data[].paragraphs[].{context,qas[]}``)
into validated records, reverses question/answer roles for generation
inputs, draws reproducible context samples, and splits long contexts into
overlapping token chunks.

The file is read a piece at a time and decoded one article at a time;
each paragraph is checked as it is decoded and kept as plain tuples of its
strings and ints, not as the decoded JSON objects, so the whole text and
the whole JSON tree are never held at once. Every check runs at parse
time; a record is then built from its paragraph's tuples only when it is
read, so a run that samples 50 of 2,067 contexts builds 50 records, and no
error waits until a read.

Offsets count Unicode scalar values, which is what Python string indexing
does and what the official v1.1 files are consistent under. v2-style
unanswerable entries (empty ``answers``) are rejected at parse time. Every
title, context, id, question and answer text must be valid Unicode: a
JSON escape of a lone surrogate (``\\ud800``) decodes to a str that no
artifact could hold, and is a SchemaError at parse time.
"""

from __future__ import annotations

import codecs
import gc
import io
import json
import re
from collections.abc import Iterator, Sequence
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
    strings and ints of the paragraph, never the paragraph or the sequence.
    """

    __slots__ = ("_paragraphs",)

    def __init__(self, paragraphs: list[tuple]):
        # (title, context, ((id, question, ((text, answer_start), ...)),
        # ...)) of each paragraph in file order, all validated
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
        title, context, baselines = self._paragraphs[context_id]
        return ContextRecord(
            context_id=context_id,
            title=title,
            text=context,
            baselines=tuple(
                BaselineQuestion(
                    id=qid,
                    question=question,
                    answers=tuple(
                        Answer(text=text, answer_start=start) for text, start in answers
                    ),
                )
                for qid, question, answers in baselines
            ),
        )


@dataclass(frozen=True)
class SquadDataset:
    """A parsed dataset. ``records`` is a :class:`ContextRecords`, built on
    access; ``len(records)``, ``example_count``, ``questions()`` and
    :func:`reverse_dataset` read the validated paragraph tuples and build
    no record. Two datasets are equal when their records are."""

    records: ContextRecords

    @property
    def example_count(self) -> int:
        return sum(len(baselines) for _, _, baselines in self.records._paragraphs)

    def questions(self) -> list[str]:
        return [
            question
            for _, _, baselines in self.records._paragraphs
            for _, question, _ in baselines
        ]


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
    if kind is str and not (value.isascii() or _encodes(value)):
        # a JSON escape of a lone surrogate, such as \ud800: no artifact
        # could hold the string
        raise SchemaError(f"{path}.{key}", "not valid Unicode (a lone surrogate)")
    return value


def _encodes(value: str) -> bool:
    """Whether value encodes as UTF-8, which a str holding a lone surrogate
    does not; str.isascii() is O(1), so a caller tries it first."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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

    The text is read :data:`READ_CHARS` at a time, and the top-level
    object key by key. Each element of ``data`` is decoded once it is
    whole in the buffer, checked at once, and kept as the tuples of its
    paragraphs, ``(title, context, ((id, question, ((text, answer_start),
    ...)), ...))``; its decoded objects are dropped before the next element
    is read. So the whole text and the whole JSON tree are never held at
    once. A stream that cannot seek is decoded and walked whole.

    Every error is raised as if the whole text had been decoded by
    :func:`loads_json` and then walked. The first element that fails a
    check is not walked past, and its error is held until the rest of the
    text has decoded. Any text the reader does not take as a plain object
    with one ``data`` list (a syntax error anywhere, a BOM, a byte that
    does not decode, nesting too deep, a second ``data`` key, text after
    the object, or a number cut by a read) sends the parse back to the
    start of the source, which is then read, decoded and walked whole:
    that raises the class, message and path of the first error, a syntax
    error before any schema error, and parses a text the reader was only
    stricter about than ``json.loads``. One exception: an article's value
    nested to within a few levels of the interpreter's recursion limit
    may decode here where the whole text would not; where that limit
    falls depends on the caller's stack depth, for ``json.loads`` too.

    Every paragraph is validated here, so every error is raised here;
    ``records`` is a read-only :class:`ContextRecords` that builds a record
    only when it is read, not a tuple.

    The process-wide cyclic garbage collector is paused while it runs, by
    :func:`collector_paused`, and restored as it was on return or raise.
    The decoded objects and the tuples hold no reference cycles, so
    refcounting frees them as before; but a collection triggered by the
    growing data would rescan it and find nothing, which cost over a
    third of the parse of a 10,000-context file. ``run_pipeline`` keeps the
    collector paused on past the return, until the dataset is dropped, so
    the tuples are not scanned after the parse either.
    """
    # the collection the parse has made due starts at the caller's next
    # allocation once the collector is on again, not inside the parse
    with collector_paused():
        return SquadDataset(records=ContextRecords(_parse_squad(source)))


# the characters of text, or bytes of a binary source, read at a time
READ_CHARS = 1 << 20

# JSON's insignificant whitespace, as json.decoder skips it
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


def _parse_squad(source: str | bytes | IO) -> list[tuple]:
    start = None
    if hasattr(source, "read"):
        if not source.seekable():
            return _parse_whole(source)
        start = source.tell()
    paragraphs: list[tuple] = []
    # the first element that fails a check; the rest of the text is still
    # decoded, since a syntax error anywhere is raised before it
    error = None
    try:
        for ai, article in enumerate(_data_elements(_text_pieces(source))):
            if error is None:
                try:
                    _walk_article(ai, article, paragraphs)
                except (SchemaError, SpanError) as exc:
                    error = exc
    except (ValueError, RecursionError):
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        pass
    else:
        if error is not None:
            raise error
        return paragraphs
    del paragraphs, error
    if start is not None:
        source.seek(start)
    return _parse_whole(source)


def _parse_whole(source: str | bytes | IO) -> list[tuple]:
    """The paragraphs of the whole text of source, decoded at once."""
    try:
        raw = source.read() if hasattr(source, "read") else source
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        doc = loads_json(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedJson(f"invalid JSON: {exc}") from exc
    del raw
    data = doc.get("data") if type(doc) is dict else None
    if type(data) is not list:
        _require(doc, "data", list, "$")
    paragraphs: list[tuple] = []
    for ai, article in enumerate(data):
        _walk_article(ai, article, paragraphs)
    return paragraphs


def _text_pieces(source: str | bytes | IO) -> Iterator[str]:
    """The text of source in pieces of at most READ_CHARS characters; a
    piece may be empty. A byte that does not decode as UTF-8 raises
    UnicodeDecodeError."""
    if isinstance(source, str):
        for at in range(0, len(source), READ_CHARS):
            yield source[at : at + READ_CHARS]
        return
    stream = io.BytesIO(source) if isinstance(source, bytes) else source
    decoder = codecs.getincrementaldecoder("utf-8")()
    while piece := stream.read(READ_CHARS):
        yield decoder.decode(piece) if isinstance(piece, bytes) else piece
    # a sequence cut short by the end of the bytes raises here
    yield decoder.decode(b"", final=True)


def _data_elements(pieces: Iterator[str]) -> Iterator:
    """The elements of the ``data`` list of the JSON object whose text
    comes in pieces, each decoded once it is whole in the buffer.
    ValueError if the text is not such an object with exactly one
    ``data`` key, whose value is a list, and nothing after it; a JSON
    syntax error in a value raises JSONDecodeError, and nesting too deep
    RecursionError."""
    buf, pos = "", 0

    def fill(need: int) -> bool:
        """Append at least need characters to the unread text, or all that
        is left; False if none was left."""
        nonlocal buf, pos
        got, n = [buf[pos:]], 0
        for piece in pieces:
            got.append(piece)
            n += len(piece)
            if n >= need:
                break
        buf, pos = "".join(got), 0
        return n > 0

    def peek() -> str:
        """The next character that is not whitespace, '' at the end."""
        nonlocal pos
        while (pos := _WHITESPACE.match(buf, pos).end()) == len(buf):
            if not fill(READ_CHARS):
                return ""
        return buf[pos]

    def take(expected: str) -> None:
        nonlocal pos
        if peek() != expected:
            raise ValueError(f"expected {expected!r}")
        pos += 1

    def value():
        """The JSON value at the next character that is not whitespace."""
        nonlocal pos
        peek()
        while True:
            try:
                obj, pos = _DECODER.raw_decode(buf, pos)
                return obj
            except json.JSONDecodeError:
                # the value may go on past the buffer: read at least as
                # much again, so that the attempts at a long value cost
                # about twice its decode, not its length over READ_CHARS
                if not fill(max(READ_CHARS, len(buf) - pos)):
                    raise

    take("{")
    seen = False
    while True:
        if peek() != '"':
            raise ValueError("expected a key")
        key = value()
        take(":")
        if key != "data":
            value()
        elif seen:
            raise ValueError("a second data key")
        else:
            seen = True
            take("[")
            if peek() == "]":
                pos += 1
            else:
                while True:
                    yield value()
                    if peek() == "]":
                        pos += 1
                        break
                    take(",")
        if peek() == "}":
            pos += 1
            break
        take(",")
    if not seen or peek():
        raise ValueError("no data key, or text after the object")


def _walk_article(ai: int, article, out: list[tuple]) -> None:
    """Check article, element ai of ``data``, and append its paragraphs to
    out as tuples."""
    # Each check is inline on the decoded value (a JSON value's type is
    # exactly dict, list, str, int, float, bool or NoneType); only an
    # element that fails one builds its JSON path and runs its checks
    # again through _require, which raises the error with that path.
    title = article.get("title") if type(article) is dict else None
    if (
        type(title) is not str
        or not (title.isascii() or _encodes(title))
        or type(paragraphs := article.get("paragraphs")) is not list
    ):
        apath = f"$.data[{ai}]"
        title = _require(article, "title", str, apath)
        paragraphs = _require(article, "paragraphs", list, apath)
    for pi, para in enumerate(paragraphs):
        context = para.get("context") if type(para) is dict else None
        if (
            type(context) is not str
            or not context
            or not (context.isascii() or _encodes(context))
            or type(qas := para.get("qas")) is not list
        ):
            ppath = f"$.data[{ai}].paragraphs[{pi}]"
            context = _require(para, "context", str, ppath)
            if not context:
                raise SchemaError(f"{ppath}.context", "context text is empty")
            qas = _require(para, "qas", list, ppath)
        baselines = []
        for qi, qa in enumerate(qas):
            qid = qa.get("id") if type(qa) is dict else None
            if (
                type(qid) is not str
                or not (qid.isascii() or _encodes(qid))
                or type(question := qa.get("question")) is not str
                or not (question.isascii() or _encodes(question))
                or not question.strip()
                or type(answers := qa.get("answers")) is not list
                or not answers
            ):
                qpath = f"$.data[{ai}].paragraphs[{pi}].qas[{qi}]"
                qid = _require(qa, "id", str, qpath)
                question = _require(qa, "question", str, qpath)
                if not question.strip():
                    raise SchemaError(f"{qpath}.question", "question is blank")
                answers = _require(qa, "answers", list, qpath)
                if not answers:
                    raise SchemaError(
                        f"{qpath}.answers",
                        "empty answers list (v2-style unanswerable entries "
                        "are not supported)",
                    )
            spans = []
            for xi, ans in enumerate(answers):
                text = ans.get("text") if type(ans) is dict else None
                # a non-empty text equal to a slice of the context lies
                # inside it, and is valid Unicode as the context is
                if (
                    type(text) is not str
                    or type(start := ans.get("answer_start")) is not int
                    or not text
                    or not (start >= 0 and context[start : start + len(text)] == text)
                ):
                    xpath = f"$.data[{ai}].paragraphs[{pi}].qas[{qi}].answers[{xi}]"
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
                spans.append((text, start))
            baselines.append((qid, question, tuple(spans)))
        out.append((title, context, tuple(baselines)))


def load_squad(path) -> SquadDataset:
    """:func:`parse_squad` of the file at path, read :data:`READ_CHARS`
    bytes at a time: every check runs here, and ``records`` is a read-only
    sequence built on access, not a tuple."""
    with open(path, "rb") as fh:
        return parse_squad(fh)


def reverse_dataset(ds: SquadDataset) -> list[ReversedExample]:
    """Swap question/answer roles: one example per (question, first answer).

    The first answer keeps the mapping deterministic; train entries have a
    single answer each, dev entries may carry several.
    """
    return [
        ReversedExample(
            context=context,
            input_answer=answers[0][0],
            target_question=question,
        )
        for _, context, baselines in ds.records._paragraphs
        for _, question, answers in baselines
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
