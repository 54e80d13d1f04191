"""Word-vector sentence similarity.

A sentence vector is the arithmetic mean of the word vectors of its
in-vocabulary tokens; sentence similarity is the cosine of two such
vectors. Out-of-vocabulary tokens are skipped but counted, and a sentence
with no known tokens gets the zero vector, which compares as 0.0 to
everything rather than raising. The rows of a sentence's tokens are
summed in token order, so repeated runs are bit-identical.

An :class:`EmbeddingTable` is a vocabulary index (token -> row) into one
read-only ``(rows, dim)`` float64 matrix. :func:`load_vectors_path` reads
the file in text mode, so ``\r\n`` and ``\r`` end a line as ``\n`` does.
A regular file (``token v1 ... vd`` with single spaces, printable tokens
unique after lowercasing, finite components, blank lines only after the
first row, an optional word2vec header on line 1) is read with one
``np.loadtxt`` call. Any other file (a tab or double space, a short row,
a duplicate, a ``nan``, a value such as ``1_000`` that loadtxt does not
read) goes whole to the per-line parser :func:`load_vectors`, so every
file loads to the same table, and fails with the same error class,
message and line number, whichever path reads it. A bad file is read
twice, so at 400k rows its error comes seconds later. A ``nan`` or
``inf`` component is a :class:`BadFloat`: its cosine would be clamped to
1.0 and score as a match. A byte-order mark is a :class:`BadEncoding`: it
would hide the first token.
"""

from __future__ import annotations

import io
import math
import unicodedata
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import BadEncoding, BadFloat, DimensionMismatch, DuplicateToken


@dataclass(frozen=True)
class EmbeddingTable:
    """Row ``index[token]`` of the read-only ``matrix`` is the token's
    vector. ``matrix`` may be a strided view; ``matrix[rows]`` is a copy."""

    dim: int
    index: Mapping[str, int]
    matrix: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


@dataclass(frozen=True)
class SentenceVector:
    values: np.ndarray
    covered: int
    total: int

    @property
    def is_zero(self) -> bool:
        return self.covered == 0

    @cached_property
    def norm(self) -> float:
        """The Euclidean norm of values, computed on first use."""
        return float(np.linalg.norm(self.values))


def _table(index: dict[str, int], dim: int, matrix: np.ndarray) -> EmbeddingTable:
    matrix.flags.writeable = False
    return EmbeddingTable(dim=dim, index=index, matrix=matrix)


def _parse_header(line: str) -> bool:
    parts = line.split()
    return len(parts) == 2 and all(p.isdigit() for p in parts)


def text_lines(source: str | IO | Iterable[str]) -> Iterable[str]:
    """The lines of source; a string is split at ``\\n``, ``\\r\\n`` and
    ``\\r`` only, as a file opened in text mode is."""
    if isinstance(source, str):
        return io.StringIO(source, newline=None)
    return source


def load_vectors(source: str | IO | Iterable[str]) -> EmbeddingTable:
    """Load a GloVe-style text vector file: ``token v1 v2 ... vd`` per line.

    The dimension is inferred from the first vector line. A word2vec-style
    ``count dim`` header (two bare integers) is skipped when it is line 1.
    Tokens are lowercased on load. Blank lines are ignored. A string is
    split into lines by :func:`text_lines`. A stream that does not decode
    raises BadEncoding.
    """
    index: dict[str, int] = {}
    values = array("d")
    dim: int | None = None
    try:
        for lineno, raw in enumerate(text_lines(source), start=1):
            line = raw.strip("\n").strip("\r")
            if lineno == 1 and line.startswith("\ufeff"):
                raise BadEncoding("line 1: starts with a UTF-8 byte-order mark")
            if not line.strip():
                continue
            if lineno == 1 and _parse_header(line):
                continue
            parts = line.split()
            token = parts[0].lower()
            comps = parts[1:]
            if dim is None:
                if not comps:
                    raise DimensionMismatch(
                        f"line {lineno}: no vector components after token {token!r}"
                    )
                dim = len(comps)
            if len(comps) != dim:
                raise DimensionMismatch(
                    f"line {lineno}: expected {dim} components, got {len(comps)}"
                )
            if token in index:
                raise DuplicateToken(f"line {lineno}: token {token!r} seen before")
            try:
                row = [float(c) for c in comps]
            except ValueError as exc:
                raise BadFloat(f"line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, row)):
                raise BadFloat(f"line {lineno}: non-finite vector component")
            values.extend(row)
            index[token] = len(index)
    except UnicodeDecodeError as exc:
        # a text stream decodes in chunks, so the failing line is not known
        raise BadEncoding(f"vector file is not valid {exc.encoding}: {exc.reason}") from exc
    dim = dim if dim is not None else 0
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(index), dim)
    return _table(index, dim, matrix)


def _load_regular(fh) -> EmbeddingTable | None:
    """Load a regular vector file (see the module docstring) from the text
    handle fh with one ``np.loadtxt`` call, or return None when the file is
    not provably read by it exactly as :func:`load_vectors` reads it.

    loadtxt skips blank lines, so a row index is not a line number: a
    duplicate token or a non-finite component returns None, and the
    per-line parser names the line. The matrix is a strided view.
    """
    try:
        line = fh.readline()
        header = int(_parse_header(line))
        dim = (fh.readline() if header else line).count(" ")
        if dim == 0:
            return None
        fh.seek(0)
        # loadtxt raises on a row with another field count and on a field
        # that str.split() would cut differently (empty, blank, inner
        # whitespace), on 1_000 and non-ASCII digits, which float() reads,
        # and on bad UTF-8; a field it accepts gets float()'s bits. The
        # handle decodes; encoding keeps numpy < 2 from handing the
        # converter latin1 bytes
        rows = np.loadtxt(
            fh,
            dtype=[("token", object), ("vector", np.float64, (dim,))],
            delimiter=" ",
            comments=None,
            skiprows=header,
            encoding="utf-8",
            ndmin=1,
            converters={0: str.lower},
        )
    except ValueError:
        return None
    index = dict(zip(rows["token"], range(len(rows))))
    matrix = rows["vector"]
    # an empty token (leading space) or one holding whitespace str.split()
    # knows (tab, NBSP, NEL, ...) is not printable, lowered or not; min and
    # max show a nan or inf with no (rows, dim) temporary
    if (
        len(index) != len(rows)
        or "" in index
        or not all(map(str.isprintable, index))
        or not (math.isfinite(matrix.min()) and math.isfinite(matrix.max()))
    ):
        return None
    return _table(index, dim, matrix)


def load_vectors_path(path) -> EmbeddingTable:
    """Load a vector file from disk, UTF-8 in text mode; see the module
    docstring for the two ways it is read, which give the same table and
    the same errors. A file that is not regular is read twice."""
    with open(path, "r", encoding="utf-8") as fh:
        table = _load_regular(fh)
        if table is None:
            fh.seek(0)
            table = load_vectors(fh)
    return table


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation.

    Punctuation is any Unicode P* category character; only leading and
    trailing marks are stripped, so interior apostrophes and hyphens
    survive ("don't", "stop-gap"). Tokens that strip to nothing are
    dropped. A piece that begins and ends with an alphanumeric character
    is kept as it is: no alphanumeric code point is in a P* category.
    """
    out: list[str] = []
    for piece in text.lower().split():
        if piece[0].isalnum() and piece[-1].isalnum():
            out.append(piece)
            continue
        start = 0
        end = len(piece)
        while start < end and unicodedata.category(piece[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(piece[end - 1]).startswith("P"):
            end -= 1
        if end > start:
            out.append(piece[start:end])
    return out


def sentence_vector(sentence: str | list[str], table: EmbeddingTable) -> SentenceVector:
    """Mean-pool the vectors of the sentence's in-vocabulary tokens.

    Accepts raw text (tokenized with :func:`tokenize`) or a pre-split
    token list. The known tokens' rows are gathered from the table and
    summed along axis 0, which starts from +0.0 and adds whole rows in
    token order, the same arithmetic as a left-to-right loop (numpy sums
    a one-column table pairwise instead); the sum is divided once at the
    end. A sentence with zero known tokens yields the zero vector.
    """
    tokens = tokenize(sentence) if isinstance(sentence, str) else sentence
    rows = [row for row in map(table.index.get, tokens) if row is not None]
    if rows:
        acc = table.matrix[rows].sum(axis=0) / len(rows)
    else:
        acc = np.zeros(table.dim, dtype=np.float64)
    acc.flags.writeable = False
    return SentenceVector(values=acc, covered=len(rows), total=len(tokens))


def cosine_similarity(a: SentenceVector, b: SentenceVector) -> float:
    """Cosine of two sentence vectors, clamped to [-1, 1].

    Returns 0.0 when either vector has zero norm, so fully-OOV sentences
    score as non-matches instead of aborting a run.
    """
    va, vb = a.values, b.values
    if va.shape[0] != vb.shape[0]:
        raise DimensionMismatch(
            f"sentence vectors have dims {va.shape[0]} and {vb.shape[0]}"
        )
    norm_a, norm_b = a.norm, b.norm
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    value = float(np.dot(va, vb)) / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))
