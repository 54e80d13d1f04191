"""Word-vector sentence similarity.

A sentence vector is the arithmetic mean of the word vectors of its
in-vocabulary tokens; sentence similarity is the cosine of two such
vectors. Out-of-vocabulary tokens are skipped but counted, and a sentence
with no known tokens gets the zero vector, which compares as 0.0 to
everything rather than raising. The rows of a sentence's tokens are
summed in token order, so repeated runs are bit-identical.

An :class:`EmbeddingTable` is a vocabulary index (token -> row) into one
read-only ``(rows, dim)`` float64 matrix. :func:`load_vectors_path` reads
a regular file (``token v1 ... vd`` with single spaces, ``\\n`` line ends,
no blank lines, printable UTF-8 tokens unique after lowercasing, an
optional word2vec header) with one streamed ``np.loadtxt`` call. Any other
file goes whole to the per-line parser :func:`load_vectors`, so every
file loads to the same table, and fails with the same error class,
message and line number, whichever path reads it.
"""

from __future__ import annotations

import unicodedata
from array import array
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import BadFloat, DimensionMismatch, DuplicateToken


@dataclass(frozen=True)
class EmbeddingTable:
    """Row ``index[token]`` of the read-only ``matrix`` is the token's vector."""

    dim: int
    index: Mapping[str, int]
    matrix: np.ndarray

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __len__(self) -> int:
        return len(self.index)


@dataclass(frozen=True)
class SentenceVector:
    values: np.ndarray
    covered: int
    total: int

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    @property
    def is_zero(self) -> bool:
        return self.covered == 0


def _table(index: dict[str, int], dim: int, matrix: np.ndarray) -> EmbeddingTable:
    matrix.flags.writeable = False
    return EmbeddingTable(dim=dim, index=index, matrix=matrix)


def _parse_header(line: str) -> bool:
    parts = line.split()
    return len(parts) == 2 and all(p.isdigit() for p in parts)


def load_vectors(source: str | IO | Iterable[str]) -> EmbeddingTable:
    """Load a GloVe-style text vector file: ``token v1 v2 ... vd`` per line.

    The dimension is inferred from the first vector line. A leading
    word2vec-style ``count dim`` header (two bare integers) is skipped.
    Tokens are lowercased on load. Blank lines are ignored.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source
    index: dict[str, int] = {}
    values = array("d")
    dim: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip("\n").strip("\r")
        if not line.strip():
            continue
        if dim is None and not index and _parse_header(line):
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
            values.extend([float(c) for c in comps])
        except ValueError as exc:
            raise BadFloat(f"line {lineno}: {exc}") from exc
        index[token] = len(index)
    dim = dim if dim is not None else 0
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(index), dim)
    return _table(index, dim, matrix)


def _load_regular(path) -> EmbeddingTable | None:
    """Load a regular vector file (see the module docstring) with one
    ``np.loadtxt`` call, or return None when the file is not provably
    read by it exactly as :func:`load_vectors` reads it."""
    index: dict[str, int] = {}
    dim = -1
    header = 0
    with open(path, "rb") as fh:
        for line in fh:
            if b"\r" in line:
                return None
            try:
                # load_vectors skips every header-like line before the first row
                if not index and _parse_header(line.decode("utf-8")):
                    header += 1
                    continue
                token = line.partition(b" ")[0].decode("utf-8")
            except UnicodeDecodeError:
                return None
            # an empty token (blank line, leading space) or one holding the
            # line end (no space on the line) or whitespace str.split()
            # knows (tab, NBSP, NEL, ...)
            if not token or not token.isprintable():
                return None
            spaces = line.count(b" ")
            if dim < 0:
                dim = spaces
            if spaces != dim:
                return None
            token = token.lower()
            if token in index:
                return None
            index[token] = len(index)
        if not index or dim == 0:
            return None
        fh.seek(0)
        try:
            # loadtxt raises on a field that str.split() would cut
            # differently (empty, blank, inner whitespace) and on 1_000 and
            # non-ASCII digits, which float() reads; a field it accepts
            # gets float()'s bits
            matrix = np.loadtxt(
                fh,
                dtype=np.float64,
                delimiter=" ",
                comments=None,
                usecols=range(1, dim + 1),
                skiprows=header,
                ndmin=2,
                encoding="utf-8",
            )
        except ValueError:
            return None
    if matrix.shape != (len(index), dim):
        return None
    return _table(index, dim, matrix)


def load_vectors_path(path) -> EmbeddingTable:
    """Load a vector file from disk; see the module docstring for the two
    ways it is read, which give the same table and the same errors."""
    table = _load_regular(path)
    if table is None:
        with open(path, "r", encoding="utf-8") as fh:
            table = load_vectors(fh)
    return table


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation.

    Punctuation is any Unicode P* category character; only leading and
    trailing marks are stripped, so interior apostrophes and hyphens
    survive ("don't", "stop-gap"). Tokens that strip to nothing are
    dropped.
    """
    out: list[str] = []
    for piece in text.lower().split():
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
    norm_a = float(np.linalg.norm(va))
    norm_b = float(np.linalg.norm(vb))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    value = float(np.dot(va, vb)) / (norm_a * norm_b)
    return max(-1.0, min(1.0, value))
