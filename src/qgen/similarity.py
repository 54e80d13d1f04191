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
first row, an optional word2vec header on line 1) is read in one pass of
blocks of :data:`BLOCK_LINES` lines, whose non-empty lines are parsed by
``np.loadtxt`` and checked in full: row r is the r-th non-empty line
after the header. The pass keeps only the index and one check value per
row, not the matrix: :meth:`EmbeddingTable.select` reads back the rows of
the tokens a caller will score, and ``matrix`` reads back every row on
first use, counting non-empty lines and parsing the lines it picks
BLOCK_LINES at a time. A read-back row gets the bits it got at load; a
row that is missing or whose token or check value differs, and a file
that no longer opens or decodes, raise :class:`VectorFileChanged`.

Any other file (a tab or double space, a short row, a duplicate, a
``nan``, a value such as ``1_000`` that loadtxt does not read) goes to
the per-line parser :func:`load_vectors`, from the first line of the
first block it refuses, with the tokens already accepted: an error is
raised from there, and a file it accepts is parsed again whole, into an
in-memory table. So every file loads to the same table, and fails with
the same error class, message and line number, whichever path reads it.
A ``nan`` or ``inf`` component is a :class:`BadFloat`: its cosine would
be clamped to 1.0 and score as a match. A byte-order mark is a
:class:`BadEncoding`: it would hide the first token.
"""

from __future__ import annotations

import io
import math
import os
import unicodedata
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import BadEncoding, BadFloat, DimensionMismatch, DuplicateToken, VectorFileChanged

# lines per block of a regular file, whose text and parsed rows (about 1 MB
# at 50d) are all a load or a read-back holds of the file at once. The
# load keeps the index, 52 MB at 400k rows; what the blocks allocate comes
# on top and is not all given back: at 400k x 50d the process grew by
# 58 MB with 1,024 lines a block, 75 MB with 8,192 and 128 MB with 32,768
BLOCK_LINES = 1024


@dataclass(frozen=True, eq=False)
class VectorRows:
    """Where the rows of a path-loaded table are, and what each held.

    Row r is the r-th non-empty line of the file after the header, as it
    is at load; ``checks`` holds each row's check value at load.
    """

    path: str
    header: bool
    dim: int
    checks: np.ndarray

    def read(self, rows: Sequence[int], tokens: list[str]) -> np.ndarray:
        """The vectors of the ascending ``rows``, whose tokens are
        ``tokens``, in one pass that stops at the last of them; the lines
        picked are parsed BLOCK_LINES at a time. A row that is missing, no
        longer parses, or whose token or check value is not the one
        loaded, and a file that no longer opens or decodes, raise
        VectorFileChanged."""
        out = np.empty((len(rows), self.dim))
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                if self.header:
                    fh.readline()
                lines = filter("\n".__ne__, fh)
                # the line of each row, or None past the end of the file
                gaps = (row - last - 1 for row, last in zip(rows, chain([-1], rows)))
                picks = (next(islice(lines, gap, None), None) for gap in gaps)
                for done in range(0, len(rows), BLOCK_LINES):
                    want = rows[done : done + BLOCK_LINES]
                    picked = list(islice(picks, BLOCK_LINES))
                    if None in picked:
                        raise self._changed(want[picked.index(None)])
                    try:
                        got = _parse_block(picked, self.dim)
                    except ValueError as exc:
                        raise self._changed(want[0]) from exc
                    if got["token"].tolist() != tokens[done : done + len(want)] or not (
                        np.array_equal(_check_values(got["vector"]), self.checks[want])
                    ):
                        raise self._changed(want[0])
                    out[done : done + len(want)] = got["vector"]
        except (UnicodeDecodeError, OSError) as exc:
            raise VectorFileChanged(
                f"{self.path}: can no longer be read as it was loaded: {exc}"
            ) from exc
        return out

    def _changed(self, row: int) -> VectorFileChanged:
        return VectorFileChanged(
            f"{self.path}: rows from {row} on differ from the file as it was loaded"
        )


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Row ``index[token]`` of the read-only ``matrix`` is the token's vector.

    ``source`` is the matrix, or, for a table :func:`load_vectors_path`
    read from a regular file, the :class:`VectorRows` it is read back
    from: there ``matrix`` is a second pass over the whole file on first
    use, kept from then on, so code that scores sentences calls
    :meth:`select` first. ``matrix[rows]`` is a copy.
    """

    dim: int
    index: Mapping[str, int]
    source: np.ndarray | VectorRows = field(repr=False)

    def __len__(self) -> int:
        return len(self.index)

    @cached_property
    def matrix(self) -> np.ndarray:
        if isinstance(self.source, np.ndarray):
            return self.source
        matrix = self.source.read(range(len(self.index)), list(self.index))
        matrix.flags.writeable = False
        return matrix

    def select(self, tokens: Iterable[str]) -> EmbeddingTable:
        """An in-memory table of the given tokens that are in the index,
        in row order, each with the vector it has here. A path-loaded
        table reads just their rows back from its file, in one pass;
        VectorFileChanged if one is not as it was at load."""
        named = {self.index[token]: token for token in self.index.keys() & set(tokens)}
        rows = sorted(named)
        names = [named[row] for row in rows]
        if isinstance(self.source, np.ndarray):
            matrix = self.source[rows]
        else:
            matrix = self.source.read(rows, names)
        return _table(dict(zip(names, range(len(names)))), self.dim, matrix)


@dataclass(frozen=True, eq=False)
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
    return EmbeddingTable(dim=dim, index=index, source=matrix)


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
    values, dim = _parse_lines(text_lines(source), 1, index, None)
    dim = dim if dim is not None else 0
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(index), dim)
    return _table(index, dim, matrix)


def _parse_lines(
    lines: Iterable[str], lineno: int, index: dict[str, int], dim: int | None
) -> tuple[array, int | None]:
    """Parse lines, the first of them line ``lineno``, as rows following
    those of index, whose dimension is dim (None if index is empty): add
    each token to index and return the components and the dimension."""
    values = array("d")
    try:
        for lineno, raw in enumerate(lines, start=lineno):
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
    return values, dim


def _parse_block(lines: list[str], dim: int) -> np.ndarray:
    """loadtxt's rows of lines, each a lowered token and dim floats.

    The load passes a block's non-empty lines and a read-back at most
    BLOCK_LINES picked lines, so neither holds more rows at once.
    loadtxt would skip a line that is only a line end (neither passes
    one), and raises on a row with another field count, on a field that
    str.split() would cut differently (empty, blank, inner whitespace),
    on 1_000 and non-ASCII digits, which float() reads; a field it
    accepts gets float()'s bits.
    The encoding keeps numpy < 2 from handing the converter latin1 bytes.
    """
    return np.loadtxt(
        lines,
        dtype=[("token", object), ("vector", np.float64, (dim,))],
        delimiter=" ",
        comments=None,
        encoding="utf-8",
        ndmin=1,
        converters={0: str.lower},
    )


def _check_values(vectors: np.ndarray) -> np.ndarray:
    """One uint64 per row of vectors: the sum of the bits of its
    components times distinct odd weights, modulo 2**64, so a change to
    any one component changes it."""
    weights = np.arange(1, 2 * vectors.shape[1], 2, dtype=np.uint64) * np.uint64(
        0x9E3779B97F4A7C15
    )
    return np.dot(vectors.view(np.uint64), weights)


def _load_regular(fh, path) -> EmbeddingTable | None:
    """Load a regular vector file (see the module docstring) from the text
    handle fh in blocks of BLOCK_LINES lines, keeping the index and the
    rows' check values. From the first block that is not provably read as
    :func:`load_vectors` reads it, the per-line parser goes on with the
    tokens accepted before it: an error it raises is raised, and if it
    accepts the rest, None is returned, as it is for a file that does not
    decode or whose first row shows no dimension.

    A block's rows are its non-empty lines, so row r is the r-th non-empty
    line after the header, as :meth:`VectorRows.read` counts it; a block's
    first line number is known, as every block before it has BLOCK_LINES
    lines.
    """
    try:
        line = fh.readline()
        header = _parse_header(line)
        dim = (fh.readline() if header else line).count(" ")
        if dim == 0:
            return None
        fh.seek(0)
        if header:
            fh.readline()
        index: dict[str, int] = {}
        checks = []
        lineno = 1 + header
        for lines in iter(lambda: list(islice(fh, BLOCK_LINES)), []):
            nonempty = list(filter("\n".__ne__, lines))
            if nonempty:
                vectors = _accept(nonempty, dim, index)
                if vectors is None:
                    _parse_lines(chain(lines, fh), lineno, index, dim if index else None)
                    return None
                checks.append(_check_values(vectors))
            lineno += len(lines)
    except UnicodeDecodeError:
        # where the per-line parser stops depends on lines not kept
        return None
    rows = VectorRows(
        path=os.path.abspath(path), header=header, dim=dim, checks=np.concatenate(checks)
    )
    return EmbeddingTable(dim=dim, index=index, source=rows)


def _accept(lines: list[str], dim: int, index: dict[str, int]) -> np.ndarray | None:
    """The vectors of lines, the rows of a block, their tokens added to
    index, or None, index unchanged, when loadtxt refuses them or a token
    is empty, not printable or seen before, or a component is not
    finite."""
    try:
        rows = _parse_block(lines, dim)
    except ValueError:
        return None
    tokens = rows["token"].tolist()
    vectors = rows["vector"]
    # an empty token (leading space) or one holding whitespace str.split()
    # knows (tab, NBSP, NEL, ...) is not printable, lowered or not; min and
    # max show a nan or inf with no (rows, dim) temporary
    if (
        not index.keys().isdisjoint(tokens)
        or "" in tokens
        or not all(map(str.isprintable, tokens))
        or not (math.isfinite(vectors.min()) and math.isfinite(vectors.max()))
    ):
        return None
    start = len(index)
    index.update(zip(tokens, range(start, start + len(tokens))))
    if len(index) != start + len(tokens):
        # a token twice in the block: none of its tokens was in index before
        for token in tokens:
            index.pop(token, None)
        return None
    return vectors


def load_vectors_path(path) -> EmbeddingTable:
    """Load a vector file from disk, UTF-8 in text mode; see the module
    docstring for the two ways it is read, which give the same table and
    the same errors. A regular file gives a table that holds its index
    and reads its rows back from the file: call
    :meth:`EmbeddingTable.select` before scoring. Any other file gives an
    in-memory table; it is read again whole if the per-line parser
    accepts it."""
    with open(path, "r", encoding="utf-8") as fh:
        table = _load_regular(fh, path)
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
    return _piece_tokens(text.lower().split())


def _piece_tokens(pieces: Iterable[str]) -> list[str]:
    """The tokens of lowered whitespace-free pieces, as tokenize makes them."""
    out: list[str] = []
    for piece in pieces:
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


def vocabulary(texts: Iterable[str]) -> set[str]:
    """Every token :func:`tokenize` gives for any of texts; each distinct
    whitespace piece is stripped once."""
    pieces: set[str] = set()
    for text in texts:
        pieces.update(text.lower().split())
    return set(_piece_tokens(pieces))


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
