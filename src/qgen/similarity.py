"""Word-vector sentence similarity.

A sentence vector is the arithmetic mean of the word vectors of its
in-vocabulary tokens; sentence similarity is the cosine of two such
vectors. Out-of-vocabulary tokens are skipped but counted, and a sentence
with no known tokens gets the zero vector, which compares as 0.0 to
everything rather than raising. The rows of a sentence's tokens are
summed in token order, so repeated runs are bit-identical.

An :class:`EmbeddingTable` is a vocabulary index (token -> row) into one
read-only ``(rows, dim)`` float64 matrix. :func:`load_vectors_path` reads
a file in text mode (``\r\n`` and ``\r`` end a line as ``\n`` does) in one
pass of blocks of :data:`BLOCK_LINES` lines; row r is the r-th line that
is not blank, after an optional word2vec header. ``np.loadtxt`` parses a
block whose rows it reads as the per-line parser would (single spaces,
printable tokens unique in the block after lowercasing, finite
components); any other block (a tab or double space, a short row, a
duplicate, a ``nan``, a value such as ``1_000``) is parsed where it
stands by the per-line parser, which raises its first error. A token in
two blocks shows as a repeated hash, whose tokens a second pass reads to
name the line. A byte that does not decode ends the pass: the lines
before it are its last block, and BadEncoding follows if they load.
So a file loads to the rows, and fails with the error class, message
and line number, of :func:`load_vectors`, the per-line parser, over
the whole file. The pass keeps a :class:`VectorIndex` of each row's
token hash, and copies each block's rows and tokens to a private spool,
two unlinked temporary files in ``tempfile.gettempdir()`` (rows x dim x 8
bytes and the tokens, about 166 MB at 400k x 50d), from which ``select``
reads the rows of the tokens a caller will score. Nothing after the load
reads the text file: an edit, a truncation or a removal of it after the
load changes no selected row, and an edit during the load goes
undetected. A ``nan`` or ``inf`` is a :class:`BadFloat`:
its cosine would be clamped to 1.0 and score as a match. So is a
component of magnitude :data:`COMPONENT_BOUND` or more, whose dot
products could overflow and score as a match whatever their direction.
A byte-order mark is a :class:`BadEncoding`: it would hide the first
token.
"""

from __future__ import annotations

import io
import math
import tempfile
import unicodedata
import weakref
from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import filterfalse, groupby, islice
from operator import itemgetter
from typing import IO, Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import BadEncoding, BadFloat, DimensionMismatch, DuplicateToken, QgenError

# lines per block of a regular file, whose text and parsed rows (about 1 MB
# at 50d) are all a load holds of the file at once; the load keeps the
# index, 16 bytes a row (6.4 MB at 400k rows), and spools the rest
BLOCK_LINES = 1024

# a component's magnitude is below this, so the row sum of a sentence of
# fewer than 10**158 tokens, and a norm or dot product of vectors of fewer
# than 10**8 components (at most d * 1e300 before its square root), is
# finite; a component at or above it is a BadFloat
COMPONENT_BOUND = 1e150

# a token's 64-bit hash, salted per process: no byte or error may depend on it
_token_hash = hash


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Row ``index[token]`` of the read-only ``matrix`` is the token's
    vector; ``matrix[rows]`` is a copy. ``_pieces`` is the private memo
    of :func:`sentence_vector`: each lowered whitespace piece it has met,
    mapped to its token's row, ``_NOT_IN_TABLE`` or ``_NOT_A_TOKEN``."""

    dim: int
    index: Mapping[str, int]
    matrix: np.ndarray = field(repr=False)
    _pieces: dict[str, int] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.matrix.flags.writeable = False

    def __len__(self) -> int:
        return len(self.index)

    def select(self, tokens: Iterable[str]) -> EmbeddingTable:
        """A table of the given tokens that are in the index, in row
        order, each with the vector it has here."""
        named = sorted((self.index[token], token) for token in self.index.keys() & set(tokens))
        index = {token: i for i, (_, token) in enumerate(named)}
        return EmbeddingTable(self.dim, index, self.matrix[[row for row, _ in named]])


@dataclass(frozen=True, eq=False)
class VectorIndex:
    """What :func:`load_vectors_path` keeps of a file in memory, no token
    and no vector. Row r is the r-th line after the header that is not
    blank; row ``rows[i]`` holds the token whose hash is ``hashes[i]``,
    in ascending order. The rows are in two unlinked files, closed when
    the index is collected: row r's components from byte ``r * dim * 8``
    of ``row_spool``, and from byte ``offsets[b]`` of ``token_spool`` the
    tokens, one a line, of the block of rows from ``starts[b]`` on."""

    dim: int
    hashes: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    starts: list[int] = field(repr=False)
    offsets: list[int] = field(repr=False)
    row_spool: IO[bytes] = field(repr=False)
    token_spool: IO[bytes] = field(repr=False)

    def __post_init__(self) -> None:
        for spool in (self.row_spool, self.token_spool):
            weakref.finalize(self, spool.close)

    def __len__(self) -> int:
        return len(self.hashes)

    def select(self, tokens: Iterable[str]) -> EmbeddingTable:
        """As EmbeddingTable.select, reading the rows from the spool. A
        token whose hash only meets that of another token is absent. Not
        for two threads at once: they would share the spool's position."""
        wanted = set(tokens)
        keys = _hashes(wanted)
        # every position of each wanted hash: two file tokens may share one
        first = np.searchsorted(self.hashes, keys)
        count = np.searchsorted(self.hashes, keys, "right") - first
        at = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        rows = np.unique(self.rows[at]).tolist()
        named = [(row, token) for row, token in zip(rows, self._tokens(rows)) if token in wanted]
        matrix = np.empty((len(named), self.dim))
        for out, (row, _) in zip(matrix, named):
            self.row_spool.seek(row * self.dim * 8)
            self.row_spool.readinto(out)
        return EmbeddingTable(self.dim, {token: i for i, (_, token) in enumerate(named)}, matrix)

    def _tokens(self, rows: list[int]) -> list[str]:
        """The spooled tokens of the ascending rows, read a block at a time."""
        tokens: list[str] = []
        blocks = np.searchsorted(self.starts, rows, "right") - 1
        for block, picks in groupby(zip(blocks.tolist(), rows), key=itemgetter(0)):
            start, end = self.offsets[block : block + 2]
            self.token_spool.seek(start)
            lines = self.token_spool.read(end - start).decode().split("\n")
            tokens += [lines[row - self.starts[block]] for _, row in picks]
        return tokens


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
    with _decoded(text_lines(source)) as lines:
        values, dim = _parse_lines(lines, 1, index, None)
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(index), dim or 0)
    return EmbeddingTable(dim or 0, index, matrix)


@contextmanager
def _decoded(lines: Iterable[str]):
    """The lines up to the first byte that does not decode, where reading
    stops for good; BadEncoding as the with block ends, so a parse error
    before it wins. Text decodes in chunks: the byte's line is not known."""
    failed: list[UnicodeDecodeError] = []
    def read():
        try:
            yield from lines
        except UnicodeDecodeError as exc:
            failed.append(exc)
    yield read()
    for exc in failed:
        raise BadEncoding(f"vector file is not valid {exc.encoding}: {exc.reason}") from exc


def _parse_lines(
    lines: Iterable[str], lineno: int, index: dict[str, int], dim: int | None
) -> tuple[array, int | None]:
    """Parse lines, the first of them line ``lineno``, as rows following
    those of index, whose dimension is dim (None if index is empty): add
    each token to index and return the components and the dimension."""
    values = array("d")
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.strip("\n").strip("\r")
        if lineno == 1 and line.startswith("\ufeff"):
            raise BadEncoding("line 1: starts with a UTF-8 byte-order mark")
        if not line.strip() or (lineno == 1 and _parse_header(line)):
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
            raise DimensionMismatch(f"line {lineno}: expected {dim} components, got {len(comps)}")
        _add(index, token, lineno)
        try:
            row = [float(c) for c in comps]
        except ValueError as exc:
            raise BadFloat(f"line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise BadFloat(f"line {lineno}: non-finite vector component")
        if max(map(abs, row)) >= COMPONENT_BOUND:
            raise BadFloat(f"line {lineno}: vector component too large")
        values.extend(row)
    return values, dim


def _add(index: dict[str, int], token: str, lineno: int) -> None:
    """Give token the next row of index; DuplicateToken if it has one."""
    if token in index:
        raise DuplicateToken(f"line {lineno}: token {token!r} seen before")
    index[token] = len(index)


def _parse_block(lines: list[str], dim: int) -> np.ndarray:
    """loadtxt's rows of lines, each stripped, a lowered token and dim floats.

    loadtxt would skip a line that is only whitespace (no caller passes
    one), and raises on a row with another field count, on a field that
    str.split() would cut differently (empty, blank, inner whitespace),
    on 1_000 and non-ASCII digits, which float() reads; a field it
    accepts gets float()'s bits. Each line is stripped as loadtxt reads
    it, so no stripped copy of the block is held (0.4 MB more at peak).
    The encoding keeps numpy < 2 from handing the converter latin1 bytes.
    """
    return np.loadtxt(
        map(str.strip, lines),
        dtype=[("token", object), ("vector", np.float64, (dim,))],
        delimiter=" ",
        comments=None,
        encoding="utf-8",
        ndmin=1,
        converters={0: str.lower},
    )


def _hashes(tokens: Collection[str]) -> np.ndarray:
    return np.fromiter(map(_token_hash, tokens), np.int64, len(tokens))


def _parse_rows(lines: list[str], lineno: int, dim: int | None, index: dict[str, int]):
    """The tokens and (rows, dim) vectors of the rows of lines, the first
    of them line lineno, whose dimension is dim if not None: loadtxt's of
    the stripped rows if it reads each as the per-line parser would, else
    the per-line parser's, which adds each token up to its error to index."""
    rows = list(filterfalse(str.isspace, lines))
    if guess := (dim or rows[0].strip().count(" ")) if rows else 0:
        try:
            got = _parse_block(rows, guess)
        except ValueError:
            pass
        else:
            tokens, vectors = got["token"].tolist(), got["vector"]
            # a token that holds whitespace str.split() knows is not printable, lowered
            # or not; min and max find a nan, an inf or a component too large with no
            # temporary, as a nan fails both comparisons
            if (
                len(set(tokens)) == len(tokens)
                and all(map(str.isprintable, tokens))
                and -COMPONENT_BOUND < vectors.min()
                and vectors.max() < COMPONENT_BOUND
            ):
                return tokens, vectors
    values, dim = _parse_lines(lines, lineno, index, dim)
    return list(index), np.frombuffer(values).reshape(len(index), dim or 0)


def _repeats(hashes: np.ndarray) -> set[int]:
    """The values that occur more than once in the sorted hashes."""
    return set(hashes[1:][hashes[1:] == hashes[:-1]].tolist())


def _repeated_tokens(fh, header: bool, repeated: set[int], count: int) -> dict[str, int]:
    """The tokens of the rows in the first count lines of fh whose hash is
    in repeated, as a dict; DuplicateToken at the first token seen twice.
    Only these tokens can repeat."""
    fh.seek(0)
    index: dict[str, int] = {}
    for n, line in enumerate(islice(fh, count), start=1):
        if n > header and not line.isspace():
            token = line.split(None, 1)[0].lower()
            if _token_hash(token) in repeated:
                _add(index, token, n)
    return index


@contextmanager
def _spools():
    """Two unlinked temporary files, for rows and for tokens, closed if
    the with block raises."""
    with ExitStack() as stack:
        yield [stack.enter_context(tempfile.TemporaryFile()) for _ in range(2)]
        stack.pop_all()


def load_vectors_path(path) -> VectorIndex:
    """Load a vector file, UTF-8 in text mode, into a :class:`VectorIndex`
    in one pass of blocks, up to a byte that does not decode (_decoded),
    spooling each block's rows and tokens as it is parsed."""
    with (
        _spools() as (row_spool, token_spool),
        open(path, "r", encoding="utf-8") as fh,
        _decoded(fh) as lines,
    ):
        if not (header := _parse_header(next(lines, ""))):
            fh.seek(0)
        dim, lineno = None, 1 + header
        hashes, starts, offsets = [np.empty(0, np.int64)], [0], [0]
        for block in iter(lambda: list(islice(lines, BLOCK_LINES)), []):
            index: dict[str, int] = {}
            try:
                tokens, vectors = _parse_rows(block, lineno, dim, index)
            except QgenError:
                # earlier tokens are known only by hash: unless one repeats up to
                # the error, it stands; else parse again knowing those tokens
                seen = np.sort(np.concatenate([*hashes, _hashes(index)]))
                if repeated := _repeats(seen):
                    seed = _repeated_tokens(fh, header, repeated, lineno - 1)
                    _parse_lines(block, lineno, seed, dim)
                raise
            dim = vectors.shape[1] or dim
            hashes.append(_hashes(tokens))
            row_spool.write(np.ascontiguousarray(vectors))
            starts.append(starts[-1] + len(tokens))
            offsets.append(offsets[-1] + token_spool.write(("\n".join(tokens) + "\n").encode()))
            lineno += len(block)
            del tokens, vectors  # not held through the next block, or the sort
        hashes = np.concatenate(hashes)
        rows = np.argsort(hashes)
        hashes = hashes[rows]
        if repeated := _repeats(hashes):
            # a token in two blocks, or two tokens with one hash, in the lines read
            _repeated_tokens(fh, header, repeated, lineno - 1)
        return VectorIndex(dim or 0, hashes, rows, starts, offsets, row_spool, token_spool)


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


# what a piece of text that gives no row of a table resolves to in its memo
_NOT_IN_TABLE = -1  # a token the table does not hold: counted in total
_NOT_A_TOKEN = -2  # only punctuation, which tokenize drops: not counted


def sentence_vector(sentence: str | list[str], table: EmbeddingTable) -> SentenceVector:
    """Mean-pool the vectors of the sentence's in-vocabulary tokens.

    Accepts raw text, whose tokens are those of :func:`tokenize`, or a
    pre-split token list. Text is lowered and split at whitespace as
    tokenize does, and each piece is resolved once per table, into the
    table's private ``_pieces`` memo, to its token's row, to
    ``_NOT_IN_TABLE`` or to ``_NOT_A_TOKEN``; later texts of the table
    only look their pieces up. The memo lives as long as the table. The
    known tokens' rows are gathered with ``take`` and summed by
    ``np.add.reduce`` along axis 0, which
    starts from +0.0 and adds whole rows in token order, the same
    arithmetic as a left-to-right loop (numpy sums a one-column table
    pairwise instead), and the sum is divided in place, once: the bits of
    ``table.matrix[rows].sum(axis=0) / len(rows)``. A sentence with zero
    known tokens yields the zero vector.
    """
    if isinstance(sentence, str):
        codes = _piece_codes(sentence.lower().split(), table)
        rows = [code for code in codes if code >= 0]
        total = len(codes) - codes.count(_NOT_A_TOKEN)
    else:
        rows = [row for row in map(table.index.get, sentence) if row is not None]
        total = len(sentence)
    if rows:
        acc = np.add.reduce(table.matrix.take(rows, axis=0), axis=0)
        acc /= len(rows)
    else:
        acc = np.zeros(table.dim, dtype=np.float64)
    acc.flags.writeable = False
    return SentenceVector(values=acc, covered=len(rows), total=total)


def _piece_codes(pieces: list[str], table: EmbeddingTable) -> list[int]:
    """Each lowered whitespace-free piece's row in table, ``_NOT_IN_TABLE``
    or ``_NOT_A_TOKEN``, resolving the pieces the table's memo lacks into it."""
    memo = table._pieces
    try:
        return list(map(memo.__getitem__, pieces))
    except KeyError:
        for piece in pieces:
            if piece not in memo:
                tokens = _piece_tokens([piece])
                memo[piece] = table.index.get(tokens[0], _NOT_IN_TABLE) if tokens else _NOT_A_TOKEN
        return list(map(memo.__getitem__, pieces))


def cosine_similarity(
    a: SentenceVector | Sequence[SentenceVector], b: SentenceVector | Sequence[SentenceVector]
) -> float | list[list[float]]:
    """Cosines of sentence vectors, clamped to [-1, 1]: a float for two
    SentenceVectors; for two sequences, for each vector of a the list of
    its cosines against every vector of b.

    The values are stacked, the norms taken as one row·row reduction and
    the dot products as row·column ``np.matmul`` products of stacks shaped
    ``(n, 1, 1, d) @ (1, m, d, 1)``, each of which numpy hands to the
    BLAS dot kernel, so a cosine has the bits of ``np.dot(va, vb) /
    (norm_a * norm_b)`` with the norms of ``np.linalg.norm``; a matrix
    product (``A @ B.T``) sums in another order. The cosine is 0.0 where
    either vector has zero norm, so fully-OOV sentences score as
    non-matches instead of aborting a run.
    """
    if isinstance(a, SentenceVector) and isinstance(b, SentenceVector):
        return cosine_similarity([a], [b])[0][0]
    if not (len(a) and len(b)):
        return [[] for _ in a]
    va, vb = _stack(a), _stack(b)
    if va.shape[1] != vb.shape[1]:
        raise DimensionMismatch(f"sentence vectors have dims {va.shape[1]} and {vb.shape[1]}")
    norm_a, norm_b = _row_norms(va), _row_norms(vb)
    dots = np.matmul(va[:, None, None, :], vb[None, :, :, None])[..., 0, 0]
    zero = (norm_a == 0.0)[:, None] | (norm_b == 0.0)[None, :]
    cos = np.divide(dots, np.outer(norm_a, norm_b), out=np.zeros_like(dots), where=~zero)
    # fmin and fmax take 1.0 over a nan, as max(-1.0, min(1.0, nan)) does
    return np.fmax(-1.0, np.fmin(1.0, cos)).tolist()


def _stack(vectors: Sequence[SentenceVector]) -> np.ndarray:
    """The values of vectors as the rows of one array."""
    try:
        return np.stack([v.values for v in vectors])
    except ValueError as exc:
        raise DimensionMismatch(f"sentence vectors differ in dimension: {exc}") from None


def _row_norms(stack: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row, with SentenceVector.norm's bits."""
    return np.sqrt(np.matmul(stack[:, None, :], stack[:, :, None])[:, 0, 0])
