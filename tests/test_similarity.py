"""Word-vector loading, tokenization, pooling, and cosine similarity."""

from __future__ import annotations

import gc
import json
import os
import random
import string
import tracemalloc
import unicodedata
import warnings

import numpy as np
import pytest

from qgen import similarity
from qgen.cli import main
from qgen.errors import (
    BadEncoding,
    BadFloat,
    DimensionMismatch,
    DuplicateToken,
    QgenError,
)
from qgen.similarity import (
    EmbeddingTable,
    VectorIndex,
    cosine_similarity,
    load_vectors,
    load_vectors_path,
    sentence_vector,
    tokenize,
    vocabulary,
)


def table_of(**vectors: tuple[float, ...]) -> EmbeddingTable:
    lines = [
        f"{token} " + " ".join(repr(c) for c in comps)
        for token, comps in vectors.items()
    ]
    return load_vectors("\n".join(lines))


# -- loading ------------------------------------------------------------------

def test_load_minimal_table():
    table = load_vectors("cat 1.0 0.0\ndog 0.0 1.0\n")
    assert table.dim == 2
    assert len(table) == 2
    assert "cat" in table.index and "fox" not in table.index
    np.testing.assert_array_equal(table.matrix[table.index["cat"]], [1.0, 0.0])


def test_load_skips_word2vec_header():
    table = load_vectors("2 3\ncat 1 2 3\ndog 4 5 6\n")
    assert table.dim == 3
    assert len(table) == 2
    assert "2" not in table.index


def test_load_dimension_mismatch_names_line():
    with pytest.raises(DimensionMismatch) as err:
        load_vectors("cat 1.0 2.0\ndog 3.0\n")
    assert "line 2" in str(err.value)


def test_load_bad_float_names_line():
    with pytest.raises(BadFloat) as err:
        load_vectors("cat 1.0 2.0\ndog 3.0 oops\n")
    assert "line 2" in str(err.value)


def test_load_duplicate_token():
    with pytest.raises(DuplicateToken):
        load_vectors("cat 1.0\nCAT 2.0\n")


def test_load_lowercases_tokens():
    table = load_vectors("Paris 1.0 2.0\n")
    assert "paris" in table.index
    assert "Paris" not in table.index


def test_load_ignores_blank_lines_and_empty_input():
    table = load_vectors("\ncat 1.0\n\n\ndog 2.0\n")
    assert len(table) == 2
    empty = load_vectors("")
    assert empty.dim == 0 and len(empty) == 0


def test_load_vectors_path(demo_vectors_path):
    table = load_vectors_path(demo_vectors_path)
    assert table.dim == 50
    assert len(table) > 100


def test_path_load_keeps_under_2_bytes_a_row(tmp_path):
    # the index keeps no per-row state, only its two spools; a sorted hash
    # and a row number a row took about 17 bytes a row here, and the
    # token -> row dict a load kept before that about 115
    rows = 20_000
    path = tmp_path / "vectors.txt"
    path.write_text("".join(f"w{i} {i % 7}.5 -1\n" for i in range(rows)), encoding="utf-8")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = load_vectors_path(path)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert isinstance(table, VectorIndex) and len(table) == rows
    assert kept < 2 * rows, kept / rows


def test_path_load_peaks_under_12_bytes_a_row(tmp_path):
    # a good load holds the rows' token hashes, 8 bytes a row, and then
    # sorts them where they are; a list of per-block hash arrays, copied
    # whole to be sorted, peaked at about 16.4 bytes a row here
    rows = 200_000
    path = tmp_path / "vectors.txt"
    path.write_text("".join(f"w{i} {i % 7}.5 -1\n" for i in range(rows)), encoding="utf-8")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = load_vectors_path(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert isinstance(table, VectorIndex) and len(table) == rows
    assert peak < 12 * rows, peak / rows


@pytest.mark.parametrize(
    "last, end, error",
    [
        (b"W0 1.5 -1\n", "\n", "line 20001: token 'w0' seen before"),
        (b"", " \n", None),
        (b"w 1.5 \xff1\n", "\n", "vector file is not valid utf-8: invalid start byte"),
    ],
    ids=["duplicate-last-row", "trailing-space", "bad-byte-last-row"],
)
def test_path_load_peaks_under_64_bytes_a_row(tmp_path, last, end, error):
    # a token repeated in the last row is named by a pass that keeps only
    # the tokens whose hash repeats, a block loadtxt refuses is parsed per
    # line where it stands, and a byte that does not decode ends the pass;
    # each once held a token -> row dict of every row, about 146, 124 and
    # 139 bytes a row here
    rows = 20_000
    path = tmp_path / "vectors.txt"
    text = "".join(f"w{i} {i % 7}.5 -1{end}" for i in range(rows))
    path.write_bytes(text.encode() + last)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        try:
            table = load_vectors_path(path)
        except QgenError as exc:
            table = exc
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    if error:
        assert str(table) == error
    else:
        assert isinstance(table, VectorIndex) and len(table) == rows
    assert peak < 64 * rows, peak / rows


# a token no file holds: a token never has a space
ABSENT = "no such token"


def file_tokens(text: str) -> list[str]:
    """The tokens of text in row order, as the per-line parser reads
    them, or none if it raises."""
    try:
        return list(load_vectors(text).index)
    except QgenError:
        return []


def load_outcome(load, tokens: list[str]) -> tuple:
    """What a load gives, comparable across paths and kinds of table:
    (dim, rows, and the tokens in row order and matrix bytes of a select
    of tokens and ABSENT) on success, (error class, message) on failure."""
    try:
        table = load()
    except Exception as exc:
        return type(exc), str(exc)
    chosen = table.select([*tokens, ABSENT])
    return table.dim, len(table), list(chosen.index), chosen.matrix.tobytes()


# (file bytes, None for a successful load, (dim, tokens) for a load that
# must give that table, or (error class, text in message))
LOADER_CASES = {
    "word2vec-header": (b"2 3\ncat 1 2 3\ndog 4 5 6\n", None),
    # only line 1 can be a header; line 2 is a one-column row
    "header-like-first-row": (b"2 3\n22 1\n", (1, ["22"])),
    "blank-lines": (b"\ncat 1.0\n\n\ndog 2.0\n", None),
    "blank-line-after-header": (b"2 2\n\ncat 1 2\n", (2, ["cat"])),
    "crlf": (b"cat 1 2\r\ndog 3 4\r\n", None),
    "crlf-header": (b"2 2\r\ncat 1 2\r\ndog 3 4\r\n", (2, ["cat", "dog"])),
    "cr": (b"2 2\rcat 1 2\rdog 3 4\r", (2, ["cat", "dog"])),
    "tab": (b"cat\t1 2\ndog 3\t4\n", None),
    "double-space": (b"cat  1 2\ndog 3  4\n", None),
    "trailing-space": (b"cat 1 2 \ndog 3 4 \n", None),
    "leading-space": (b"cat 1 2\n 3 4\n", (DimensionMismatch, "line 2")),
    "lowercase-duplicate": (b"Cat 1 2\ncat 3 4\n", (DuplicateToken, "line 2")),
    # a row index is not a line number once a blank line is skipped
    "duplicate-after-blank-line": (b"cat 1 2\n\nCat 3 4\n", (DuplicateToken, "line 3")),
    "underscore-digits": (b"cat 1_000 2\ndog 3 4\n", None),
    "fullwidth-digit": ("cat \uff11 2\ndog 3 4\n".encode(), None),
    # a non-finite component would make every cosine with its token 1.0
    "inf-nan": (b"cat inf -nan\ndog -inf -0.0\n", (BadFloat, "line 1: non-finite")),
    "nan-after-header": (b"2 2\ncat 1 2\ndog nan 1\n", (BadFloat, "line 3: non-finite")),
    "nan-after-blank-line": (b"cat 1 2\n\ndog nan 1\n", (BadFloat, "line 3: non-finite")),
    "minus-inf-last-row": (b"cat 1 2\ndog 3 4\nfox -inf 5\n", (BadFloat, "line 3: non-finite")),
    # a finite component whose dot products overflow would score as a match too
    "too-large-first-row": (
        b"big 1e200 1e200\nneg -1e200 -1e200\n", (BadFloat, "line 1: vector component too large")
    ),
    "too-large-last-row": (
        b"cat 1 2\ndog 3 4\nfox 5 -1e150\n", (BadFloat, "line 3: vector component too large")
    ),
    "just-under-component-bound": (b"cat 9.999999999999998e+149 -9.999999999999998e149\n", None),
    "non-ascii-tokens": ("caf\u00e9 1 2\n\u0130stanbul 3 4\n".encode(), None),
    "nbsp-token": ("7\u00a01 2\ndog 3\n".encode(), (DimensionMismatch, "line 2")),
    "nel-token": ("7\u00851 2\ndog 3\n".encode(), (DimensionMismatch, "line 2")),
    # \x0b and \x85 end a line for str.splitlines() but not for a file
    "vt-in-line": (b"a 1\x0bb 2\n", (BadFloat, "line 1")),
    "nel-in-line": ("a 1\u0085b 2\n".encode(), (BadFloat, "line 1")),
    "no-components": (b"cat\n", (DimensionMismatch, "line 1: no vector components")),
    "short-row": (b"cat 1 2\ndog 3\n", (DimensionMismatch, "line 2")),
    "long-row": (b"cat 1 2\ndog 3 4 5\n", (DimensionMismatch, "line 2")),
    "bad-float-last-line": (b"cat 1 2\ndog 3 4\nfox 5 oops\n", (BadFloat, "line 3")),
    "empty": (b"", None),
    # a line of spaces and tabs is blank, not a row
    "whitespace-only-line": (b"cat 1 2\n \t \ndog 3 4\n", (2, ["cat", "dog"])),
    # fastText's .vec files: a count dim header, a space after every line
    "fasttext-vec": (b"2 2 \ncat 1 2 \ndog 3 4 \n", (2, ["cat", "dog"])),
    # a byte-order mark would hide the first token, "the" in GloVe
    "utf8-bom": ("\ufeffthe 1 2\ncat 3 4\n".encode(), (BadEncoding, "line 1")),
}


@pytest.mark.parametrize("content, error", LOADER_CASES.values(), ids=LOADER_CASES)
def test_path_loader_agrees_with_line_parser(tmp_path, content, error):
    path = tmp_path / "vectors.txt"
    path.write_bytes(content)

    def line_parser():
        with open(path, "r", encoding="utf-8") as fh:
            return load_vectors(fh)

    tokens = file_tokens(content.decode("utf-8"))
    got = load_outcome(lambda: load_vectors_path(path), tokens)
    assert got == load_outcome(line_parser, tokens)
    assert got == load_outcome(lambda: load_vectors(content.decode("utf-8")), tokens)
    if error is None or isinstance(error[0], int):
        assert isinstance(load_vectors_path(path), VectorIndex)
    if error is None:
        assert isinstance(got[0], int)
    elif isinstance(error[0], int):
        assert (got[0], got[2]) == error
    else:
        assert got[0] is error[0] and error[1] in got[1]


def test_non_utf8_vector_file_is_bad_encoding(tmp_path, mini_squad_path):
    path = tmp_path / "vectors.txt"
    path.write_bytes(b"cat 1.0 2.0\ndog\xff 3.0 4.0\n")
    with open(path, "r", encoding="utf-8") as fh:
        with pytest.raises(BadEncoding, match="not valid utf-8: invalid start byte"):
            load_vectors(fh)
    with pytest.raises(BadEncoding, match="not valid utf-8: invalid start byte"):
        load_vectors_path(path)

    config = tmp_path / "config.json"
    doc = {"dataset": str(mini_squad_path), "vectors": str(path), "out": "out", "sample_size": 2}
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stage"] == "load"
    assert manifest["error"].startswith("BadEncoding: vector file is not valid utf-8")


def test_regular_file_skips_line_parser(monkeypatch, tmp_path, demo_vectors_path):
    # the per-line parser reads no block of a regular file, and the
    # whole-file parser no file, even one that does not decode
    text = demo_vectors_path.read_text(encoding="utf-8")
    with open(demo_vectors_path, encoding="utf-8") as fh:
        reference = load_vectors(fh)
    starts = []
    parse_lines = similarity._parse_lines

    def line_parser(lines, lineno, index, dim):
        starts.append(lineno)
        return parse_lines(lines, lineno, index, dim)

    def whole_file_parser(source):
        raise AssertionError("whole-file parser reached")

    monkeypatch.setattr(similarity, "_parse_lines", line_parser)
    monkeypatch.setattr(similarity, "load_vectors", whole_file_parser)
    table = load_vectors_path(demo_vectors_path)
    assert isinstance(table, VectorIndex) and table.dim == 50
    tokens = list(reference.index)
    expected = load_outcome(lambda: reference, tokens)
    assert load_outcome(lambda: table, tokens) == expected
    assert expected[:3] == (50, len(tokens), tokens)
    first, rest = text.split("\n", 1)
    variants = {
        "header": f"{len(table)} 50\n{text}",
        "crlf": text.replace("\n", "\r\n"),
        "blank-line": f"{first}\n\n{rest}",
        "no-final-newline": text.rstrip("\n"),
        # fastText's .vec layout
        "trailing-space": text.replace("\n", " \n"),
    }
    for name, variant in variants.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(variant, encoding="utf-8", newline="")
        got = load_vectors_path(path)
        assert isinstance(got, VectorIndex), name
        assert load_outcome(lambda: got, tokens) == expected, name
    # a byte that does not decode in the last row ends the one pass
    broken = tmp_path / "broken.txt"
    broken.write_bytes(text.encode()[:-2] + b"\xff\n")
    with pytest.raises(BadEncoding, match="^vector file is not valid utf-8: invalid start byte$"):
        load_vectors_path(broken)
    assert starts == []
    # a tab in row 1: its block, the whole file here, is read per line
    tabbed = tmp_path / "tabbed.txt"
    tabbed.write_text(text.replace(" ", "\t", 1), encoding="utf-8")
    got = load_vectors_path(tabbed)
    assert isinstance(got, VectorIndex) and starts == [1]
    # select reads the spool, and parses no line
    assert load_outcome(lambda: got, tokens) == expected
    assert starts == [1]


# (file bytes, read in blocks of 2 lines; None for a successful load, or
# (error class, text in message))
BLOCK_CASES = {
    "duplicate-across-blocks": (b"cat 1 2\ndog 3 4\nCAT 5 6\n", (DuplicateToken, "line 3")),
    "nan-first-row-of-block-2": (
        b"cat 1 2\ndog 3 4\nfox nan 6\nemu 7 8\n", (BadFloat, "line 3: non-finite")
    ),
    "blank-line-ends-block": (b"cat 1 2\n\ndog 3 4\nfox 5 6\nemu 7 8\n", None),
    "blank-block": (b"cat 1 2\ndog 3 4\n\n\nfox 5 6\n", None),
    "header-and-one-block": (b"2 2\ncat 1 2\ndog 3 4\n", None),
    "tab-in-block-2": (b"cat 1 2\ndog 3 4\nfox\t5 6\n", None),
    "too-large-in-block-2": (
        b"cat 1 2\ndog 3 4\nfox 5 6\nemu 1e300 8\n",
        (BadFloat, "line 4: vector component too large"),
    ),
    "too-large-in-refused-block": (
        b"cat 1 2\ndog 3 4\nfox\t5 6\nemu 7 -1e308\n",
        (BadFloat, "line 4: vector component too large"),
    ),
    "refused-block-then-regular-ones": (
        b"cat 1 2\ndog 3 4\nemu\t5 6\nfox 7 8\nyak 9 1\newe 2 3\nCOW 4 5\n", None
    ),
}


@pytest.mark.parametrize("content, error", BLOCK_CASES.values(), ids=BLOCK_CASES)
def test_block_boundaries(monkeypatch, tmp_path, content, error):
    monkeypatch.setattr(similarity, "BLOCK_LINES", 2)
    path = tmp_path / "vectors.txt"
    path.write_bytes(content)
    tokens = file_tokens(content.decode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = load_outcome(lambda: load_vectors_path(path), tokens)
    # loadtxt warns "input contained no data" when handed no rows
    assert [str(w.message) for w in caught] == []
    assert got == load_outcome(lambda: load_vectors(content.decode("utf-8")), tokens)
    if error is not None:
        assert got[0] is error[0] and error[1] in got[1]
        return
    reference = load_vectors(content.decode("utf-8"))
    table = load_vectors_path(path)
    for token, row in reference.index.items():
        chosen = table.select([token])
        assert chosen.matrix.tobytes() == reference.matrix[row].tobytes(), token


def test_refused_block_is_parsed_per_line_from_its_first_line(monkeypatch, tmp_path):
    monkeypatch.setattr(similarity, "BLOCK_LINES", 2)
    starts = []
    parse_lines = similarity._parse_lines

    def spying(lines, lineno, index, dim):
        starts.append((lineno, sorted(index), dim))
        return parse_lines(lines, lineno, index, dim)

    monkeypatch.setattr(similarity, "_parse_lines", spying)
    path = tmp_path / "vectors.txt"
    # blocks: lines 2-3 and 4-5 after the header, then line 6 with a nan
    path.write_bytes(b"4 2\ncat 1 2\ndog 3 4\n\nemu 5 6\nfox nan 8\n")
    with pytest.raises(BadFloat, match="line 6: non-finite"):
        load_vectors_path(path)
    # the tokens before the block are known by their hashes, none of which
    # repeats, so the error stands without reading those lines again
    assert starts == [(6, [], 2)]
    # a token before the error whose hash is an earlier token's: the lines
    # before the block are read again, and the block parsed with their tokens
    starts.clear()
    path.write_bytes(b"4 2\ncat 1 2\ndog 3 4\n\nemu 5 6\nDOG nan 8\n")
    with pytest.raises(DuplicateToken, match="^line 6: token 'dog' seen before$"):
        load_vectors_path(path)
    assert starts == [(6, [], 2), (6, ["dog"], 2)]
    # a block the per-line parser accepts: the pass goes on to the next
    starts.clear()
    content = b"cat 1 2\ndog 3 4\nemu 5\t6\nfox 7 8\nyak 9 1\n"
    path.write_bytes(content)
    table = load_vectors_path(path)
    assert starts == [(3, [], 2)]
    assert isinstance(table, VectorIndex)
    tokens = ["cat", "dog", "emu", "fox", "yak"]
    got = load_outcome(lambda: table, tokens)
    assert got == load_outcome(lambda: load_vectors(content.decode()), tokens)
    assert got[2] == tokens
    # a token twice in one block is found there, before the rest is read
    starts.clear()
    path.write_bytes(b"cat 1 2\ndog 3 4\nemu 5 6\nEMU 7 8\nfox 9 1\n")
    with pytest.raises(DuplicateToken, match="^line 4: token 'emu' seen before$"):
        load_vectors_path(path)
    assert starts == [(3, [], 2)]


# (file bytes, read in blocks of 2 lines, and the line DuplicateToken
# names): a token in two blocks is found by its hash, then named by a
# token pass over the lines before the block that fails, or over the file
HASH_DUPLICATE_CASES = {
    "duplicate-then-nan": (b"2 2\ncat 1 2\ndog 3 4\nemu 5 6\nCAT 7 8\nfox 9 1\nyak nan 2\n", 5),
    "duplicate-across-blocks": (b"cat 1 2\ndog 3 4\n\nemu 5 6\nfox 7 8\nDOG 9 1\nyak 2 3\n", 6),
    "duplicate-last-row": (b"2 2\ncat 1 2\n\ndog 3 4\nemu 5 6\nfox 7 8\nDOG 9 9", 7),
}


@pytest.mark.parametrize("content, line", HASH_DUPLICATE_CASES.values(), ids=HASH_DUPLICATE_CASES)
def test_duplicate_across_blocks_names_its_line(monkeypatch, tmp_path, content, line):
    monkeypatch.setattr(similarity, "BLOCK_LINES", 2)
    path = tmp_path / "vectors.txt"
    path.write_bytes(content)
    with pytest.raises(DuplicateToken, match=f"^line {line}: token '(cat|dog)' seen before$"):
        load_vectors_path(path)
    with pytest.raises(DuplicateToken, match=f"^line {line}: "):
        load_vectors(content.decode("utf-8"))


def colliding(pairs: dict[str, str]):
    """A token hash under which each key of pairs hashes as its value."""
    return lambda token: hash(pairs.get(token, token))


# cat and dog, and emu and fox, in one block; cat and yak in two
COLLIDING_FILE = b"cat 1 2\ndog 3 4\nemu 5 6\nfox 7 8\nyak 9 1\n"


@pytest.mark.parametrize("pairs", [{"dog": "cat"}, {"yak": "cat"}], ids=["in-block", "two-blocks"])
def test_file_tokens_with_one_hash_both_read_back(monkeypatch, tmp_path, pairs):
    monkeypatch.setattr(similarity, "BLOCK_LINES", 2)
    monkeypatch.setattr(similarity, "_token_hash", colliding(pairs))
    path = tmp_path / "vectors.txt"
    path.write_bytes(COLLIDING_FILE)
    table = load_vectors_path(path)
    assert isinstance(table, VectorIndex)
    tokens = file_tokens(COLLIDING_FILE.decode())
    assert load_outcome(lambda: table, tokens) == load_outcome(
        lambda: load_vectors(COLLIDING_FILE.decode()), tokens
    )
    # a token is selected alone, though the other's row shares its hash
    (token, other), = pairs.items()
    for wanted in ([token], [other], [token, other]):
        assert sorted(table.select(wanted).index) == sorted(wanted)
    # a byte that does not decode past the first 8 KiB chunk: the tokens of
    # the repeated hash are read again only up to the lines the pass read
    filler = "".join(f"w{i} 1 2\n" for i in range(1000)).encode()
    path.write_bytes(COLLIDING_FILE + filler + b"\xff")
    with pytest.raises(BadEncoding, match="^vector file is not valid utf-8: invalid start byte$"):
        load_vectors_path(path)


def test_token_whose_hash_meets_a_file_token_is_absent(monkeypatch, tmp_path):
    monkeypatch.setattr(similarity, "BLOCK_LINES", 2)
    monkeypatch.setattr(similarity, "_token_hash", colliding({"zzz": "cat", "ewe": "yak"}))
    path = tmp_path / "vectors.txt"
    path.write_bytes(COLLIDING_FILE)
    reference = load_vectors(COLLIDING_FILE.decode())
    table = load_vectors_path(path)
    assert isinstance(table, VectorIndex)
    assert len(table.select(["zzz", "ewe"])) == 0
    chosen = table.select(["zzz", "yak", "cat", "ewe"])
    assert list(chosen.index) == ["cat", "yak"]
    assert chosen.matrix.tobytes() == reference.matrix[[0, 4]].tobytes()


def test_select_reads_back_only_the_given_rows(demo_vectors_path):
    with open(demo_vectors_path, encoding="utf-8") as fh:
        reference = load_vectors(fh)
    table = load_vectors_path(demo_vectors_path)
    assert isinstance(table, VectorIndex) and len(table) == len(reference)
    tokens = list(reference.index)
    wanted = [tokens[100], tokens[0], tokens[5], "not-a-token", tokens[5]]
    for source in (table, reference):
        chosen = source.select(wanted)
        # an in-memory table of the known tokens, in row order
        assert list(chosen.index) == [tokens[0], tokens[5], tokens[100]]
        assert isinstance(chosen, EmbeddingTable) and chosen.dim == 50
        for token, row in chosen.index.items():
            expected = reference.matrix[reference.index[token]]
            assert chosen.matrix[row].tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            chosen.matrix[0, 0] = 1.0
        assert len(source.select([])) == 0
    # the index keeps no vector; every row reads back as the line parser's
    assert not hasattr(table, "matrix")
    assert table.select(tokens).matrix.tobytes() == reference.matrix.tobytes()


def test_select_finds_tokens_across_spool_chunks(tmp_path):
    # 20,000 tokens of 1 to 9 characters: the 64 KiB reads of the token
    # spool end inside lines, whose tokens are still found at their rows
    text = "".join(f"{'w' * (i % 9)}{i} {i}.5 -1\n" for i in range(20_000))
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    reference = load_vectors(text)
    table = load_vectors_path(path)
    tokens = list(reference.index)
    chosen = table.select(tokens)
    assert list(chosen.index) == tokens
    assert chosen.matrix.tobytes() == reference.matrix.tobytes()
    # a prefix, a suffix or a join of two tokens is not a token
    assert len(table.select(["ww", "ww1", "1", "w1ww2", "w1\nww2", ""])) == 0


@pytest.mark.parametrize("source", ["table", "index"])
def test_select_skips_a_token_that_does_not_encode(tmp_path, source):
    # a lone surrogate, as a JSON \ud800 escape gives: no file token has it
    text = "dog 1 2\ncat 3 4\n"
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    table = load_vectors(text) if source == "table" else load_vectors_path(path)
    chosen = table.select(["cat\ud800", "cat", "nope\udfff"])
    assert list(chosen.index) == ["cat"]
    assert chosen.matrix.tolist() == [[3.0, 4.0]]
    assert len(table.select(["cat\ud800"])) == 0


def edit_in_place(path, old: str, new: str) -> None:
    """Replace old with new in the file at path, keeping its byte length
    and its modification time."""
    stat = path.stat()
    data, old, new = path.read_bytes(), old.encode(), new.encode()
    assert len(old) == len(new) and old in data
    path.write_bytes(data.replace(old, new, 1))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert path.stat().st_mtime_ns == stat.st_mtime_ns


def truncate_to_first_row(path) -> None:
    path.write_text(path.read_text(encoding="utf-8").split("\n", 1)[0] + "\n", encoding="utf-8")


def edit_first_row(path) -> None:
    """Change a component and a token of the first row, in place."""
    row = path.read_text(encoding="utf-8").split("\n")[1]
    token, rest = row.split(" ", 1)
    digit = next(c for c in rest if c.isdigit())
    edited = "x" * len(token) + " " + rest.replace(digit, "7" if digit != "7" else "3", 1)
    edit_in_place(path, row, edited)


@pytest.mark.parametrize(
    "change", [edit_first_row, truncate_to_first_row, os.remove], ids=["edit", "truncate", "remove"]
)
def test_select_reads_the_rows_of_the_load_after_the_file_changes(
    monkeypatch, tmp_path, demo_vectors_path, change
):
    # rows are read from the spool, never from the file: the file has a
    # header, blank lines and CRLF, so rows are not line numbers, and is
    # spooled two lines at a time
    monkeypatch.setattr(similarity, "BLOCK_LINES", 2)
    lines = demo_vectors_path.read_text(encoding="utf-8").splitlines()
    text = f"{len(lines)} 50\r\n" + "".join(
        line + "\r\n" + "\r\n" * (i % 3 == 1) + "\n" * (i % 7 == 3)
        for i, line in enumerate(lines)
    )
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8", newline="")
    reference = load_vectors(text)
    tokens = list(reference.index)
    table = load_vectors_path(path)
    assert isinstance(table, VectorIndex) and len(table) == len(tokens) == 167
    change(path)
    chosen = table.select([*tokens, ABSENT])
    assert list(chosen.index) == tokens
    assert chosen.matrix.tobytes() == reference.matrix.tobytes()
    wanted = [tokens[166], tokens[0], tokens[83], tokens[84]]
    chosen = table.select(wanted)
    assert list(chosen.index) == sorted(wanted, key=tokens.index)
    assert chosen.matrix.tobytes() == reference.matrix[[0, 83, 84, 166]].tobytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_loads_leave_no_descriptor_open(tmp_path, demo_vectors_path):
    # a collected index closes its spool, and a failed load closes it
    # before it raises; a spool left to a file object's __del__ would warn
    failing = {
        "bad-float": b"cat 1 2\ndog nan 4\n",
        "duplicate": b"cat 1 2\nCAT 3 4\n",
        "dimension": b"cat 1 2\ndog 3\n",
        "bad-encoding": b"cat 1 2\ndog\xff 3 4\n",
        "bad-float-block-2": b"".join(b"w%d 1 2\n" % i for i in range(1500)) + b"fox 1 e\n",
    }
    for name, content in failing.items():
        (tmp_path / name).write_bytes(content)
    tokens = file_tokens(demo_vectors_path.read_text(encoding="utf-8"))[:30]
    gc.collect()
    before = len(os.listdir("/proc/self/fd"))
    for i in range(20):
        assert len(load_vectors_path(demo_vectors_path).select(tokens[i:])) == 30 - i
    for name in failing:
        with pytest.raises(QgenError):
            load_vectors_path(tmp_path / name)
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == before


def test_tables_and_vectors_compare_by_identity(demo_vectors_path):
    # each holds a numpy array, which == would compare element by element
    a, b = load_vectors("cat 1 2\ndog 3 4\n"), load_vectors("cat 1 2\ndog 3 4\n")
    index_a = load_vectors_path(demo_vectors_path)
    index_b = load_vectors_path(demo_vectors_path)
    va, vb = sentence_vector("cat dog", a), sentence_vector("cat dog", b)
    for x, y in ((a, b), (index_a, index_b), (va, vb)):
        assert x == x and x != y
        assert len({x, y, x}) == 2


def test_vocabulary_is_the_tokens_of_the_texts():
    rng = random.Random(11)
    alphabet = "aZ9 \t\n.,!?'-\u00a0\u2028\u0130\u03a3\u00e9\u201c\u3002"
    for _ in range(300):
        texts = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            for _ in range(rng.randint(0, 6))
        ]
        assert vocabulary(texts) == {tok for text in texts for tok in tokenize(text)}, texts


# -- tokenization ----------------------------------------------------------------

def test_tokenize_question():
    assert tokenize("When was Beyoncé born?") == ["when", "was", "beyoncé", "born"]


def test_tokenize_keeps_interior_punctuation():
    assert tokenize("don't use a stop-gap!") == ["don't", "use", "a", "stop-gap"]


def test_tokenize_drops_pure_punctuation_tokens():
    assert tokenize("wait -- what ??") == ["wait", "what"]


def test_tokenize_empty_and_whitespace():
    assert tokenize("") == []
    assert tokenize("   \t\n ") == []


def test_tokenize_unicode_punctuation():
    assert tokenize("«Paris», c'est grand…") == ["paris", "c'est", "grand"]


def tokenize_by_category(text: str) -> list[str]:
    """tokenize as it reads every piece: strip P* characters off its ends."""
    out = []
    for piece in text.lower().split():
        start, end = 0, len(piece)
        while start < end and unicodedata.category(piece[start]).startswith("P"):
            start += 1
        while end > start and unicodedata.category(piece[end - 1]).startswith("P"):
            end -= 1
        if end > start:
            out.append(piece[start:end])
    return out


# letters, digits and numerals; P* marks; combining marks; symbols;
# characters whose lowercase ends in a combining mark (İ) or differs in
# length; whitespace str.split() knows; every printable ASCII character
TOKEN_ALPHABET = (
    "aZé9٣ⅷß" "'-.,!?¿¡«»…—“”・、。()[]" "\u0301\u0307\u20dd" "$+€😀_" "İẞΣ" " \t\u00a0\u2028\x85"
) + string.printable


def test_tokenize_agrees_with_category_reference():
    rng = random.Random(20)
    for _ in range(5000):
        text = "".join(rng.choice(TOKEN_ALPHABET) for _ in range(rng.randint(0, 24)))
        assert tokenize(text) == tokenize_by_category(text), repr(text)


# -- sentence vectors ---------------------------------------------------------------

def test_sentence_vector_mean_pooling():
    table = table_of(a=(1.0, 0.0), b=(0.0, 1.0))
    sv = sentence_vector(["a", "b"], table)
    np.testing.assert_allclose(sv.values, [0.5, 0.5])
    assert sv.covered == 2
    assert sv.total == 2
    assert not sv.is_zero


def test_sentence_vector_single_token_identity():
    table = table_of(a=(0.3, -0.7, 2.0))
    sv = sentence_vector(["a"], table)
    np.testing.assert_array_equal(sv.values, [0.3, -0.7, 2.0])


def test_sentence_vector_skips_oov_but_counts_total():
    table = table_of(a=(1.0, 0.0))
    sv = sentence_vector(["a", "zzz", "a"], table)
    np.testing.assert_array_equal(sv.values, [1.0, 0.0])
    assert sv.covered == 2
    assert sv.total == 3


def test_sentence_vector_all_oov_is_zero():
    table = table_of(a=(1.0, 0.0))
    sv = sentence_vector(["x", "y"], table)
    assert sv.is_zero
    assert sv.covered == 0 and sv.total == 2
    np.testing.assert_array_equal(sv.values, [0.0, 0.0])


def test_sentence_vector_accepts_raw_text():
    table = table_of(cat=(1.0, 0.0), sat=(0.0, 1.0))
    from_text = sentence_vector("The cat sat!", table)
    from_tokens = sentence_vector(["the", "cat", "sat"], table)
    np.testing.assert_array_equal(from_text.values, from_tokens.values)
    assert from_text.total == 3
    assert from_text.covered == 2


def test_sentence_vector_values_read_only():
    table = table_of(a=(1.0, 2.0))
    sv = sentence_vector(["a"], table)
    with pytest.raises(ValueError):
        sv.values[0] = 9.0


# -- cosine similarity ----------------------------------------------------------------

def test_cosine_identical_is_one():
    table = table_of(a=(0.4, 0.3, -0.1))
    sv = sentence_vector(["a"], table)
    assert cosine_similarity(sv, sv) == pytest.approx(1.0, abs=1e-9)


def test_cosine_orthogonal_is_zero():
    table = table_of(a=(1.0, 0.0), b=(0.0, 1.0))
    a = sentence_vector(["a"], table)
    b = sentence_vector(["b"], table)
    assert cosine_similarity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_cosine_known_angle():
    table = table_of(u=(1.0, 1.0), v=(1.0, 0.0))
    got = cosine_similarity(sentence_vector(["u"], table), sentence_vector(["v"], table))
    assert abs(got - 0.7071067811865475) < 1e-12


def test_cosine_zero_vector_policy():
    table = table_of(a=(1.0, 0.0))
    zero = sentence_vector(["oov"], table)
    some = sentence_vector(["a"], table)
    assert cosine_similarity(zero, some) == 0.0
    assert cosine_similarity(some, zero) == 0.0
    assert cosine_similarity(zero, zero) == 0.0


def test_cosine_dimension_mismatch():
    a = sentence_vector(["a"], table_of(a=(1.0, 0.0)))
    b = sentence_vector(["b"], table_of(b=(1.0, 0.0, 0.0)))
    with pytest.raises(DimensionMismatch, match="dims 2 and 3"):
        cosine_similarity(a, b)
    # and in the sequence form, between the sequences or within one
    with pytest.raises(DimensionMismatch, match="dims 2 and 3"):
        cosine_similarity([a, a], [b])
    for first, second in (([a, b], [a]), ([a], [a, b])):
        with pytest.raises(DimensionMismatch):
            cosine_similarity(first, second)
    assert cosine_similarity([a], []) == [[]]
    assert cosine_similarity([], [b]) == []


def random_vector(rng: random.Random, dim: int) -> tuple[float, ...]:
    return tuple(rng.uniform(-1, 1) for _ in range(dim))


def test_cosine_symmetry_exact():
    rng = random.Random(11)
    for _ in range(200):
        dim = rng.randint(1, 8)
        table = table_of(a=random_vector(rng, dim), b=random_vector(rng, dim))
        a = sentence_vector(["a"], table)
        b = sentence_vector(["b"], table)
        assert cosine_similarity(a, b) == cosine_similarity(b, a)


def test_cosine_bounds_and_clamp():
    rng = random.Random(13)
    for _ in range(500):
        dim = rng.randint(1, 6)
        table = table_of(a=random_vector(rng, dim), b=random_vector(rng, dim))
        value = cosine_similarity(
            sentence_vector(["a"], table), sentence_vector(["b"], table)
        )
        assert -1.0 <= value <= 1.0


def test_cosine_scale_invariance():
    rng = random.Random(17)
    for _ in range(100):
        base = random_vector(rng, 5)
        scale = rng.uniform(0.01, 100.0)
        scaled = tuple(c * scale for c in base)
        probe = random_vector(rng, 5)
        t1 = table_of(a=base, p=probe)
        t2 = table_of(a=scaled, p=probe)
        v1 = cosine_similarity(sentence_vector(["a"], t1), sentence_vector(["p"], t1))
        v2 = cosine_similarity(sentence_vector(["a"], t2), sentence_vector(["p"], t2))
        assert abs(v1 - v2) <= 1e-9


def test_mean_pool_permutation_stability():
    rng = random.Random(19)
    words = {f"w{i}": random_vector(rng, 6) for i in range(8)}
    table = table_of(**words)
    tokens = list(words)
    probe = sentence_vector([tokens[0]], table)
    base = cosine_similarity(sentence_vector(tokens, table), probe)
    for _ in range(30):
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        got = cosine_similarity(sentence_vector(shuffled, table), probe)
        assert abs(got - base) <= 1e-12


def test_mean_pool_brute_force_oracle():
    rng = random.Random(23)
    words = {f"w{i}": random_vector(rng, 4) for i in range(5)}
    table = table_of(**words)
    tokens = ["w0", "w1", "w2", "w0"]
    sv = sentence_vector(tokens, table)
    manual = [
        sum(words[t][d] for t in tokens) / len(tokens) for d in range(4)
    ]
    np.testing.assert_allclose(sv.values, manual, atol=1e-15)


def loop_mean_pool(tokens: list[str], table: EmbeddingTable) -> tuple[bytes, int, int]:
    """Reference mean-pool: add each known token's row left to right."""
    acc = np.zeros(table.dim, dtype=np.float64)
    covered = 0
    for tok in tokens:
        row = table.index.get(tok)
        if row is not None:
            acc = acc + table.matrix[row]
            covered += 1
    if covered > 0:
        acc = acc / covered
    return acc.tobytes(), covered, len(tokens)


def pool_bits(sv) -> tuple[bytes, int, int]:
    return sv.values.tobytes(), sv.covered, sv.total


@pytest.mark.parametrize("dim", [1, 2, 50])
def test_text_pools_as_its_token_list_bit_for_bit(dim):
    rng = random.Random(dim)
    words = ["don't", "stop-gap", "naïve", "straße", "東京", "ǆemal", "o'neil", "x-ray"]
    words += [f"w{i}" for i in range(60)]
    # the two tables share most tokens, at other rows and with other values
    first = table_of(**vectors_of(words[:50], dim, rng))
    second = table_of(**vectors_of(words[::-1][:50], dim, rng))
    marks = ["", "", "", *"'\"()?!…¿«»—-", "...", "?!"]
    spaces = [" ", " ", "  ", "\t", "\n", "\u3000"]

    def piece():
        word = rng.choice([*words, "oov", "Oov-Two", "DON'T", "Straße"])
        return rng.choice(marks) + word + rng.choice(marks)

    def random_text():
        parts = [rng.choice([piece(), piece(), "?!", "…"]) for _ in range(rng.randint(1, 15))]
        return "".join(part + rng.choice(spaces) for part in parts)

    texts = ["", "?", "?! …", "don't stop-gap", "«naïve»\t東京?\n"]
    texts += [random_text() for _ in range(1500)]
    for text in texts:
        tokens = tokenize(text)
        for table in (first, second):
            pooled = sentence_vector(text, table)
            assert pool_bits(pooled) == pool_bits(sentence_vector(tokens, table))
            rows = [table.index[t] for t in tokens if t in table.index]
            if rows:
                mean = table.matrix[rows].sum(axis=0) / len(rows)
                assert pooled.values.tobytes() == mean.tobytes()
    # a second pass gives the same bits: pooling leaves the table as it found it
    assert [pool_bits(sentence_vector(t, first)) for t in texts] == [
        pool_bits(sentence_vector(tokenize(t), first)) for t in texts
    ]


def vectors_of(words: list[str], dim: int, rng: random.Random) -> dict[str, tuple[float, ...]]:
    """A vector per word, with magnitudes over six decades, so that any
    change in the order of the additions shows in the last bits."""
    return {
        w: tuple(rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-3, 3) for _ in range(dim))
        for w in words
    }


@pytest.mark.parametrize("dim", [2, 50])
def test_gathered_mean_pool_matches_loop_bit_for_bit(dim):
    rng = np.random.default_rng(29)
    words = [f"w{i}" for i in range(200)]
    # magnitudes spread over six decades, so any change in the order of
    # the additions shows in the last bits
    rows = rng.normal(size=(len(words), dim)) * 10.0 ** rng.uniform(-3, 3, (len(words), 1))
    table = load_vectors(
        "\n".join(f"{w} " + " ".join(repr(v) for v in row) for w, row in zip(words, rows.tolist()))
    )
    vocab = words + ["oov1", "oov2"]
    cases = [[], ["oov1"], ["oov1", "oov2"], ["w0"], ["w0"] * 12]
    for _ in range(3000):
        picks = rng.integers(0, len(vocab), size=int(rng.integers(1, 40)))
        cases.append([vocab[i] for i in picks])
    for tokens in cases:
        sv = sentence_vector(tokens, table)
        assert (sv.values.tobytes(), sv.covered, sv.total) == loop_mean_pool(tokens, table)
