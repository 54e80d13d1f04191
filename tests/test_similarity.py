"""Word-vector loading, tokenization, pooling, and cosine similarity."""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
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
    VectorFileChanged,
)
from qgen.similarity import (
    EmbeddingTable,
    VectorRows,
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


def load_outcome(load) -> tuple:
    """What a load gives, comparable across paths: (dim, tokens in order,
    matrix bytes) on success, (error class, message) on failure."""
    try:
        table = load()
    except Exception as exc:
        return type(exc), str(exc)
    return table.dim, list(table.index), table.matrix.tobytes()


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

    got = load_outcome(lambda: load_vectors_path(path))
    assert got == load_outcome(line_parser)
    assert got == load_outcome(lambda: load_vectors(content.decode("utf-8")))
    if error is None:
        assert isinstance(got[0], int)
    elif isinstance(error[0], int):
        assert got[:2] == error
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
    def line_parser(source):
        raise AssertionError("per-line parser reached")

    monkeypatch.setattr(similarity, "load_vectors", line_parser)
    table = load_vectors_path(demo_vectors_path)
    assert table.dim == 50 and table.matrix.shape == (len(table), 50)
    assert table.matrix is table.matrix
    with pytest.raises(ValueError):
        table.matrix[0, 0] = 1.0

    text = demo_vectors_path.read_text(encoding="utf-8")
    with open(demo_vectors_path, encoding="utf-8") as fh:
        reference = load_vectors(fh)
    assert table.matrix.tobytes() == reference.matrix.tobytes()
    assert table.index == reference.index
    first, rest = text.split("\n", 1)
    variants = {
        "header": f"{len(table)} 50\n{text}",
        "crlf": text.replace("\n", "\r\n"),
        "blank-line": f"{first}\n\n{rest}",
        "no-final-newline": text.rstrip("\n"),
    }
    for name, variant in variants.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(variant, encoding="utf-8", newline="")
        got = load_vectors_path(path)
        assert got.matrix.tobytes() == reference.matrix.tobytes(), name
        assert got.index == reference.index, name
    tabbed = tmp_path / "tabbed.txt"
    tabbed.write_text(text.replace(" ", "\t", 1), encoding="utf-8")
    with pytest.raises(AssertionError, match="per-line parser reached"):
        load_vectors_path(tabbed)


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
}


@pytest.mark.parametrize("content, error", BLOCK_CASES.values(), ids=BLOCK_CASES)
def test_block_boundaries(monkeypatch, tmp_path, content, error):
    monkeypatch.setattr(similarity, "BLOCK_LINES", 2)
    path = tmp_path / "vectors.txt"
    path.write_bytes(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = load_outcome(lambda: load_vectors_path(path))
    # loadtxt warns "input contained no data" when handed no rows
    assert [str(w.message) for w in caught] == []
    assert got == load_outcome(lambda: load_vectors(content.decode("utf-8")))
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
    assert starts == [(6, ["cat", "dog", "emu"], 2)]
    # a block the per-line parser accepts: the whole file is parsed again
    starts.clear()
    path.write_bytes(b"cat 1 2\ndog 3 4\nemu 5\t6\nfox 7 8\n")
    table = load_vectors_path(path)
    assert starts == [(3, ["cat", "dog"], 2), (1, [], None)]
    assert isinstance(table.source, np.ndarray)
    assert list(table.index) == ["cat", "dog", "emu", "fox"]


def test_select_reads_back_only_the_given_rows(demo_vectors_path):
    with open(demo_vectors_path, encoding="utf-8") as fh:
        reference = load_vectors(fh)
    table = load_vectors_path(demo_vectors_path)
    assert isinstance(table.source, VectorRows) and len(table) == len(reference)
    tokens = list(reference.index)
    wanted = [tokens[100], tokens[0], tokens[5], "not-a-token", tokens[5]]
    for source in (table, reference):
        chosen = source.select(wanted)
        # an in-memory table of the known tokens, in row order
        assert list(chosen.index) == [tokens[0], tokens[5], tokens[100]]
        assert isinstance(chosen.source, np.ndarray) and chosen.dim == 50
        for token, row in chosen.index.items():
            expected = reference.matrix[reference.index[token]]
            assert chosen.matrix[row].tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            chosen.matrix[0, 0] = 1.0
        assert len(source.select([])) == 0
    assert "matrix" not in vars(table)
    # matrix reads every row back once and keeps it
    assert table.matrix is table.matrix
    assert table.matrix.tobytes() == reference.matrix.tobytes()


def edit_in_place(path, old: str, new: str) -> None:
    """Replace old with new in the file at path, keeping its byte length
    and its modification time."""
    stat = path.stat()
    text = path.read_text(encoding="utf-8")
    assert len(old.encode()) == len(new.encode()) and old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8", newline="")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert path.stat().st_mtime_ns == stat.st_mtime_ns


def test_file_edited_after_load_fails_its_read_back(tmp_path, demo_vectors_path):
    path = tmp_path / "vectors.txt"
    shutil.copy(demo_vectors_path, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    tokens = [line.split(" ")[0] for line in lines[:3]]
    table = load_vectors_path(path)
    # a component of row 1, then the token of row 2
    row1 = lines[1]
    digit = next(c for c in row1.split(" ", 2)[1] if c.isdigit())
    edited = row1.replace(digit, "7" if digit != "7" else "3", 1)
    edit_in_place(path, row1, edited)
    with pytest.raises(VectorFileChanged, match="differ from the file as it was loaded"):
        table.select([tokens[1]])
    with pytest.raises(VectorFileChanged):
        table.matrix
    # rows that are not read are not checked
    assert list(table.select([tokens[0], tokens[2]]).index) == [tokens[0], tokens[2]]
    edit_in_place(path, edited, row1)
    assert list(table.select(tokens).index) == tokens
    edit_in_place(path, f"\n{tokens[2]} ", f"\n{'x' * len(tokens[2])} ")
    with pytest.raises(VectorFileChanged):
        table.select([tokens[2]])
    path.write_text(lines[0] + "\n", encoding="utf-8")
    with pytest.raises(VectorFileChanged):
        table.select([tokens[1]])


def test_unreadable_file_fails_its_read_back(tmp_path, demo_vectors_path):
    path = tmp_path / "vectors.txt"
    shutil.copy(demo_vectors_path, path)
    data = path.read_bytes()
    tokens = [line.split(b" ")[0].decode() for line in data.split(b"\n")[:3]]
    table = load_vectors_path(path)
    # a byte that does not decode in row 2 fails a read-back of row 1 too,
    # as text mode decodes the file in chunks
    at = data.index(b"\n", data.index(b"\n") + 1) + 1
    path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
    for wanted in ([tokens[1]], [tokens[2]]):
        with pytest.raises(VectorFileChanged, match=f"^{path}: ") as err:
            table.select(wanted)
        assert isinstance(err.value.__cause__, UnicodeDecodeError)
    path.unlink()
    with pytest.raises(VectorFileChanged, match=f"^{path}: ") as err:
        table.select([tokens[0]])
    assert isinstance(err.value.__cause__, FileNotFoundError)


def test_read_back_parses_block_lines_rows_at_a_time(monkeypatch, tmp_path, demo_vectors_path):
    # read-back holds at most BLOCK_LINES picked lines and their rows; the
    # file has a header, blank lines and CRLF, so rows are not line numbers
    monkeypatch.setattr(similarity, "BLOCK_LINES", 2)
    lines = demo_vectors_path.read_text(encoding="utf-8").splitlines()
    text = f"{len(lines)} 50\r\n" + "".join(
        line + "\r\n" + "\r\n" * (i % 3 == 1) + "\n" * (i % 7 == 3)
        for i, line in enumerate(lines)
    )
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8", newline="")
    reference = load_vectors(text)
    table = load_vectors_path(path)
    assert isinstance(table.source, VectorRows)
    parsed = []
    parse_block = similarity._parse_block

    def counting(lines, dim):
        parsed.append(len(lines))
        return parse_block(lines, dim)

    monkeypatch.setattr(similarity, "_parse_block", counting)
    tokens = list(reference.index)
    chosen = table.select(tokens)
    assert chosen.matrix.tobytes() == reference.matrix.tobytes()
    assert table.matrix.tobytes() == reference.matrix.tobytes()
    # two passes over the 167 rows: 83 calls of 2 lines and one of 1 each
    assert parsed == ([2] * 83 + [1]) * 2 and len(tokens) == 167
    # a row the file no longer holds fails before any line is parsed
    parsed.clear()
    path.write_text(text[: len(text) // 2], encoding="utf-8", newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(VectorFileChanged, match=f"rows from {len(tokens) - 1} on"):
            table.select([tokens[-1]])
    assert [str(w.message) for w in caught] == []
    assert parsed == []


def test_tables_and_vectors_compare_by_identity(demo_vectors_path):
    # each holds a numpy array, which == would compare element by element
    a, b = load_vectors("cat 1 2\ndog 3 4\n"), load_vectors("cat 1 2\ndog 3 4\n")
    rows_a = load_vectors_path(demo_vectors_path).source
    rows_b = load_vectors_path(demo_vectors_path).source
    va, vb = sentence_vector("cat dog", a), sentence_vector("cat dog", b)
    for x, y in ((a, b), (rows_a, rows_b), (va, vb)):
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


def test_no_alphanumeric_code_point_is_punctuation():
    # tokenize keeps a piece with alphanumeric ends as it is, without
    # looking up its ends' categories
    both = [
        hex(cp)
        for cp in range(sys.maxunicode + 1)
        if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
    ]
    assert both == []


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
# length; whitespace str.split() knows
TOKEN_ALPHABET = (
    "aZé9٣ⅷß" "'-.,!?¿¡«»…—“”・、。()[]" "\u0301\u0307\u20dd" "$+€😀_" "İẞΣ" " \t\u00a0\u2028\x85"
)


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


def test_norm_is_numpy_norm_bit_for_bit():
    rng = random.Random(5)
    for dim in (1, 3, 50):
        values = np.array(random_vector(rng, dim))
        sv = similarity.SentenceVector(values=values, covered=1, total=1)
        assert sv.norm.hex() == float(np.linalg.norm(values)).hex()
        assert sv.norm is sv.norm  # computed once and kept


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
    with pytest.raises(DimensionMismatch):
        cosine_similarity(a, b)


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
