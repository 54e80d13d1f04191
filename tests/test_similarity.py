"""Word-vector loading, tokenization, pooling, and cosine similarity."""

from __future__ import annotations

import random

import numpy as np
import pytest

from qgen import similarity
from qgen.errors import BadFloat, DimensionMismatch, DuplicateToken
from qgen.similarity import (
    EmbeddingTable,
    cosine_similarity,
    load_vectors,
    load_vectors_path,
    sentence_vector,
    tokenize,
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
    assert "cat" in table and "fox" not in table
    np.testing.assert_array_equal(table.matrix[table.index["cat"]], [1.0, 0.0])


def test_load_skips_word2vec_header():
    table = load_vectors("2 3\ncat 1 2 3\ndog 4 5 6\n")
    assert table.dim == 3
    assert len(table) == 2
    assert "2" not in table


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
    assert "paris" in table
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


# (file bytes, None for a successful load or (error class, text in message))
LOADER_CASES = {
    "word2vec-header": (b"2 3\ncat 1 2 3\ndog 4 5 6\n", None),
    "header-like-first-row": (b"2 3\n22 1\n", None),
    "blank-lines": (b"\ncat 1.0\n\n\ndog 2.0\n", None),
    "crlf": (b"cat 1 2\r\ndog 3 4\r\n", None),
    "tab": (b"cat\t1 2\ndog 3\t4\n", None),
    "double-space": (b"cat  1 2\ndog 3  4\n", None),
    "trailing-space": (b"cat 1 2 \ndog 3 4 \n", None),
    "leading-space": (b"cat 1 2\n 3 4\n", (DimensionMismatch, "line 2")),
    "lowercase-duplicate": (b"Cat 1 2\ncat 3 4\n", (DuplicateToken, "line 2")),
    "underscore-digits": (b"cat 1_000 2\ndog 3 4\n", None),
    "fullwidth-digit": ("cat \uff11 2\ndog 3 4\n".encode(), None),
    "inf-nan": (b"cat inf -nan\ndog -inf -0.0\n", None),
    "non-ascii-tokens": ("caf\u00e9 1 2\n\u0130stanbul 3 4\n".encode(), None),
    "nbsp-token": ("7\u00a01 2\ndog 3\n".encode(), (DimensionMismatch, "line 2")),
    "nel-token": ("7\u00851 2\ndog 3\n".encode(), (DimensionMismatch, "line 2")),
    "short-row": (b"cat 1 2\ndog 3\n", (DimensionMismatch, "line 2")),
    "long-row": (b"cat 1 2\ndog 3 4 5\n", (DimensionMismatch, "line 2")),
    "bad-float-last-line": (b"cat 1 2\ndog 3 4\nfox 5 oops\n", (BadFloat, "line 3")),
    "empty": (b"", None),
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
    if error is None:
        assert isinstance(got[0], int)
    else:
        assert got[0] is error[0] and error[1] in got[1]


def test_regular_file_skips_line_parser(monkeypatch, tmp_path, demo_vectors_path):
    def line_parser(source):
        raise AssertionError("per-line parser reached")

    monkeypatch.setattr(similarity, "load_vectors", line_parser)
    table = load_vectors_path(demo_vectors_path)
    assert table.dim == 50 and table.matrix.shape == (len(table), 50)
    with pytest.raises(ValueError):
        table.matrix[0, 0] = 1.0

    text = demo_vectors_path.read_text(encoding="utf-8")
    header = tmp_path / "header.txt"
    header.write_text(f"{len(table)} 50\n{text}", encoding="utf-8")
    assert load_vectors_path(header).matrix.tobytes() == table.matrix.tobytes()
    tabbed = tmp_path / "tabbed.txt"
    tabbed.write_text(text.replace(" ", "\t", 1), encoding="utf-8")
    with pytest.raises(AssertionError, match="per-line parser reached"):
        load_vectors_path(tabbed)


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
