"""Dataset statistics: length histogram and keyword frequencies."""

from __future__ import annotations

import random

import pytest

from qgen.errors import EmptyInput
from qgen.similarity import tokenize
from qgen.textstats import (
    Histogram,
    bundled_stopwords,
    frequent_words,
    histogram_to_csv,
    keywords_to_csv,
    load_stopwords,
    question_length_histogram,
)


def make_questions(lengths: list[int]) -> list[str]:
    return [" ".join(["w"] * n) for n in lengths]


# -- histogram ----------------------------------------------------------------

def test_histogram_identical_lengths_single_bin():
    hist = question_length_histogram(make_questions([7, 7, 7]))
    assert hist.counts == (3,)
    assert hist.bin_edges == (7, 8)
    assert hist.excluded_outliers == 0


def test_histogram_excludes_tukey_outlier():
    hist = question_length_histogram(make_questions([5, 5, 5, 5, 100]))
    assert hist.excluded_outliers == 1
    assert sum(hist.counts) == 4
    assert hist.bin_edges == (5, 6)


def test_histogram_counts_plus_outliers_conserved():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(1, 40)
        lengths = [rng.randint(1, 30) for _ in range(n)]
        if rng.random() < 0.3:
            lengths.append(rng.randint(100, 200))
        hist = question_length_histogram(make_questions(lengths))
        assert sum(hist.counts) + hist.excluded_outliers == len(lengths)


def test_histogram_bin_width():
    hist = question_length_histogram(make_questions([1, 2, 3, 4, 5, 6]), bin_width=2)
    assert hist.bin_edges == (1, 3, 5, 7)
    assert hist.counts == (2, 2, 2)
    assert sum(hist.counts) == 6


def test_histogram_half_open_bins():
    hist = question_length_histogram(make_questions([1, 1, 2, 3]))
    # edges 1,2,3,4 with counts per unit-width bin [lo, lo+1)
    assert hist.bin_edges == (1, 2, 3, 4)
    assert hist.counts == (2, 1, 1)


def test_histogram_rejects_empty_and_bad_width():
    with pytest.raises(EmptyInput):
        question_length_histogram([])
    with pytest.raises(ValueError):
        question_length_histogram(["a b"], bin_width=0)


def test_histogram_edges_are_integers():
    hist = question_length_histogram(make_questions([3, 4, 9]))
    assert all(isinstance(e, int) for e in hist.bin_edges)


# -- keywords -------------------------------------------------------------------

def test_frequent_words_example():
    kw = frequent_words(["the cat", "the dog", "the cat"], {"the"}, top_k=2)
    assert kw == (("cat", 2), ("dog", 1))


def test_frequent_words_all_stopwords_is_empty():
    assert frequent_words(["the the", "a an"], {"the", "a", "an"}, top_k=5) == ()
    assert frequent_words([], {"the"}, top_k=5) == ()


def test_frequent_words_permutation_invariant():
    questions = ["what is alpha", "where is beta", "what was gamma"]
    stop = {"is", "was"}
    base = frequent_words(questions, stop, top_k=10)
    rng = random.Random(3)
    for _ in range(20):
        shuffled = list(questions)
        rng.shuffle(shuffled)
        assert frequent_words(shuffled, stop, top_k=10) == base


def test_frequent_words_ties_break_lexicographically():
    # zeta, alpha, and mid all appear twice: order falls back to lexicographic
    kw = frequent_words(["zeta alpha", "zeta alpha", "mid mid"], set(), top_k=4)
    assert kw == (("alpha", 2), ("mid", 2), ("zeta", 2))


def test_frequent_words_lowercases_and_strips_punctuation():
    kw = frequent_words(["What? WHAT! (what)"], set(), top_k=1)
    assert kw == (("what", 3),)


def per_question_counts(questions, stopwords, top_k):
    """frequent_words as each question tokenized on its own."""
    counts = {}
    for q in questions:
        for tok in tokenize(q):
            if tok not in stopwords:
                counts[tok] = counts.get(tok, 0) + 1
    return tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k])


def test_frequent_words_repeated_texts_match_per_question_count():
    pool = [
        "What is the capital of France?",
        "what is THE capital of france",
        "Who wrote it?",
        "the the a",
        "Why did the war end in 1945?",
        "",
    ]
    stop = bundled_stopwords()
    rng = random.Random(11)
    for _ in range(50):
        questions = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
        for top_k in (1, 3, 100):
            assert frequent_words(questions, stop, top_k) == per_question_counts(
                questions, stop, top_k
            )


def test_frequent_words_top_k_truncates():
    kw = frequent_words(["a b c d e"], set(), top_k=2)
    assert len(kw) == 2
    with pytest.raises(ValueError):
        frequent_words(["a"], set(), top_k=0)


# -- stopwords -------------------------------------------------------------------

def test_load_stopwords_comments_and_blanks():
    text = "# header\nthe\n\nand # trailing\n  OF  \n"
    words = load_stopwords(text)
    assert words == frozenset({"the", "and", "of"})


@pytest.mark.parametrize(
    "text",
    ["the\x85a\n", "the\u2028a\n", "the\x0ba\x0cb\n", "the\r\na\rb\n"],
    ids=["nel", "line-separator", "vt-ff", "crlf-cr"],
)
def test_load_stopwords_string_splits_lines_like_a_file(tmp_path, text):
    path = tmp_path / "stop.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        from_file = load_stopwords(fh)
    assert load_stopwords(text) == from_file


def test_bundled_stopwords_nonempty_lowercase():
    words = bundled_stopwords()
    assert len(words) >= 50
    assert all(w == w.lower() for w in words)
    assert {"the", "a", "of", "and", "is"} <= words


# -- csv ---------------------------------------------------------------------------

def test_histogram_csv_shape():
    hist = question_length_histogram(make_questions([1, 2, 2, 3]))
    lines = "".join(histogram_to_csv(hist)).splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 1 + len(hist.counts)
    assert lines[1] == "1,2,1"


def test_keywords_csv_escapes():
    # entries are normally punctuation-free; exercise escaping anyway
    csv = "".join(keywords_to_csv((("plain", 3), ('qu"ote', 2), ("com,ma", 1))))
    lines = csv.splitlines()
    assert lines[0] == "token,count"
    assert lines[1] == "plain,3"
    assert lines[2] == '"qu""ote",2'
    assert lines[3] == '"com,ma",1'
