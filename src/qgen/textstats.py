"""Dataset exploration figures: question-length histogram and keyword counts.

Question length is counted in whitespace tokens. Outliers are excluded
with the Tukey fences of ``scoring.summarize`` and reported in
``excluded_outliers`` so the totals always reconcile. Keyword counts are
lowercased, punctuation-stripped tokens with stopwords removed. Both
outputs serialize to small CSV tables, yielded line by line, for external
plotting; no images are rendered here.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import IO, Collection, Iterable, Iterator

from .errors import EmptyInput
from .scoring import summarize
from .similarity import text_lines, tokenize


@dataclass(frozen=True)
class Histogram:
    bin_edges: tuple[int, ...]
    counts: tuple[int, ...]
    excluded_outliers: int


def question_length_histogram(questions: list[str], bin_width: int = 1) -> Histogram:
    """Histogram of whitespace-token question lengths, Tukey outliers removed.

    Bins are half-open ``[lo, lo + bin_width)`` integer-edged intervals
    covering the retained lengths; lengths outside
    ``[Q1 - 1.5*IQR, Q3 + 1.5*IQR]`` are dropped from the bins and counted
    in ``excluded_outliers``, so ``sum(counts) + excluded_outliers`` always
    equals the number of questions.
    """
    if bin_width < 1:
        raise ValueError("bin_width must be at least 1")
    if not questions:
        raise EmptyInput("no questions to histogram")
    lengths = [len(q.split()) for q in questions]
    # the whiskers are the extreme lengths inside the Tukey fences
    stats = summarize(lengths)
    lo = int(stats.whisker_lo)
    hi = int(stats.whisker_hi)
    n_bins = max(1, math.ceil((hi - lo + 1) / bin_width))
    edges = [lo + i * bin_width for i in range(n_bins + 1)]
    counts = [0] * n_bins
    for value in lengths:
        if lo <= value <= hi:
            counts[(value - lo) // bin_width] += 1
    return Histogram(
        bin_edges=tuple(edges),
        counts=tuple(counts),
        excluded_outliers=len(stats.outliers),
    )


def frequent_words(
    questions: list[str], stopwords: Collection[str], top_k: int
) -> tuple[tuple[str, int], ...]:
    """Top-k (token, count) pairs of all questions, stopwords and empties removed.

    Ordered by count descending, ties broken lexicographically; empty when
    no token survives. Each distinct text is tokenized once and its tokens
    counted as often as the text occurs.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    counts: dict[str, int] = {}
    for q, times in Counter(questions).items():
        for tok in tokenize(q):
            if tok in stopwords:
                continue
            counts[tok] = counts.get(tok, 0) + times
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(ranked[:top_k])


def load_stopwords(source: str | IO | Iterable[str]) -> frozenset[str]:
    """Read a stopword file: one lowercase token per line, '#' comments.

    A string is split into lines by :func:`qgen.similarity.text_lines`.
    """
    words = set()
    for raw in text_lines(source):
        line = raw.split("#", 1)[0].strip()
        if line:
            words.add(line.lower())
    return frozenset(words)


def bundled_stopwords() -> frozenset[str]:
    text = resources.files("qgen").joinpath("data/stopwords.txt").read_text("utf-8")
    return load_stopwords(text)


def histogram_to_csv(hist: Histogram) -> Iterator[str]:
    yield "bin_lo,bin_hi,count\n"
    for i, count in enumerate(hist.counts):
        lo = hist.bin_edges[i]
        hi = hist.bin_edges[i + 1]
        yield f"{lo},{hi},{count}\n"


def keywords_to_csv(entries: tuple[tuple[str, int], ...]) -> Iterator[str]:
    yield "token,count\n"
    for token, count in entries:
        yield f"{csv_quote(token)},{count}\n"


def csv_quote(text: str) -> str:
    """RFC 4180 field: quoted, with doubled quotes, when it holds , " or newline."""
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text
