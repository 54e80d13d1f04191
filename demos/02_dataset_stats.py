"""Dataset exploration: question-length histogram and frequent keywords.

Reproduces the two descriptive views used when sizing up a question
corpus: how long the questions are (with Tukey outliers excluded from
the bins but still accounted for) and which content words dominate once
stopwords are removed.
"""

from pathlib import Path

from qgen import (
    bundled_stopwords,
    frequent_words,
    histogram_to_csv,
    keywords_to_csv,
    load_squad,
    question_length_histogram,
)

DATA = Path(__file__).parent / "data" / "mini_squad.json"

dataset = load_squad(DATA)
questions = dataset.questions()
print(f"{len(questions)} questions")
print()

hist = question_length_histogram(questions)
print("question length histogram (whitespace tokens per question):")
for (lo, hi), count in zip(
    zip(hist.bin_edges[:-1], hist.bin_edges[1:]), hist.counts
):
    bar = "#" * count
    print(f"  [{lo:2d},{hi:2d}): {count:3d} {bar}")
print(f"  outliers excluded from bins: {hist.excluded_outliers}")
# conservation: every question lands in a bin or is an outlier
assert sum(hist.counts) + hist.excluded_outliers == len(questions)
print()

stopwords = bundled_stopwords()
keywords = frequent_words(questions, stopwords, top_k=10)
print("top keywords after stopword removal:")
for token, count in keywords:
    print(f"  {token:12s} {count}")
print()

# The same views serialize to CSV for external plotting, yielded line by line.
print("--- fig1_lengths.csv ---")
print("".join(histogram_to_csv(hist)))
print("--- fig2_keywords.csv ---")
print("".join(keywords_to_csv(keywords)))
