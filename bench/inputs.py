"""Seeded benchmark inputs: SQuAD-format corpora and GloVe-style vector files.

Corpora follow the approach of ``make_squad_doc`` in ``tests/conftest.py``:
each answer is a span copied out of its context and located with
``str.index``, so every offset is valid by construction. Context text is
drawn from a fixed pseudo-word lexicon with a Zipf-like word frequency,
and every sentence opens with a capitalized name, which is what the mock
backend builds its questions around.

The vector vocabulary (lexicon, numbers, function words and the mock
backend's template words) does not depend on the seed, so one vector file
per (rows, dim) serves every seed, the way one GloVe file serves every
dataset. Rows beyond the vocabulary are filler tokens that no corpus uses,
which pads the file to GloVe size. All files are cached under the cache
directory, keyed by their parameters (and the seed for corpora), and are
written to a temporary name and renamed, so an interrupted build never
leaves a partial file behind.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import random
from pathlib import Path

import numpy as np

# bump when the generated bytes change, so stale cache entries are not reused
GENERATOR_VERSION = 1

LEXICON_SIZE = 9000
LEXICON_SEED = 20231028
VECTOR_SEED = 50
YEARS = range(1000, 2100)
PARAGRAPHS_PER_ARTICLE = 40  # SQuAD v1.1 dev averages about 43

_SYLLABLES = [
    c + v
    for c in ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "th", "sh")
    for v in ("a", "e", "i", "o", "u", "ai", "or")
]

FUNCTION_WORDS = (
    "the of in on at to from with by for and a an as was were is are its "
    "which that who what when where how did does do many much year after "
    "before during under over near between"
).split()

# words MockBackend's question forms introduce (see qgen.promptgen)
MOCK_TEMPLATE_WORDS = (
    "what is mentioned about who associated with when relevant in the "
    "passage does text say"
).split()

_CONNECTIVES = ("of", "in", "at", "with", "by", "for", "and", "near", "under")
_QUESTION_OPENERS = (
    ("What", "did"),
    ("Which", "was"),
    ("Who", "was"),
    ("When", "did"),
    ("How", "many"),
    ("Where", "was"),
)


def lexicon() -> list[str]:
    """The fixed content vocabulary: distinct lowercase pseudo-words."""
    rng = random.Random(LEXICON_SEED)
    words: list[str] = []
    seen = set(FUNCTION_WORDS) | set(MOCK_TEMPLATE_WORDS)
    while len(words) < LEXICON_SIZE:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def vocabulary() -> list[str]:
    """Every token a generated corpus or a mock completion can produce."""
    vocab = dict.fromkeys(FUNCTION_WORDS + MOCK_TEMPLATE_WORDS)
    vocab.update(dict.fromkeys(str(y) for y in YEARS))
    vocab.update(dict.fromkeys(lexicon()))
    return list(vocab)


class _ZipfWords:
    """Draws lexicon words with probability proportional to 1 / rank."""

    def __init__(self, words: list[str], rng: random.Random) -> None:
        self.words = words
        self.rng = rng
        self.cumulative = list(itertools.accumulate(1.0 / r for r in range(1, len(words) + 1)))

    def draw(self) -> str:
        x = self.rng.random() * self.cumulative[-1]
        return self.words[min(bisect.bisect_left(self.cumulative, x), len(self.words) - 1)]


def _sentence(words: _ZipfWords, rng: random.Random) -> str:
    name = f"{words.draw().capitalize()} {words.draw().capitalize()}"
    body = []
    for _ in range(rng.randint(9, 17)):
        body.append(words.draw() if rng.random() < 0.8 else rng.choice(_CONNECTIVES))
    if rng.random() < 0.5:
        body.insert(rng.randrange(len(body) + 1), f"in {rng.choice(YEARS)}")
    return f"{name} {' '.join(body)}."


def _question(sentence: str, words: _ZipfWords, rng: random.Random) -> tuple[str, str]:
    """A question about one sentence and its answer, a span of that sentence."""
    tokens = sentence.rstrip(".").split()
    length = rng.randint(1, 3)
    start = rng.randrange(len(tokens) - length + 1)
    answer = " ".join(tokens[start : start + length])
    rest = tokens[:start] + tokens[start + length :]
    opener, verb = rng.choice(_QUESTION_OPENERS)
    picked = sorted(rng.sample(range(len(rest)), min(len(rest), rng.randint(4, 8))))
    topic = " ".join(rest[i].lower() for i in picked)
    return f"{opener} {verb} the {topic} {words.draw()}?", answer


def build_squad_doc(n_contexts: int, seed: int) -> dict:
    """A SQuAD v1.1 document of ``n_contexts`` paragraphs with 4-6 questions each."""
    rng = random.Random(seed)
    words = _ZipfWords(lexicon(), rng)
    data: list[dict] = []
    qid = 0
    for i in range(n_contexts):
        sentences = [_sentence(words, rng) for _ in range(rng.randint(5, 8))]
        context = " ".join(sentences)
        qas = []
        for _ in range(rng.randint(4, 6)):
            question, answer = _question(rng.choice(sentences), words, rng)
            qas.append(
                {
                    "id": f"bench-{seed}-{qid:06d}",
                    "question": question,
                    "answers": [{"text": answer, "answer_start": context.index(answer)}],
                }
            )
            qid += 1
        if i % PARAGRAPHS_PER_ARTICLE == 0:
            data.append({"title": f"Article {len(data)}", "paragraphs": []})
        data[-1]["paragraphs"].append({"context": context, "qas": qas})
    return {"version": "1.1", "data": data}


def _component_pool() -> np.ndarray:
    """65,536 formatted vector components, each exactly 9 bytes wide.

    Positive values carry six decimals and negative ones five, so that
    every entry, with its leading space, has the same width; that lets a
    whole row be sliced out of one byte buffer.
    """
    rng = np.random.default_rng(VECTOR_SEED)
    values = np.clip(rng.normal(0.0, 0.4, 1 << 16), -0.99999, 0.999999)
    return np.array(
        [(f" {v:.6f}" if v >= 0 else f" {v:.5f}").encode() for v in values.tolist()],
        dtype="S9",
    )


def write_vector_file(path: Path, rows: int, dim: int) -> None:
    """The vocabulary's vectors, then filler tokens up to ``rows`` rows."""
    vocab = vocabulary()
    if rows < len(vocab):
        raise ValueError(f"rows={rows} is below the {len(vocab)}-token vocabulary")
    pool = _component_pool()
    rng = np.random.default_rng(VECTOR_SEED + dim)
    width = 9 * dim
    tokens = itertools.chain(vocab, (f"filler_{i:07d}" for i in range(rows - len(vocab))))
    with open(path, "wb") as fh:
        for chunk_start in range(0, rows, 50_000):
            n = min(50_000, rows - chunk_start)
            block = pool[rng.integers(0, len(pool), size=(n, dim))].tobytes()
            fh.write(
                b"".join(
                    tok.encode() + block[i * width : (i + 1) * width] + b"\n"
                    for i, tok in enumerate(itertools.islice(tokens, n))
                )
            )


def _cached(path: Path, build) -> Path:
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            build(tmp)
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)
    return path


def corpus_file(cache: Path, n_contexts: int, seed: int) -> Path:
    path = cache / f"squad-c{n_contexts}-s{seed}-g{GENERATOR_VERSION}.json"

    def build(tmp: Path) -> None:
        doc = build_squad_doc(n_contexts, seed)
        tmp.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")

    return _cached(path, build)


def vector_file(cache: Path, rows: int, dim: int) -> Path:
    path = cache / f"vectors-r{rows}-d{dim}-g{GENERATOR_VERSION}.txt"
    return _cached(path, lambda tmp: write_vector_file(tmp, rows, dim))


def corpus_counts(path: Path) -> tuple[int, int]:
    """(contexts, baseline questions) in a SQuAD-format file."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    paragraphs = [p for article in doc["data"] for p in article["paragraphs"]]
    return len(paragraphs), sum(len(p["qas"]) for p in paragraphs)
