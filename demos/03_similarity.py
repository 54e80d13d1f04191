"""Sentence similarity from word vectors, step by step.

Loads a small deterministic vector file, builds mean-pooled sentence
vectors, and walks through the properties the scoring layer relies on:
self-similarity, symmetry, tokenization behavior, out-of-vocabulary
handling, and the zero-vector policy. Of the file's vectors, only those
of the tokens of the sentences scored here are selected, as a run does.
"""

from pathlib import Path

from qgen import cosine_similarity, load_vectors_path, sentence_vector, tokenize, vocabulary

VECTORS = Path(__file__).parent / "data" / "vectors_50d.txt"

pairs = [
    ("Who opened the first clock workshop?",
     "Who opened the first clock workshop?"),
    ("Who opened the first clock workshop?",
     "The first clock workshop was opened by whom?"),
    ("Who opened the first clock workshop?",
     "How long is the River Kess?"),
]
MIXED = "Who visited Zanzibar wearing chartreuse snowshoes?"
UNKNOWN = "zxqv qqvz vqzx"

# Loading checks every row but keeps in memory no token and no vector,
# only a hash of each token with its row, and spools the rows to an
# unlinked temporary file; select reads from the spool the rows of just
# the tokens the sentences use, into an in-memory table.
loaded = load_vectors_path(VECTORS)
table = loaded.select(vocabulary([text for pair in pairs for text in pair] + [MIXED, UNKNOWN]))
print(f"loaded {len(loaded)} vectors of dimension {loaded.dim}, selected {len(table)}")
print()

# Tokenization lowercases, splits on whitespace, and strips edge
# punctuation while keeping interior apostrophes and hyphens.
print(tokenize("Who designed the largest weir on the River Kess?"))
print(tokenize("It kept time -- within two seconds per day!"))
print()

for left, right in pairs:
    a = sentence_vector(left, table)
    b = sentence_vector(right, table)
    forward = cosine_similarity(a, b)
    backward = cosine_similarity(b, a)
    assert forward == backward  # symmetric, exactly
    print(f"{forward:6.3f}  {left!r} vs {right!r}")
print()

# Out-of-vocabulary tokens are skipped but counted; a fully unknown
# sentence gets the zero vector and compares as 0.0 to everything.
mixed = sentence_vector(MIXED, table)
print(f"mixed sentence: covered {mixed.covered} of {mixed.total} tokens")
unknown = sentence_vector(UNKNOWN, table)
known = sentence_vector("Who opened the first clock workshop?", table)
print(f"fully unknown sentence: is_zero={unknown.is_zero}, "
      f"cosine vs known = {cosine_similarity(unknown, known)}")
