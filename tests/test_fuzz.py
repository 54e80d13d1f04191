"""Seeded fuzzing of the run-directory reader, the vector-file readers,
the dataset parser, the config loader, the question parser and `qgen run`.

For `qgen report`, each case copies the golden run in demos/out/full_run/ and makes one
mutation drawn from random.Random(seed): a JSON value replaced, deleted
or added at a random path of manifest.json, run.json or one scores.jsonl
line, or a scores.jsonl line duplicated, deleted, swapped or blanked.
`qgen report` must then exit 0 or 2 (data error); any exception that
escapes it fails the case, and so does an exit-2 message that carries
Python's own text for a value of the wrong kind instead of naming the
field. For the vector readers, each case mutates a small regular vector
file, written once with \\n and once with \\r\\n line ends, and the
path loader, the line parser on the open file and the line parser on the
text must give the same table or the same error, read in blocks of a
seeded size, and a seeded subset of the tokens of a file that loads must
read back the per-line parser's rows, also under a hash that makes two
file tokens, and a token outside the file and a file token, collide. A
longer mutated file, spanning several 8 KiB decode chunks, with a byte
sequence UTF-8 does not decode spliced in, must fail in the path loader as the per-line parser fails on
the lines a text-mode read yields before that byte, or else with
BadEncoding and the codec's reason. The dataset parser and
the config loader, given demos/data/mini_squad.json or a valid config
with 1 to 3 mutations (a value replaced, a key dropped or added, a list
item dropped or appended) or a document nested too deep to decode, may
raise only QgenError subclasses, and every record of a dataset the
parser accepts must read back equal to one built eagerly from the same
JSON. `parse_questions` given numbered, bulleted and inline items and
blank lines, joined by every line break, must return 1 to n non-empty
strings or raise NoQuestionsFound. `qgen run` on a mutated copy of
demos/data/vectors_50d.txt must exit 0 with a complete run, or 2 with a
failed manifest at stage "load" and no backend call. So must `qgen run`
on a mutated copy of demos/data/mini_squad.json (1 to 3 value
mutations as above, or 1 to 3 byte mutations: bytes put in or dropped,
or the text cut short, or both), read in pieces of the default size and
of 7 characters, as `parse_squad` accepts the file or not, and `qgen
stats` on it must exit 0 or 2 with it. The seeds are fixed, so the suite
stays deterministic.
"""

from __future__ import annotations

import json
import random
import shutil
from collections import Counter
from pathlib import Path

import pytest

from qgen import corpus, similarity
from qgen.cli import main
from qgen.corpus import Answer, BaselineQuestion, ContextRecord, parse_squad, reverse_dataset
from qgen.errors import BadEncoding, NoQuestionsFound, QgenError
from qgen.pipeline import RunConfig, load_config
from qgen.promptgen import parse_questions
from qgen.similarity import load_vectors, load_vectors_path
from test_similarity import colliding, file_tokens, load_outcome

GOLDEN = Path(__file__).resolve().parent.parent / "demos" / "out" / "full_run"
SEEDS = range(300)

# JSON texts of the values a mutation writes: every JSON type, the
# non-finite floats that Python's json reads, and strings run files hold
VALUES = (
    "null", "true", "false", "0", "-1", "5", "0.5", "1e400", "NaN", "-Infinity",
    '""', '"A"', '"high"', '"\\u2028"', "[]", "[0]", '[["b0", 0.5]]', "{}", '{"index": 0}',
)
# keys an added value goes under: unknown ones and fields the reader knows
NEW_KEYS = ("extra", "status", "cells", "config", "info", "index", "prompt_id", "per_baseline")
# what indexing a non-object or calling a dataclass with the wrong keys says
INTERNAL_TEXT = ("__init__()", "indices must be", "not subscriptable", "argument after **")


def _keys(node) -> list:
    return list(node) if isinstance(node, dict) else list(range(len(node)))


def mutate_json(text: str, rng: random.Random) -> tuple[str, str]:
    """text with one JSON value replaced, deleted or added at a random path,
    and where. The document sits in a list of top-level documents, so the
    whole document can be replaced or deleted, or a second one added."""
    top = [json.loads(text)]
    node, where = top, "$"
    while True:
        inner = [k for k in _keys(node) if isinstance(node[k], (dict, list))]
        if not inner or rng.random() < 0.4:
            break
        key = rng.choice(inner)
        node, where = node[key], f"{where}[{key!r}]"
    op = rng.choice(("replace", "delete", "add")) if _keys(node) else "add"
    value = json.loads(rng.choice(VALUES))
    if op == "add" and isinstance(node, dict):
        key = rng.choice(NEW_KEYS)
        node[key] = value
    elif op == "add":
        key = rng.randint(0, len(node))
        node.insert(key, value)
    else:
        key = rng.choice(_keys(node))
        if op == "replace":
            node[key] = value
        else:
            del node[key]
    return " ".join(json.dumps(doc) for doc in top), f"{op} {where}[{key!r}] = {value!r}"


def mutate_lines(lines: list[str], rng: random.Random) -> tuple[list[str], str]:
    """scores.jsonl's lines with one duplicated, deleted, swapped, blanked
    or changed by mutate_json, and what was done."""
    op = rng.choice(("duplicate", "delete", "swap", "blank", "json"))
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines = list(lines)
    if op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "delete":
        del lines[i]
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
        return lines, f"swap lines {i + 1} and {j + 1}"
    elif op == "blank":
        lines[i] = ""
    else:
        lines[i], what = mutate_json(lines[i], rng)
        return lines, f"line {i + 1}: {what}"
    return lines, f"{op} line {i + 1}"


def mutate_run(run_dir: Path, seed: int) -> str:
    """Make one mutation of the run files in run_dir; say what it was."""
    rng = random.Random(seed)
    name = rng.choice(("manifest.json", "run.json", "scores.jsonl"))
    path = run_dir / name
    text = path.read_text(encoding="utf-8")
    if name == "scores.jsonl":
        lines, what = mutate_lines(text.split("\n")[:-1], rng)
        text = "".join(line + "\n" for line in lines)
    else:
        text, what = mutate_json(text, rng)
    path.write_text(text, encoding="utf-8")
    return f"{name}: {what}"


def test_report_on_mutated_run_exits_0_or_2(tmp_path, capsys):
    escapes = []
    for seed in SEEDS:
        run_dir = tmp_path / str(seed)
        shutil.copytree(GOLDEN, run_dir)
        what = mutate_run(run_dir, seed)
        try:
            code = main(["report", "--run", str(run_dir)])
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code not in (0, 2) or any(text in err for text in INTERNAL_TEXT):
            escapes.append((seed, what, code, err))
    assert escapes == []


# -- vector files ----------------------------------------------------------------

VECTOR_SEEDS = range(2000)
# whitespace str.split() knows beside " ", and the \r a text-mode read
# turns into a line end
SPLICES = ("\t", "\xa0", "\x85", "\x0b", "\x0c", "\r", "  ")
# components float() reads but a regular file may not hold, or none reads
COMPONENTS = ("nan", "inf", "1_000", "\uff11", "\u0661", "1e400", "")
HEADERS = ("6 3", "2 3", "6 3 1", "6", "6  3", "\uff16 3", "\u0666 3", "0 0", "6 x")


def regular_vectors(rng: random.Random) -> list[str]:
    """The lines of a regular vector file: 6 tokens, 3 components each."""
    return [
        f"tok{i} " + " ".join(repr(round(rng.uniform(-1, 1), 4)) for _ in range(3))
        for i in range(6)
    ]


def mutate_vectors(lines: list[str], rng: random.Random) -> list[str]:
    """lines with one line inserted, deleted, duplicated or swapped, a
    character spliced in, a component replaced, a token made to collide
    with another after lowercasing, or a header-like first line added."""
    op = rng.choice(
        ("insert", "delete", "duplicate", "swap", "splice", "component", "collide", "header")
    )
    lines = list(lines)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if op == "insert":
        lines.insert(i, rng.choice(("", " ", "new 1 2 3", "new 1 2", "new")))
    elif op == "delete" and len(lines) > 1:
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif op == "splice":
        at = rng.randint(0, len(lines[i]))
        lines[i] = lines[i][:at] + rng.choice(SPLICES) + lines[i][at:]
    elif op == "component":
        parts = lines[i].split(" ")
        parts[rng.randrange(len(parts))] = rng.choice(COMPONENTS)
        lines[i] = " ".join(parts)
    elif op == "collide":
        lines[i] = lines[j].partition(" ")[0].upper() + " " + lines[i].partition(" ")[2]
    elif op == "header":
        lines.insert(0, rng.choice(HEADERS))
    return lines


def test_vector_readers_agree_on_mutated_files(tmp_path, monkeypatch):
    path = tmp_path / "vectors.txt"
    disagreements = []
    selects = shared = 0
    for seed in VECTOR_SEEDS:
        rng = random.Random(seed)
        lines = regular_vectors(rng)
        for _ in range(rng.randint(1, 3)):
            lines = mutate_vectors(lines, rng)
        # drawn after the mutations, so they are those of every seed before
        monkeypatch.setattr(similarity, "BLOCK_LINES", rng.choice((1, 2, 3, 1024)))
        for end in ("\n", "\r\n"):
            text = "".join(line + end for line in lines)
            path.write_text(text, encoding="utf-8", newline="")
            tokens = file_tokens(text)
            with open(path, encoding="utf-8") as fh:
                from_file = load_outcome(lambda: load_vectors(fh), tokens)
            from_path = load_outcome(lambda: load_vectors_path(path), tokens)
            from_text = load_outcome(lambda: load_vectors(text), tokens)
            if not from_path == from_file == from_text:
                disagreements.append((seed, text, from_path, from_file, from_text))
            elif isinstance(from_path[0], int):
                # the rows a seeded subset of tokens reads back are the
                # per-line parser's, under a hash by which two file tokens,
                # in one block or two, share a hash, and the token outside
                # the file has that of a file token
                reference = load_vectors(text)
                tokens = list(reference.index)
                wanted = rng.sample(tokens, rng.randint(0, len(tokens))) + ["not-a-token"]
                pairs = dict([rng.sample(tokens, 2)[::-1]] if len(tokens) > 1 else [])
                if tokens:
                    met = rng.choice(tokens)
                    pairs["not-a-token"] = pairs.get(met, met)
                monkeypatch.setattr(similarity, "_token_hash", colliding(pairs))
                chosen = load_vectors_path(path).select(wanted)
                monkeypatch.setattr(similarity, "_token_hash", hash)
                rows = sorted(reference.index[t] for t in wanted if t in reference.index)
                got = (list(chosen.index), chosen.matrix.tobytes())
                if got != ([tokens[r] for r in rows], reference.matrix[rows].tobytes()):
                    disagreements.append((seed, text, wanted, got))
                selects += 1
                # a row of a token not wanted shares the hash of one wanted
                shared += any(
                    (token in wanted) != (other in wanted) for token, other in pairs.items()
                )
    assert disagreements == []
    # the counts pin the mutations and the collisions, so neither the select
    # check nor the rows it must leave out can go vacuous
    assert (selects, shared) == (1366, 915)


UNDECODABLE_SEEDS = range(300)
# 2,000 rows of 27 bytes, 6.6 decode chunks of 8 KiB; a file takes the
# first 800 (2.6 chunks) or more
LONG_FILE = [f"tok{i:05} {i % 7}.25 -{i % 5}.5 0.{i:05}" for i in range(2000)]
# UTF-8 that does not decode: a byte no character starts with, a lone
# continuation byte, and a 2-byte and a 3-byte character cut short
BAD_BYTES = (b"\xff", b"\x80", b"\xc3", b"\xe2\x82")


def decoded_lines(path: Path) -> tuple[list[str], UnicodeDecodeError | None]:
    """The lines a strict text-mode iteration of path yields, and the error
    that ends it, if one does."""
    lines: list[str] = []
    with open(path, encoding="utf-8") as fh:
        try:
            for line in fh:
                lines.append(line)
        except UnicodeDecodeError as exc:
            return lines, exc
    return lines, None


def test_path_loader_stops_at_a_byte_that_does_not_decode(tmp_path, monkeypatch):
    # the oracle: the per-line parser over the lines text mode yields before
    # the byte, then BadEncoding if they load; files span several 8 KiB
    # decode chunks, and the byte may fall in any block of a seeded size
    path = tmp_path / "vectors.txt"
    disagreements, outcomes = [], Counter()
    for seed in UNDECODABLE_SEEDS:
        rng = random.Random(seed)
        lines = LONG_FILE[: rng.randint(800, 2000)]
        for _ in range(rng.randint(1, 3)):
            lines = mutate_vectors(lines, rng)
        data = "".join(line + "\n" for line in lines).encode()
        at = rng.randint(0, len(data))
        path.write_bytes(data[:at] + rng.choice(BAD_BYTES) + data[at:])
        monkeypatch.setattr(similarity, "BLOCK_LINES", rng.choice((1, 2, 3, 1024)))
        decoded, error = decoded_lines(path)
        expected = load_outcome(lambda: load_vectors(decoded), [])
        if isinstance(expected[0], int):
            expected = (BadEncoding, f"vector file is not valid utf-8: {error.reason}")
        got = load_outcome(lambda: load_vectors_path(path), [])
        if got != expected:
            disagreements.append((seed, at, got, expected))
        outcomes[got[0].__name__] += 1
    assert disagreements == []
    # the counts pin the files, so no outcome class can go vacuous
    assert outcomes == {
        "BadEncoding": 204, "BadFloat": 20, "DimensionMismatch": 51, "DuplicateToken": 25
    }


# -- dataset and config ------------------------------------------------------------

DATA = GOLDEN.parent.parent / "data"
SCHEMA_SEEDS = range(1000)
TOO_DEEP = "[" * 100_000
# keys an added value goes under: those each reader knows, and one it does not
SQUAD_KEYS = (
    "data", "title", "paragraphs", "context", "qas", "id", "question", "answers",
    "text", "answer_start", "extra",
)
CONFIG_KEYS = (*RunConfig.__dataclass_fields__, "extra")


def _places(node):
    """(container, key) of every value inside node, at any depth."""
    for key in _keys(node):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _places(node[key])


def mutate_doc(top: list, keys: tuple, rng: random.Random) -> None:
    """Make one mutation of the document top[0], in place: any value, the
    document included, replaced with one of VALUES; or a key dropped from
    an object or one of keys added; or a list item dropped or appended."""
    value = json.loads(rng.choice(VALUES))
    places = list(_places(top))
    containers = [node[key] for node, key in places if isinstance(node[key], (dict, list))]
    op = rng.choice(("replace", "drop", "add")) if containers else "replace"
    if op == "replace":
        node, key = rng.choice(places)
        node[key] = value
        return
    node = rng.choice(containers)
    if op == "drop" and node:
        del node[rng.choice(_keys(node))]
    elif isinstance(node, dict):
        node[rng.choice(keys)] = value
    else:
        node.append(value)


def mutated_texts(doc, keys: tuple):
    """(seed, text) of TOO_DEEP, then of doc after 1 to 3 mutations per seed."""
    yield None, TOO_DEEP
    for seed in SCHEMA_SEEDS:
        rng = random.Random(seed)
        top = [json.loads(json.dumps(doc))]
        for _ in range(rng.randint(1, 3)):
            mutate_doc(top, keys, rng)
        yield seed, json.dumps(top[0])


def escapes(read, texts) -> list:
    """(seed, exception) of each text that read raises a non-QgenError on."""
    found = []
    for seed, text in texts:
        try:
            read(text)
        except QgenError:
            pass
        except Exception as exc:
            found.append((seed, f"{type(exc).__name__}: {exc}"))
    return found


def eager_records(text: str) -> list[ContextRecord]:
    """The records of an accepted dataset text, built all at once from its
    JSON as the parser once did."""
    records: list[ContextRecord] = []
    for article in json.loads(text)["data"]:
        for para in article["paragraphs"]:
            baselines = tuple(
                BaselineQuestion(
                    id=qa["id"],
                    question=qa["question"],
                    answers=tuple(Answer(a["text"], a["answer_start"]) for a in qa["answers"]),
                )
                for qa in para["qas"]
            )
            records.append(ContextRecord(len(records), article["title"], para["context"], baselines))
    return records


def test_parse_squad_on_mutated_dataset_raises_only_qgen_errors():
    doc = json.loads((DATA / "mini_squad.json").read_text(encoding="utf-8"))
    accepted = []

    def parse_and_read(text):
        # every record of an accepted text is read: a check the parser
        # missed would surface here as a late KeyError or TypeError
        ds = parse_squad(text)
        expected = eager_records(text)
        accepted.append(
            list(ds.records) == expected
            and [ds.records[i] for i in range(len(ds.records))] == expected
            and ds.example_count == sum(len(r.baselines) for r in expected)
            and ds.questions() == [b.question for r in expected for b in r.baselines]
            and [(e.context, e.input_answer, e.target_question) for e in reverse_dataset(ds)]
            == [(r.text, b.answers[0].text, b.question) for r in expected for b in r.baselines]
        )

    assert escapes(parse_and_read, mutated_texts(doc, SQUAD_KEYS)) == []
    # the count pins the mutations, so the read check cannot go vacuous
    assert len(accepted) == 110
    assert all(accepted)


def test_load_config_on_mutated_config_raises_only_qgen_errors(tmp_path):
    # every field set, so a mutation can reach each one
    doc = {
        "dataset": str(DATA / "mini_squad.json"),
        "vectors": str(DATA / "vectors_50d.txt"),
        "out": "out",
        "backend": "mock",
        "backend_url": None,
        "backend_token": None,
        "backend_model": None,
        "seed": 7,
        "sample_size": 4,
        "temperature": 0.5,
        "questions_per_prompt": 5,
        "threshold": 0.7,
        "prompts": "ABCD",
        "max_output_tokens": 256,
        "max_in_flight": 2,
        "top_keywords": 20,
    }
    assert sorted(doc) == sorted(RunConfig.__dataclass_fields__)
    path = tmp_path / "config.json"

    def load(text):
        path.write_text(text, encoding="utf-8")
        load_config(path, env={}).validate()

    load(json.dumps(doc))  # the unmutated config is valid
    assert escapes(load, mutated_texts(doc, CONFIG_KEYS)) == []


# -- completions -------------------------------------------------------------------

QUESTION_SEEDS = range(3000)
# every code point str.splitlines() ends a line at
LINE_BREAKS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)
MARKERS = ("1. ", "2) ", "10.", "999) ", "1000. ", "- ", "* ", "-", "\u2022 ", "Q: ", "")
WORDS = (
    "What", "is", "the", "name", "?", "??", "!?", ".", "...", "1.", "2)", "-", "*", " ", "\t", "\u00e9",
)


def completion(rng: random.Random) -> str:
    """A completion text: lines with numbered or bulleted markers or none,
    inline numbered items, blank lines, joined by any line break."""
    lines = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.choice(("item", "inline", "blank", "bare"))
        if kind == "blank":
            lines.append(rng.choice(("", " ", "\t")))
            continue
        words = " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 6)))
        if kind == "item":
            lines.append(rng.choice(MARKERS) + words)
        elif kind == "inline":
            items = range(1, rng.randint(2, 4))
            lines.append(" ".join(f"{n}{rng.choice('.)')} {words}" for n in items))
        else:
            lines.append(words)
    return "".join(line + rng.choice(LINE_BREAKS) for line in lines)


def test_parse_questions_returns_at_most_n_nonempty_strings():
    wrong = []
    refused = 0
    for seed in QUESTION_SEEDS:
        rng = random.Random(seed)
        raw, n = completion(rng), rng.randint(1, 6)
        try:
            got = parse_questions(raw, n)
        except NoQuestionsFound:
            refused += 1
            continue
        if not (
            isinstance(got, list)
            and 1 <= len(got) <= n
            and all(isinstance(q, str) and q for q in got)
        ):
            wrong.append((seed, raw, n, got))
    assert wrong == []
    # the count pins the texts, so neither outcome can go vacuous
    assert refused == 781


# -- qgen run on mutated vector files ----------------------------------------------

RUN_SEEDS = range(200)


def test_run_on_mutated_vector_file_exits_0_or_2(tmp_path, capsys):
    lines = (DATA / "vectors_50d.txt").read_text(encoding="utf-8").split("\n")[:-1]
    vectors = tmp_path / "vectors.txt"
    config = tmp_path / "config.json"
    doc = {
        "dataset": str(DATA / "mini_squad.json"),
        "vectors": str(vectors),
        "out": "out",
        "sample_size": 2,
    }
    config.write_text(json.dumps(doc), encoding="utf-8")
    manifest = tmp_path / "out" / "manifest.json"
    escapes, codes = [], []
    for seed in RUN_SEEDS:
        rng = random.Random(seed)
        mutated = lines
        for _ in range(rng.randint(1, 3)):
            mutated = mutate_vectors(mutated, rng)
        vectors.write_text("".join(line + "\n" for line in mutated), encoding="utf-8")
        try:
            code = main(["run", "--config", str(config)])
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        capsys.readouterr()
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        outcome = (doc["status"], doc.get("stage"), doc["backend_calls"])
        if (code, outcome) not in ((0, ("complete", None, 8)), (2, ("failed", "load", 0))):
            escapes.append((seed, code, outcome))
        codes.append(code)
    assert escapes == []
    # the counts pin the mutations, so neither outcome can go vacuous
    assert (codes.count(0), codes.count(2)) == (56, 144)


# -- qgen run and qgen stats on mutated dataset files --------------------------------

DATASET_SEEDS = range(200)
# what a syntax mutation puts in: bytes UTF-8 does not decode, a BOM, and
# JSON punctuation and literals
SYNTAX_BYTES = (
    b"\xff", b"\xc3", b"\xef\xbb\xbf", b"{", b"}", b"[", b"]", b",", b":", b'"', b"\\",
    b"0", b"n", b' "data": []', b', "data": []',
)


def mutate_dataset(text: str, rng: random.Random) -> bytes:
    """The bytes of text after 1 to 3 schema mutations (see mutate_doc),
    or 1 to 3 syntax mutations (bytes put in, dropped, or the text cut
    short), or both."""
    kind = rng.choice(("schema", "syntax", "both"))
    if kind != "syntax":
        top = [json.loads(text)]
        for _ in range(rng.randint(1, 3)):
            mutate_doc(top, SQUAD_KEYS, rng)
        text = json.dumps(top[0], ensure_ascii=False, indent=rng.choice((None, 2)))
    raw = text.encode("utf-8")
    if kind != "schema":
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(raw) + 1)
            op = rng.choice(("put", "drop", "cut"))
            if op == "put":
                raw = raw[:at] + rng.choice(SYNTAX_BYTES) + raw[at:]
            elif op == "drop":
                raw = raw[:at] + raw[at + 1 :]
            else:
                raw = raw[:at]
    return raw


@pytest.mark.parametrize("read_chars", [corpus.READ_CHARS, 7])
def test_run_and_stats_on_mutated_dataset_exit_0_or_2(
    tmp_path, capsys, monkeypatch, read_chars
):
    monkeypatch.setattr(corpus, "READ_CHARS", read_chars)
    text = (DATA / "mini_squad.json").read_text(encoding="utf-8")
    dataset = tmp_path / "squad.json"
    config = tmp_path / "config.json"
    doc = {
        "dataset": str(dataset),
        "vectors": str(DATA / "vectors_50d.txt"),
        "out": "out",
        "sample_size": 1,
    }
    config.write_text(json.dumps(doc), encoding="utf-8")
    manifest = tmp_path / "out" / "manifest.json"
    wrong, outcomes = [], Counter()
    for seed in DATASET_SEEDS:
        dataset.write_bytes(mutate_dataset(text, random.Random(seed)))
        try:
            parse_squad(dataset.read_bytes())
            parsed = True
        except QgenError:
            parsed = False
        codes = []
        for argv in (
            ["run", "--config", str(config)],
            ["stats", "--dataset", str(dataset), "--out", str(tmp_path / "stats")],
        ):
            try:
                codes.append(main(argv))
            except Exception as exc:
                codes.append(f"{type(exc).__name__}: {exc}")
        capsys.readouterr()
        run = json.loads(manifest.read_text(encoding="utf-8"))
        outcome = (codes[0], run["status"], run.get("stage"), run["backend_calls"], codes[1])
        if outcome != ((0, "complete", None, 4, 0) if parsed else (2, "failed", "load", 0, 2)):
            wrong.append((seed, outcome))
        outcomes[run.get("error", "complete").split(":")[0]] += 1
    assert wrong == []
    # the counts pin the mutations, so no outcome can go vacuous
    assert outcomes == {"complete": 20, "MalformedJson": 103, "SchemaError": 72, "SpanError": 5}
