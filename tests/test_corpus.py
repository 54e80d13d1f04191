"""Corpus layer: parsing, validation, reversal, sampling, chunking."""

from __future__ import annotations

import gc
import io
import json
import random
import tracemalloc
from collections import Counter

import pytest

from qgen import corpus
from qgen.corpus import (
    Answer,
    BaselineQuestion,
    ContextRecord,
    chunk_context,
    load_squad,
    parse_squad,
    reverse_dataset,
    sample_contexts,
)
from qgen.errors import (
    InvalidChunkParams,
    MalformedJson,
    SampleTooLarge,
    SchemaError,
    SpanError,
)

from conftest import build_synth_articles, make_squad_doc


def doc_bytes(doc: dict) -> bytes:
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


# -- parsing -----------------------------------------------------------------

def test_parse_empty_corpus():
    ds = parse_squad('{"data": []}')
    assert len(ds.records) == 0
    assert ds.example_count == 0


def test_parse_hand_fixture():
    context = "Paris is the capital of France. It hosts the Louvre."
    doc = make_squad_doc(
        [("France", [(context, [
            ("What is the capital of France?", "Paris"),
            ("Which museum does Paris host?", "Louvre"),
        ])])]
    )
    ds = parse_squad(doc_bytes(doc))
    assert len(ds.records) == 1
    assert ds.example_count == 2
    rec = ds.records[0]
    assert rec.context_id == 0
    assert rec.title == "France"
    assert rec.text == context
    assert [b.question for b in rec.baselines] == [
        "What is the capital of France?",
        "Which museum does Paris host?",
    ]
    for b in rec.baselines:
        for a in b.answers:
            assert context[a.answer_start : a.answer_start + len(a.text)] == a.text


def test_parse_assigns_flat_context_ids(mini_squad_path):
    ds = load_squad(mini_squad_path)
    assert [r.context_id for r in ds.records] == list(range(len(ds.records)))
    assert ds.example_count == sum(len(r.baselines) for r in ds.records)


def test_parse_accepts_stream_and_text(mini_squad_path):
    raw = mini_squad_path.read_bytes()
    with open(mini_squad_path, "rb") as fh:
        from_stream = parse_squad(fh)
    from_bytes, from_text = parse_squad(raw), parse_squad(raw.decode("utf-8"))
    assert from_bytes == from_stream == from_text
    assert hash(from_bytes) == hash(from_stream) == hash(from_text)
    assert len({from_bytes, from_stream, from_text}) == 1


def test_records_are_a_read_only_sequence_built_on_access(mini_squad_path):
    ds = load_squad(mini_squad_path)
    records = ds.records
    built = list(records)
    assert len(records) == len(built) == 6
    assert [r.context_id for r in built] == list(range(6))
    assert [records[i] for i in range(6)] == built
    assert records[-1] == built[-1] and records[-1].context_id == 5
    assert records[-6].context_id == 0
    for index in (6, -7):
        with pytest.raises(IndexError):
            records[index]
    # a slice is a tuple of built records, context ids kept
    assert records[1:4] == tuple(built[1:4])
    assert records[::-2] == tuple(built[::-2])
    assert records[10:] == ()
    assert ds.example_count == sum(len(r.baselines) for r in built)
    assert ds.questions() == [b.question for r in built for b in r.baselines]
    # a read builds a new record, equal to every other read of its index
    assert records[0] == records[0] == built[0]
    with pytest.raises(TypeError):
        records[0] = built[0]


def test_datasets_differing_in_one_record_are_unequal():
    def dataset(question):
        return parse_squad(doc_bytes(make_squad_doc(
            [("T", [("Alpha beta.", [("What?", "Alpha")]), ("Gamma.", [(question, "Gamma")])])]
        )))

    assert dataset("Which?") == dataset("Which?")
    assert dataset("Which?") != dataset("Why?")
    # an unread key of the JSON is not part of a record, so not of equality
    doc = make_squad_doc([("T", [("Alpha beta.", [("What?", "Alpha")])])])
    plain = parse_squad(doc_bytes(doc))
    doc["data"][0]["paragraphs"][0]["extra"] = 1
    assert parse_squad(doc_bytes(doc)) == plain


def test_parse_unicode_offsets_count_scalar_values():
    context = "Beyoncé was born in 1981 in Texas."
    start = context.index("1981")
    doc = {
        "data": [{"title": "B", "paragraphs": [{"context": context, "qas": [{
            "id": "q1",
            "question": "When was Beyoncé born?",
            "answers": [{"text": "1981", "answer_start": start}],
        }]}]}]
    }
    ds = parse_squad(doc_bytes(doc))
    answer = ds.records[0].baselines[0].answers[0]
    assert answer.answer_start == start == 20


def test_parse_malformed_json():
    with pytest.raises(MalformedJson):
        parse_squad("{not json")
    # JSON text must be UTF-8, given as bytes or as a text stream
    not_utf8 = b'{"data": []}\xff'
    for source in (not_utf8, io.TextIOWrapper(io.BytesIO(not_utf8), encoding="utf-8")):
        with pytest.raises(MalformedJson):
            parse_squad(source)


@pytest.fixture()
def collections():
    """The generation of every collection the cyclic GC starts while the
    fixture is live."""
    started: list[int] = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    # the collector reads the list it was given at start-up, so the hook
    # goes into that list, not into a new one
    gc.callbacks.append(hook)
    yield started
    gc.callbacks.remove(hook)


def test_parse_runs_no_collection(collections):
    # 2,000 contexts build enough containers to trigger collections of
    # every generation if the collector runs
    raw = doc_bytes(make_squad_doc(build_synth_articles(2000)))
    # start from empty generations, so that building raw cannot trigger a
    # collection as parse_squad is entered
    gc.collect()
    collections.clear()
    ds = parse_squad(raw)
    # len allocates nothing, so the collection due after the parse has
    # not started yet
    started_inside = len(collections)
    assert started_inside == 0
    assert len(ds.records) == 2000
    assert gc.isenabled()


@pytest.mark.parametrize("source", ["{broken", '{"data": [{"title": 1}]}', '{"data": []}'])
def test_parse_restores_collector_state(source):
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                parse_squad(source)
            except (MalformedJson, SchemaError):
                pass
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda d: d.pop("data"), "$.data"),
        (lambda d: d["data"][0].pop("title"), "data[0].title"),
        (lambda d: d["data"][0].pop("paragraphs"), "data[0].paragraphs"),
        (lambda d: d["data"][0]["paragraphs"][0].pop("context"), "paragraphs[0].context"),
        (lambda d: d["data"][0]["paragraphs"][0].pop("qas"), "paragraphs[0].qas"),
        (lambda d: d["data"][0]["paragraphs"][0]["qas"][0].pop("question"), "qas[0].question"),
        (lambda d: d["data"][0]["paragraphs"][0]["qas"][0].pop("id"), "qas[0].id"),
        (lambda d: d["data"][0]["paragraphs"][0]["qas"][0].pop("answers"), "qas[0].answers"),
        (lambda d: d.update(data=[1]), "$.data[0]: expected an object"),
        (
            lambda d: d["data"][0]["paragraphs"][0]["qas"][0]["answers"][0].update(text=""),
            "answers[0].text: answer text is empty",
        ),
    ],
)
def test_parse_schema_errors_carry_json_path(mutate, path_fragment):
    doc = make_squad_doc([("T", [("Alpha beta gamma.", [("What comes first?", "Alpha")])])])
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        parse_squad(doc_bytes(doc))
    assert path_fragment in str(err.value)


def test_parse_rejects_wrong_types():
    doc = make_squad_doc([("T", [("Alpha beta.", [("What?", "Alpha")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["question"] = 7
    with pytest.raises(SchemaError) as err:
        parse_squad(doc_bytes(doc))
    assert "expected str" in str(err.value)


def test_parse_rejects_boolean_answer_start():
    doc = make_squad_doc([("T", [("Alpha beta.", [("What?", "Alpha")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = True
    with pytest.raises(SchemaError) as err:
        parse_squad(doc_bytes(doc))
    assert err.value.path.endswith(".qas[0].answers[0].answer_start")
    assert "expected int, got bool" in str(err.value)


def test_parse_rejects_empty_answers_list():
    doc = make_squad_doc([("T", [("Alpha beta.", [("What?", "Alpha")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"] = []
    with pytest.raises(SchemaError) as err:
        parse_squad(doc_bytes(doc))
    assert "unanswerable" in str(err.value)


def test_parse_rejects_blank_question_and_empty_context():
    doc = make_squad_doc([("T", [("Alpha beta.", [("What?", "Alpha")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["question"] = "   "
    with pytest.raises(SchemaError):
        parse_squad(doc_bytes(doc))
    doc2 = make_squad_doc([("T", [("Alpha beta.", [("What?", "Alpha")])])])
    doc2["data"][0]["paragraphs"][0]["context"] = ""
    with pytest.raises(SchemaError):
        parse_squad(doc_bytes(doc2))


def test_parse_span_error_names_qas_id():
    doc = make_squad_doc([("T", [("Alpha beta gamma.", [("What?", "beta")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = 0
    with pytest.raises(SpanError) as err:
        parse_squad(doc_bytes(doc))
    assert "fx-00000" in str(err.value)
    assert err.value.qas_id == "fx-00000"


def test_parse_span_error_out_of_bounds():
    doc = make_squad_doc([("T", [("Alpha beta.", [("What?", "beta")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = 100
    with pytest.raises(SpanError):
        parse_squad(doc_bytes(doc))


@pytest.mark.parametrize(
    "field, path",
    [
        (lambda d: d["data"][0], "$.data[0].title"),
        (lambda d: d["data"][0]["paragraphs"][0], "$.data[0].paragraphs[0].context"),
        (lambda d: d["data"][0]["paragraphs"][0]["qas"][0], "$.data[0].paragraphs[0].qas[0].id"),
        (
            lambda d: d["data"][0]["paragraphs"][0]["qas"][0],
            "$.data[0].paragraphs[0].qas[0].question",
        ),
        (
            lambda d: d["data"][0]["paragraphs"][0]["qas"][0]["answers"][0],
            "$.data[0].paragraphs[0].qas[0].answers[0].text",
        ),
    ],
    ids=["title", "context", "id", "question", "answer-text"],
)
@pytest.mark.parametrize("surrogate", ["\ud800", "\udfff", "\ude00\ud83d"])
def test_parse_rejects_a_lone_surrogate_by_json_path(field, path, surrogate):
    # the JSON text holds the escape, which decodes to a str UTF-8 cannot encode
    doc = make_squad_doc([("T", [("Alpha beta.", [("What?", "Alpha")])])])
    key = path.rsplit(".", 1)[1]
    # an answer text is checked before its span
    field(doc)[key] += surrogate
    text = json.dumps(doc)
    assert "\\ud" in text
    with pytest.raises(SchemaError) as err:
        parse_squad(text)
    assert err.value.path == path
    assert str(err.value) == f"{path}: not valid Unicode (a lone surrogate)"


# -- the walk against its reference --------------------------------------------

def reference_require(obj, key: str, kind, path: str):
    """The parser's field check as one call a field: the reference of the
    inline checks."""
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    value = obj[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
        raise SchemaError(
            f"{path}.{key}",
            f"expected {kind.__name__}, got {type(value).__name__}",
        )
    if kind is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(f"{path}.{key}", "not valid Unicode (a lone surrogate)") from None
    return value


def reference_walk(doc) -> tuple[ContextRecord, ...]:
    """The records of doc, by the parser's walk as it was with one
    reference_require call a field and a JSON path string built for every
    element, each record built at once from the decoded JSON."""
    data = reference_require(doc, "data", list, "$")
    records = []
    for ai, article in enumerate(data):
        apath = f"$.data[{ai}]"
        title = reference_require(article, "title", str, apath)
        paragraphs = reference_require(article, "paragraphs", list, apath)
        for pi, para in enumerate(paragraphs):
            baselines = []
            ppath = f"{apath}.paragraphs[{pi}]"
            context = reference_require(para, "context", str, ppath)
            if not context:
                raise SchemaError(f"{ppath}.context", "context text is empty")
            qas = reference_require(para, "qas", list, ppath)
            for qi, qa in enumerate(qas):
                qpath = f"{ppath}.qas[{qi}]"
                qid = reference_require(qa, "id", str, qpath)
                question = reference_require(qa, "question", str, qpath)
                if not question.strip():
                    raise SchemaError(f"{qpath}.question", "question is blank")
                answers_raw = reference_require(qa, "answers", list, qpath)
                if not answers_raw:
                    raise SchemaError(
                        f"{qpath}.answers",
                        "empty answers list (v2-style unanswerable entries "
                        "are not supported)",
                    )
                for xi, ans in enumerate(answers_raw):
                    xpath = f"{qpath}.answers[{xi}]"
                    text = reference_require(ans, "text", str, xpath)
                    start = reference_require(ans, "answer_start", int, xpath)
                    if not text:
                        raise SchemaError(f"{xpath}.text", "answer text is empty")
                    if start < 0 or start + len(text) > len(context):
                        raise SpanError(
                            qid,
                            f"offsets [{start}, {start + len(text)}) fall "
                            f"outside the {len(context)}-char context",
                        )
                    if context[start : start + len(text)] != text:
                        raise SpanError(
                            qid,
                            f"context slice at {start} is "
                            f"{context[start:start + len(text)]!r}, "
                            f"expected {text!r}",
                        )
                answers = tuple(Answer(a["text"], a["answer_start"]) for a in answers_raw)
                baselines.append(BaselineQuestion(qid, question, answers))
            records.append(ContextRecord(len(records), title, context, tuple(baselines)))
    return tuple(records)


# the keys each level of the tree requires, and the string ones among them
LEVEL_KEYS = (
    ("title", "paragraphs"), ("context", "qas"), ("id", "question", "answers"),
    ("text", "answer_start"),
)
WRONG_VALUES = (None, True, False, 0, -3, 1.5, "", "x", [], [1], {}, {"text": "x"})


def tree_nodes(doc) -> tuple[list[list[dict]], list[tuple[object, dict]]]:
    """The objects of the tree at the article, paragraph, question and
    answer levels, reached through whatever is still well formed, and each
    answer object with its paragraph's context."""

    def objects(value) -> list[dict]:
        return [v for v in value if isinstance(v, dict)] if isinstance(value, list) else []

    levels: list[list[dict]] = [objects(doc.get("data") if isinstance(doc, dict) else None)]
    levels += [[], [], []]
    answers = []
    for article in levels[0]:
        for para in objects(article.get("paragraphs")):
            levels[1].append(para)
            for qa in objects(para.get("qas")):
                levels[2].append(qa)
                for ans in objects(qa.get("answers")):
                    levels[3].append(ans)
                    answers.append((para.get("context"), ans))
    return levels, answers


def mutate_tree(doc, rng: random.Random) -> str:
    """One mutation of doc in place, and what it was."""
    levels, answers = tree_nodes(doc)
    depth = rng.choice([d for d in range(4) if levels[d]] or [None])
    if depth is None:
        doc["data"] = rng.choice(WRONG_VALUES)
        return "replace data"
    node = rng.choice(levels[depth])
    key = rng.choice(LEVEL_KEYS[depth])
    op = rng.choice(
        ("missing", "wrong-type", "null", "bool-for-int", "blank", "empty", "span",
         "surrogate", "pair", "non-object")
    )
    if op == "missing":
        node.pop(key, None)
    elif op == "wrong-type":
        node[key] = rng.choice(WRONG_VALUES)
    elif op == "null":
        node[key] = None
    elif op == "bool-for-int" and answers:
        context, ans = rng.choice(answers)
        ans["answer_start"] = flag = rng.choice((True, False))
        if isinstance(context, str) and rng.random() < 0.5:
            # the span the int of equal value would slice
            ans["text"] = context[flag : flag + rng.randint(1, 5)]
    elif op == "blank":
        rng.choice(levels[2] or [node])["question"] = rng.choice(("", " ", "\t\n "))
    elif op == "empty":
        node[key] = [] if key in ("paragraphs", "qas", "answers") else ""
    elif op == "span" and answers:
        context, ans = rng.choice(answers)
        start = ans.get("answer_start")
        n = len(context) if isinstance(context, str) else 0
        if type(start) is int:
            # start - n slices the same text from the context's end
            ans["answer_start"] = start + rng.choice((-n, -n - 1, -start - 1, -1, 1, n, 1000))
        else:
            ans["answer_start"] = rng.randint(-5, 5)
    elif op in ("surrogate", "pair"):
        value = node.get(key)
        extra = "\U0001F600" if op == "pair" else rng.choice(("\ud800", "\udbff", "\udc00", "\udfff"))
        if isinstance(value, str):
            at = rng.randint(0, len(value))
            node[key] = value[:at] + extra + value[at:]
        else:
            node[key] = extra
    elif op == "non-object":
        container = rng.choice([doc, *levels[0], *levels[1], *levels[2]])
        lists = [v for v in container.values() if isinstance(v, list) and v]
        if lists:
            chosen = rng.choice(lists)
            chosen[rng.randrange(len(chosen))] = rng.choice(WRONG_VALUES)
    return f"{op} {key} at depth {depth}"


def parse_outcome(parse, text: str):
    try:
        return ("records", parse(text))
    except (SchemaError, SpanError) as exc:
        return error_outcome(exc)


def error_outcome(exc: Exception) -> tuple:
    return (type(exc).__name__, str(exc), getattr(exc, "path", None),
            getattr(exc, "qas_id", None))


def test_parse_walk_matches_the_reference_walk_on_mutations(mini_squad_path):
    def parse(text):
        return tuple(parse_squad(text).records)

    def reference(text):
        return reference_walk(json.loads(text))

    sources = {
        "mini": json.loads(mini_squad_path.read_text(encoding="utf-8")),
        "synthetic": make_squad_doc(build_synth_articles(30)),
    }
    kinds: Counter = Counter()
    for name, source in sources.items():
        for seed in range(400):
            rng = random.Random(seed)
            doc = json.loads(json.dumps(source))
            what = [mutate_tree(doc, rng) for _ in range(rng.randint(1, 3))]
            # escaped, so a lone surrogate reaches the parser as JSON text
            text = json.dumps(doc)
            got, want = parse_outcome(parse, text), parse_outcome(reference, text)
            assert got == want, (name, seed, what)
            kinds[got[0] if got[0] != "SchemaError" else got[1].split(": ", 1)[1]] += 1
    # the mutations reach every error the walk raises, and records too
    assert kinds["records"] > 0 and kinds["SpanError"] > 0
    for message in (
        "missing required field", "expected int, got bool", "expected str, got NoneType",
        "question is blank", "context text is empty", "answer text is empty",
        "not valid Unicode (a lone surrogate)",
    ):
        assert kinds[message] > 0, message
    assert any(m.startswith("expected an object") for m in kinds)
    assert any(m.startswith("empty answers list") for m in kinds)


def test_valid_parse_makes_no_require_call(mini_squad_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return require(*args)

    require = corpus._require
    monkeypatch.setattr(corpus, "_require", counted)
    # non-ASCII text, and an escaped surrogate pair, which is one character
    context = "Smile \U0001F600 and Beyoncé, 1981."
    unicode_doc = make_squad_doc([("T é", [(context, [("Why \U0001F600?", "\U0001F600")])])])
    unicode_doc["data"][0]["paragraphs"][0]["qas"][0]["id"] += "\U0001F600"
    assert "\\ud83d\\ude00" in json.dumps(unicode_doc)
    for text in (
        mini_squad_path.read_text(encoding="utf-8"),
        json.dumps(make_squad_doc(build_synth_articles(200))),
        json.dumps(unicode_doc),
        json.dumps(unicode_doc, ensure_ascii=False),
    ):
        assert tuple(parse_squad(text).records) == reference_walk(json.loads(text))
    assert calls == []
    rec = parse_squad(json.dumps(unicode_doc)).records[0]
    assert rec.baselines[0].id == "fx-00000\U0001F600"
    assert rec.baselines[0].answers[0].text == "\U0001F600"
    # the count sees a call: a failed check runs through _require
    with pytest.raises(SchemaError):
        parse_squad('{"data": [{"title": "T", "paragraphs": {}}]}')
    assert calls == [("title", str, "$.data[0]"), ("paragraphs", list, "$.data[0]")]


# -- the reader against the whole-text decode --------------------------------------

READ_SIZES = (1, 7, 64, corpus.READ_CHARS)
# the outcomes of reader_cases
KINDS = {"records": 101, "MalformedJson": 219, "SchemaError": 60, "SpanError": 46}
STRAY = (
    b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xef\xbb\xbf", b"\x00", b"{", b"}", b"[", b"]",
    b",", b":", b'"', b"\\", b" ", b"\t", b"\r\n", b"0", b"-", b"e", b"n", b"1.5e3",
)


def whole_text_outcome(raw: bytes):
    """The records of raw, or its error's class, message, path and qas id,
    by decoding the whole text with loads_json and walking the tree."""
    try:
        try:
            doc = corpus.loads_json(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MalformedJson(f"invalid JSON: {exc}") from exc
        return ("records", reference_walk(doc))
    except (MalformedJson, SchemaError, SpanError) as exc:
        return error_outcome(exc)


def dataset_outcome(parse) -> tuple:
    """The records of the dataset parse() returns, or its error's class,
    message, path and qas id."""
    try:
        return ("records", tuple(parse().records))
    except (MalformedJson, SchemaError, SpanError) as exc:
        return error_outcome(exc)


def load_outcome(path, raw: bytes) -> tuple:
    """What load_squad makes of raw, written to path."""
    path.write_bytes(raw)
    return dataset_outcome(lambda: load_squad(path))


def unicode_doc_bytes() -> bytes:
    """A dataset with 2-, 3- and 4-byte UTF-8 sequences in every field."""
    context = "Beyoncé sang in Zürich — €5 a seat — and 😀 twice: 😀😀."
    doc = make_squad_doc([
        ("Ünïcode ☃ 😀", [
            (context, [("Where did Beyoncé sing?", "Zürich"), ("What price?", "€5")]),
            ("Ωmega 𝄞 clef.", [("Which clef 𝄞?", "𝄞 clef")]),
        ]),
        ("Plain", [("Only ASCII here.", [("What is here?", "ASCII")])]),
    ])
    doc["data"][0]["paragraphs"][0]["qas"][0]["id"] += "é😀"
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


def reader_cases(mini: bytes) -> list[tuple[str, bytes]]:
    """Seeded mutations of whole dataset texts, each with what it is."""
    unicode_text = unicode_doc_bytes()
    doc = json.loads(mini)
    data = json.dumps(doc["data"]).encode()
    deep = b"[" * 100_000 + b"]" * 100_000
    cases = [
        ("mini", mini),
        ("unicode", unicode_text),
        ("compact", json.dumps(doc, separators=(",", ":")).encode()),
        ("indented", json.dumps(doc, indent="\t").encode().replace(b"\n", b"\r\n")),
        ("bom", b"\xef\xbb\xbf" + mini),
        ("duplicate data, first kept", b'{"data": ' + data + b', "data": []}'),
        ("duplicate data, last kept", b'{"data": [], "data": ' + data + b"}"),
        ("data after other keys", b'{"a": {"data": [1]}, "version": 1.1, "data": ' + data + b"}"),
        ("no data", b'{"version": "1.1"}'),
        ("data not a list", b'{"data": {"title": "T"}}'),
        ("top level not an object", b"[" + data + b"]"),
        ("keys in a list", b"[" + mini.lstrip()[1:]),
        ("empty object", b"{}"),
        ("trailing text", mini + b" {}"),
        ("trailing comma", mini.rstrip()[:-1] + b",}"),
        ("trailing whitespace", mini + b" \n\t\r\n"),
        ("split number", b'{"version": 123456789012345678901234567890, "data": ' + data + b"}"),
        ("split literal", b'{"v": [true, false, null, NaN, -Infinity], "data": ' + data + b"}"),
        ("deep, whole text", b"[" * 100_000),
        ("deep, skipped key", b'{"x": ' + deep + b', "data": ' + data + b"}"),
        ("deep, in an article", mini.replace(b'"title"', b'"x": ' + deep + b', "title"', 1)),
        ("nested, in an article", mini.replace(b'"title"', b'"x": [[[[[[]]]]]], "title"', 1)),
        ("not UTF-8 in a string", unicode_text.replace("é".encode(), b"\xe9", 1)),
        ("cut UTF-8 at the end", unicode_text + "😀".encode()[:3]),
        ("lone surrogate escape", mini.replace(b'"Clockmaking"', b'"Clock\\ud800"', 1)),
        ("schema error, then syntax error", mini.replace(b'"title"', b'"titel"', 1) + b"x"),
    ]
    rng = random.Random(3)
    for source, text in (("mini", mini), ("unicode", unicode_text)):
        for _ in range(150):
            at = rng.randrange(len(text) + 1)
            stray = rng.choice(STRAY)
            cases.append((f"{stray!r} put in {source} at {at}", text[:at] + stray + text[at:]))
        for _ in range(50):
            at = rng.randrange(len(text))
            cases.append((f"byte dropped from {source} at {at}", text[:at] + text[at + 1 :]))
    return cases


@pytest.mark.parametrize("read_chars", READ_SIZES)
def test_reader_matches_the_whole_text_decode(
    mini_squad_path, tmp_path, monkeypatch, read_chars
):
    monkeypatch.setattr(corpus, "READ_CHARS", read_chars)
    mini = mini_squad_path.read_bytes()
    path = tmp_path / "squad.json"
    kinds: Counter = Counter()
    for what, raw in reader_cases(mini):
        got, want = load_outcome(path, raw), whole_text_outcome(raw)
        assert got == want, what
        kinds[got[0]] += 1
    # the counts pin the mutations, so no outcome can go vacuous
    assert kinds == KINDS


@pytest.mark.parametrize("read_chars", READ_SIZES)
def test_reader_matches_the_whole_text_decode_when_cut_short(
    mini_squad_path, monkeypatch, read_chars
):
    # every cut of mini_squad.json; at a size of 1 or 7, each of which
    # costs a read a byte or so, a seeded sixteenth or fourth of them
    monkeypatch.setattr(corpus, "READ_CHARS", read_chars)
    mini = mini_squad_path.read_bytes()
    step = {1: 16, 7: 4}.get(read_chars, 1)
    cuts = range(random.Random(read_chars).randrange(step), len(mini) + 1, step)
    for cut in cuts:
        # the stream load_squad reads, without a file for each cut
        got = dataset_outcome(lambda: parse_squad(io.BytesIO(mini[:cut])))
        assert got == whole_text_outcome(mini[:cut]), cut
        # only a cut in the trailing whitespace leaves the records whole
        assert (got[0] == "records") == (cut >= len(mini.rstrip())), cut


class Unseekable(io.RawIOBase):
    """Bytes that can be read once, from the start: a pipe, say."""

    def __init__(self, raw: bytes) -> None:
        self.stream = io.BytesIO(raw)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        return self.stream.readinto(buffer)


def test_every_source_kind_matches_the_whole_text_decode(mini_squad_path, monkeypatch):
    # str, bytes, a text stream, a stream that cannot seek, and one that
    # starts after a prefix, which the parse goes back to, not to 0
    monkeypatch.setattr(corpus, "READ_CHARS", 7)
    mini = mini_squad_path.read_bytes()
    cases = [raw for _, raw in reader_cases(mini)[:25]]
    for raw in cases:
        want = whole_text_outcome(raw)
        sources = [raw, io.BufferedReader(Unseekable(raw))]
        prefixed = io.BytesIO(b"prefix" + raw)
        prefixed.seek(len(b"prefix"))
        sources.append(prefixed)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            pass
        else:
            sources += [text, io.StringIO(text)]
        for source in sources:
            got = dataset_outcome(lambda: parse_squad(source))
            assert got == want, (raw[:40], type(source).__name__)


@pytest.mark.parametrize("read_chars", [corpus.READ_CHARS, 1 << 16])
def test_parse_peak_is_the_kept_tuples_and_a_few_reads(tmp_path, monkeypatch, read_chars):
    # a 2,000-context file of 1.35 MB: the records' tuples keep 2.2 bytes a
    # byte of it, the decoded JSON tree 3.8, and the whole text is never held
    monkeypatch.setattr(corpus, "READ_CHARS", read_chars)
    path = tmp_path / "squad.json"
    path.write_bytes(doc_bytes(make_squad_doc(build_synth_articles(2000))))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        ds = load_squad(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ds.records) == 2000
    assert kept < 2.5 * size
    # beyond them, about three reads at once: the bytes, their text and
    # the buffer they join; and the element being decoded
    assert peak - kept < 3 * min(read_chars, size) + size / 10


# -- reversal -------------------------------------------------------------------

def test_reverse_swaps_roles():
    doc = make_squad_doc(
        [("X", [("Marie Curie was born in 1867.", [("When was X born?", "1867")])])]
    )
    ds = parse_squad(doc_bytes(doc))
    examples = reverse_dataset(ds)
    assert len(examples) == 1
    assert examples[0].input_answer == "1867"
    assert examples[0].target_question == "When was X born?"
    assert examples[0].context == "Marie Curie was born in 1867."


def test_reverse_count_and_order(mini_squad_path):
    ds = load_squad(mini_squad_path)
    examples = reverse_dataset(ds)
    assert len(examples) == ds.example_count
    expected = [
        (b.question, b.answers[0].text)
        for r in ds.records
        for b in r.baselines
    ]
    assert [(e.target_question, e.input_answer) for e in examples] == expected


def test_reverse_uses_first_answer():
    doc = make_squad_doc([("T", [("Alpha beta gamma.", [("What?", "Alpha")])])])
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"].append(
        {"text": "beta", "answer_start": 6}
    )
    ds = parse_squad(doc_bytes(doc))
    assert reverse_dataset(ds)[0].input_answer == "Alpha"


def test_reverse_round_trip_restores_pairing():
    ds = parse_squad(doc_bytes(make_squad_doc(build_synth_articles(10))))
    pairs = {
        (b.question, b.answers[0].text) for r in ds.records for b in r.baselines
    }
    back = {(e.target_question, e.input_answer) for e in reverse_dataset(ds)}
    assert back == pairs


# -- sampling --------------------------------------------------------------------

def test_sample_exhaustive_returns_all(mini_squad_path):
    ds = load_squad(mini_squad_path)
    assert sample_contexts(ds, len(ds.records), seed=1) == list(ds.records)


def test_sample_deterministic_and_sorted(mini_squad_path):
    ds = load_squad(mini_squad_path)
    a = sample_contexts(ds, 3, seed=9)
    b = sample_contexts(ds, 3, seed=9)
    assert a == b
    ids = [r.context_id for r in a]
    assert ids == sorted(ids)
    assert len(set(ids)) == 3


def test_sample_too_large(mini_squad_path):
    ds = load_squad(mini_squad_path)
    with pytest.raises(SampleTooLarge):
        sample_contexts(ds, len(ds.records) + 1, seed=0)
    with pytest.raises(ValueError):
        sample_contexts(ds, 0, seed=0)


def test_sample_single_draw_frequencies():
    doc = make_squad_doc(build_synth_articles(4))
    ds = parse_squad(doc_bytes(doc))
    counts = [0, 0, 0, 0]
    trials = 10000
    for seed in range(trials):
        picked = sample_contexts(ds, 1, seed=seed)
        counts[picked[0].context_id] += 1
    for c in counts:
        assert abs(c / trials - 0.25) < 0.02


# -- chunking ---------------------------------------------------------------------

def token_windows(text: str, chunks) -> list[list[str]]:
    return [c.text.split() for c in chunks]


def test_chunk_single_window():
    text = " ".join(f"t{i}" for i in range(10))
    chunks = chunk_context(text, max_len=20, doc_stride=5)
    assert len(chunks) == 1
    assert chunks[0].text == text
    assert (chunks[0].start, chunks[0].end) == (0, len(text))


def test_chunk_hand_trace_windows():
    tokens = [f"t{i}" for i in range(10)]
    text = " ".join(tokens)
    chunks = chunk_context(text, max_len=6, doc_stride=2)
    assert token_windows(text, chunks) == [tokens[0:6], tokens[4:10]]


def test_chunk_text_is_exact_slice():
    text = "  alpha   beta\tgamma\ndelta epsilon  "
    for chunk in chunk_context(text, max_len=2, doc_stride=1):
        assert text[chunk.start : chunk.end] == chunk.text
        assert not chunk.text[0].isspace() and not chunk.text[-1].isspace()


def test_chunk_invalid_params():
    for max_len, stride in [(5, 5), (3, 7), (0, 0), (4, -1)]:
        with pytest.raises(InvalidChunkParams):
            chunk_context("a b c", max_len, stride)


def test_chunk_empty_text():
    assert chunk_context("", 5, 2) == []
    assert chunk_context("   \n\t ", 5, 2) == []


def random_text(rng: random.Random, n_tokens: int) -> str:
    words = []
    for i in range(n_tokens):
        length = rng.randint(1, 8)
        words.append("".join(rng.choice("abcdefgh") for _ in range(length)))
    return " ".join(words)


def test_chunk_coverage_and_exact_overlap_properties():
    rng = random.Random(2024)
    for _ in range(300):
        n_tokens = rng.randint(1, 60)
        text = random_text(rng, n_tokens)
        tokens = text.split()
        max_len = rng.randint(1, 20)
        doc_stride = rng.randint(0, max_len - 1)
        chunks = chunk_context(text, max_len, doc_stride)
        windows = token_windows(text, chunks)
        assert all(len(w) <= max_len for w in windows)
        # map each window back to its token index range via character offsets
        seen = set()
        spans = []
        offset_of = {}
        col = 0
        for i, tok in enumerate(tokens):
            col = text.index(tok, col)
            offset_of[col] = i
            col += len(tok)
        for chunk, w in zip(chunks, windows):
            first_idx = offset_of[chunk.start]
            spans.append((first_idx, first_idx + len(w)))
            seen.update(range(first_idx, first_idx + len(w)))
        assert seen == set(range(n_tokens))
        # exact positional overlap between consecutive windows
        for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
            assert hi1 - lo2 == doc_stride
        # true containment bound: spans of <= doc_stride + 1 tokens always fit
        for lo in range(n_tokens):
            hi = min(n_tokens, lo + doc_stride + 1)
            assert any(wlo <= lo and hi <= whi for wlo, whi in spans)
