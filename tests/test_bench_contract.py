"""The names the benchmark traces exist and are called by a pipeline run.

bench/child.py wraps module attributes of qgen.pipeline and qgen.scoring
listed in its TRACED table. A refactor that renames or inlines one of
them would make the traced benchmark print a "not traced" line or report
a layer as idle; this test catches that in the test suite instead. The
table is read with ast, so bench/ is neither imported nor edited. The
golden run's call counts are pinned, and the attributes bench/child.py
reads from a run and from the loaders' results are read here too, so a
rename that would fail every benchmark run fails a test first. The
benchmark's name tables, TRACED's span names, BENCHMARK.json's per-layer
metrics and bench/layer_map.json, are checked against each other.
On a generated corpus the call counts are checked as rules over the cells.
"""

from __future__ import annotations

import ast
import functools
import json
import threading
from collections import Counter
from pathlib import Path

import pytest

from qgen import pipeline, scoring
from qgen.pipeline import RunConfig, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
MODULES = {"pipeline": pipeline, "scoring": scoring}


def traced_names() -> list[tuple[str, str, str]]:
    tree = ast.parse((ROOT / "bench" / "child.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("bench/child.py defines no TRACED table")


TRACED = traced_names()


def test_traced_names_exist():
    missing = [(m, a) for m, a, _ in TRACED if not callable(getattr(MODULES[m], a, None))]
    assert missing == []


def test_bench_name_tables_agree():
    # bench/run.py reports a span as per-layer metrics named "<span>.<stat>"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {metric["name"] for metric in bench["per_layer"]}
    unmeasured = [
        span for *_, span in TRACED
        if not any(name.startswith(span + ".") for name in per_layer)
    ]
    assert unmeasured == []
    layer_map = json.loads((ROOT / "bench" / "layer_map.json").read_text(encoding="utf-8"))
    assert [m for layer in layer_map for m in layer["metrics"] if m not in per_layer] == []


def test_golden_run_calls_every_traced_name(tmp_path, monkeypatch):
    # counts are pinned: a change that lowers one updates it here, and one
    # that rises fails
    calls = Counter()
    sentences = set()
    loaded = {}
    lock = threading.Lock()

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                calls[key] += 1
                if key == "sentence_vector":
                    sentences.add(args[0])
            result = fn(*args, **kwargs)
            if key in ("load_squad", "load_vectors_path"):
                loaded[key] = result
            return result

        return wrapper

    for module, attr, _ in TRACED:
        fn = getattr(MODULES[module], attr)
        monkeypatch.setattr(MODULES[module], attr, counting(attr, fn))
    # the config of demos/04_full_run.py
    run = run_pipeline(
        RunConfig(
            dataset=str(ROOT / "demos" / "data" / "mini_squad.json"),
            vectors=str(ROOT / "demos" / "data" / "vectors_50d.txt"),
            out=str(tmp_path / "full_run"),
            seed=7,
            sample_size=4,
            threshold=0.7,
        )
    )
    assert [attr for _, attr, _ in TRACED if attr not in calls] == []
    assert {attr: calls[attr] for _, attr, _ in TRACED} == {
        "load_squad": 1,
        "sample_contexts": 1,
        "load_vectors_path": 1,
        "_sha256_file": 1,
        "render_prompt": 16,
        "generate": 16,
        "parse_questions": 16,
        "score_cell": 16,
        "assemble_run": 1,
        "persist_run": 1,
        "emit_figures": 1,
        "write_report": 1,
        "question_length_histogram": 1,
        "frequent_words": 1,
        "sentence_vector": 53,
        # one stacked call per scored context
        "cosine_similarity": 4,
    }
    assert len(sentences) == 46
    # what bench/child.py reads from a run and from the loaders' results
    assert sum(len(cell.records) for cell in run.results) == 80
    assert len(run.results) == 16
    dataset, table = loaded["load_squad"], loaded["load_vectors_path"]
    assert (len(dataset.records), dataset.example_count, len(table)) == (6, 18, 167)


# the work each traced name does per cell, and once per run for the rest
PER_CELL = ("render_prompt", "generate", "parse_questions", "score_cell")


@pytest.mark.parametrize(
    "prompts, questions, contexts", [("ABCD", 5, 12), ("BD", 3, 7)], ids=["ABCD-5-12", "BD-3-7"]
)
def test_traced_call_counts_follow_the_work(
    tmp_path, monkeypatch, synth_corpus, prompts, questions, contexts
):
    # counts as rules over the run's cells, on a corpus the tests generate
    calls = Counter()
    lock = threading.Lock()
    datasets = []

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                calls[key] += 1
            result = fn(*args, **kwargs)
            if key == "load_squad":
                datasets.append(result)
            return result

        return wrapper

    for module, attr, _ in TRACED:
        monkeypatch.setattr(MODULES[module], attr, counting(attr, getattr(MODULES[module], attr)))
    dataset, vectors = synth_corpus
    run = run_pipeline(
        RunConfig(
            dataset=str(dataset),
            vectors=str(vectors),
            out=str(tmp_path / "out"),
            prompts=prompts,
            questions_per_prompt=questions,
            sample_size=contexts,
        )
    )
    baselines = {r.context_id: [b.question for b in r.baselines] for r in datasets[0].records}
    # a context's cells share its sentence vectors: one per distinct text
    # among its baselines and its cells' questions
    texts = {cell.context_id: set(baselines[cell.context_id]) for cell in run.results}
    for cell in run.results:
        texts[cell.context_id].update(rec.question for rec in cell.records)
    expected = {attr: 1 for _, attr, _ in TRACED}
    expected.update(dict.fromkeys(PER_CELL, contexts * len(prompts)))
    expected["sentence_vector"] = sum(map(len, texts.values()))
    # one stacked call per context that has a returned cell
    expected["cosine_similarity"] = len(texts)
    assert dict(calls) == expected
