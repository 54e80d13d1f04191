"""Seeded fuzzing of the run-directory reader behind `qgen report`.

Each case copies the golden run in demos/out/full_run/ and makes one
mutation drawn from random.Random(seed): a JSON value replaced, deleted
or added at a random path of manifest.json, run.json or one scores.jsonl
line, or a scores.jsonl line duplicated, deleted, swapped or blanked.
`qgen report` must then exit 0 or 2 (data error); any exception that
escapes it fails the case. The seeds are fixed, so the suite stays
deterministic.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

from qgen.cli import main

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
        if code not in (0, 2):
            escapes.append((seed, what, code))
        capsys.readouterr()
    assert escapes == []
