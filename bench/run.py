"""qgen benchmark: end-to-end and per-layer timings of ``run_pipeline``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper-glove --seed 1 --seconds 55 --trace 0

Each repeat is a fresh ``python3 bench/child.py`` process that imports
qgen from ``src/`` and runs one pipeline on inputs generated from the seed
(see ``inputs.py``). Repeats run back to back until ``--seconds`` would
be exceeded; the metrics are medians over them. With ``--trace 0`` the
last line of output is the end-to-end result; with ``--trace 1`` the run
alternates untraced and traced repeats and reports the per-layer metrics
of the traced ones, with the tracing overhead measured against the
untraced ones.

The end-to-end times are CPU seconds of the pipeline process (user +
system, all threads): ``run_cpu_s`` for the whole run, ``setup_s`` until
the first ``generate`` call starts. On a shared virtual machine the wall
time of identical work can move by a quarter or more from run to run.
Part of that is time the host gives to other guests or the wait for a
free core, which CPU time leaves out; the host's own speed drifting over
minutes moves both. Wall times are printed beside them, and
``pipeline.run_pipeline.wall_s`` carries the median wall time in traced
runs. CPU time does not show a change that overlaps work across cores or
cuts waiting; measure those by wall time.

Workloads (all closed-loop, ``max_in_flight=2``); ``BENCHMARK.json``
lists paper-glove and large-mock:

- ``paper-glove``: the paper's scale, 50 contexts of a 2,067-context
  corpus, and a 400,000 x 50d vector file (the size of glove.6B.50d).
  The vector load and its digest carry the run.
- ``large-mock``: 1,500 contexts of a 10,000-context corpus with a
  vector file of the corpus vocabulary only. Scoring lookups, persistence
  and figures carry the run, so a table layout that speeds loading but
  slows lookups shows up here.
- ``http-stub``: 250 contexts of the large-mock corpus, generated over
  HTTP against ``stub.py`` on loopback. The HTTP transport and the
  pipeline's wait for completions carry the run. It is not in
  ``BENCHMARK.json``: its run-to-run spread on a shared two-core host is
  past the 25% bound, and its subject, the wait, is wall time. Run it by
  hand, comparing the printed wall times and per-layer latencies.

Every repeat is checked: manifest status ``complete``, ``cells == sample
x 4``, ``questions == cells x 5``, a sha256 over every artifact except
``manifest.json`` that is equal across repeats and printed as
``artifact_sha256``, so runs of two commits on one seed can be compared,
and for http-stub the stub's count of served requests equal to the
manifest's ``backend_calls + backend_retries``. Every invocation also reproduces the
``demos/04_full_run.py`` config and compares it byte for byte with
``demos/out/full_run/`` (manifest paths and timestamps aside).

Generated inputs are cached in ``.bench_cache/`` at the checkout root, and
are read once before timing, so the vector file comes from a warm OS page
cache; the benchmark does not drop caches.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import hashlib
import http.client
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
CACHE = ROOT / ".bench_cache"
GOLDEN_DIR = ROOT / "demos" / "out" / "full_run"

DIM = 50
PROMPTS = "ABCD"
QUESTIONS_PER_PROMPT = 5
MAX_IN_FLIGHT = 2
# fixed, because the backend URL is written into run.json and report.md
STUB_PORT = 47211
STUB_URL = f"http://127.0.0.1:{STUB_PORT}/complete"
CHILD_TIMEOUT_S = 120
PR_SET_PDEATHSIG = 1

GOLDEN_CONFIG = {
    "dataset": str(ROOT / "demos" / "data" / "mini_squad.json"),
    "vectors": str(ROOT / "demos" / "data" / "vectors_50d.txt"),
    "backend": "mock",
    "seed": 7,
    "sample_size": 4,
    "threshold": 0.7,
}
# manifest fields that hold paths, clock readings or timings
VOLATILE = ("started_at", "finished_at", "backend_latency_s")
VOLATILE_CONFIG = ("dataset", "vectors", "out")


@dataclass(frozen=True)
class Workload:
    contexts: int
    sample: int
    vector_rows: int | None  # None: the corpus vocabulary only
    backend: str


WORKLOADS = {
    "paper-glove": Workload(contexts=2067, sample=50, vector_rows=400_000, backend="mock"),
    "large-mock": Workload(contexts=10_000, sample=1500, vector_rows=None, backend="mock"),
    "http-stub": Workload(contexts=10_000, sample=250, vector_rows=None, backend="http"),
}

END_TO_END_UNITS = {
    "run_cpu_s": "s",
    "questions_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not be set up; no result is printed."""


@dataclass
class Repeat:
    traced: bool
    errors: list[str] = field(default_factory=list)
    result: dict | None = None
    manifest: dict | None = None
    digest: str | None = None
    artifact_bytes: int = 0


# -- subprocesses --------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _die_with_parent() -> None:
    """Ask Linux to kill a child when this process dies, even by SIGKILL.

    Without it, a benchmark killed mid-run would leave a child retrying
    against a stub that is gone, loading the machine for later runs.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError, TypeError):
        pass


def _run_child(config: dict, trace: bool) -> tuple[dict | None, str]:
    """Run one pipeline in a fresh interpreter; (result, error text)."""
    request = json.dumps({"trace": trace, "config": config})
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), request],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            preexec_fn=_die_with_parent,
        )
    except subprocess.TimeoutExpired:
        return None, f"child did not finish within {CHILD_TIMEOUT_S}s"
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return None, f"child exited with {proc.returncode}: {tail}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


class Stub:
    """stub.py in its own process; counts the completions it served."""

    def __init__(self, seed: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--port", str(STUB_PORT), "--seed", str(seed)],
            cwd=ROOT,
            env=_child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=_die_with_parent,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 30)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("ready"):
                raise BenchError(f"stub did not start on port {STUB_PORT} (got {line!r})")
            self.served()
        except BaseException:
            self.stop()
            raise

    def served(self) -> int:
        conn = http.client.HTTPConnection("127.0.0.1", STUB_PORT, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())["served"]
        finally:
            conn.close()

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- checks --------------------------------------------------------------------

def artifact_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 over every artifact but manifest.json, and their total bytes."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            continue
        data = path.read_bytes()
        total += len(data)
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest(), total


def _stable_manifest(doc: dict) -> dict:
    doc = {k: v for k, v in doc.items() if k not in VOLATILE}
    doc["config"] = {k: v for k, v in doc["config"].items() if k not in VOLATILE_CONFIG}
    return doc


def check_golden() -> list[str]:
    """Reproduce demos/04_full_run.py's config and compare with the committed run."""
    with tempfile.TemporaryDirectory(dir=CACHE / "tmp") as tmp:
        out = Path(tmp) / "full_run"
        _, error = _run_child({**GOLDEN_CONFIG, "out": str(out)}, trace=False)
        if error:
            return [f"golden run failed: {error}"]
        expected = sorted(p.name for p in GOLDEN_DIR.iterdir())
        got = sorted(p.name for p in out.iterdir())
        if got != expected:
            return [f"golden run wrote {got}, expected {expected}"]
        errors = []
        for name in expected:
            new, old = (out / name).read_bytes(), (GOLDEN_DIR / name).read_bytes()
            if name == "manifest.json":
                if _stable_manifest(json.loads(new)) != _stable_manifest(json.loads(old)):
                    errors.append("golden manifest.json differs beyond paths and timestamps")
            elif new != old:
                errors.append(f"golden {name} differs from demos/out/full_run/{name}")
        return errors


def run_repeat(config: dict, wl: Workload, traced: bool, stub: Stub | None) -> Repeat:
    rep = Repeat(traced=traced)
    out = Path(tempfile.mkdtemp(dir=CACHE / "tmp"))
    try:
        before = stub.served() if stub else 0
        rep.result, error = _run_child({**config, "out": str(out / "run")}, traced)
        served = stub.served() - before if stub else 0
        if error:
            rep.errors.append(error)
        manifest_path = out / "run" / "manifest.json"
        if manifest_path.is_file():
            rep.manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if rep.manifest is None or rep.manifest.get("status") != "complete":
            status = rep.manifest and rep.manifest.get("status")
            rep.errors.append(f"manifest status is {status!r}, expected 'complete'")
            return rep
        cells, questions = rep.manifest["cells"], rep.manifest["questions"]
        if cells != wl.sample * len(PROMPTS):
            rep.errors.append(f"cells={cells}, expected {wl.sample * len(PROMPTS)}")
        if questions != cells * QUESTIONS_PER_PROMPT:
            rep.errors.append(f"questions={questions}, expected {cells * QUESTIONS_PER_PROMPT}")
        if rep.result and rep.result["questions"] != questions:
            rep.errors.append(
                f"run scored {rep.result['questions']} questions, manifest says {questions}"
            )
        if stub:
            sent = rep.manifest["backend_calls"] + rep.manifest["backend_retries"]
            if served != sent:
                rep.errors.append(
                    f"stub served {served} requests, manifest counts {sent}: "
                    f"{abs(served - sent)} failed calls"
                )
        if rep.result and rep.result["setup_wall_s"] is None:
            rep.errors.append("no generate call was observed")
        rep.digest, rep.artifact_bytes = artifact_digest(out / "run")
        return rep
    finally:
        shutil.rmtree(out, ignore_errors=True)


# -- metrics -------------------------------------------------------------------

def end_to_end(rep: Repeat) -> dict[str, float]:
    r = rep.result
    return {
        "run_cpu_s": r["run_cpu_s"],
        "questions_per_cpu_s": r["questions"] / r["run_cpu_s"],
        "setup_s": r["setup_cpu_s"],
        "peak_rss_mb": r["peak_rss_mb"],
    }


def per_layer(rep: Repeat) -> dict[str, tuple[float, str]]:
    t = rep.result["trace"]
    fns = t["functions"]

    def fn(name: str, key: str) -> float:
        return fns.get(name, {}).get(key, 0)

    lat = t["generate_latency_ms"]
    return {
        "similarity.load_vectors_path.busy_s": (fn("similarity.load_vectors_path", "busy_s"), "s"),
        "pipeline.vector_digest.busy_s": (fn("pipeline.vector_digest", "busy_s"), "s"),
        "similarity.vector_rows": (t["vector_rows"], "count"),
        "similarity.sentence_vector.calls": (fn("similarity.sentence_vector", "calls"), "count"),
        "similarity.sentence_vector.busy_s": (fn("similarity.sentence_vector", "busy_s"), "s"),
        "similarity.sentence_vector.distinct_ratio": (t["sentence_vector_distinct_ratio"], "ratio"),
        "similarity.cosine_similarity.calls": (fn("similarity.cosine_similarity", "calls"), "count"),
        "similarity.cosine_similarity.busy_s": (fn("similarity.cosine_similarity", "busy_s"), "s"),
        "scoring.score_cell.calls": (fn("scoring.score_cell", "calls"), "count"),
        "scoring.score_cell.busy_s": (fn("scoring.score_cell", "busy_s"), "s"),
        "scoring.score_cell.self_s": (fn("scoring.score_cell", "self_s"), "s"),
        "scoring.assemble_run.busy_s": (fn("scoring.assemble_run", "busy_s"), "s"),
        "promptgen.generate.calls": (fn("promptgen.generate", "calls"), "count"),
        "promptgen.generate.failed": (fn("promptgen.generate", "failed"), "count"),
        "promptgen.generate.retries": (rep.manifest["backend_retries"], "count"),
        "promptgen.generate.latency_p50_ms": (lat["p50"], "ms"),
        "promptgen.generate.latency_p95_ms": (lat["p95"], "ms"),
        "promptgen.generate.latency_max_ms": (lat["max"], "ms"),
        "pipeline.generate_wait_s": (t["generate_wait_s"], "s"),
        "promptgen.render_prompt.busy_s": (fn("promptgen.render_prompt", "busy_s"), "s"),
        "promptgen.parse_questions.busy_s": (fn("promptgen.parse_questions", "busy_s"), "s"),
        "promptgen.parse_questions.shortfalls": (rep.manifest["shortfall_count"], "count"),
        "pipeline.persist_run.busy_s": (fn("pipeline.persist_run", "busy_s"), "s"),
        "pipeline.emit_figures.busy_s": (fn("pipeline.emit_figures", "busy_s"), "s"),
        "textstats.frequent_words.busy_s": (fn("textstats.frequent_words", "busy_s"), "s"),
        "textstats.question_length_histogram.busy_s": (
            fn("textstats.question_length_histogram", "busy_s"),
            "s",
        ),
        "pipeline.write_report.busy_s": (fn("pipeline.write_report", "busy_s"), "s"),
        "pipeline.artifact_bytes": (rep.artifact_bytes, "bytes"),
        "corpus.load_squad.busy_s": (fn("corpus.load_squad", "busy_s"), "s"),
        "corpus.sample_contexts.busy_s": (fn("corpus.sample_contexts", "busy_s"), "s"),
        "corpus.contexts": (t["contexts"], "count"),
        "corpus.baselines": (t["baselines"], "count"),
        "trace.unattributed_s": (t["unattributed_s"], "s"),
    }


def layer_shares(rep: Repeat) -> dict[str, float]:
    """Traced main-thread wall by layer of the top-level span, plus the wait."""
    t = rep.result["trace"]
    shares: dict[str, float] = {}
    for name, seconds in t["main_stage_s"].items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + seconds
    shares["generate wait"] = t["generate_wait_s"]
    shares["unattributed"] = t["unattributed_s"]
    return shares


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- entry point ---------------------------------------------------------------

def prepare_inputs(wl: Workload, seed: int) -> tuple[Path, Path]:
    (CACHE / "tmp").mkdir(parents=True, exist_ok=True)
    corpus = inputs.corpus_file(CACHE, wl.contexts, seed)
    rows = wl.vector_rows or len(inputs.vocabulary())
    vectors = inputs.vector_file(CACHE, rows, DIM)
    for path in (corpus, vectors):
        with open(path, "rb") as fh:
            while fh.read(1 << 24):
                pass
    return corpus, vectors


def describe(name: str, wl: Workload, seed: int, corpus: Path, vectors: Path) -> None:
    contexts, baselines = inputs.corpus_counts(corpus)
    rows = wl.vector_rows or len(inputs.vocabulary())
    print(f"workload {name}  seed {seed}  backend {wl.backend}  max_in_flight {MAX_IN_FLIGHT}")
    print(
        f"machine: Python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {os.cpu_count()}, {platform.machine()}"
    )
    cells = wl.sample * len(PROMPTS)
    print(
        f"inputs: corpus {contexts} contexts, {baselines} baselines "
        f"({corpus.stat().st_size} bytes); sample {wl.sample} contexts -> "
        f"{cells} cells, {cells * QUESTIONS_PER_PROMPT} questions"
    )
    print(
        f"vectors: {rows} rows x {DIM}d, {vectors.stat().st_size} bytes, "
        "read from a warm OS page cache (caches are not dropped)"
    )


def measure(config: dict, wl: Workload, seed: int, seconds: float, trace: bool) -> list[Repeat]:
    """Run repeats back to back while the next one fits in ``seconds``.

    Traced runs alternate untraced and traced repeats and make at least
    one of each. The stub, if any, is up before the first repeat starts.
    """
    stub = Stub(seed) if wl.backend == "http" else None
    repeats: list[Repeat] = []
    try:
        started = time.perf_counter()
        longest = 0.0
        while True:
            t = time.perf_counter()
            traced = trace and len(repeats) % 2 == 1
            repeats.append(run_repeat(config, wl, traced, stub))
            longest = max(longest, time.perf_counter() - t)
            have_both = not trace or len(repeats) >= 2
            if have_both and time.perf_counter() - started + longest > seconds:
                return repeats
    finally:
        if stub:
            stub.stop()


def report_trace(traced: list[Repeat], untraced_wall: float) -> dict[str, dict]:
    """Print the per-layer metrics, their predictions and the layer shares."""
    layers = [per_layer(rep) for rep in traced]
    traced_wall = _median([rep.result["run_wall_s"] for rep in traced])
    overhead = traced_wall - untraced_wall
    print(f"\nper-layer (median of {len(layers)} traced repeats; "
          f"traced wall {traced_wall:.3f}s, tracing overhead {overhead:+.3f}s):")
    for name in sorted({n for rep in traced for n in rep.result["trace"]["missing"]}):
        print(f"  not traced, qgen no longer has it: {name} (its metrics read 0)")
    layer_map = {
        metric: row
        for row in json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))
        for metric in row["metrics"]
    }
    metrics: dict[str, dict] = {}
    for name in layers[0] if layers else []:
        value = _median([m[name][0] for m in layers])
        unit = layers[0][name][1]
        row = layer_map.get(name, {})
        moves = f"-> {','.join(row['moves'])} on {','.join(row['on'])}" if row.get("moves") else ""
        print(f"  {name:44s} {value:14.6f} {unit:6s} n={len(layers)} {moves}")
        metrics[name] = {"value": value, "unit": unit}
    metrics["pipeline.run_pipeline.wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": overhead / untraced_wall if untraced_wall else 0.0,
        "unit": "ratio",
    }
    if traced:
        shares = layer_shares(traced[len(traced) // 2])
        total = sum(shares.values())
        print("\ntraced main-thread wall by layer (top-level spans, children included):")
        for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:20s} {seconds:10.3f}s {100 * seconds / total:6.1f}%")
        dominant = max((kv for kv in shares.items() if kv[0] != "unattributed"), key=lambda kv: kv[1])
        print(f"  dominant: {dominant[0]}")
        print(f"  spans + generate wait account for {total - shares['unattributed']:.3f}s "
              f"of the {total:.3f}s traced wall; unattributed {shares['unattributed']:.3f}s "
              f"against a tracing overhead of {overhead:+.3f}s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qgen pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    missing = [p for p in (ROOT / "src" / "qgen" / "__init__.py", GOLDEN_DIR) if not p.exists()]
    if missing:
        raise BenchError(f"not a qgen checkout, missing: {', '.join(map(str, missing))}")

    wl = WORKLOADS[args.workload]
    corpus, vectors = prepare_inputs(wl, args.seed)
    describe(args.workload, wl, args.seed, corpus, vectors)
    errors = check_golden()
    print(f"golden run: {'reproduced' if not errors else 'DIFFERS'}")

    config = {
        "dataset": str(corpus),
        "vectors": str(vectors),
        "backend": wl.backend,
        "backend_url": STUB_URL if wl.backend == "http" else None,
        "seed": args.seed,
        "sample_size": wl.sample,
        "prompts": PROMPTS,
        "questions_per_prompt": QUESTIONS_PER_PROMPT,
        "max_in_flight": MAX_IN_FLIGHT,
    }
    repeats = measure(config, wl, args.seed, args.seconds, bool(args.trace))

    for i, rep in enumerate(repeats):
        for err in rep.errors:
            errors.append(f"repeat {i}: {err}")
    digests = sorted({rep.digest for rep in repeats if rep.digest})
    if len(digests) > 1:
        errors.append(f"artifact digests differ across repeats: {digests}")
    failed = sum(1 for rep in repeats if rep.errors)
    good = [rep for rep in repeats if not rep.errors]
    untraced = [rep for rep in good if not rep.traced]
    traced = [rep for rep in good if rep.traced]

    print(f"artifact_sha256 {' '.join(digests)}")
    print(f"repeats: {len(repeats)} attempted, {failed} failed "
          f"(runs_failed_ratio {failed / len(repeats):.4f}); "
          f"{len(untraced)} untraced, {len(traced)} traced")
    for i, rep in enumerate(repeats):
        if rep.result:
            r = rep.result
            setup_cpu = "-" if r["setup_cpu_s"] is None else f"{r['setup_cpu_s']:.3f}s"
            print(f"  repeat {i}: {'traced  ' if rep.traced else 'untraced'} "
                  f"wall {r['run_wall_s']:.3f}s  cpu {r['run_cpu_s']:.3f}s  "
                  f"setup wall {r['setup_wall_s'] or 0:.3f}s  setup cpu {setup_cpu}")
    for err in errors:
        print(f"CHECK FAILED: {err}")

    metrics: dict[str, dict] = {}
    e2e = [end_to_end(rep) for rep in untraced]
    print(f"\nend-to-end (median of {len(e2e)} untraced repeats):")
    for name, unit in END_TO_END_UNITS.items():
        value = _median([m[name] for m in e2e])
        print(f"  {name:40s} {value:14.6f} {unit:6s} n={len(e2e)}")
        if not args.trace:
            metrics[name] = {"value": value, "unit": unit}
    for name in ("run_wall_s", "setup_wall_s"):
        value = _median([rep.result[name] for rep in untraced])
        print(f"  {name + ' (not bounded)':40s} {value:14.6f} s      n={len(untraced)}")

    if args.trace:
        metrics = report_trace(traced, _median([rep.result["run_wall_s"] for rep in untraced]))

    print(json.dumps({
        "correct": not errors,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
