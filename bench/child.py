"""One benchmark repeat: a fresh interpreter that imports qgen and runs a pipeline.

Usage: python3 bench/child.py '<request json>'   (with src/ on PYTHONPATH)

The request holds the ``RunConfig`` fields and a ``trace`` flag. The wall
and CPU clocks start before ``import qgen``. The child prints one JSON line
with the run's wall time and CPU time (user + system, all threads, as
``time.process_time`` counts it, which leaves out time the host stole
from the virtual CPU), the same two for set-up (until the first
``generate`` call starts), the peak RSS and the number of questions
scored.

Untraced, the only wrapper is on ``qgen.pipeline.generate``, which reads
both clocks once, on the first call. Traced, every module-level name that
``qgen.pipeline`` and ``qgen.scoring`` call into is wrapped from here,
without editing ``src/qgen``: each call records a span (name, start, end,
parent span, thread) kept in memory, and the child reports per-function
call counts, busy and self time, and how the main thread's wall time
divides between spans and waiting for completions.
"""

import time

T0 = time.perf_counter()
CPU0 = time.process_time()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

# (module, attribute, span name); the span name is <layer>.<function>
TRACED = (
    ("pipeline", "load_squad", "corpus.load_squad"),
    ("pipeline", "sample_contexts", "corpus.sample_contexts"),
    ("pipeline", "load_vectors_path", "similarity.load_vectors_path"),
    ("pipeline", "_sha256_file", "pipeline.vector_digest"),
    ("pipeline", "render_prompt", "promptgen.render_prompt"),
    ("pipeline", "generate", "promptgen.generate"),
    ("pipeline", "parse_questions", "promptgen.parse_questions"),
    ("pipeline", "score_cell", "scoring.score_cell"),
    ("pipeline", "assemble_run", "scoring.assemble_run"),
    ("pipeline", "persist_run", "pipeline.persist_run"),
    ("pipeline", "emit_figures", "pipeline.emit_figures"),
    ("pipeline", "write_report", "pipeline.write_report"),
    ("pipeline", "question_length_histogram", "textstats.question_length_histogram"),
    ("pipeline", "frequent_words", "textstats.frequent_words"),
    ("scoring", "sentence_vector", "similarity.sentence_vector"),
    ("scoring", "cosine_similarity", "similarity.cosine_similarity"),
)


class Tracer:
    """In-memory spans around wrapped module attributes, one stack per thread."""

    def __init__(self) -> None:
        # each span is [name, start, end, parent span or None, thread id, failed]
        self.spans: list[list] = []
        self.local = threading.local()
        self.observed: dict[str, object] = {}
        self.sentences: set = set()

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, None, threading.get_ident(), False])

    def wrap(self, module, attr: str, name: str) -> bool:
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        spans, local, clock, ident = self.spans, self.local, time.perf_counter, threading.get_ident
        observed, sentences = self.observed, self.sentences
        keep_arg = name == "similarity.sentence_vector"
        keep_result = name in ("corpus.load_squad", "similarity.load_vectors_path")

        def traced(*args, **kwargs):
            parent = getattr(local, "top", None)
            span = [name, clock(), 0.0, parent, ident(), False]
            spans.append(span)
            local.top = span
            if keep_arg:
                sentence = args[0]
                sentences.add(sentence if isinstance(sentence, str) else tuple(sentence))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                local.top = parent
            if keep_result:
                observed[name] = result
            return result

        setattr(module, attr, traced)
        return True

    def report(self, wall_end: float, main_thread: int) -> dict:
        per_name: dict[str, dict] = {}
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span[3] is not None:
                key = id(span[3])
                child_time[key] = child_time.get(key, 0.0) + (span[2] - span[1])
        for span in self.spans:
            stats = per_name.setdefault(
                span[0], {"calls": 0, "failed": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            duration = span[2] - span[1]
            stats["calls"] += 1
            stats["failed"] += span[5]
            stats["busy_s"] += duration
            stats["self_s"] += duration - child_time.get(id(span), 0.0)

        top = sorted(
            (s for s in self.spans if s[4] == main_thread and s[3] is None),
            key=lambda s: s[1],
        )
        generate = [s for s in self.spans if s[0] == "promptgen.generate"]
        wait = 0.0
        if generate:
            lo = min(s[1] for s in generate)
            hi = max(s[2] for s in generate)
            covered = sum(max(0.0, min(s[2], hi) - max(s[1], lo)) for s in top)
            wait = (hi - lo) - covered
        stages: dict[str, float] = {}
        for span in top:
            stages[span[0]] = stages.get(span[0], 0.0) + (span[2] - span[1])
        latencies = sorted((s[2] - s[1]) * 1000.0 for s in generate)
        dataset = self.observed.get("corpus.load_squad")
        table = self.observed.get("similarity.load_vectors_path")
        sv_calls = per_name.get("similarity.sentence_vector", {}).get("calls", 0)
        return {
            "functions": per_name,
            "main_stage_s": stages,
            "generate_wait_s": wait,
            "unattributed_s": (wall_end - T0) - sum(stages.values()) - wait,
            "generate_latency_ms": {
                "p50": _nearest_rank(latencies, 0.50),
                "p95": _nearest_rank(latencies, 0.95),
                "max": latencies[-1] if latencies else 0.0,
            },
            "sentence_vector_distinct_ratio": len(self.sentences) / sv_calls if sv_calls else 0.0,
            "contexts": len(dataset.records) if dataset is not None else 0,
            "baselines": dataset.example_count if dataset is not None else 0,
            "vector_rows": len(table) if table is not None else 0,
        }


def _nearest_rank(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main() -> None:
    request = json.loads(sys.argv[1])
    tracer = Tracer() if request["trace"] else None
    import_start = time.perf_counter()
    import qgen.pipeline as pipeline
    import qgen.scoring as scoring

    if tracer is not None:
        tracer.record("pipeline.import_qgen", import_start, time.perf_counter())
        modules = {"pipeline": pipeline, "scoring": scoring}
        missing = [name for mod, attr, name in TRACED if not tracer.wrap(modules[mod], attr, name)]
    else:
        stamps: list[tuple[float, float]] = []
        real_generate = pipeline.generate

        def generate(*args, **kwargs):
            if not stamps:
                stamps.append((time.perf_counter(), time.process_time()))
            return real_generate(*args, **kwargs)

        pipeline.generate = generate

    run = pipeline.run_pipeline(pipeline.RunConfig(**request["config"]))
    end = time.perf_counter()
    end_cpu = time.process_time()

    if tracer is not None:
        trace = tracer.report(end, threading.main_thread().ident)
        starts = [s[1] for s in tracer.spans if s[0] == "promptgen.generate"]
        first_generate = min(starts) if starts else None
        first_generate_cpu = None
        trace["missing"] = missing
    else:
        trace = None
        first_generate, first_generate_cpu = stamps[0] if stamps else (None, None)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(
        json.dumps(
            {
                "run_wall_s": end - T0,
                "run_cpu_s": end_cpu - CPU0,
                "setup_wall_s": None if first_generate is None else first_generate - T0,
                "setup_cpu_s": None if first_generate_cpu is None else first_generate_cpu - CPU0,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "questions": sum(len(cell.records) for cell in run.results),
                "trace": trace,
            }
        )
    )


if __name__ == "__main__":
    main()
