"""A complete generation-and-scoring run with the mock backend.

Samples contexts, renders all four prompt variants per context, collects
deterministic mock completions, scores every generated question against
the context's baseline questions, and persists the full artifact set.
Running this script twice produces byte-identical results (manifest
timestamps aside).
"""

import json
from pathlib import Path

from qgen import RunConfig, run_pipeline

HERE = Path(__file__).parent
OUT = HERE / "out" / "full_run"

cfg = RunConfig(
    dataset=str(HERE / "data" / "mini_squad.json"),
    vectors=str(HERE / "data" / "vectors_50d.txt"),
    out=str(OUT),
    backend="mock",
    seed=7,
    sample_size=4,      # the mini dataset has 6 contexts
    threshold=0.7,
)

run = run_pipeline(cfg)

print(f"scored {sum(len(c.records) for c in run.results)} questions "
      f"in {len(run.results)} context-prompt cells")
print()
print("per-prompt summaries (max similarity per question):")
for pid, s in run.summaries.items():
    print(f"  {pid}: n={s.n_questions} mean={s.mean:.4f} median={s.median:.4f} "
          f"q1={s.q1:.4f} q3={s.q3:.4f} matches={s.match_count}")
print()

print("highest scoring question per prompt:")
for pid in run.summaries:
    best = max(
        (rec for cell in run.results if cell.prompt_id == pid for rec in cell.records),
        key=lambda rec: rec.question_max,
    )
    print(f"  {pid} ({best.question_max:.3f}): {best.question}")
print()

print(f"artifacts in {OUT}:")
for path in sorted(OUT.iterdir()):
    print(f"  {path.name:22s} {path.stat().st_size:6d} bytes")
print()

manifest = json.loads((OUT / "manifest.json").read_text())
print(f"manifest status={manifest['status']!r} questions={manifest['questions']}")
