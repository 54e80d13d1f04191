"""Command line entry points.

Three subcommands: ``run`` executes a full generation-and-scoring run
from a JSON config (flags override the file), ``stats`` emits the
dataset-level figure series, and ``report`` re-emits figures and the
report from a persisted run directory.

Exit codes: 0 success, 1 config error, 2 data error, 3 backend error,
4 partial completion (some results were persisted before an abort).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .corpus import load_squad
from .errors import BackendError, ConfigError, PipelineError, QgenError
from .pipeline import (
    BACKEND_KINDS,
    RunConfig,
    emit_dataset_figures,
    emit_figures,
    load_config,
    load_run,
    load_top_keywords,
    make_out_dir,
    run_pipeline,
    write_report,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_BACKEND = 3
EXIT_PARTIAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgen",
        description="Prompt-based question generation and similarity evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a full generation and scoring run")
    run.add_argument("--config", required=True, help="JSON config file")
    run.add_argument("--seed", type=int, help="override the sampling seed")
    run.add_argument(
        "--backend", choices=BACKEND_KINDS, help="override the backend kind"
    )
    run.add_argument("--threshold", type=float, help="override the match threshold")
    run.add_argument(
        "--sample-size", type=int, help="override the number of sampled contexts"
    )
    run.add_argument("--out", help="override the output directory")

    stats = sub.add_parser(
        "stats", help="emit question-length and keyword series for a dataset"
    )
    stats.add_argument("--dataset", required=True, help="SQuAD v1.1 JSON file")
    stats.add_argument("--out", required=True, help="output directory")

    report = sub.add_parser(
        "report", help="re-emit figures and report from a run directory"
    )
    report.add_argument("--run", required=True, help="persisted run directory")
    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """cfg with every given flag whose dest names a RunConfig field."""
    updates = {
        name: value
        for name, value in vars(args).items()
        if value is not None and name in RunConfig.__dataclass_fields__
    }
    return replace(cfg, **updates)


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, PipelineError):
        if exc.cells_done > 0:
            return EXIT_PARTIAL
        exc = exc.cause
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, BackendError):
        return EXIT_BACKEND
    return EXIT_DATA


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    run = run_pipeline(cfg)
    total = sum(len(c.records) for c in run.results)
    print(f"run complete: {len(run.results)} cells, {total} questions -> {cfg.out}")
    for pid, s in run.summaries.items():
        print(
            f"  prompt {pid}: n={s.n_questions} mean={s.mean:.4f} "
            f"median={s.median:.4f} matches={s.match_count}"
        )
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    if not Path(args.dataset).is_file():
        raise ConfigError(f"dataset file not found: {args.dataset}")
    out = make_out_dir(args.out)
    dataset = load_squad(args.dataset)
    written = emit_dataset_figures(dataset, out)
    print(
        f"dataset: {dataset.example_count} questions over "
        f"{len(dataset.records)} contexts"
    )
    for path in written:
        print(f"  wrote {path}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run)
    if not run_dir.is_dir():
        raise ConfigError(f"run directory not found: {run_dir}")
    run = load_run(run_dir)
    emit_figures(run, run_dir, load_top_keywords(run_dir))
    write_report(run, run_dir)
    print(f"re-emitted figures and report in {run_dir}")
    return EXIT_OK


_COMMANDS = {"run": _cmd_run, "stats": _cmd_stats, "report": _cmd_report}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except QgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
