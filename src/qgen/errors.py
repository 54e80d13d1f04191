"""Exception types raised across the qgen package.

Everything derives from :class:`QgenError` so callers can catch one base
class. Parse-type errors carry enough location detail (JSON path, line
number, record id) to find the offending input without a debugger.
"""

from __future__ import annotations


class QgenError(Exception):
    """Base class for all qgen errors."""


# -- corpus ----------------------------------------------------------------

class MalformedJson(QgenError):
    """Input is not syntactically valid JSON."""


class SchemaError(QgenError):
    """A required field is missing or has the wrong shape.

    ``path`` is a JSON path such as ``data[3].paragraphs[0].qas[2].question``.
    """

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class SpanError(QgenError):
    """An answer's character offsets do not slice to its text.

    Reported with the SQuAD ``qas`` id rather than dropped silently.
    """

    def __init__(self, qas_id: str, message: str) -> None:
        super().__init__(f"answer span for qas id {qas_id!r}: {message}")
        self.qas_id = qas_id


class SampleTooLarge(QgenError):
    """Requested more sampled contexts than the dataset holds."""


class InvalidChunkParams(QgenError):
    """Chunking requires max_len > doc_stride >= 0."""


# -- textstats / eval ------------------------------------------------------

class EmptyInput(QgenError):
    """An operation that needs at least one data point received none."""


class EmptyRecords(QgenError):
    """prompt_max needs at least one score record; context_cosines,
    score_cell and run_pipeline raise it for a context with no baseline
    questions."""


class MissingCell(QgenError):
    """The context-by-prompt result grid has a hole."""

    def __init__(self, context_id: int, prompt_id: str) -> None:
        super().__init__(f"no result for context {context_id}, prompt {prompt_id}")
        self.context_id = context_id
        self.prompt_id = prompt_id


# -- similarity ------------------------------------------------------------

class DimensionMismatch(QgenError):
    """Vector has the wrong number of components."""


class BadFloat(QgenError):
    """A vector component failed to parse as a float."""


class DuplicateToken(QgenError):
    """The same token appears twice in a vector file."""


class BadEncoding(QgenError):
    """A vector file is not valid UTF-8 text."""


# -- promptgen -------------------------------------------------------------

class BackendError(QgenError):
    """Base class for generation-backend failures."""


class BackendUnavailable(BackendError):
    """Transport failure or HTTP 5xx that persisted through retries."""


class BackendRejected(BackendError):
    """HTTP 3xx or 4xx or a protocol-violating response body; never retried."""


class BackendTimeout(BackendError):
    """The backend did not answer within the configured timeout."""


class NoQuestionsFound(QgenError):
    """A response contained nothing the question parser could extract."""


# -- pipeline --------------------------------------------------------------

class ConfigError(QgenError):
    """Run configuration is invalid or incomplete."""


class PipelineError(QgenError):
    """A module error re-raised with the pipeline stage it occurred in.

    ``cells_done`` counts (context, prompt) cells that were fully scored
    and persisted before the abort; nonzero means partial results exist.
    """

    def __init__(self, stage: str, cause: BaseException, cells_done: int = 0) -> None:
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause
        self.cells_done = cells_done
