"""Prompt-based question generation over SQuAD, with similarity scoring.

The package splits into corpus handling (parse, reverse, sample, chunk),
text statistics (length histogram, keyword frequencies), sentence
similarity over word-vector files, prompt rendering and generation
backends, score aggregation, and a pipeline/CLI layer that ties a full
run together and persists its artifacts.
"""

from .corpus import (
    Answer,
    BaselineQuestion,
    Chunk,
    ContextRecord,
    ReversedExample,
    SquadDataset,
    chunk_context,
    load_squad,
    parse_squad,
    reverse_dataset,
    sample_contexts,
)
from .errors import (
    BackendError,
    BackendRejected,
    BackendTimeout,
    BackendUnavailable,
    BadEncoding,
    BadFloat,
    ConfigError,
    DimensionMismatch,
    DuplicateToken,
    EmptyInput,
    EmptyRecords,
    InvalidChunkParams,
    MalformedJson,
    MissingCell,
    NoQuestionsFound,
    PipelineError,
    QgenError,
    SampleTooLarge,
    SchemaError,
    SpanError,
)
from .pipeline import (
    RunConfig,
    emit_dataset_figures,
    emit_figures,
    load_config,
    load_run,
    run_pipeline,
)
from .promptgen import (
    PROMPT_IDS,
    BackendRequest,
    HttpBackend,
    MockBackend,
    OpenAICompletionsBackend,
    generate,
    parse_questions,
    render_prompt,
)
from .scoring import (
    BoxStats,
    EvalRun,
    PromptContextResult,
    PromptSummary,
    RunInfo,
    ScoreRecord,
    assemble_run,
    context_cosines,
    count_matches,
    prompt_max,
    score_cell,
    summarize,
)
from .similarity import (
    EmbeddingTable,
    SentenceVector,
    VectorIndex,
    cosine_similarity,
    load_vectors,
    load_vectors_path,
    sentence_vector,
    tokenize,
    vocabulary,
)
from .textstats import (
    Histogram,
    bundled_stopwords,
    frequent_words,
    histogram_to_csv,
    keywords_to_csv,
    load_stopwords,
    question_length_histogram,
)

__version__ = "0.1.0"
