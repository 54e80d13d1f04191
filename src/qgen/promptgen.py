"""Prompt rendering, generation backends, and response parsing.

The four instruction variants are fixed strings; rendering wraps them in a
byte-stable "Text: ... Questions:" scaffold so responses are easy to parse
back into individual questions. Backends implement a single
``complete(request)`` call; the HTTP flavors retry transport failures and
5xx with exponential backoff, and the mock flavor fabricates deterministic
questions from the context so whole pipeline runs are reproducible
offline.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Callable, Protocol

from .errors import (
    BackendRejected,
    BackendTimeout,
    BackendUnavailable,
    ConfigError,
    NoQuestionsFound,
)
from .rng import Xoshiro256

PROMPT_IDS = ("A", "B", "C", "D")

_INSTRUCTIONS = {
    "A": "Generate 5 questions from the text;",
    "B": "Generate 5 complex questions from the text.",
    "C": "Generate 5 questions from the text; make sure the questions can be answered.",
    "D": (
        "Generate 5 questions from the text; answer the question in the text; "
        "if the question is answered in the context, output 5 questions."
    ),
}


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    instruction: str

    def __post_init__(self) -> None:
        if self.id not in PROMPT_IDS:
            raise ValueError(f"unknown prompt id {self.id!r}")


def default_templates(ids: str = "ABCD") -> list[PromptTemplate]:
    return [PromptTemplate(id=i, instruction=_INSTRUCTIONS[i]) for i in ids]


@dataclass(frozen=True)
class GeneratedQuestion:
    context_id: int
    prompt_id: str
    index: int
    text: str


@dataclass(frozen=True)
class BackendRequest:
    prompt: str
    temperature: float
    max_tokens: int


@dataclass
class CallRecord:
    latency_s: float
    retries: int


def render_prompt(template: PromptTemplate, context: str) -> str:
    """Instruction, then the context, then the answer cue; byte-stable."""
    if not context:
        raise ValueError("context must be non-empty")
    return f"{template.instruction}\nText: {context}\nQuestions:"


class Backend(Protocol):
    def complete(self, request: BackendRequest) -> str: ...

    def identity(self) -> dict: ...


def generate(
    backend: Backend,
    request: BackendRequest,
    call_log: list[CallRecord] | None = None,
) -> str:
    """Send one request and return the raw completion text.

    Latency and the backend's retry count for the call, returned or
    raised, are appended to ``call_log`` when one is supplied.
    """
    started = time.monotonic()
    try:
        return backend.complete(request)
    finally:
        if call_log is not None:
            retries = getattr(backend, "last_retries", 0)
            call_log.append(CallRecord(latency_s=time.monotonic() - started, retries=retries))


# -- mock backend ------------------------------------------------------------

_SENTENCE_RE = re.compile(r"[^.!?]+[.!?]?")
_CAPWORD_RE = re.compile(r"[A-Z][\w'-]*(?:\s+[A-Z][\w'-]*)*")
_COUNT_RE = re.compile(r"Generate (\d+)")
_CONTEXT_RE = re.compile(r"\nText: (.*)\nQuestions:$", re.DOTALL)

_QUESTION_FORMS = (
    "What is mentioned about {np}?",
    "Who is associated with {np}?",
    "When is {np} relevant in the passage?",
    "What does the text say about {np}?",
)


class MockBackend:
    """Deterministic stand-in for a text-generation service.

    Fabricates a numbered list of question-shaped lines from the context
    embedded in the prompt: it picks sentences with a seeded choice and
    rewrites each around the sentence's leading capitalized token span.
    The per-call stream is derived from (seed, sha256(prompt)), so a fixed
    seed and prompt always produce the same bytes, calls are stateless,
    and concurrent dispatch is safe. Useful for pipeline testing, not for
    linguistic quality.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def identity(self) -> dict:
        return {"kind": "mock", "seed": self.seed}

    def complete(self, request: BackendRequest) -> str:
        match = _CONTEXT_RE.search(request.prompt)
        source = match.group(1) if match else request.prompt
        count_match = _COUNT_RE.search(request.prompt)
        count = int(count_match.group(1)) if count_match else 5

        digest = hashlib.sha256(request.prompt.encode("utf-8")).digest()
        rng = Xoshiro256(self.seed ^ int.from_bytes(digest[:8], "big"))

        sentences = [s.strip() for s in _SENTENCE_RE.findall(source) if s.strip()]
        if not sentences:
            sentences = [source.strip() or "the text"]
        lines = []
        for i in range(count):
            sentence = rng.choice(sentences)
            cap = _CAPWORD_RE.search(sentence)
            subject = cap.group(0) if cap else sentence.split()[0]
            form = rng.choice(_QUESTION_FORMS)
            lines.append(f"{i + 1}. {form.format(np=subject)}")
        return "\n".join(lines)


# -- HTTP backends -----------------------------------------------------------

class HttpBackend:
    """Minimal wire contract: POST {prompt, temperature, max_tokens} -> {text}.

    Only http and https URLs with a host are accepted. Transport errors
    and 5xx are retried with exponential backoff; any other non-2xx
    answer raises BackendRejected at once. Subclasses adapt the wire
    format through ``_payload`` and ``_extract``.
    """

    def __init__(
        self,
        url: str,
        token: str | None = None,
        timeout_s: float = 30.0,
        attempts: int = 3,
        backoff_base_s: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        # urlopen would also read file:, ftp: and data: URLs; no host, no server
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigError(f"backend URL must be http(s)://host/..., got {url!r}")
        self.url = url
        self.token = token
        self.timeout_s = timeout_s
        self.attempts = attempts
        self.backoff_base_s = backoff_base_s
        self.sleep = sleep
        self._local = threading.local()

    @property
    def last_retries(self) -> int:
        """Retries used by the calling thread's last call, returned or raised."""
        return getattr(self._local, "retries", 0)

    def identity(self) -> dict:
        return {"kind": "http", "url": self.url}

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _payload(self, request: BackendRequest) -> dict:
        return {
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }

    def complete(self, request: BackendRequest) -> str:
        """POST the request with bounded retries and return the completion.

        Each attempt opens a new connection. The retries used so far are
        recorded per thread for ``last_retries``. Exhausted retries raise
        BackendTimeout for timeouts and BackendUnavailable otherwise.
        """
        data = json.dumps(self._payload(request), allow_nan=False).encode("utf-8")
        req = urllib.request.Request(self.url, data, self._headers(), method="POST")
        last_exc: Exception | None = None
        timed_out = False
        for attempt in range(self.attempts):
            self._local.retries = attempt
            if attempt > 0:
                self.sleep(self.backoff_base_s * (2 ** (attempt - 1)))
            try:
                try:
                    resp = urllib.request.urlopen(req, timeout=self.timeout_s)
                except urllib.error.HTTPError as exc:
                    resp = exc  # a non-2xx answer, still a response with a body
                with resp:
                    status, body = resp.status, resp.read()
            except (OSError, http.client.HTTPException) as exc:
                last_exc = exc
                # urllib wraps a connect timeout in URLError, not a read timeout
                timed_out = isinstance(exc, TimeoutError) or isinstance(
                    getattr(exc, "reason", None), TimeoutError
                )
                continue
            if status >= 500:
                last_exc = BackendUnavailable(f"HTTP {status}")
                timed_out = False
                continue
            if status >= 300:
                raise BackendRejected(f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}")
            return self._extract(body)
        if timed_out:
            raise BackendTimeout(
                f"no answer from {self.url} within {self.timeout_s}s "
                f"after {self.attempts} attempts"
            ) from last_exc
        raise BackendUnavailable(
            f"{self.url} unavailable after {self.attempts} attempts: {last_exc}"
        ) from last_exc

    def _extract(self, body: bytes) -> str:
        try:
            text = json.loads(body)["text"]
        except (ValueError, KeyError, TypeError) as exc:
            raise BackendRejected(f"response body lacks 'text': {exc}") from exc
        if not isinstance(text, str):
            raise BackendRejected("'text' field is not a string")
        return text


class OpenAICompletionsBackend(HttpBackend):
    """Adapter for OpenAI-compatible /completions endpoints.

    Same request fields plus an optional model name; the completion text
    is read from choices[0].text.
    """

    def __init__(self, url: str, token: str | None = None, model: str | None = None, **kw) -> None:
        super().__init__(url, token, **kw)
        self.model = model

    def identity(self) -> dict:
        return {"kind": "openai", "url": self.url, "model": self.model}

    def _payload(self, request: BackendRequest) -> dict:
        payload = super()._payload(request)
        if self.model:
            payload["model"] = self.model
        return payload

    def _extract(self, body: bytes) -> str:
        try:
            text = json.loads(body)["choices"][0]["text"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendRejected(f"response body lacks choices[0].text: {exc}") from exc
        if not isinstance(text, str):
            raise BackendRejected("choices[0].text is not a string")
        return text


# -- response parsing ----------------------------------------------------------

@dataclass(frozen=True)
class ParsedQuestions:
    texts: tuple[str, ...]
    shortfall: bool


_NUM_LINE_RE = re.compile(r"^\d{1,3}[.)]\s+")
_NUM_MARKER_RE = re.compile(r"(?:^|(?<=\s))\d{1,3}[.)]\s+")
_BULLET_RE = re.compile(r"^[-*]\s+")
_TRAILING_TERMINAL_RE = re.compile(r"[.?!]+$")


def _normalize(text: str) -> str:
    text = text.strip()
    match = _TRAILING_TERMINAL_RE.search(text)
    if match:
        text = text[: match.start()] + match.group(0)[-1]
    return text


def parse_questions(raw: str, expected: int) -> ParsedQuestions:
    """Pull individual questions out of a completion.

    Accepts numbered items ("1.", "1)", inline or one per line), bulleted
    items ("-", "*"), and bare lines ending in a question mark. Markers and
    surrounding whitespace are stripped, repeated terminal punctuation is
    collapsed, and at most ``expected`` items are returned in order.
    ``shortfall`` is set when fewer than ``expected`` were found; zero
    items raises NoQuestionsFound.
    """
    items: list[str] = []
    for line in raw.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if _NUM_LINE_RE.match(stripped):
            segments = _NUM_MARKER_RE.split(stripped)
            items.extend(seg for seg in (s.strip() for s in segments) if seg)
        elif _BULLET_RE.match(stripped):
            item = _BULLET_RE.sub("", stripped).strip()
            if item:
                items.append(item)
        elif stripped.endswith("?"):
            items.append(stripped)
    items = [_normalize(i) for i in items]
    items = [i for i in items if i]
    if not items:
        raise NoQuestionsFound("response contained no parseable questions")
    kept = items[:expected]
    return ParsedQuestions(texts=tuple(kept), shortfall=len(kept) < expected)
