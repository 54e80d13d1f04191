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
import ssl
import threading
import time
import urllib.parse
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

_INSTRUCTIONS = {
    "A": "Generate 5 questions from the text;",
    "B": "Generate 5 complex questions from the text.",
    "C": "Generate 5 questions from the text; make sure the questions can be answered.",
    "D": (
        "Generate 5 questions from the text; answer the question in the text; "
        "if the question is answered in the context, output 5 questions."
    ),
}

PROMPT_IDS = tuple(_INSTRUCTIONS)


@dataclass(frozen=True)
class BackendRequest:
    prompt: str
    temperature: float
    max_tokens: int


@dataclass
class CallRecord:
    latency_s: float
    retries: int


def render_prompt(prompt_id: str, context: str) -> str:
    """The prompt's instruction, then the context, then the answer cue;
    byte-stable."""
    if prompt_id not in _INSTRUCTIONS:
        raise ValueError(f"unknown prompt id {prompt_id!r}")
    if not context:
        raise ValueError("context must be non-empty")
    return f"{_INSTRUCTIONS[prompt_id]}\nText: {context}\nQuestions:"


class Backend(Protocol):
    def complete(self, request: BackendRequest) -> str: ...

    def identity(self) -> dict: ...


def generate(backend: Backend, request: BackendRequest, call_log: list[CallRecord]) -> str:
    """Send one request and return the raw completion text.

    Latency and the backend's retry count for the call, returned or
    raised, are appended to ``call_log``.
    """
    started = time.monotonic()
    try:
        return backend.complete(request)
    finally:
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

    Only http(s) URLs with a host and no user info, in printable ASCII,
    and printable ASCII tokens are accepted. Each attempt connects to that
    host itself: no proxy is read from the environment. Transport errors
    and 5xx are retried with exponential backoff, except a certificate
    that fails verification, which raises BackendUnavailable at once; any
    other non-2xx answer, a 3xx included, raises BackendRejected at once.
    Subclasses adapt the wire format through ``_payload`` and ``_extract``.
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
        # a URL that could never be sent fails here, not after every retry
        try:
            parts = urllib.parse.urlsplit(url)
            port = parts.port  # ValueError unless a number in 0-65535
        except ValueError:
            parts, port = urllib.parse.urlsplit(""), None  # refused below
        sendable = re.fullmatch(r"[!-~]+", url) and "@" not in parts.netloc
        if parts.scheme not in ("http", "https") or not parts.hostname or not sendable:
            # the message reaches the log; a password in the URL must not
            shown = "a URL with '@'" if "@" in url else repr(url)
            raise ConfigError(
                f"backend URL must be http(s)://host[:port]/... of printable ASCII, got {shown}"
            )
        if token is not None and not re.fullmatch(r"[ -~]*", token):
            raise ConfigError("backend token must be printable ASCII (no newline)")
        self.url = url
        self.token = token
        self.timeout_s = timeout_s
        self.attempts = attempts
        self.backoff_base_s = backoff_base_s
        self.sleep = sleep
        self._local = threading.local()
        https = parts.scheme == "https"
        self._conn_class = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._address = (parts.hostname, port)
        self._path = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._headers = {"Content-Type": "application/json", "Connection": "close"}
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    @property
    def last_retries(self) -> int:
        """Retries used by the calling thread's last call, returned or raised."""
        return getattr(self._local, "retries", 0)

    def identity(self) -> dict:
        return {"kind": "http", "url": self.url}

    def _payload(self, request: BackendRequest) -> dict:
        return {
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }

    def complete(self, request: BackendRequest) -> str:
        """POST the request with bounded retries and return the completion.

        Each attempt opens a new connection, closed after it. The retries
        used so far are recorded per thread for ``last_retries``. Exhausted
        retries raise BackendTimeout for timeouts and BackendUnavailable otherwise.
        """
        data = json.dumps(self._payload(request), allow_nan=False).encode("utf-8")
        last_exc: Exception | None = None
        for attempt in range(self.attempts):
            self._local.retries = attempt
            if attempt > 0:
                self.sleep(self.backoff_base_s * (2 ** (attempt - 1)))
            conn = self._conn_class(*self._address, timeout=self.timeout_s)
            try:
                conn.request("POST", self._path, data, self._headers)
                resp = conn.getresponse()
                status, body = resp.status, resp.read()
            except ssl.SSLCertVerificationError as exc:
                # the same certificate fails every attempt
                raise BackendUnavailable(
                    f"{self.url} unavailable, its certificate failed verification: {exc}"
                ) from exc
            except (OSError, http.client.HTTPException) as exc:
                last_exc = exc
                continue
            finally:
                conn.close()
            if status >= 500:
                last_exc = BackendUnavailable(f"HTTP {status}")
                continue
            if status >= 300:
                raise BackendRejected(f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}")
            return self._extract(body)
        if isinstance(last_exc, TimeoutError):
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
        # a body nested too deep to decode raises RecursionError
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
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
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise BackendRejected(f"response body lacks choices[0].text: {exc}") from exc
        if not isinstance(text, str):
            raise BackendRejected("choices[0].text is not a string")
        return text


# -- response parsing ----------------------------------------------------------

_NUM_LINE_RE = re.compile(r"^\d{1,3}[.)]\s+")
_NUM_MARKER_RE = re.compile(r"(?:^|(?<=\s))\d{1,3}[.)]\s+")
_BULLET_RE = re.compile(r"^[-*]\s+")


def _normalize(text: str) -> str:
    """text stripped, with a trailing run of ``.``, ``?`` and ``!`` cut
    to its last mark."""
    text = text.strip()
    body = text.rstrip(".?!")
    return body + text[-1] if len(body) < len(text) else text


def parse_questions(raw: str, expected: int) -> list[str]:
    """Pull individual questions out of a completion.

    Accepts numbered items ("1.", "1)", inline or one per line), bulleted
    items ("-", "*"), and bare lines ending in a question mark. Markers and
    surrounding whitespace are stripped, repeated terminal punctuation is
    collapsed, and the first ``expected`` items are returned in order;
    fewer is a shortfall. Zero items raises NoQuestionsFound.
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
    return items[:expected]
