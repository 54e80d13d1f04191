"""Prompt rendering, mock and HTTP backends, response parsing."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from qgen.errors import (
    BackendRejected,
    BackendTimeout,
    BackendUnavailable,
    ConfigError,
    NoQuestionsFound,
)
from qgen.promptgen import (
    PROMPT_IDS,
    BackendRequest,
    CallRecord,
    HttpBackend,
    MockBackend,
    OpenAICompletionsBackend,
    PromptTemplate,
    default_templates,
    generate,
    parse_questions,
    render_prompt,
)

EXPECTED_INSTRUCTIONS = {
    "A": "Generate 5 questions from the text;",
    "B": "Generate 5 complex questions from the text.",
    "C": "Generate 5 questions from the text; make sure the questions can be answered.",
    "D": (
        "Generate 5 questions from the text; answer the question in the text; "
        "if the question is answered in the context, output 5 questions."
    ),
}


# -- templates and rendering -----------------------------------------------------

def test_instruction_strings_byte_exact():
    templates = {t.id: t.instruction for t in default_templates()}
    assert templates == EXPECTED_INSTRUCTIONS


def test_default_templates_order_and_subset():
    assert [t.id for t in default_templates()] == list(PROMPT_IDS)
    assert [t.id for t in default_templates("DB")] == ["D", "B"]


def test_unknown_prompt_id_rejected():
    with pytest.raises(ValueError):
        PromptTemplate(id="E", instruction="whatever")
    with pytest.raises(KeyError):
        default_templates("AX")


def test_render_prompt_example():
    tpl = default_templates("A")[0]
    assert render_prompt(tpl, "Hello world.") == (
        "Generate 5 questions from the text;\nText: Hello world.\nQuestions:"
    )


def test_render_prompt_rejects_empty_context():
    with pytest.raises(ValueError):
        render_prompt(default_templates("A")[0], "")


# -- mock backend -------------------------------------------------------------------

CONTEXT = (
    "The Aster Observatory sits on Mount Calder. "
    "Construction finished in 1928. "
    "Lena Moss directed the first survey."
)


def mock_prompt(context: str = CONTEXT, prompt_id: str = "A") -> str:
    return render_prompt(default_templates(prompt_id)[0], context)


def test_mock_is_deterministic_per_seed_and_prompt():
    req = BackendRequest(prompt=mock_prompt(), temperature=0.5, max_tokens=256)
    a = MockBackend(seed=7).complete(req)
    b = MockBackend(seed=7).complete(req)
    assert a == b
    assert MockBackend(seed=8).complete(req) != a


def test_mock_outputs_vary_across_seeds():
    req = BackendRequest(prompt=mock_prompt(), temperature=0.5, max_tokens=256)
    outputs = {MockBackend(seed=s).complete(req) for s in range(100)}
    assert len(outputs) >= 95


def test_mock_outputs_vary_across_prompts():
    backend = MockBackend(seed=0)
    seen = {
        backend.complete(
            BackendRequest(prompt=mock_prompt(prompt_id=pid), temperature=0.5, max_tokens=256)
        )
        for pid in PROMPT_IDS
    }
    assert len(seen) == 4


def test_mock_emits_numbered_question_lines():
    req = BackendRequest(prompt=mock_prompt(), temperature=0.5, max_tokens=256)
    lines = MockBackend(seed=3).complete(req).splitlines()
    assert len(lines) == 5
    for i, line in enumerate(lines, start=1):
        assert line.startswith(f"{i}. ")
        assert line.endswith("?")


def test_mock_honors_requested_count():
    prompt = mock_prompt().replace("Generate 5", "Generate 3")
    req = BackendRequest(prompt=prompt, temperature=0.5, max_tokens=256)
    assert len(MockBackend(seed=1).complete(req).splitlines()) == 3


def test_mock_is_stateless_across_calls():
    backend = MockBackend(seed=5)
    req1 = BackendRequest(prompt=mock_prompt(prompt_id="A"), temperature=0.5, max_tokens=256)
    req2 = BackendRequest(prompt=mock_prompt(prompt_id="B"), temperature=0.5, max_tokens=256)
    first = backend.complete(req1)
    backend.complete(req2)
    assert backend.complete(req1) == first


def test_mock_handles_prompt_without_scaffold():
    req = BackendRequest(prompt="just words, no scaffold", temperature=0.5, max_tokens=256)
    out = MockBackend(seed=0).complete(req)
    assert len(out.splitlines()) == 5


def test_mock_identity():
    assert MockBackend(seed=9).identity() == {"kind": "mock", "seed": 9}


def test_generate_records_call_log():
    log: list[CallRecord] = []
    backend = MockBackend(seed=2)
    req = BackendRequest(prompt=mock_prompt(), temperature=0.5, max_tokens=256)
    text = generate(backend, req, call_log=log)
    assert text
    assert len(log) == 1
    assert log[0].latency_s >= 0.0
    assert log[0].retries == 0


# -- HTTP wire contract ----------------------------------------------------------------

@contextmanager
def scripted_server(script: list, reply: dict | str | None = None):
    """Serve scripted statuses; "ok" entries reply 200 with ``reply`` JSON,
    "sleep" answers late and "drop" closes the connection without a reply."""
    state = {"captured": [], "script": list(script)}
    ok_body = reply if reply is not None else {"text": "1. Why?"}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            state["captured"].append(
                {
                    "path": self.path,
                    "headers": dict(self.headers),
                    "body": json.loads(self.rfile.read(length) or b"{}"),
                }
            )
            step = state["script"].pop(0) if state["script"] else "ok"
            if step == "ok":
                data = (
                    ok_body.encode("utf-8")
                    if isinstance(ok_body, str)
                    else json.dumps(ok_body).encode("utf-8")
                )
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
            elif step == "drop":
                self.close_connection = True
            elif step == "sleep":
                time.sleep(0.75)
                try:
                    self.send_response(200)
                    self.end_headers()
                except OSError:
                    pass
            else:
                self.send_response(int(step))
                self.send_header("Content-Length", "0")
                self.end_headers()

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.block_on_close = False
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/complete", state
    finally:
        server.shutdown()
        server.server_close()


REQ = BackendRequest(prompt="Generate 5 questions.", temperature=0.5, max_tokens=128)


def test_http_request_fields_and_auth_header():
    with scripted_server(["ok"]) as (url, state):
        backend = HttpBackend(url, token="tok123", sleep=lambda s: None)
        text = backend.complete(REQ)
    assert text == "1. Why?"
    captured = state["captured"]
    assert len(captured) == 1
    body = captured[0]["body"]
    assert body == {
        "prompt": "Generate 5 questions.",
        "temperature": 0.5,
        "max_tokens": 128,
    }
    assert captured[0]["headers"]["Authorization"] == "Bearer tok123"
    assert captured[0]["headers"]["Content-Type"].startswith("application/json")


def test_http_no_token_no_auth_header():
    with scripted_server(["ok"]) as (url, state):
        HttpBackend(url, sleep=lambda s: None).complete(REQ)
    assert "Authorization" not in state["captured"][0]["headers"]


# both wire formats share one retry loop; each gets a reply its _extract accepts
BACKEND_REPLIES = pytest.mark.parametrize(
    "backend_cls, reply",
    [
        (HttpBackend, {"text": "1. Why?"}),
        (OpenAICompletionsBackend, {"choices": [{"text": "1. Why?"}]}),
    ],
    ids=["http", "openai"],
)


@BACKEND_REPLIES
def test_http_retries_5xx_then_succeeds(backend_cls, reply):
    sleeps: list[float] = []
    with scripted_server([503, 503, "ok"], reply=reply) as (url, state):
        backend = backend_cls(url, sleep=sleeps.append)
        text = backend.complete(REQ)
    assert text == "1. Why?"
    assert backend.last_retries == 2
    assert len(state["captured"]) == 3
    assert sleeps == [1.0, 2.0]


@BACKEND_REPLIES
def test_http_gives_up_after_three_5xx(backend_cls, reply):
    sleeps: list[float] = []
    with scripted_server([503, 503, 503], reply=reply) as (url, state):
        backend = backend_cls(url, sleep=sleeps.append)
        with pytest.raises(BackendUnavailable):
            backend.complete(REQ)
    assert len(state["captured"]) == 3
    assert sleeps == [1.0, 2.0]


def test_http_4xx_rejected_without_retry():
    sleeps: list[float] = []
    with scripted_server([400]) as (url, state):
        backend = HttpBackend(url, sleep=sleeps.append)
        with pytest.raises(BackendRejected):
            backend.complete(REQ)
    assert len(state["captured"]) == 1
    assert sleeps == []


def test_http_timeout_raises_backend_timeout():
    with scripted_server(["sleep", "sleep"]) as (url, _):
        backend = HttpBackend(url, timeout_s=0.2, attempts=2, sleep=lambda s: None)
        with pytest.raises(BackendTimeout):
            backend.complete(REQ)


def test_http_connection_refused_unavailable():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    backend = HttpBackend(
        f"http://127.0.0.1:{port}/complete", attempts=2, sleep=lambda s: None
    )
    with pytest.raises(BackendUnavailable):
        backend.complete(REQ)


def test_http_dropped_connection_retried_then_unavailable():
    sleeps: list[float] = []
    with scripted_server(["drop", "drop", "drop"]) as (url, state):
        backend = HttpBackend(url, sleep=sleeps.append)
        with pytest.raises(BackendUnavailable):
            backend.complete(REQ)
    assert len(state["captured"]) == 3
    assert sleeps == [1.0, 2.0]
    assert backend.last_retries == 2


@pytest.mark.parametrize(
    "url",
    [
        "file:///tmp/reply.json",
        "ftp://127.0.0.1/complete",
        "data:,1.%20Why%3F",
        "http:///complete",
        "127.0.0.1:8080/complete",
    ],
)
@pytest.mark.parametrize("backend_cls", [HttpBackend, OpenAICompletionsBackend])
def test_http_backend_accepts_only_http_urls(backend_cls, url):
    with pytest.raises(ConfigError):
        backend_cls(url)


def test_import_loads_no_third_party_package_but_numpy():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qgen\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(loaded - set(sys.stdlib_module_names) - {'qgen'})))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["numpy"]


def test_http_malformed_body_rejected():
    with scripted_server(["ok"], reply={"wrong": "shape"}) as (url, _):
        with pytest.raises(BackendRejected):
            HttpBackend(url, sleep=lambda s: None).complete(REQ)
    with scripted_server(["ok"], reply="not json at all") as (url, _):
        with pytest.raises(BackendRejected):
            HttpBackend(url, sleep=lambda s: None).complete(REQ)


def test_http_identity_and_call_log():
    with scripted_server([503, "ok"]) as (url, _):
        backend = HttpBackend(url, sleep=lambda s: None)
        assert backend.identity() == {"kind": "http", "url": url}
        log: list[CallRecord] = []
        generate(backend, REQ, call_log=log)
        assert log[0].retries == 1
        assert log[0].latency_s >= 0.0


def test_http_last_retries_is_per_thread():
    seen: list[int] = []

    def call(backend):
        backend.complete(REQ)
        seen.append(backend.last_retries)

    with scripted_server([503, 503, "ok"]) as (url, _):
        backend = HttpBackend(url, sleep=lambda s: None)
        worker = threading.Thread(target=call, args=(backend,))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [2]
    assert backend.last_retries == 0


def test_generate_counts_retries_per_call_under_concurrency():
    script = [503, "ok", 503, 503, "ok", 503, "ok", 503, 503]
    served_503 = script.count(503)
    barrier = threading.Barrier(8, timeout=10)

    class HeldBackend(HttpBackend):
        # each call waits here after its last attempt until all eight have
        # finished theirs: the widest window for a shared retry count
        def _extract(self, resp):
            barrier.wait()
            return super()._extract(resp)

    log: list[CallRecord] = []
    with scripted_server(script) as (url, state):
        # enough attempts that no call gives up, however the 503s interleave
        backend = HeldBackend(url, attempts=served_503 + 1, backoff_base_s=0.001)
        with ThreadPoolExecutor(max_workers=8) as pool:
            texts = list(pool.map(lambda _: generate(backend, REQ, log), range(8)))
    assert texts == ["1. Why?"] * 8
    assert len(state["captured"]) == 8 + served_503
    assert len(log) == 8
    assert sum(rec.retries for rec in log) == served_503


def test_openai_adapter_reads_choices():
    reply = {"choices": [{"text": "1. What?\n2. Who?"}]}
    with scripted_server(["ok"], reply=reply) as (url, state):
        backend = OpenAICompletionsBackend(url, token="k", model="m-1", sleep=lambda s: None)
        text = backend.complete(REQ)
    assert text == "1. What?\n2. Who?"
    body = state["captured"][0]["body"]
    assert body["model"] == "m-1"
    assert body["prompt"] == REQ.prompt
    assert backend.identity() == {"kind": "openai", "url": url, "model": "m-1"}


def test_openai_adapter_without_model_sends_base_fields():
    reply = {"choices": [{"text": "1. What?"}]}
    with scripted_server(["ok"], reply=reply) as (url, state):
        OpenAICompletionsBackend(url, model=None, sleep=lambda s: None).complete(REQ)
    assert state["captured"][0]["body"] == {
        "prompt": "Generate 5 questions.",
        "temperature": 0.5,
        "max_tokens": 128,
    }


def test_openai_adapter_rejects_missing_choices():
    with scripted_server(["ok"], reply={"choices": []}) as (url, _):
        with pytest.raises(BackendRejected):
            OpenAICompletionsBackend(url, sleep=lambda s: None).complete(REQ)


# -- response parsing -----------------------------------------------------------------

def test_parse_inline_numbered_shortfall():
    parsed = parse_questions("1. Who? 2. What?", expected=5)
    assert parsed.texts == ("Who?", "What?")
    assert parsed.shortfall is True


def test_parse_paren_numbered_lines():
    raw = "1) First one?\n2) Second one?\n3) Third one?\n4) Fourth one?\n5) Fifth one?"
    parsed = parse_questions(raw, expected=5)
    assert len(parsed.texts) == 5
    assert parsed.texts[0] == "First one?"
    assert parsed.shortfall is False


def test_parse_bulleted_items():
    parsed = parse_questions("- Who came first?\n* What came next?", expected=2)
    assert parsed.texts == ("Who came first?", "What came next?")


def test_parse_bare_question_lines():
    raw = "Here are some questions:\nWhat is the answer?\nnot a question line\nWhy now?"
    parsed = parse_questions(raw, expected=2)
    assert parsed.texts == ("What is the answer?", "Why now?")


def test_parse_does_not_split_mid_line_prose_numbers():
    parsed = parse_questions("Question 1. What is X?", expected=1)
    assert parsed.texts == ("Question 1. What is X?",)


def test_parse_truncates_to_expected():
    raw = "\n".join(f"{i}. Item {i}?" for i in range(1, 8))
    parsed = parse_questions(raw, expected=5)
    assert len(parsed.texts) == 5
    assert parsed.shortfall is False
    assert parsed.texts[-1] == "Item 5?"


def test_parse_collapses_repeated_terminal_punctuation():
    parsed = parse_questions("1. What???\n2. Where...", expected=2)
    assert parsed.texts == ("What?", "Where.")


def test_parse_drops_empty_items():
    parsed = parse_questions("1. \n2. What?", expected=5)
    assert parsed.texts == ("What?",)


def test_parse_no_questions_found():
    with pytest.raises(NoQuestionsFound):
        parse_questions("no questions in here.", expected=5)
    with pytest.raises(NoQuestionsFound):
        parse_questions("", expected=5)


def test_parse_mock_output_round_trip():
    req = BackendRequest(prompt=mock_prompt(), temperature=0.5, max_tokens=256)
    raw = MockBackend(seed=4).complete(req)
    parsed = parse_questions(raw, expected=5)
    assert len(parsed.texts) == 5
    assert parsed.shortfall is False
    assert all(t.endswith("?") for t in parsed.texts)
