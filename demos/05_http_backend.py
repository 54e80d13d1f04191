"""The HTTP wire contract, demonstrated against a local server.

Starts an in-process HTTP server that speaks the backend protocol
(POST JSON {"prompt", "temperature", "max_tokens"} -> {"text"}) by
delegating to the deterministic mock generator, points HttpBackend at
it, and shows that going over the wire changes nothing: the completion
bytes equal a direct mock call. Also pokes the retry path with a server
that fails twice before answering.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from qgen import BackendRequest, HttpBackend, MockBackend, default_templates, generate, render_prompt

MOCK = MockBackend(seed=11)


class ContractHandler(BaseHTTPRequestHandler):
    fail_budget = 0

    def do_POST(self):
        cls = type(self)
        if cls.fail_budget > 0:
            cls.fail_budget -= 1
            self.send_response(503)
            self.end_headers()
            return
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        text = MOCK.complete(BackendRequest(
            prompt=body["prompt"],
            temperature=body["temperature"],
            max_tokens=body["max_tokens"],
        ))
        payload = json.dumps({"text": text}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


server = ThreadingHTTPServer(("127.0.0.1", 0), ContractHandler)
thread = threading.Thread(target=server.serve_forever, daemon=True)
thread.start()
url = f"http://127.0.0.1:{server.server_address[1]}/complete"
print(f"contract server listening on {url}")

template = default_templates("A")[0]
request = BackendRequest(
    prompt=render_prompt(
        template,
        "The River Kess flows for 210 kilometres through the Ostmark valley.",
    ),
    temperature=0.5,
    max_tokens=256,
)

over_wire = generate(HttpBackend(url), request)
direct = MOCK.complete(request)
print()
print(over_wire)
print()
print(f"wire output equals direct mock output: {over_wire == direct}")

# Transient 5xx responses are retried with exponential backoff; two
# failures fit inside the default three attempts.
ContractHandler.fail_budget = 2
backend = HttpBackend(url, backoff_base_s=0.01)
retried = generate(backend, request)
print(f"after two 503s: got same completion={retried == direct}, "
      f"retries used={backend.last_retries}")

server.shutdown()
