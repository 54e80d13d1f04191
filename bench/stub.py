"""Loopback completion server for the http-stub workload.

Speaks the ``HttpBackend`` wire contract (POST JSON {prompt, temperature,
max_tokens} -> {"text"}) over HTTP/1.1 with keep-alive, and answers with
the text ``MockBackend`` would produce for the same request, so a run over
the wire writes the same scores as a mock run. Each response, status line
and headers included, goes out in one ``sendall`` with TCP_NODELAY set:
``http.server`` writes headers and body separately, which on loopback
interacts with delayed ACKs and makes keep-alive connections look slow.
There is no service delay.

``GET /stats`` returns {"served": n}, the number of completions served so
far; it is not counted itself. The server prints ``ready <port>`` once it
listens, and runs until its standard input is closed.

Usage: python3 bench/stub.py --port PORT --seed SEED   (with src/ on PYTHONPATH)
"""

from __future__ import annotations

import argparse
import json
import socket
import socketserver
import sys
import threading

from qgen.promptgen import BackendRequest, MockBackend


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, port: int, seed: int) -> None:
        super().__init__(("127.0.0.1", port), _Handler)
        self.mock = MockBackend(seed=seed)
        self.served = 0
        self.lock = threading.Lock()


class _Handler(socketserver.StreamRequestHandler):
    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def handle(self) -> None:
        while True:
            request_line = self.rfile.readline(65537)
            if not request_line.strip():
                return
            method, target, _ = request_line.split(b" ", 2)
            headers = {}
            while True:
                line = self.rfile.readline(65537)
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.partition(b":")
                headers[key.strip().lower()] = value.strip()
            body = self.rfile.read(int(headers.get(b"content-length", b"0")))
            status, payload = self._route(method, target, body)
            close = headers.get(b"connection", b"").lower() == b"close"
            head = (
                f"HTTP/1.1 {status}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + payload)
            if close:
                return

    def _route(self, method: bytes, target: bytes, body: bytes) -> tuple[str, bytes]:
        server = self.server
        if method == b"POST" and target == b"/complete":
            doc = json.loads(body)
            text = server.mock.complete(
                BackendRequest(
                    prompt=doc["prompt"],
                    temperature=doc["temperature"],
                    max_tokens=doc["max_tokens"],
                )
            )
            with server.lock:
                server.served += 1
            return "200 OK", json.dumps({"text": text}).encode("utf-8")
        if method == b"GET" and target == b"/stats":
            with server.lock:
                served = server.served
            return "200 OK", json.dumps({"served": served}).encode("utf-8")
        return "404 Not Found", b"{}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    with _Server(args.port, args.seed) as server:
        threading.Thread(target=server.serve_forever, daemon=True).start()
        print(f"ready {server.server_address[1]}", flush=True)
        # serve until the parent closes stdin, which it also does by exiting
        sys.stdin.read()
        server.shutdown()


if __name__ == "__main__":
    main()
