"""Out-of-process chat-completions stub for the pipeline benchmark.

Speaks HTTP/1.1 with keep-alive, so a client that reuses connections shows
fewer accepted connections than requests. Each answer carries the true labels
of the sample, looked up by ingredient text in a json table the benchmark
writes ({ingredient_text: {fat, protein, saturates, sugars}}):

* a direct prompt (final user turn "[INST] <text> [/INST]") gets the canonical
  one-line answer "Nutrient values per 100 g: fat - X, protein - Y, ...";
* a refine prompt (user turn starting "Food:\\n<text>\\n\\n") gets a json object
  with protein_g, fat_g, sugars_g and saturates_g.

``GET /stats`` returns the chat requests answered, the connections that
carried at least one of them, and the requests that could not be answered.

Usage::

    python3 perfbench/stub.py --table labels.json --port-file port.txt

The port is written to --port-file once the socket listens. The stub exits by
itself when the process that started it is gone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from corpus import format_2dp

SCORED = ("fat", "protein", "saturates", "sugars")
REFINE_KEYS = {"protein": "protein_g", "fat": "fat_g", "sugars": "sugars_g",
               "saturates": "saturates_g"}


def direct_answer(labels: dict) -> str:
    return "Nutrient values per 100 g: " + ", ".join(
        f"{key} - {format_2dp(labels[key])}" for key in SCORED)


def refine_answer(labels: dict) -> str:
    return json.dumps({REFINE_KEYS[key]: float(format_2dp(labels[key])) for key in REFINE_KEYS})


def answer_for(payload: dict, table: dict) -> str | None:
    """The reply text for a chat request, or None when it cannot be answered."""
    try:
        last = payload["messages"][-1]["content"]
    except (KeyError, IndexError, TypeError):
        return None
    if last.startswith("[INST] ") and last.endswith(" [/INST]"):
        labels = table.get(last[len("[INST] "):-len(" [/INST]")])
        return None if labels is None else direct_answer(labels)
    if last.startswith("Food:\n"):
        labels = table.get(last[len("Food:\n"):].split("\n\n", 1)[0])
        return None if labels is None else refine_answer(labels)
    return None


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, table: dict) -> None:
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.table = table
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.unanswered = 0


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404, b"{}")
            return
        with self.server.lock:
            stats = {"requests": self.server.requests, "connections": self.server.connections,
                     "unanswered": self.server.unanswered}
        self._send(200, json.dumps(stats).encode())

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        try:
            payload = json.loads(self.rfile.read(length))
        except ValueError:
            payload = None
        text = answer_for(payload, self.server.table) if isinstance(payload, dict) else None
        with self.server.lock:
            if not getattr(self, "_counted", False):
                self._counted = True
                self.server.connections += 1
            self.server.requests += 1
            if text is None:
                self.server.unanswered += 1
        if text is None:
            self._send(400, b'{"error": "unknown prompt"}')
            return
        self._send(200, json.dumps({"choices": [{"message": {"content": text}}]}).encode())

    def log_message(self, *args) -> None:
        pass


def _exit_with_parent(server: StubServer, parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(0.5)
    server.shutdown()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="chat-completions stub")
    parser.add_argument("--table", required=True)
    parser.add_argument("--port-file", required=True)
    args = parser.parse_args(argv)
    with open(args.table, encoding="utf-8") as fh:
        table = json.load(fh)
    server = StubServer(table)
    threading.Thread(target=_exit_with_parent, args=(server, os.getppid()),
                     daemon=True).start()
    tmp = args.port_file + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(str(server.server_address[1]))
    os.replace(tmp, args.port_file)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
