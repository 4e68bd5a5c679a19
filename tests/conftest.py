import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


class _StubState:
    """Mutable behavior knobs shared between test and handler."""

    def __init__(self):
        self.status = 200
        self.body = b"<?xml version='1.0'?><osm version='0.6'></osm>"
        self.content_type = "application/osm3s+xml; charset=utf-8"
        self.delay = 0.0
        self.released = threading.Event()  # ends a delay early, on close
        self.requests: list[bytes] = []


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        state: _StubState = self.server.state
        length = int(self.headers.get("Content-Length", 0))
        state.requests.append(self.rfile.read(length))
        if state.delay:
            state.released.wait(state.delay)
        self.send_response(state.status)
        self.send_header("Content-Type", state.content_type)
        self.send_header("Content-Length", str(len(state.body)))
        self.end_headers()
        self.wfile.write(state.body)

    def log_message(self, *args):  # keep test output quiet
        pass


class StubServer:
    def __init__(self):
        self.state = _StubState()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self._server.state = self.state
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_port}/api/interpreter"

    def close(self):
        # wake and join every handler thread, so that none outlives its test
        # and allocates while a later test measures memory
        self.state.released.set()
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def stub_server():
    server = StubServer()
    yield server
    server.close()
