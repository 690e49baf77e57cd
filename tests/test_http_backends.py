"""Wire-protocol tests for the HTTP encoder client and chat backend."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from tasr import llm
from tasr.embedding import CachingEncoder, HttpEncoderClient
from tasr.errors import EncoderUnavailable, LlmUnavailable
from tasr.llm import (
    ROLE_TAGS,
    TRANSPORT_BACKOFF_S,
    TRANSPORT_RETRIES,
    Gateway,
    HttpChatBackend,
    LlmRequest,
)


class _StubHandler(BaseHTTPRequestHandler):
    requests_seen: list[dict] = []
    # /<shape>/...: a chat reply of that shape, which has no choices[0].message.content
    bad_shapes = {
        "no-choices": {}, "empty-choices": {"choices": []}, "no-message": {"choices": [{}]}
    }

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append({"path": self.path, "body": body, "headers": dict(self.headers)})

        if self.path.startswith("/status/"):
            # /status/<code>/...: answer every request with that status
            self.send_response(int(self.path.split("/")[2]))
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if self.path == "/embed":
            # one constant-direction vector per text, dimension 4
            payload = {"embeddings": [[1.0, 1.0, 0.0, 0.0] for _ in body["texts"]]}
        elif self.path.split("/")[1] in self.bad_shapes:
            payload = self.bad_shapes[self.path.split("/")[1]]
        elif self.path.endswith("/v1/chat/completions"):
            # /null-content/...: a well-formed body whose message carries no text
            content = None if self.path.startswith("/null-content/") else '{"answer": "pong"}'
            payload = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        else:
            self.send_response(404)
            self.end_headers()
            return
        raw = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.requests_seen = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestHttpEncoderClient:
    def test_embed_roundtrip_normalizes(self, stub_server):
        client = HttpEncoderClient(stub_server)
        vectors = client.encode(["alpha", "beta"])
        assert len(vectors) == 2
        for v in vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        sent = _StubHandler.requests_seen[0]
        assert sent["path"] == "/embed"
        assert sent["body"] == {"texts": ["alpha", "beta"]}

    def test_explicit_embed_path_not_doubled(self, stub_server):
        urls = [f"{stub_server}{path}" for path in ("", "/", "/embed", "/embed/")]
        for url in urls:
            HttpEncoderClient(url).encode(["x"])
        assert [seen["path"] for seen in _StubHandler.requests_seen] == ["/embed"] * len(urls)

    def test_unreachable_server(self, monkeypatch):
        # a refused connection is retryable: the memo sends it 1 + TRANSPORT_RETRIES times
        monkeypatch.setattr(llm, "TRANSPORT_BACKOFF_S", 0)
        client = HttpEncoderClient("http://127.0.0.1:9", timeout=0.2)
        attempts = []
        send = client.encode
        monkeypatch.setattr(client, "encode", lambda texts: attempts.append(texts) or send(texts))
        with pytest.raises(EncoderUnavailable) as exc:
            CachingEncoder(client).encode(["x"])
        assert exc.value.retryable
        assert attempts == [["x"]] * (1 + TRANSPORT_RETRIES)


class TestHttpChatBackend:
    def test_chat_completion_roundtrip(self, stub_server):
        backend = HttpChatBackend(stub_server, model="test-model", api_key="secret")
        req = LlmRequest(role_tag="answer", system_prompt="sys", user_prompt="ping")
        assert json.loads(backend.complete(req)) == {"answer": "pong"}
        sent = _StubHandler.requests_seen[0]
        assert sent["path"] == "/v1/chat/completions"
        assert sent["body"]["model"] == "test-model"
        assert sent["body"]["temperature"] == 0
        assert sent["body"]["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "ping"},
        ]
        assert sent["headers"]["Authorization"] == "Bearer secret"

    def test_every_chat_body_has_temperature_zero(self, stub_server):
        # every role, and the transport retries of a failing endpoint, decode deterministically
        gateway = Gateway(backend=HttpChatBackend(stub_server, model="m"))
        for role in ROLE_TAGS:
            gateway.call(role, "sys", "ping")
        retried = Gateway(HttpChatBackend(f"{stub_server}/status/503", model="m"), lambda s: None)
        with pytest.raises(LlmUnavailable):
            retried.call("answer", "sys", "ping")
        bodies = [seen["body"] for seen in _StubHandler.requests_seen]
        assert len(bodies) == len(ROLE_TAGS) + 1 + TRANSPORT_RETRIES
        assert all(body["temperature"] == 0 for body in bodies)

    def test_reply_without_text_content_is_unavailable(self, stub_server):
        backend = HttpChatBackend(f"{stub_server}/null-content", model="m")
        with pytest.raises(LlmUnavailable, match="no text content"):
            Gateway(backend, sleep=lambda s: None).call("answer", "sys", "ping")
        assert len(_StubHandler.requests_seen) == 1 + TRANSPORT_RETRIES

    @pytest.mark.parametrize("shape", sorted(_StubHandler.bad_shapes))
    def test_reply_without_a_message_is_unavailable(self, stub_server, shape):
        backend = HttpChatBackend(f"{stub_server}/{shape}", model="m")
        with pytest.raises(LlmUnavailable, match="unexpected reply shape"):
            Gateway(backend, sleep=lambda s: None).call("answer", "sys", "ping")
        assert len(_StubHandler.requests_seen) == 1 + TRANSPORT_RETRIES

    def test_explicit_completions_path_not_doubled(self, stub_server):
        # the base URL, with or without /v1, or the full path: all post to one path
        req = LlmRequest(role_tag="answer", system_prompt="s", user_prompt="u")
        urls = [f"{stub_server}{path}" for path in ("", "/", "/v1", "/v1/", "/v1/chat/completions")]
        for url in urls:
            HttpChatBackend(url, model="m").complete(req)
        paths = [seen["path"] for seen in _StubHandler.requests_seen]
        assert paths == ["/v1/chat/completions"] * len(urls)

    def test_unreachable_server(self):
        backend = HttpChatBackend("http://127.0.0.1:9", model="m", timeout=0.2)
        req = LlmRequest(role_tag="extract", system_prompt="s", user_prompt="u")
        with pytest.raises(LlmUnavailable) as exc:
            backend.complete(req)
        assert exc.value.role_tag == "extract"


def _endpoints(statuses):
    """Each status on both endpoints; the chat cases keep the bare status as their id."""
    ids = {"chat": "{}", "encoder": "{}-encoder"}
    return [pytest.param(e, s, id=ids[e].format(s)) for e in ids for s in statuses]


class TestHttpRetryPolicy:
    """One transport policy: each status makes as many attempts on either endpoint."""

    @pytest.fixture(autouse=True)
    def slept(self, monkeypatch):
        self.slept = []
        monkeypatch.setattr(time, "sleep", self.slept.append)  # the encoder memo's back-off

    def _call(self, base, endpoint, status):
        url = f"{base}/status/{status}"
        if endpoint == "chat":
            gateway = Gateway(backend=HttpChatBackend(url, model="m"), sleep=self.slept.append)
            with pytest.raises(LlmUnavailable) as exc:
                gateway.call("answer", "s", "u")
        else:
            with pytest.raises(EncoderUnavailable) as exc:
                CachingEncoder(HttpEncoderClient(url)).encode(["x"])
            paths = {seen["path"] for seen in _StubHandler.requests_seen}
            assert paths == {f"/status/{status}/embed"}
        # the error keeps the flag post_json classified, and every back-off is the one policy's
        assert exc.value.retryable == bool(self.slept)
        assert set(self.slept) <= {TRANSPORT_BACKOFF_S}
        return len(_StubHandler.requests_seen), len(self.slept)

    @pytest.mark.parametrize("endpoint, status", _endpoints([400, 401, 404, 422]))
    def test_client_error_fails_on_first_attempt(self, stub_server, endpoint, status):
        assert self._call(stub_server, endpoint, status) == (1, 0)

    @pytest.mark.parametrize("endpoint, status", _endpoints([408, 429, 500, 503]))
    def test_transient_errors_keep_the_retry_budget(self, stub_server, endpoint, status):
        attempts = 1 + TRANSPORT_RETRIES
        assert self._call(stub_server, endpoint, status) == (attempts, attempts - 1)
