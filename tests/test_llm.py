import json

import pytest

from tasr.errors import LlmProtocolError, LlmUnavailable, MockMiss
from tasr.llm import (
    Gateway,
    LlmRequest,
    chat_complete,
    load_script,
    scripted_mock,
    strip_code_fences,
)

from conftest import FIXTURES


def _req(role="extract", prompt="hello"):
    return LlmRequest(role_tag=role, system_prompt="sys", user_prompt=prompt)


class TestLlmRequest:
    def test_temperature_must_be_zero(self):
        with pytest.raises(ValueError):
            LlmRequest(role_tag="extract", system_prompt="s", user_prompt="u", temperature=0.7)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            LlmRequest(role_tag="summarize", system_prompt="s", user_prompt="u")


class TestStripCodeFences:
    def test_json_fence(self):
        assert strip_code_fences('```json\n{"a": 1}\n```') == '{"a": 1}'

    def test_bare_fence(self):
        assert strip_code_fences("```\n[1, 2]\n```") == "[1, 2]"

    def test_plain_text_untouched(self):
        assert strip_code_fences(' {"a": 1} ') == '{"a": 1}'


class TestChatComplete:
    def test_passthrough(self):
        backend = scripted_mock([("extract", "hello", {"triples": []})])
        resp = chat_complete(_req(), backend)
        assert resp.parsed == {"triples": []}

    def test_fenced_response_parses(self):
        backend = scripted_mock([("extract", "hello", '```json\n{"ok": true}\n```')])
        resp = chat_complete(_req(), backend)
        assert resp.parsed == {"ok": True}

    def test_two_non_json_responses_raise_with_role(self):
        backend = scripted_mock([("extract", "hello", "not json at all")])
        with pytest.raises(LlmProtocolError) as exc:
            chat_complete(_req(), backend)
        assert exc.value.role_tag == "extract"
        assert len(backend.calls) == 2  # exactly one format retry

    def test_format_retry_appends_json_instruction(self):
        backend = scripted_mock([("extract", "hello", "nope")])
        with pytest.raises(LlmProtocolError):
            chat_complete(_req(), backend)
        assert "JSON only" in backend.calls[1].user_prompt

    def test_recovers_when_retry_parses(self):
        class FlakyFormat:
            def __init__(self):
                self.n = 0

            def complete(self, req):
                self.n += 1
                return "garbage" if self.n == 1 else '{"fixed": 1}'

        resp = chat_complete(_req(), FlakyFormat())
        assert resp.parsed == {"fixed": 1}

    def test_transport_retry_then_success(self):
        class FlakyTransport:
            def __init__(self):
                self.n = 0

            def complete(self, req):
                self.n += 1
                if self.n < 3:
                    raise LlmUnavailable(req.role_tag, "down")
                return '{"up": true}'

        slept = []
        resp = chat_complete(_req(), FlakyTransport(), sleep=slept.append)
        assert resp.parsed == {"up": True}
        assert slept == [1.0, 1.0]

    def test_transport_gives_up_after_two_retries(self):
        class Dead:
            def complete(self, req):
                raise LlmUnavailable(req.role_tag, "down")

        with pytest.raises(LlmUnavailable):
            chat_complete(_req(), Dead(), sleep=lambda s: None)


class TestScriptedMock:
    def test_empty_script_misses(self):
        with pytest.raises(MockMiss):
            scripted_mock([]).complete(_req())

    def test_miss_lists_prompt(self):
        with pytest.raises(MockMiss, match="hello"):
            scripted_mock([("answer", "nope", {})]).complete(_req())

    def test_role_must_match(self):
        backend = scripted_mock([("answer", "hello", {"answer": "x"})])
        with pytest.raises(MockMiss):
            backend.complete(_req(role="extract"))

    def test_overlapping_matchers_first_declared_wins(self):
        backend = scripted_mock(
            [
                ("extract", "hel", {"which": "first"}),
                ("extract", "hello", {"which": "second"}),
            ]
        )
        assert json.loads(backend.complete(_req())) == {"which": "first"}

    def test_load_script_file(self):
        backend = load_script(FIXTURES / "llm_script.json")
        req = _req(role="answer", prompt="Sub-query: (Science Activity Planner, uses, ?Database)")
        assert json.loads(backend.complete(req)) == {"answer": "MySQL database"}


class TestGatewayContract:
    def test_every_outbound_request_has_temperature_zero(self, toy_backend):
        gateway = Gateway(backend=toy_backend)
        gateway.call("answer", "sys", "Sub-query: (MySQL database, developed_by, ?Company)")
        gateway.call("extract", "sys", "Document id: doc1")
        assert toy_backend.calls, "no requests recorded"
        assert all(req.temperature == 0.0 for req in toy_backend.calls)
