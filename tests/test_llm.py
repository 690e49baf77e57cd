import json

import pytest
from hypothesis import given, strategies as st

from tasr.errors import LlmProtocolError, LlmUnavailable, MockMiss
from tasr.llm import (
    FORMAT_RETRY_SUFFIX,
    TRANSPORT_BACKOFF_S,
    TRANSPORT_RETRIES,
    Gateway,
    HttpChatBackend,
    LlmRequest,
    backend_from_spec,
    load_script,
    scripted_mock,
    strip_code_fences,
)

from conftest import FIXTURES


def _req(role="extract", prompt="hello"):
    return LlmRequest(role_tag=role, system_prompt="sys", user_prompt=prompt)


class TestLlmRequest:
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


def _call(backend, sleep=lambda s: None):
    return Gateway(backend=backend, sleep=sleep).call("extract", "sys", "hello")


class TestChatComplete:
    """``Gateway.call``: one request, parsed, with its format and transport retries."""

    def test_passthrough(self):
        backend = scripted_mock([("extract", "hello", {"triples": []})])
        assert _call(backend) == {"triples": []}

    def test_fenced_response_parses(self):
        backend = scripted_mock([("extract", "hello", '```json\n{"ok": true}\n```')])
        assert _call(backend) == {"ok": True}

    def test_two_non_json_responses_raise_with_role(self):
        backend = scripted_mock([("extract", "hello", "not json at all")])
        with pytest.raises(LlmProtocolError) as exc:
            _call(backend)
        assert exc.value.role_tag == "extract"
        assert len(backend.calls) == 2  # exactly one format retry

    def test_format_retry_appends_json_instruction(self):
        backend = scripted_mock([("extract", "hello", "nope")])
        with pytest.raises(LlmProtocolError):
            _call(backend)
        assert backend.calls[1].user_prompt == "hello\n\nRespond with valid JSON only, no prose."

    def test_recovers_when_retry_parses(self):
        class FlakyFormat:
            def __init__(self):
                self.n = 0

            def complete(self, req):
                self.n += 1
                return "garbage" if self.n == 1 else '{"fixed": 1}'

        assert _call(FlakyFormat()) == {"fixed": 1}

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
        assert _call(FlakyTransport(), sleep=slept.append) == {"up": True}
        assert slept == [1.0, 1.0]

    def test_transport_gives_up_after_two_retries(self):
        class Dead:
            def complete(self, req):
                raise LlmUnavailable(req.role_tag, "down")

        with pytest.raises(LlmUnavailable):
            _call(Dead())


OUTCOMES = ("json", "fenced", "prose", "retryable", "fatal")


class _PlayedBackend:
    """Answers the n-th request with the n-th drawn outcome."""

    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.calls = []

    def complete(self, req):
        self.calls.append(req)
        outcome = self.outcomes[len(self.calls) - 1]
        if outcome == "json":
            return '{"n": [1, 2]}'
        if outcome == "fenced":
            return '```json\n{"n": [1, 2]}\n```'
        if outcome == "prose":
            return "Sure! The answer is n = [1, 2]."
        raise LlmUnavailable(req.role_tag, "down", retryable=outcome == "retryable")


def _expected(outcomes):
    """What one call does with these outcomes: (user prompts sent, sleeps, result or error type)."""
    prompts, sleeps = [], []
    format_retried, failures = False, 0
    for outcome in outcomes:
        prompts.append("u" + (FORMAT_RETRY_SUFFIX if format_retried else ""))
        if outcome == "fatal" or (outcome == "retryable" and failures == TRANSPORT_RETRIES):
            return prompts, sleeps, LlmUnavailable
        if outcome == "retryable":
            failures += 1
            sleeps.append(TRANSPORT_BACKOFF_S)
        elif outcome != "prose":
            return prompts, sleeps, {"n": [1, 2]}
        elif format_retried:
            return prompts, sleeps, LlmProtocolError
        else:
            format_retried, failures = True, 0
    raise AssertionError("a call makes at most 2 * (1 + TRANSPORT_RETRIES) requests")


class TestRequestPolicy:
    @given(st.lists(st.sampled_from(OUTCOMES), min_size=6, max_size=6))
    def test_requests_sleeps_and_result_follow_the_model(self, outcomes):
        prompts, sleeps, expected = _expected(outcomes)
        backend = _PlayedBackend(outcomes)
        slept = []
        try:
            result = Gateway(backend=backend, sleep=slept.append).call("decompose", "s", "u")
        except (LlmUnavailable, LlmProtocolError) as exc:
            result = type(exc)
        assert result == expected
        assert [req.user_prompt for req in backend.calls] == prompts
        assert {(req.role_tag, req.system_prompt) for req in backend.calls} == {("decompose", "s")}
        assert slept == sleeps


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


class TestBackendFromSpec:
    def test_mock_spec_loads_the_script(self):
        backend = backend_from_spec(f"mock:{FIXTURES / 'llm_script.json'}")
        assert backend.entries == load_script(FIXTURES / "llm_script.json").entries

    def test_any_other_spec_is_a_chat_endpoint(self):
        backend = backend_from_spec("http://example.test:8080", model="m", api_key="k")
        assert isinstance(backend, HttpChatBackend)
        assert backend.url == "http://example.test:8080/v1/chat/completions"
        assert (backend.model, backend.api_key) == ("m", "k")
