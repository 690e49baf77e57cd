"""The one request path to the LLM, and the transport policy of both endpoints.

Extraction, decomposition, type selection and hop answering all call
:meth:`Gateway.call`, which owns the reply policy: code-fence stripping, JSON
parsing and one format retry; callers check a reply's shape with
:func:`tasr.errors.json_field`. Backends only move text: a chat-completion HTTP
endpoint (temperature 0) or a scripted mock. :func:`post_json` is the one HTTP
request, on the standard library, and classifies every failure as retryable or
not; the HTTP encoder client sends through it too. :func:`send_with_retries` is
the one transport retry loop: the gateway sends each chat attempt through it,
and :class:`tasr.embedding.CachingEncoder` each encoder client call.
"""

from __future__ import annotations

import functools
import http.client
import json
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional, Protocol, Sequence

from tasr.errors import ConfigError, EndpointUnavailable, LlmProtocolError, LlmUnavailable, MockMiss
from tasr.errors import json_field, read_json

ROLE_TAGS = ("extract", "decompose", "type_select", "answer")

TRANSPORT_RETRIES = 2
TRANSPORT_BACKOFF_S = 1.0
RETRYABLE_CLIENT_STATUSES = (408, 429)  # timeout and rate limit: worth another attempt
FORMAT_RETRY_SUFFIX = "\n\nRespond with valid JSON only, no prose."

_FENCE_RE = re.compile(r"^```[a-zA-Z0-9_-]*\s*\n(.*?)\n?```\s*$", re.DOTALL)


@dataclass(frozen=True)
class LlmRequest:
    role_tag: str
    system_prompt: str
    user_prompt: str

    def __post_init__(self) -> None:
        if self.role_tag not in ROLE_TAGS:
            raise ValueError(f"unknown role_tag {self.role_tag!r}")


class Backend(Protocol):
    def complete(self, req: LlmRequest) -> str:
        """Return the raw completion text; raise LlmUnavailable on transport failure, which
        :func:`send_with_retries` sends again when it is ``retryable``."""
        ...


def strip_code_fences(text: str) -> str:
    """Drop a single wrapping markdown code fence, if present."""
    match = _FENCE_RE.match(text.strip())
    return match.group(1).strip() if match else text.strip()


def post_json(
    url: str,
    payload: Any,
    timeout: float,
    unavailable: Callable[[str, bool], EndpointUnavailable],
    headers: Optional[dict[str, str]] = None,
) -> Any:
    """POST ``payload`` as JSON and return the JSON value of the reply.

    Every failure raises ``unavailable(message, retryable)``: a 4xx other than 408
    and 429 is not retryable, as the endpoint will answer it the same way again;
    other statuses, connection errors, timeouts and a reply that is not JSON are.
    """
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        exc.close()  # the error reply holds its connection open until closed
        retryable = not 400 <= exc.code < 500 or exc.code in RETRYABLE_CLIENT_STATUSES
        raise unavailable(f"{url}: HTTP {exc.code} {exc.reason}", retryable) from exc
    except (OSError, http.client.HTTPException, ValueError, RecursionError) as exc:
        # URLError and timeouts are OSErrors; a non-JSON body is a ValueError or RecursionError
        raise unavailable(f"{url}: {exc}", True) from exc


def send_with_retries(send: Callable[[], Any], sleep: Callable[[float], None]) -> Any:
    """``send()``; a retryable :class:`EndpointUnavailable` is sent again, up to
    :data:`TRANSPORT_RETRIES` times, each after ``sleep(TRANSPORT_BACKOFF_S)``."""
    for _ in range(TRANSPORT_RETRIES):
        try:
            return send()
        except EndpointUnavailable as exc:
            if not exc.retryable:
                raise
            sleep(TRANSPORT_BACKOFF_S)
    return send()


class HttpChatBackend:
    """Chat-completion endpoint speaking the common ``/v1/chat/completions`` format; ``url``
    is the base URL, with or without ``/v1``, or the full path."""

    def __init__(self, url: str, model: str, api_key: str = "", timeout: float = 120.0) -> None:
        url = url.rstrip("/")
        if not url.endswith("/chat/completions"):
            url += "/chat/completions" if url.endswith("/v1") else "/v1/chat/completions"
        self.url = url
        self.model = model
        self.api_key = api_key
        self.timeout = timeout

    def complete(self, req: LlmRequest) -> str:
        unavailable = functools.partial(LlmUnavailable, req.role_tag)
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": req.system_prompt},
                {"role": "user", "content": req.user_prompt},
            ],
            "temperature": 0.0,
        }
        reply = post_json(self.url, payload, self.timeout, unavailable, headers)
        try:
            content = reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise unavailable(f"{self.url}: unexpected reply shape: {exc!r}") from exc
        if not isinstance(content, str):
            raise unavailable(f"{self.url}: reply has no text content: {content!r}")
        return content


@dataclass(frozen=True)
class ScriptEntry:
    role_tag: str
    match: str  # substring of the user prompt
    response: Any  # JSON value, or a raw string returned verbatim


class ScriptedMockBackend:
    """Deterministic canned backend; first declared matching entry wins."""

    def __init__(self, entries: Sequence[ScriptEntry]) -> None:
        self.entries = list(entries)
        self.calls: list[LlmRequest] = []

    def complete(self, req: LlmRequest) -> str:
        self.calls.append(req)
        for entry in self.entries:
            if entry.role_tag == req.role_tag and entry.match in req.user_prompt:
                if isinstance(entry.response, str):
                    return entry.response
                return json.dumps(entry.response)
        raise MockMiss(
            f"no script entry for role={req.role_tag!r}; prompt was:\n{req.user_prompt}"
        )


def scripted_mock(script: Sequence[tuple[str, str, Any]] | Sequence[ScriptEntry]) -> ScriptedMockBackend:
    """Build a mock backend from (role_tag, prompt-substring, response) entries."""
    entries = [e if isinstance(e, ScriptEntry) else ScriptEntry(*e) for e in script]
    return ScriptedMockBackend(entries)


def load_script(path: str | Path) -> ScriptedMockBackend:
    """Load a scripted mock from JSON: ``{"responses": [{"role", "match", "response"}]}``."""
    return ScriptedMockBackend(read_json(path, ConfigError, "mock LLM script", _script_entries))


def _script_entries(data: Any) -> list[ScriptEntry]:
    entries = []
    for item in json_field(data, "responses", list, ConfigError):
        role_tag = json_field(item, "role", str, ConfigError)
        match = json_field(item, "match", str, ConfigError)
        if role_tag not in ROLE_TAGS or "response" not in item:
            raise ConfigError(f"expected a role among {ROLE_TAGS} and a 'response', got {item!r}")
        entries.append(ScriptEntry(role_tag, match, item["response"]))
    return entries


def backend_from_spec(spec: str, model: str = "default", api_key: str = "") -> Backend:
    """``mock:<script-file>`` selects the scripted backend; anything else is HTTP."""
    if spec.startswith("mock:"):
        return load_script(spec[len("mock:"):])
    return HttpChatBackend(spec, model=model, api_key=api_key)


@dataclass
class Gateway:
    """Backend plus the request policy; the only object modules talk LLM through."""

    backend: Backend
    sleep: Callable[[float], None] = field(default=time.sleep)

    def call(self, role_tag: str, system_prompt: str, user_prompt: str) -> Any:
        """Send one request and return the JSON value of the reply, code fence stripped.

        Each attempt goes through :func:`send_with_retries`. A reply that does not parse is
        asked for once more with :data:`FORMAT_RETRY_SUFFIX` appended; a second one raises
        :class:`LlmProtocolError`.
        """
        prompt = user_prompt
        for _ in range(2):
            req = LlmRequest(role_tag, system_prompt, prompt)
            raw = send_with_retries(functools.partial(self.backend.complete, req), self.sleep)
            try:
                return json.loads(strip_code_fences(raw))
            except (ValueError, RecursionError):  # not JSON, or nested too deeply to parse
                prompt = user_prompt + FORMAT_RETRY_SUFFIX
        raise LlmProtocolError(role_tag, f"non-JSON output after retry: {raw[:200]!r}")


@functools.cache
def load_prompt(name: str) -> str:
    """Load a prompt template bundled with the package (read once per process)."""
    return (resources.files("tasr") / "prompts" / f"{name}.txt").read_text(encoding="utf-8")
