"""Exception hierarchy shared across the package, and the one reader of input files."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

MESSAGE_REASON_BYTES = 200  # UTF-8 bytes of an outside reason or value an error message keeps


class TasrError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TasrError):
    """Invalid pipeline configuration."""


class WeightSumViolation(ConfigError):
    """A weight group does not sum to 1."""

    def __init__(self, group: str, total: float) -> None:
        self.group = group
        self.total = total
        super().__init__(f"weight group {group} sums to {total!r}, expected 1.0")


class RangeViolation(ConfigError):
    """A config field is outside its allowed range."""

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        super().__init__(clip(f"{field}: {message}"))


class InvalidEntity(TasrError):
    """Entity surface text is empty after trimming."""


class TaxonomyParseError(TasrError):
    """Taxonomy file could not be parsed."""


class EmptyBranch(TaxonomyParseError):
    """A first-level taxonomy class has no children."""


class EndpointUnavailable(TasrError):
    """An endpoint failed a request, or rejected it; ``retryable`` is False when another
    attempt cannot help (a 4xx client error)."""

    def __init__(self, message: str, retryable: bool = True) -> None:
        self.retryable = retryable
        super().__init__(message)


class EncoderUnavailable(EndpointUnavailable):
    """Embedding backend could not be reached, or rejected the request."""


class EncoderCacheError(TasrError):
    """On-disk vector cache holds a line that cannot be read back."""


class DimensionMismatch(TasrError):
    """Encoder returned vectors of inconsistent dimension."""


class NonFiniteVector(TasrError):
    """Encoder or vector cache gave a vector holding NaN or inf."""


class EmptyIndex(TasrError):
    """Search against an index with no entries."""


class EmptyPool(TasrError):
    """Reranking called with an empty document pool."""


class DuplicateDocument(TasrError):
    """A pipeline was given two documents with the same id."""


class LlmUnavailable(EndpointUnavailable):
    """LLM transport failed, or the endpoint rejected the request."""

    def __init__(self, role_tag: str, message: str, retryable: bool = True) -> None:
        self.role_tag = role_tag
        super().__init__(f"[{role_tag}] {message}", retryable)


class LlmProtocolError(TasrError):
    """LLM produced non-JSON or otherwise malformed output twice."""

    def __init__(self, role_tag: str, message: str) -> None:
        self.role_tag = role_tag
        super().__init__(f"[{role_tag}] {message}")


class MockMiss(TasrError):
    """Scripted mock backend had no entry matching a request."""


class InvalidDecomposition(TasrError):
    """Sub-query chain violates ordering or size rules."""


class AmbiguousBinding(TasrError):
    """A sub-query still holds two latent variables when binding."""


class DuplicateBinding(TasrError):
    """Attempt to overwrite an existing binding."""


class DatasetParseError(TasrError):
    """QA dataset or corpus file is malformed or empty."""


class QueryFailure(TasrError):
    """A query aborted mid-run; carries the trace built so far."""

    def __init__(self, message: str, trace=None) -> None:
        self.trace = trace
        super().__init__(message)


def clip(text: str) -> str:
    """``text`` cut to :data:`MESSAGE_REASON_BYTES`, so outside input gives bounded messages."""
    encoded = text.encode("utf-8", "backslashreplace")
    cut = encoded[:MESSAGE_REASON_BYTES].decode("utf-8", "ignore") + "..."
    return text if len(encoded) <= MESSAGE_REASON_BYTES else cut


def json_field(value: Any, key: str, kind: type, error: Callable[[str], TasrError]) -> Any:
    """``value[key]`` when ``value`` is an object holding a ``kind`` there (JSON true and
    false are not numbers); any other shape raises ``error(message)``."""
    if isinstance(value, dict) and isinstance(value.get(key), kind):
        if kind is bool or not isinstance(value[key], bool):
            return value[key]
    raise error(f"expected {{{key!r}: {kind.__name__}}}, got {value!r}")


def read_json(
    path: str | Path, error: Callable[[str], TasrError], what: str, parse: Callable, lines=False
) -> Any:
    """``parse`` of the JSON value in file ``path``; with ``lines``, the list of ``parse`` of
    each non-blank line's value, read one at a time and ending at ``\\n`` alone (JSON strings
    may hold U+2028). Unreadable, non-UTF-8 or non-JSON input (a ValueError), nesting too
    deep and numbers too large raise ``error``; a TasrError from ``parse`` keeps its class.
    Both messages read ``"<what> <path>[ line N]: <reason>"``, the reason clipped."""
    where = f"{what} {path}"
    try:
        with open(path, "rb") as fh:
            if not lines:
                return parse(json.loads(fh.read().decode("utf-8")))
            values = []
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    where = f"{what} {path} line {lineno}"
                    values.append(parse(json.loads(line.decode("utf-8"))))
            return values
    except TasrError as exc:
        exc.args = (f"{where}: {clip(str(exc))}",)  # re-raised as is: subclass and fields stay
        raise
    except (OSError, ValueError, RecursionError, OverflowError) as exc:
        raise error(f"{where}: {clip(str(exc))}") from exc
