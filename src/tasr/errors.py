"""Exception hierarchy shared across the package."""

from __future__ import annotations


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
        super().__init__(f"{field}: {message}")


class InvalidEntity(TasrError):
    """Entity surface text is empty after trimming."""


class TaxonomyParseError(TasrError):
    """Taxonomy file could not be parsed."""


class EmptyBranch(TaxonomyParseError):
    """A first-level taxonomy class has no children."""


class IndexUnavailable(TasrError):
    """Type-label embedding index was not built."""


class EncoderUnavailable(TasrError):
    """Embedding backend could not be reached."""


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


class LlmUnavailable(TasrError):
    """LLM transport failed after retries, or the endpoint rejected the request.

    ``retryable`` is False when another attempt cannot help (a 4xx client error).
    """

    def __init__(self, role_tag: str, message: str, retryable: bool = True) -> None:
        self.role_tag = role_tag
        self.retryable = retryable
        super().__init__(f"[{role_tag}] {message}")


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
