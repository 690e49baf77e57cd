"""Text encoding and exact inner-product search over unit vectors.

All vectors are L2-normalized, so inner product equals cosine similarity.
Search is exact brute force: pools here are at most a few thousand vectors,
and exactness is what makes the scoring oracle tests meaningful. A matrix of
up to :data:`SEARCH_BLAS_BYTES` is scored one row at a time (``np.vecdot``)
on the calling thread, starting no BLAS threads, so a row's score does not
depend on the other rows or on the machine's core count. A larger matrix is
scored by ``matrix @ query`` on OpenBLAS's threads.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import threading
import time
from pathlib import Path
from typing import Any, Optional, Protocol, Sequence

import numpy as np

from tasr.errors import DimensionMismatch, EmptyIndex, EncoderCacheError, EncoderUnavailable
from tasr.errors import NonFiniteVector, clip, json_field, read_json
from tasr.llm import post_json, send_with_retries

CORPUS_CHUNK = 256  # texts per encoder request while building an index matrix
SEARCH_BLAS_BYTES = 16 << 20  # a larger search matrix is scored by a matrix product

class EncoderClient(Protocol):
    def encode(self, texts: Sequence[str]) -> list[np.ndarray]:
        """Return one unit-normalized float64 vector per input text, in order; raise
        EncoderUnavailable on transport failure, which :class:`CachingEncoder` sends again
        when it is ``retryable``."""
        ...


def normalize(vector: np.ndarray) -> np.ndarray:
    """L2-normalize; zero vectors are rejected."""
    v = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / norm


class HashEncoderClient:
    """Deterministic offline encoder: stable hash -> RNG seed -> Gaussian -> normalize.

    Identical texts map to identical vectors; distinct texts are near-orthogonal.
    """

    def __init__(self, dim: int = 384) -> None:
        self.dim = dim

    def encode(self, texts: Sequence[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            # surrogatepass: a lone surrogate, as a JSON escape can give, hashes too
            digest = hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()
            seed = int.from_bytes(digest[:8], "big")
            rng = np.random.default_rng(seed)
            out.append(normalize(rng.standard_normal(self.dim)))
        return out


class HttpEncoderClient:
    """Encoder behind ``POST /embed`` with ``{"texts": [...]}`` JSON bodies; ``url`` is the
    base URL or the full path."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/").removesuffix("/embed")
        self.timeout = timeout

    def encode(self, texts: Sequence[str]) -> list[np.ndarray]:
        payload = {"texts": list(texts)}
        reply = post_json(f"{self.url}/embed", payload, self.timeout, EncoderUnavailable)
        try:
            return [normalize(np.asarray(e, dtype=np.float64)) for e in reply["embeddings"]]
        # OverflowError: a reply holds an integer too large for a float64
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise EncoderUnavailable(f"{self.url}: {exc}") from exc


class CachingEncoder:
    """Memo over an encoder client, with an optional JSONL disk cache.

    Memos come in two lifetimes. The encoder a pipeline is built with keeps what
    it encodes for the pipeline's lifetime; :meth:`scope` gives a memo for one
    question or one corpus chunk, which reads that memo, keeps only the vectors
    it adds itself and goes with its user. While a vector is held, every call
    for its text returns it, which is what makes reranking scores reproducible.
    This is the one place that checks vectors: every batch admitted from the
    client or the disk cache must have one count per text, one dimension (the
    one the encoder already holds) and finite values. Cache hits are not checked
    again. The disk cache receives each text once, whichever memo admits it.
    """

    def __init__(self, client: EncoderClient, cache_path: Optional[str | Path] = None) -> None:
        self.client = client
        self._cache: dict[str, np.ndarray] = {}
        self._base: dict[str, np.ndarray] = {}  # the longer-lived memo this one reads through
        self._root = self  # holds the vector shape, the lock and the disk cache for its scopes
        self._shape: Optional[tuple[int, ...]] = None  # every held vector has this shape
        self._lock = threading.Lock()
        self._cache_path = Path(cache_path) if cache_path else None
        self._on_disk: set[str] = set()  # texts the disk cache holds
        if self._cache_path and self._cache_path.exists():
            held = read_json(
                self._cache_path, EncoderCacheError, "vector cache", _cache_line, lines=True
            )
            texts = [text for text, _ in held]
            self._on_disk.update(texts)
            self._admit(texts, [vector for _, vector in held])

    def __len__(self) -> int:
        """Vectors this memo holds, not counting the memo it reads through."""
        return len(self._cache)

    def scope(self) -> "CachingEncoder":
        """An empty short-lived memo that reads this encoder's memo and shares its
        client, vector checks and disk cache."""
        scope = CachingEncoder.__new__(CachingEncoder)
        scope.client, scope._root = self.client, self._root
        scope._cache, scope._base = {}, self._root._cache
        return scope

    def encode(self, texts: Sequence[str]) -> list[np.ndarray]:
        """One vector per text. The missing texts go to the client in one call, sent again
        on a retryable failure by :func:`tasr.llm.send_with_retries`; the checks run once."""
        held, base = self._cache, self._base
        found: dict[str, Optional[np.ndarray]] = {}
        for text in texts:
            if text not in found:
                vector = held.get(text)
                found[text] = base.get(text) if vector is None else vector
        missing = [text for text, vector in found.items() if vector is None]
        if missing:
            vectors = send_with_retries(lambda: self.client.encode(missing), time.sleep)
            with self._root._lock:
                self._admit(missing, vectors)
            # a text another thread admitted first keeps that thread's vector
            found.update((text, held.get(text, v)) for text, v in zip(missing, vectors))
        return [found[text] for text in texts]

    def encode_one(self, text: str) -> np.ndarray:
        return self.encode([text])[0]

    def _admit(self, texts: list[str], vectors: Sequence[np.ndarray]) -> None:
        """Check a batch against the contract, then store it and append the texts the disk
        cache lacks; the caller holds the lock."""
        root = self._root
        if len(vectors) != len(texts):
            raise EncoderUnavailable(
                f"encoder returned {len(vectors)} vectors for {len(texts)} texts"
            )
        shapes = {np.shape(v) for v in vectors}
        if root._shape is not None:
            shapes.add(root._shape)
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise DimensionMismatch(clip(
                f"vectors must be 1-D and of one length: got shapes {sorted(shapes)}, "
                f"encoder holds {root._shape}"
            ))
        if shapes:
            root._shape = shapes.pop()
        # one test per batch and no stacked copy: a NaN or inf in any vector reaches the sum
        if vectors and not np.isfinite(sum(vectors, np.zeros(root._shape))).all():
            for text, vector in zip(texts, vectors):
                if not np.isfinite(vector).all():
                    raise NonFiniteVector(f"vector for {clip(repr(text))} holds NaN or inf")
        self._cache.update([(t, v) for t, v in zip(texts, vectors) if t not in self._cache])
        if root._cache_path:
            new = [(t, v) for t, v in zip(texts, vectors) if t not in root._on_disk]
            root._on_disk.update(t for t, _ in new)
            if new:
                with root._cache_path.open("a", encoding="utf-8") as fh:
                    for text, vec in new:
                        fh.write(json.dumps({"text": text, "vector": vec.tolist()}) + "\n")


def _cache_line(record: Any) -> tuple[str, np.ndarray]:
    """The text and vector of one disk cache line, ``{"text": str, "vector": [number, ...]}``."""
    text = json_field(record, "text", str, EncoderCacheError)
    vector = json_field(record, "vector", list, EncoderCacheError)
    if not all(type(x) in (int, float) for x in vector):
        raise EncoderCacheError("vector holds a value that is not a number")
    return text, np.asarray(vector, dtype=np.float64)


def encoder_from_url(url: str) -> EncoderClient:
    """``mock:`` selects the deterministic hash encoder; anything else is HTTP."""
    if url.startswith("mock:"):
        return HashEncoderClient()
    return HttpEncoderClient(url)


class VectorIndex:
    """Exact top-k search over unit vectors, keyed by string, one row of ``vectors`` per key.

    A float64 matrix is used without a copy. Up to :data:`SEARCH_BLAS_BYTES` of
    vectors, a key scores the same as it would in an index of its vector alone.
    """

    def __init__(self, keys: Sequence[str], vectors: Sequence[np.ndarray] | np.ndarray) -> None:
        self.keys = list(keys)
        self._matrix = np.asarray(vectors, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def encode(
        cls, keys: Sequence[str], texts: Sequence[str], encoder: CachingEncoder
    ) -> "VectorIndex":
        """An index over the vectors of ``texts``, one per key.

        Texts are encoded in chunks of :data:`CORPUS_CHUNK` straight into one
        float64 matrix, each chunk through a memo of its own that goes with it, so
        the encoder's memo does not keep them and each vector is held once. The
        matrix is a mapping of its own, unmapped with the index: in the malloc heap,
        whether the next index reused a freed matrix hung on other threads' allocations.
        """
        matrix = np.zeros((0, 0))
        for start in range(0, len(texts), CORPUS_CHUNK):
            vectors = encoder.scope().encode(texts[start : start + CORPUS_CHUNK])
            if start == 0:
                shape = (len(texts), len(vectors[0]))
                matrix = np.ndarray(shape, buffer=mmap.mmap(-1, max(8 * shape[0] * shape[1], 1)))
            matrix[start : start + len(vectors)] = vectors
        return cls(keys, matrix)

    def search(self, query: np.ndarray, k: int) -> list[tuple[str, float]]:
        """Top-k by inner product, descending; ties broken by key ascending."""
        if not self.keys:
            raise EmptyIndex("search against an empty index")
        if k < 1:
            raise ValueError("k must be positive")
        query = np.asarray(query, dtype=np.float64)
        if self._matrix.nbytes > SEARCH_BLAS_BYTES:
            # OpenBLAS's threads read a large matrix from memory faster than one thread:
            # np.vecdot took twice as long on a 50 000 x 128 matrix
            scores = self._matrix @ query
        else:
            # one np.dot per row: matrix @ query splits the rows over OpenBLAS threads that
            # spin between calls, and einsum took 2-3x as long on a 50 000 x 128 matrix
            scores = np.vecdot(self._matrix, query)
        k = min(k, len(self.keys))
        # only keys scoring at least the k-th best can place; all keys tied with it compete
        kth_best = np.partition(scores, -k)[-k]
        candidates = np.flatnonzero(scores >= kth_best)
        order = sorted(candidates, key=lambda i: (-scores[i], self.keys[i]))
        return [(self.keys[i], float(scores[i])) for i in order[:k]]

