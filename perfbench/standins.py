"""Stand-ins for the two external endpoints the pipeline talks to.

``MockLlm`` is a generative chat backend: it answers the four prompt roles
from the facts planted by :mod:`perfbench.workload`, using cheap line
lookups instead of scripted substrings. ``LexicalHashEncoder`` is an
embedding endpoint whose vectors overlap when texts share tokens, so dense
retrieval over a large corpus finds the documents that mention the
question's entities (the package's own hash encoder makes every distinct
text near-orthogonal, which turns retrieval into chance).
"""

from __future__ import annotations

import json
import re
import threading
import time
import zlib
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from tasr.llm import LlmRequest

FORMAT_RETRY_SUFFIX = "Respond with valid JSON only, no prose."
NOISE_PER_MILLE = 50  # first attempts returned as prose, and as many again fenced
TABLE_BUCKETS = 1 << 13  # rows of the encoder's hash table
TABLE_SEED = 0
UNKNOWN_ANSWER = "unknown"

_ENTITY_RE = re.compile(r'entity "(.*)"\.')
_TOKEN_RE = re.compile(r"[a-z0-9]+")
_STOPWORDS = frozenset("a an and by for from in is of on the then to which".split())


def _line_after(prompt: str, prefix: str) -> str:
    start = prompt.index(prefix) + len(prefix)
    end = prompt.find("\n", start)
    return prompt[start:] if end < 0 else prompt[start:end]


def _label_key(text: str) -> str:
    """``SoftwareProject (software project)`` and ``software project`` -> ``softwareproject``."""
    return text.split(" (", 1)[0].replace(" ", "").rstrip("0123456789").lower()


class MockLlm:
    """Chat backend that answers from a planted world; implements ``tasr.llm.Backend``.

    ``world`` holds ``facts`` (doc id -> [(head, relation, tail)]),
    ``decompositions`` (question -> sub-query chain) and ``types`` (entity
    surface -> (l1, l2)). ``latency_ms`` maps a role to the time each of its
    requests sleeps. A ``NOISE_PER_MILLE`` share of first attempts comes back
    as prose, and as many again fenced; a format-retry prompt always gets JSON.
    The draw hashes the seed, the prompt and how often this session has seen
    the prompt, so identical prompts from different questions draw afresh and
    the request totals for a set of questions never depend on call order.
    """

    def __init__(self, world: Mapping, seed: int, latency_ms: Mapping[str, float]) -> None:
        self.facts = world["facts"]
        self.decompositions = world["decompositions"]
        self.types = world["types"]
        self.label_types = {l2.lower(): (l1, l2) for l1, l2 in world["labels"]}
        self.seed = seed
        self.latency_s = {role: ms / 1000.0 for role, ms in latency_ms.items()}
        self.requests: Counter = Counter()
        self._seen: Counter = Counter()  # prompt hash -> times seen
        self._lock = threading.Lock()
        self._extract_cache: dict[str, str] = {}

    def complete(self, req: LlmRequest) -> str:
        prompt = req.user_prompt
        key = zlib.crc32(prompt.encode())
        with self._lock:
            self.requests[req.role_tag] += 1
            self._seen[key] += 1
            seen = self._seen[key]
        delay = self.latency_s.get(req.role_tag)
        if delay:
            time.sleep(delay)
        body = getattr(self, "_" + req.role_tag)(prompt)
        if prompt.endswith(FORMAT_RETRY_SUFFIX):
            return body
        draw = zlib.crc32(f"{self.seed}:{seen}:{key}".encode()) % 1000
        if draw < NOISE_PER_MILLE:
            return "Here is the result you asked for:\n" + body
        if draw < 2 * NOISE_PER_MILLE:
            return "```json\n" + body + "\n```"
        return body

    def _extract(self, prompt: str) -> str:
        doc_id = _line_after(prompt, "Document id: ")
        cached = self._extract_cache.get(doc_id)
        if cached is None:
            triples = [{"head": h, "relation": r, "tail": t} for h, r, t in self.facts[doc_id]]
            cached = json.dumps({"triples": triples})
            self._extract_cache[doc_id] = cached
        return cached

    def _decompose(self, prompt: str) -> str:
        return json.dumps(self.decompositions[_line_after(prompt, "Question: ")])

    def _type_select(self, prompt: str) -> str:
        entity = _ENTITY_RE.search(prompt).group(1)
        candidates = _line_after(prompt, "Candidates: ").split(", ")
        label = self.types.get(entity) or self.label_types.get(_label_key(entity))
        if "First-level types" in prompt:
            pick = label[0] if label and label[0] in candidates else candidates[0]
            return json.dumps({"labels": [pick]})
        pair = f"{label[0]}/{label[1]}" if label else ""
        l1, l2 = (pair if pair in candidates else candidates[0]).split("/", 1)
        return json.dumps({"l1": l1, "l2": l2})

    def _answer(self, prompt: str) -> str:
        head, relation, tail = _line_after(prompt, "Sub-query: ")[1:-1].split(", ")
        doc_ids = [line[1 : line.index("]")] for line in prompt.split("\n") if line.startswith("[")]
        answer = UNKNOWN_ANSWER
        for doc_id in doc_ids:
            found = _lookup(self.facts[doc_id], head, relation, tail)
            if found is not None:
                answer = found
                break
        return json.dumps({"answer": answer})

    def request_counts(self) -> Counter:
        with self._lock:
            return Counter(self.requests)


def _lookup(facts: Sequence[tuple[str, str, str]], head: str, relation: str, tail: str):
    for h, r, t in facts:
        if r != relation:
            continue
        if h == head and tail.startswith("?"):
            return t
        if t == tail and head.startswith("?"):
            return h
    return None


class LexicalHashEncoder:
    """Embedding endpoint: sum of per-token hash vectors, L2-normalised.

    Each lower-cased alphanumeric token (minus a few function words) adds two
    rows of a fixed Gaussian table picked by two CRC32 hashes, so texts that
    share tokens get correlated vectors. Implements ``tasr.embedding.EncoderClient``.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.mask = TABLE_BUCKETS - 1
        rng = np.random.default_rng(TABLE_SEED)
        self.table = rng.standard_normal((TABLE_BUCKETS, dim), dtype=np.float32)
        self.texts = 0
        self._lock = threading.Lock()

    def encode(self, texts: Sequence[str]) -> list[np.ndarray]:
        with self._lock:
            self.texts += len(texts)
        return [self._vector(text) for text in texts]

    def _vector(self, text: str) -> np.ndarray:
        tokens = [t for t in _TOKEN_RE.findall(text.lower()) if t not in _STOPWORDS] or [text]
        rows = []
        for token in tokens:
            raw = token.encode()
            h = zlib.crc32(raw)
            rows.append(h & self.mask)
            rows.append(zlib.crc32(raw, h) & self.mask)
        v = self.table[rows].sum(axis=0)
        return v / np.linalg.norm(v)
