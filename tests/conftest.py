"""Shared fixtures and deterministic test doubles."""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from tasr.config import PipelineConfig, validate_config
from tasr.embedding import CachingEncoder, HashEncoderClient
from tasr.evaluation import load_corpus, load_dataset
from tasr.llm import Gateway, load_script
from tasr.matching import filter_and_rank, pair_scores
from tasr.reasoner import Pipeline
from tasr.structurer import (
    decompose_query,
    extract_triples,
    extraction_request,
    request_decomposition,
)
from tasr.taxonomy import load_default_taxonomy

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "toy"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def default_cfg() -> PipelineConfig:
    return validate_config(PipelineConfig())


@pytest.fixture(scope="session")
def taxonomy():
    return load_default_taxonomy()


@pytest.fixture()
def request_pool():
    """An executor for typers built outside a pipeline; its threads stop with the test."""
    with ThreadPoolExecutor(8, thread_name_prefix="test-request") as pool:
        yield pool


@pytest.fixture()
def hash_encoder() -> CachingEncoder:
    return CachingEncoder(HashEncoderClient())


@pytest.fixture()
def toy_corpus():
    return load_corpus(FIXTURES / "corpus.jsonl")


@pytest.fixture()
def toy_dataset():
    return load_dataset(FIXTURES / "questions.jsonl")


@pytest.fixture()
def toy_backend():
    return load_script(FIXTURES / "llm_script.json")


@pytest.fixture()
def toy_pipeline(toy_corpus, taxonomy, hash_encoder, toy_backend, default_cfg):
    return Pipeline(
        documents=toy_corpus,
        taxonomy=taxonomy,
        encoder=hash_encoder,
        gateway=Gateway(backend=toy_backend),
        cfg=default_cfg,
    )


def send_extraction(doc, query, gateway):
    """The triples of one document: its extraction request sent, its reply parsed."""
    return extract_triples(doc, extraction_request(doc, query, gateway)())


def send_decomposition(question, gateway):
    """The decomposition of one question: its request sent, its reply parsed."""
    return decompose_query(request_decomposition(question, gateway))


def rerank(pool, sub_queries, cfg, encoder, force_index=None):
    """One hop's rerank: the pool's pairs scored once, then ranked from those rows."""
    pairs = pair_scores(pool, sub_queries, cfg, encoder)
    return filter_and_rank(pool, sub_queries, pairs, cfg, force_index)


class PresetEncoderClient:
    """Returns exactly the preset vector for each known text.

    Unknown texts fall back to hash vectors so tests only pin what they need.
    """

    def __init__(self, presets: dict[str, list[float]], dim: int = 4) -> None:
        self.presets = {k: np.asarray(v, dtype=np.float64) for k, v in presets.items()}
        self._fallback = HashEncoderClient(dim=dim)

    def encode(self, texts):
        out = []
        for text in texts:
            if text in self.presets:
                out.append(self.presets[text])
            else:
                out.append(self._fallback.encode([text])[0])
        return out


class EchoSelectBackend:
    """Deterministic type-selection stand-in: keeps the first candidates shown."""

    def __init__(self) -> None:
        self.calls = []

    def complete(self, req):
        self.calls.append(req)
        line = next(l for l in req.user_prompt.splitlines() if l.startswith("Candidates: "))
        candidates = [c.strip() for c in line[len("Candidates: "):].split(",")]
        if "First-level types for entity" in req.user_prompt:
            return json.dumps({"labels": candidates[:3]})
        l1, l2 = candidates[0].split("/", 1)
        return json.dumps({"l1": l1, "l2": l2})


class RecordingEncoderClient:
    """Hash encoder that remembers every text it was asked to embed."""

    def __init__(self, dim: int = 64) -> None:
        self.seen: list[str] = []
        self._inner = HashEncoderClient(dim=dim)

    def encode(self, texts):
        self.seen.extend(texts)
        return self._inner.encode(texts)


def within(seconds, run):
    """``run()``, failing the test instead of hanging when it takes over ``seconds``."""
    result = []
    worker = threading.Thread(target=lambda: result.append(run()), daemon=True)
    worker.start()
    worker.join(seconds)
    assert result, f"no result within {seconds} s"
    return result[0]


def write_jsonl(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path
