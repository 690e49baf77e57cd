import json
import os
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasr import embedding
from tasr.config import PipelineConfig
from tasr.embedding import (
    CachingEncoder,
    HashEncoderClient,
    VectorIndex,
    encoder_from_url,
    normalize,
)
from tasr.errors import DimensionMismatch, EmptyIndex, EncoderCacheError, EncoderUnavailable
from tasr.errors import NonFiniteVector, TasrError
from tasr.evaluation import load_corpus
from tasr.llm import TRANSPORT_BACKOFF_S, TRANSPORT_RETRIES
from tasr.matching import component_texts
from tasr.model import Document
from tasr.reasoner import dense_retrieve

from conftest import RecordingEncoderClient


def _encode(texts, client):
    return CachingEncoder(client).encode(texts)


class TestNormalize:
    def test_unit_norm(self):
        v = normalize(np.array([3.0, 4.0]))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(4))


class TestEncode:
    def test_single_text_unit_norm(self):
        vectors = _encode(["a"], HashEncoderClient())
        assert len(vectors) == 1
        assert np.linalg.norm(vectors[0]) == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self):
        client = HashEncoderClient()
        a1, a2 = _encode(["same text", "same text"], client)
        assert np.array_equal(a1, a2)
        b = _encode(["same text"], HashEncoderClient())[0]
        assert np.array_equal(a1, b)

    def test_lone_surrogate_encodes(self, tmp_path):
        # the JSON escape "\ud800" is valid, so a corpus line can carry a lone surrogate
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "title": "T\\ud800", "text": "x"}\n')
        (document,) = load_corpus(path)
        first, second = _encode([document.embedding_text(), "T\n\nx"], HashEncoderClient())
        assert np.linalg.norm(first) == pytest.approx(1.0, abs=1e-9)
        assert not np.array_equal(first, second)

    def test_distinct_texts_near_orthogonal(self):
        # identical text gives cosine 1; distinct random pairs stay far below it
        client = HashEncoderClient()
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = f"text {rng.integers(1_000_000)}"
            y = f"text {rng.integers(1_000_000)}"
            if x == y:
                continue
            vx, vy = _encode([x, y], client)
            assert float(vx @ vx) == pytest.approx(1.0, abs=1e-9)
            assert abs(float(vx @ vy)) < 0.5

    def test_dimension_mismatch_detected(self):
        class BrokenClient:
            def encode(self, texts):
                return [np.ones(3) / np.sqrt(3), np.ones(4) / 2.0]

        with pytest.raises(DimensionMismatch):
            CachingEncoder(BrokenClient()).encode(["x", "y"])


class TestCachingEncoder:
    def test_second_call_hits_cache(self):
        recording = RecordingEncoderClient()
        encoder = CachingEncoder(recording)
        encoder.encode_one("x")
        encoder.encode_one("x")
        assert recording.seen == ["x"]

    def test_disk_cache_roundtrip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = CachingEncoder(HashEncoderClient(), cache_path=path)
        v1 = first.encode_one("persisted")
        recording = RecordingEncoderClient()
        second = CachingEncoder(recording, cache_path=path)
        v2 = second.encode_one("persisted")
        assert np.allclose(v1, v2)
        assert recording.seen == []

    def test_cached_dimension_binds_fresh_batches(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        CachingEncoder(HashEncoderClient(dim=8), cache_path=path).encode_one("written at d=8")
        encoder = CachingEncoder(HashEncoderClient(dim=16), cache_path=path)
        with pytest.raises(DimensionMismatch):
            encoder.encode_one("fresh at d=16")

    def test_fresh_batch_must_match_held_dimension(self):
        class GrowingClient:
            def __init__(self):
                self.dim = 4

            def encode(self, texts):
                self.dim += 1
                return HashEncoderClient(dim=self.dim).encode(texts)

        encoder = CachingEncoder(GrowingClient())
        encoder.encode_one("first")
        encoder.encode_one("first")  # a hit is not checked again
        with pytest.raises(DimensionMismatch):
            encoder.encode_one("second")

    def test_short_batch_is_a_typed_error(self):
        class ShortClient:
            def encode(self, texts):
                return HashEncoderClient(dim=4).encode(texts[:-1])

        with pytest.raises(TasrError):
            CachingEncoder(ShortClient()).encode(["a", "b"])

    def test_truncated_last_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        CachingEncoder(HashEncoderClient(dim=8), cache_path=path).encode(["a", "b"])
        text = path.read_text()
        path.write_text(text[: len(text) - 20])
        with pytest.raises(EncoderCacheError) as exc:
            CachingEncoder(HashEncoderClient(dim=8), cache_path=path)
        assert str(path) in str(exc.value)
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(b'{"text": "b\xff", "vector": [1.0, 0.0]}\n', id="not-utf8"),
            pytest.param(b"[" * 100_000 + b"]" * 100_000 + b"\n", id="nested-too-deep"),
        ],
    )
    def test_unreadable_line_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        CachingEncoder(HashEncoderClient(dim=8), cache_path=path).encode(["a"])
        with path.open("ab") as fh:
            fh.write(line)
        with pytest.raises(EncoderCacheError) as exc:
            CachingEncoder(HashEncoderClient(dim=8), cache_path=path)
        assert str(path) in str(exc.value)
        assert "line 2" in str(exc.value)

    def test_non_finite_cache_line_fails_at_construction(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(
            '{"text": "a", "vector": [0.6, 0.8]}\n{"text": "b", "vector": [NaN, 1.0]}\n'
        )
        with pytest.raises(NonFiniteVector, match="'b'"):
            CachingEncoder(HashEncoderClient(dim=2), cache_path=path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_client_vector_is_rejected_and_not_held(self, bad):
        class NonFiniteClient:
            def encode(self, texts):
                return [np.array([bad, 1.0]) if t == "bad" else np.array([0.6, 0.8]) for t in texts]

        encoder = CachingEncoder(NonFiniteClient())
        with pytest.raises(NonFiniteVector, match="'bad'"):
            encoder.encode(["good", "bad"])
        assert len(encoder) == 0
        assert np.array_equal(encoder.encode_one("good"), [0.6, 0.8])

    def test_threaded_appends_write_one_whole_line_per_text(self, tmp_path):
        path = tmp_path / "cache.jsonl"

        class YieldingClient:
            def encode(self, texts):
                time.sleep(0)  # yield between fetch and store
                return HashEncoderClient(dim=8).encode(texts)

        encoder = CachingEncoder(YieldingClient(), cache_path=path)
        n_threads = (os.cpu_count() or 1) + 4
        per_thread = 40
        start = threading.Barrier(n_threads)

        def work(i):
            start.wait()
            for j in range(per_thread):
                encoder.encode([f"t{i}-{j}", f"t{i}-{j}-pair"])

        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "stress run exceeded 60 s"

        lines = path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert len(lines) == n_threads * per_thread * 2
        assert len({r["text"] for r in records}) == len(lines)
        reloaded = CachingEncoder(HashEncoderClient(dim=8), cache_path=path)
        assert np.array_equal(reloaded.encode_one("t0-0"), encoder.encode_one("t0-0"))


ENCODER_OUTCOMES = ("ok", "retryable", "fatal")


class _PlayedClient:
    """Answers the n-th call with the n-th drawn outcome."""

    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.calls = []

    def encode(self, texts):
        self.calls.append(list(texts))
        outcome = self.outcomes[len(self.calls) - 1]
        if outcome == "ok":
            return HashEncoderClient(dim=4).encode(texts)
        raise EncoderUnavailable("down", retryable=outcome == "retryable")


def _expected_encode(outcomes):
    """What one memo miss does: (client calls, sleeps, vectors or error type)."""
    sleeps = []
    for calls, outcome in enumerate(outcomes, start=1):
        if outcome == "ok":
            return calls, sleeps, "vectors"
        if outcome == "fatal" or calls == 1 + TRANSPORT_RETRIES:
            return calls, sleeps, EncoderUnavailable
        sleeps.append(TRANSPORT_BACKOFF_S)
    raise AssertionError("a miss makes at most 1 + TRANSPORT_RETRIES client calls")


class TestEncoderRequestPolicy:
    """The memo sends its client call through the chat endpoint's transport policy."""

    @given(st.lists(st.sampled_from(ENCODER_OUTCOMES), min_size=3, max_size=3))
    def test_calls_sleeps_and_result_follow_the_model(self, outcomes):
        calls, sleeps, expected = _expected_encode(outcomes)
        client = _PlayedClient(outcomes)
        encoder = CachingEncoder(client)
        slept = []
        with mock.patch.object(time, "sleep", slept.append):
            try:
                vectors = encoder.encode(["a", "b", "a"])
                result = "vectors"
                assert np.array_equal(vectors, _encode(["a", "b", "a"], HashEncoderClient(dim=4)))
            except EncoderUnavailable:
                result = EncoderUnavailable
        assert result == expected
        assert client.calls == [["a", "b"]] * calls
        assert slept == sleeps
        assert len(encoder) == (2 if result == "vectors" else 0)


class TestEncodeTripleComponents:
    """Role-prefixed component encoding, as the semantic score uses it."""

    def test_role_prefixes_are_bit_exact(self):
        recording = RecordingEncoderClient()
        CachingEncoder(recording).encode(component_texts("A", "r", "A"))
        assert recording.seen == ["S: A", "P: r", "O: A"]

    def test_same_surface_differs_across_roles(self):
        v_h, _, v_t = CachingEncoder(HashEncoderClient()).encode(component_texts("A", "r", "A"))
        assert not np.allclose(v_h, v_t)

    def test_identical_triples_identical_vectors(self):
        first = CachingEncoder(HashEncoderClient()).encode(component_texts("x", "rel", "y"))
        second = CachingEncoder(HashEncoderClient()).encode(component_texts("x", "rel", "y"))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestVectorIndexSearch:
    def test_singleton(self):
        index = VectorIndex(["only"], [normalize(np.array([1.0, 0.0]))])
        assert index.search(normalize(np.array([0.0, 1.0])), 3) == [("only", 0.0)]

    def test_k_larger_than_index_truncates(self):
        vecs = HashEncoderClient(dim=8).encode(["a", "b", "c"])
        index = VectorIndex(["a", "b", "c"], vecs)
        assert len(index.search(vecs[0], 10)) == 3

    def test_empty_index_rejected(self):
        with pytest.raises(EmptyIndex):
            VectorIndex([], []).search(np.ones(3), 1)

    def test_equal_scores_tie_break_by_key(self):
        v = normalize(np.ones(4))
        index = VectorIndex(["zeta", "alpha"], [v, v])
        hits = index.search(v, 2)
        assert [key for key, _ in hits] == ["alpha", "zeta"]

    def test_matches_exhaustive_argsort_oracle(self):
        rng = np.random.default_rng(123)
        for trial in range(20):
            n = int(rng.integers(2, 60))
            dim = int(rng.integers(3, 16))
            keys = [f"k{i:03d}" for i in range(n)]
            vectors = [normalize(rng.standard_normal(dim)) for _ in range(n)]
            index = VectorIndex(keys, vectors)
            query = normalize(rng.standard_normal(dim))
            k = int(rng.integers(1, n + 1))
            got = index.search(query, k)
            scores = [float(v @ query) for v in vectors]
            expected = sorted(zip(keys, scores), key=lambda p: (-p[1], p[0]))[:k]
            assert [key for key, _ in got] == [key for key, _ in expected]
            for (_, a), (_, b) in zip(got, expected):
                assert a == pytest.approx(b, abs=1e-12)


    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.integers(0, 3), min_size=1, max_size=40),
        k=st.integers(1, 45),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ties_at_the_cut_break_by_key(self, rows, k, seed):
        # few distinct vectors, so many keys tie with the k-th score
        rng = np.random.default_rng(seed)
        distinct = [normalize(rng.standard_normal(4)) for _ in range(4)]
        keys = [f"k{i:02d}" for i in rng.permutation(len(rows))]
        index = VectorIndex(keys, [distinct[row] for row in rows])
        query = normalize(rng.standard_normal(4))
        scores = {key: float(distinct[row] @ query) for key, row in zip(keys, rows)}
        expected = sorted(keys, key=lambda key: (-scores[key], key))[:k]
        assert [key for key, _ in index.search(query, k)] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        blocks=st.integers(0, 8),
        extra=st.sampled_from([0, 1, 2, 17, 31]),
        dim=st.sampled_from([128, 256, 384]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_score_does_not_depend_on_the_other_rows(self, blocks, extra, dim, seed):
        # row counts 32 * blocks + extra include every n = 1 (mod 32) up to 257
        n = max(32 * blocks + extra, 1)
        rng = np.random.default_rng(seed)
        keys = [f"k{i:03d}" for i in range(n)]
        vectors = [normalize(rng.standard_normal(dim)) for _ in range(n)]
        query = normalize(rng.standard_normal(dim))
        scores = dict(VectorIndex(keys, vectors).search(query, n))
        for key, vector in zip(keys, vectors):
            assert scores[key] == VectorIndex([key], [vector]).search(query, 1)[0][1], key

    def test_matrix_product_past_the_bound_ranks_as_row_dots(self, monkeypatch):
        rng = np.random.default_rng(11)
        keys = [f"k{i:02d}" for i in range(40)]
        vectors = [normalize(rng.standard_normal(16)) for _ in keys]
        query = normalize(rng.standard_normal(16))
        index = VectorIndex(keys, vectors)
        row_dots = index.search(query, 10)
        monkeypatch.setattr(embedding, "SEARCH_BLAS_BYTES", 0)
        product = index.search(query, 10)
        assert [key for key, _ in product] == [key for key, _ in row_dots]
        assert [score for _, score in product] == pytest.approx([s for _, s in row_dots], abs=1e-12)


class Float32Client:
    """Returns float32 vectors and counts the texts it is asked for."""

    def __init__(self, dim: int = 8) -> None:
        self.seen: list[str] = []
        self._inner = HashEncoderClient(dim=dim)

    def encode(self, texts):
        self.seen.extend(texts)
        return [v.astype(np.float32) for v in self._inner.encode(texts)]


def _corpus_index(docs, encoder):
    """The corpus index a pipeline builds over ``docs``, by :meth:`VectorIndex.encode`."""
    return VectorIndex.encode([d.id for d in docs], [d.embedding_text() for d in docs], encoder)


class TestCorpusIndex:
    _docs = [Document(id=f"d{i}", title=f"title {i}", text=f"body {i}") for i in range(10)]

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(embedding, "CORPUS_CHUNK", 4)  # three chunks, the last one short

    def test_matrix_is_one_exact_cast_of_the_vectors(self):
        index = _corpus_index(self._docs, CachingEncoder(Float32Client()))
        texts = [d.embedding_text() for d in self._docs]
        expected = np.array(Float32Client().encode(texts), dtype=np.float64)
        assert index._matrix.dtype == np.float64
        assert index._matrix.tobytes() == expected.tobytes()
        assert index.keys == [d.id for d in self._docs]

    def test_corpus_texts_stay_out_of_the_memo(self):
        client = Float32Client()
        encoder = CachingEncoder(client)
        _corpus_index(self._docs, encoder)
        text = self._docs[0].embedding_text()
        encoder.encode_one(text)
        assert client.seen.count(text) == 2

    def test_second_build_over_the_disk_cache_calls_no_client(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = _corpus_index(self._docs, CachingEncoder(Float32Client(), cache_path=path))
        client = Float32Client()
        second = _corpus_index(self._docs, CachingEncoder(client, cache_path=path))
        assert client.seen == []
        assert np.array_equal(first._matrix, second._matrix)

    def test_search_after_build_sends_nothing_to_the_client(self):
        client = Float32Client()
        index = _corpus_index(self._docs, CachingEncoder(client))
        sent = len(client.seen)
        query = HashEncoderClient(dim=8).encode(["a question"])[0]
        assert [key for key, _ in index.search(query, 3)]
        assert len(client.seen) == sent


class TestDenseRetrieve:
    def _retrieve(self, query, docs, cfg):
        encoder = CachingEncoder(HashEncoderClient())
        corpus, by_id = _corpus_index(docs, encoder), {d.id: d for d in docs}
        return dense_retrieve(query, corpus, by_id, cfg.k0, encoder.scope())

    def test_question_goes_through_the_memo_it_is_given(self, toy_corpus, default_cfg):
        client = RecordingEncoderClient()
        encoder = CachingEncoder(client)
        corpus, by_id = _corpus_index(toy_corpus, encoder), {d.id: d for d in toy_corpus}
        scope, sent = encoder.scope(), len(client.seen)
        dense_retrieve("a question", corpus, by_id, default_cfg.k0, scope)
        assert client.seen[sent:] == ["a question"]
        assert (len(encoder), len(scope)) == (0, 1)

    def test_pool_smaller_than_k0_returns_all(self, toy_corpus, default_cfg):
        pool = self._retrieve("any question at all", toy_corpus, default_cfg)
        assert sorted(d.id for d in pool) == [f"doc{i}" for i in range(1, 7)]

    def test_running_example_pool_contains_key_documents(self, toy_corpus, default_cfg):
        question = "Which company originally developed the database that the Science Activity Planner uses?"
        pool_ids = {d.id for d in self._retrieve(question, toy_corpus, default_cfg)}
        assert {"doc1", "doc3", "doc6"} <= pool_ids

    def test_duplicate_documents_tie_break_id_ascending(self, default_cfg):
        docs = [
            Document(id="dup2", title="same", text="same body"),
            Document(id="dup1", title="same", text="same body"),
        ]
        pool = self._retrieve("same body", docs, default_cfg)
        assert [d.id for d in pool] == ["dup1", "dup2"]

    def test_k0_limits_pool(self, toy_corpus):
        cfg = PipelineConfig(k0=2)
        pool = self._retrieve("question", toy_corpus, cfg)
        assert len(pool) == 2


class TestEncoderFromUrl:
    def test_mock_scheme(self):
        assert isinstance(encoder_from_url("mock:"), HashEncoderClient)

    def test_http_scheme(self):
        client = encoder_from_url("http://example.test:8080")
        assert client.url == "http://example.test:8080"
