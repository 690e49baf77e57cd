import functools
import json
import tempfile
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasr.config import PipelineConfig, validate_config
from tasr.embedding import CachingEncoder, HashEncoderClient
from tasr.errors import (
    AmbiguousBinding,
    DuplicateBinding,
    DuplicateDocument,
    LlmUnavailable,
    QueryFailure,
    TasrError,
)
from tasr.evaluation import QaExample, load_corpus, load_dataset, run_benchmark
from tasr.llm import ROLE_TAGS, Gateway, load_script, scripted_mock
from tasr.matching import aggregate_document_score, triple_texts
from tasr.model import (
    BindingTable,
    Document,
    Entity,
    Slot,
    SubQuery,
    TaxonomyLabel,
    Triple,
)
from tasr import matching, reasoner
from tasr.reasoner import Pipeline, answer_subquery, bind, resolve
from tasr.structurer import subquery_typing_jobs
from tasr.taxonomy import EntityTyper, LabelMap, load_default_taxonomy

from conftest import (
    FIXTURES,
    RecordingEncoderClient,
    send_decomposition,
    send_extraction,
    within,
)
from reference_scoring import brute_force_rank

RUNNING_QUESTION = (
    "Which company originally developed the database that the Science Activity Planner uses?"
)

PRODUCT_DB = TaxonomyLabel("PRODUCT", "Database")
ORG_COMPANY = TaxonomyLabel("ORGANIZATION", "Company")


def _s2():
    return SubQuery(
        index=2,
        head=Slot.variable("?Database"),
        relation="developed_by",
        tail=Slot.variable("?Company"),
        head_type=PRODUCT_DB,
        tail_type=ORG_COMPANY,
    )


class TestResolve:
    def test_substitutes_bound_variable(self):
        table = BindingTable()
        table.insert("?Database", "MySQL database")
        resolved = resolve(_s2(), table)
        assert resolved.head == Slot.bound("MySQL database")
        assert resolved.tail == Slot.variable("?Company")
        assert resolved.head_type == PRODUCT_DB  # types unchanged by substitution

    def test_empty_table_is_identity(self):
        sq = _s2()
        assert resolve(sq, BindingTable()) == sq

    def test_fully_bound_subquery_unchanged(self):
        sq = SubQuery(1, Slot.bound("a"), "r", Slot.bound("b"))
        table = BindingTable()
        table.insert("?X", "whatever")
        assert resolve(sq, table) == sq

    def test_resolve_idempotent_under_empty_table(self):
        sq = _s2()
        once = resolve(sq, BindingTable())
        twice = resolve(once, BindingTable())
        assert once == twice


class TestBind:
    def test_binds_single_new_latent(self):
        table = BindingTable()
        sq = SubQuery(1, Slot.bound("Science Activity Planner"), "uses", Slot.variable("?Database"))
        bind(sq, "MySQL database", table)
        assert table.as_dict() == {"?Database": "MySQL database"}

    def test_latent_free_subquery_leaves_table_unchanged(self):
        table = BindingTable()
        table.insert("?X", "x")
        sq = SubQuery(1, Slot.bound("a"), "r", Slot.bound("b"))
        bind(sq, "yes", table)
        assert table.as_dict() == {"?X": "x"}

    def test_two_unresolved_latents_is_ambiguous(self):
        with pytest.raises(AmbiguousBinding):
            bind(_s2(), "answer", BindingTable())

    def test_answer_is_trimmed(self):
        table = BindingTable()
        sq = SubQuery(1, Slot.bound("a"), "r", Slot.variable("?V"))
        bind(sq, "  padded value \n", table)
        assert table.get("?V") == "padded value"

    def test_empty_answer_with_pending_latent_rejected(self):
        sq = SubQuery(1, Slot.bound("a"), "r", Slot.variable("?V"))
        with pytest.raises(TasrError):
            bind(sq, "   ", BindingTable())

    def test_randomized_chains_grow_by_at_most_one(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            table = BindingTable()
            produced = []
            for i in range(1, n + 1):
                # valid chain: one new latent per hop, sometimes consuming an old one
                consume = bool(produced) and rng.random() < 0.5
                head = Slot.variable(rng.choice(produced)) if consume else Slot.bound(f"e{i}")
                new_name = f"?V{i}"
                tail = Slot.variable(new_name) if rng.random() < 0.8 else Slot.bound(f"t{i}")
                sq = SubQuery(i, head, "r", tail)
                before = len(table)
                resolved = resolve(sq, table)
                bind(resolved, f"answer {i}", table)
                assert len(table) - before in (0, 1)
                for slot in (resolved.head, resolved.tail):
                    if slot.latent:
                        assert slot.text not in dict(list(table.as_dict().items())[:before])
                if tail.latent:
                    produced.append(new_name)

    def test_rebinding_through_bind_rejected(self):
        table = BindingTable()
        table.insert("?V", "first")
        sq = SubQuery(1, Slot.bound("a"), "r", Slot.variable("?V"))
        # ?V is already bound: resolve substitutes it, bind leaves the table alone
        resolved = resolve(sq, table)
        bind(resolved, "second", table)
        assert table.get("?V") == "first"
        with pytest.raises(DuplicateBinding):
            table.insert("?V", "second")


class TestAnswerSubquery:
    def test_prompt_contains_subquery_and_ranked_docs(self):
        backend = scripted_mock([("answer", "(a, r, ?V)", {"answer": "value"})])
        docs = [
            Document(id="d2", title="Second", text="second body"),
            Document(id="d1", title="First", text="first body"),
        ]
        sq = SubQuery(1, Slot.bound("a"), "r", Slot.variable("?V"))
        answer = answer_subquery(sq, docs, Gateway(backend=backend))
        assert answer == "value"
        prompt = backend.calls[0].user_prompt
        assert "Sub-query: (a, r, ?V)" in prompt
        assert 'Give the value of "?V".' in prompt
        assert prompt.index("second body") < prompt.index("first body")  # rank order kept

    def test_latent_free_verification_hop(self):
        backend = scripted_mock([("answer", "(a, r, b)", {"answer": "yes"})])
        sq = SubQuery(1, Slot.bound("a"), "r", Slot.bound("b"))
        docs = [Document(id="d", title="t", text="x")]
        answer = answer_subquery(sq, docs, Gateway(backend=backend))
        assert answer == "yes"
        table = bind(sq, answer, BindingTable())
        assert len(table) == 0  # recorded but never bound

    def test_requires_documents(self):
        sq = SubQuery(1, Slot.bound("a"), "r", Slot.bound("b"))
        with pytest.raises(ValueError):
            answer_subquery(sq, [], Gateway(backend=scripted_mock([])))


class TestRunQueryGolden:
    def test_running_example_end_to_end(self, toy_pipeline):
        answer, trace = toy_pipeline.run_query(RUNNING_QUESTION)
        assert answer == "MySQL AB"
        assert trace.final_bindings == {
            "?Database": "MySQL database",
            "?Company": "MySQL AB",
        }
        hop1, hop2 = trace.hops
        assert hop1.selected == ["doc1"]
        assert not hop1.fallback
        doc3_score = next(r["score"] for r in hop1.document_scores if r["doc_id"] == "doc3")
        assert doc3_score < toy_pipeline.cfg.theta  # filtered at hop 1
        assert hop2.selected == ["doc6"]
        assert hop2.resolved.head == Slot.bound("MySQL database")
        assert trace.pool_ids and set(trace.pool_ids) == {f"doc{i}" for i in range(1, 7)}

    def test_single_subquery_is_plain_rerank_then_answer(self, toy_pipeline):
        answer, trace = toy_pipeline.run_query("Who developed the MySQL database?")
        assert answer == "MySQL AB"
        assert len(trace.hops) == 1
        assert trace.hops[0].selected == ["doc6"]

    def test_answer_provenance(self, toy_pipeline):
        answer, trace = toy_pipeline.run_query(RUNNING_QUESTION)
        assert answer == trace.hops[-1].answer == trace.final_answer

    def test_trace_replay_reproduces_document_scores(self, toy_pipeline, default_cfg):
        _, trace = toy_pipeline.run_query(RUNNING_QUESTION)
        for hop in trace.hops:
            assert len(hop.document_scores) == len(trace.pool_ids)
            for record in hop.document_scores:
                replayed = aggregate_document_score(
                    [m["s_triple"] for m in record["best_matches"]], default_cfg
                )
                assert record["score"] == pytest.approx(replayed, abs=1e-12)
                for m in record["best_matches"]:
                    mixed = default_cfg.alpha * m["s_struct"] + (1 - default_cfg.alpha) * m["s_sem"]
                    assert m["s_triple"] == pytest.approx(mixed, abs=1e-12)

    def test_substitution_soundness(self, toy_pipeline):
        _, trace = toy_pipeline.run_query(RUNNING_QUESTION)
        bound = set(trace.final_bindings)
        for hop in trace.hops:
            for slot in (hop.resolved.head, hop.resolved.tail):
                if slot.latent:
                    # a slot still latent at hop i was not bound before hop i
                    earlier = {
                        name
                        for earlier_hop in trace.hops[: hop.index - 1]
                        for name in [
                            n for n in earlier_hop.sub_query.latent_names()
                        ]
                        if name in bound
                    }
                    assert slot.text not in earlier

    def test_failed_query_carries_partial_trace(self, toy_pipeline):
        with pytest.raises(QueryFailure) as exc:
            toy_pipeline.run_query("A question with no script entry at all?")
        assert exc.value.trace is not None
        assert exc.value.trace.pool_ids  # retrieval happened before the failure

    def test_non_finite_question_vector_is_a_query_failure(
        self, toy_corpus, taxonomy, toy_backend, default_cfg
    ):
        class NanForQuestions(HashEncoderClient):
            def encode(self, texts):
                vectors = super().encode(texts)
                return [v * np.nan if t.endswith("?") else v for t, v in zip(texts, vectors)]

        encoder = CachingEncoder(NanForQuestions())
        pipeline = Pipeline(toy_corpus, taxonomy, encoder, Gateway(toy_backend), default_cfg)
        with pytest.raises(QueryFailure, match="NaN or inf") as exc:
            pipeline.run_query(RUNNING_QUESTION)
        assert exc.value.trace.pool_ids == []  # retrieval could not run

    def test_blank_question_is_a_query_failure(self, toy_pipeline):
        with pytest.raises(QueryFailure, match="query is empty"):
            toy_pipeline.run_query("   ")


class TestHopScope:
    def test_chain_scope_keeps_earlier_hop_documents(
        self, toy_corpus, taxonomy, hash_encoder, toy_backend
    ):
        cfg = validate_config(PipelineConfig(hop_scope="chain"))
        pipeline = Pipeline(
            documents=toy_corpus,
            taxonomy=taxonomy,
            encoder=hash_encoder,
            gateway=Gateway(backend=toy_backend),
            cfg=cfg,
        )
        answer, trace = pipeline.run_query(RUNNING_QUESTION)
        hop2 = trace.hops[1]
        # with the whole chain scored, doc1's perfect hop-1 triple keeps it above
        # threshold at hop 2; per-hop scope (the default) selects doc6 alone
        assert "doc1" in hop2.selected
        assert "doc6" in hop2.selected
        assert answer == "MySQL AB"


class TestRepeatedDocumentIds:
    @pytest.mark.parametrize("pre_extract", [False, True])
    def test_rejected_before_any_request_or_encode(self, pre_extract):
        corpus = load_corpus(FIXTURES / "corpus.jsonl")
        corpus.append(Document(id="doc1", title="Another", text="Other text under doc1's id."))
        sent = []

        class Recording(ScriptedFaults):
            def complete(self, req):
                sent.append(req)
                return super().complete(req)

        client = RecordingEncoderClient()
        with pytest.raises(DuplicateDocument, match="'doc1'"):
            Pipeline(corpus, load_default_taxonomy(), CachingEncoder(client), Gateway(Recording()),
                     validate_config(PipelineConfig()), pre_extract=pre_extract)
        assert sent == []
        assert client.seen == []


class TestPreExtract:
    def test_corpus_extracted_once_without_query_context(
        self, toy_corpus, taxonomy, hash_encoder, toy_backend
    ):
        pipeline = Pipeline(
            documents=toy_corpus,
            taxonomy=taxonomy,
            encoder=hash_encoder,
            gateway=Gateway(backend=toy_backend),
            cfg=validate_config(PipelineConfig()),
            pre_extract=True,
        )
        startup_extracts = [r for r in toy_backend.calls if r.role_tag == "extract"]
        assert len(startup_extracts) == 6
        assert all("Question:" not in r.user_prompt for r in startup_extracts)
        assert all(doc.triples for doc in pipeline.documents.values())

        answer, _ = pipeline.run_query(RUNNING_QUESTION)
        assert answer == "MySQL AB"
        # queries reuse the shared triples: no further extraction calls
        assert len([r for r in toy_backend.calls if r.role_tag == "extract"]) == 6

    def test_callers_documents_are_left_untouched(
        self, toy_corpus, taxonomy, hash_encoder, toy_backend
    ):
        before = [(d.id, d.title, d.text) for d in toy_corpus]
        Pipeline(
            documents=toy_corpus,
            taxonomy=taxonomy,
            encoder=hash_encoder,
            gateway=Gateway(backend=toy_backend),
            cfg=validate_config(PipelineConfig()),
            pre_extract=True,
        )
        assert [(d.id, d.title, d.text) for d in toy_corpus] == before
        assert all(d.triples == [] for d in toy_corpus)


class TestQuestionScopedMemory:
    """Vectors a question encodes go with it; the pipeline keeps what it learns at set-up."""

    def _pipeline(self, toy_corpus, taxonomy, toy_backend, encoder, pre_extract=False):
        return Pipeline(
            toy_corpus, taxonomy, encoder, Gateway(backend=toy_backend),
            validate_config(PipelineConfig()), pre_extract=pre_extract,
        )

    def test_built_pipeline_leaves_its_memo_empty(self, toy_corpus, taxonomy, toy_backend):
        # the corpus and taxonomy label vectors are held once, in their indexes
        encoder = CachingEncoder(HashEncoderClient())
        self._pipeline(toy_corpus, taxonomy, toy_backend, encoder)
        assert len(encoder) == 0

    def test_held_memo_does_not_grow_with_distinct_questions(self, toy_pipeline, toy_dataset):
        toy_pipeline.run_query(toy_dataset[0].question)
        after_one = len(toy_pipeline.encoder)
        for example in toy_dataset[1:]:
            toy_pipeline.run_query(example.question)
        for i in range(5):
            with pytest.raises(QueryFailure):
                toy_pipeline.run_query(f"Unscripted question number {i}?")
        assert len(toy_pipeline.encoder) == after_one

    def test_disk_cache_records_each_text_once(
        self, toy_corpus, taxonomy, toy_backend, tmp_path
    ):
        path = tmp_path / "vectors.jsonl"
        client = RecordingEncoderClient()
        encoder = CachingEncoder(client, cache_path=path)
        pipeline = self._pipeline(toy_corpus, taxonomy, toy_backend, encoder)
        pipeline.run_query(RUNNING_QUESTION)
        pipeline.run_query(RUNNING_QUESTION)
        assert client.seen.count(RUNNING_QUESTION) == 2  # each question encodes it afresh
        texts = [json.loads(line)["text"] for line in path.read_text().splitlines()]
        assert texts.count(RUNNING_QUESTION) == 1
        assert len(texts) == len(set(texts))

        again = RecordingEncoderClient()
        encoder = CachingEncoder(again, cache_path=path)
        answer, _ = self._pipeline(toy_corpus, taxonomy, toy_backend, encoder).run_query(
            RUNNING_QUESTION
        )
        assert answer == "MySQL AB"
        assert again.seen == []

    def test_pre_extracted_components_are_encoded_at_set_up_only(
        self, toy_corpus, taxonomy, toy_backend
    ):
        client = RecordingEncoderClient()
        pipeline = self._pipeline(
            toy_corpus, taxonomy, toy_backend, CachingEncoder(client), pre_extract=True
        )
        components = {
            text
            for doc in pipeline.documents.values()
            for t in doc.triples
            for text in triple_texts(t)
        }
        assert components <= set(client.seen)
        at_set_up = len(client.seen)
        answer, _ = pipeline.run_query(RUNNING_QUESTION)
        assert answer == "MySQL AB"
        assert len(client.seen) > at_set_up
        assert not components & set(client.seen[at_set_up:])


class TestThreeHopChain:
    def _pipeline(self, taxonomy, hash_encoder, **overrides):
        docs = [
            Document(id="dA", title="A", text="alpha links to beta"),
            Document(id="dB", title="B", text="beta links to gamma"),
            Document(id="dC", title="C", text="gamma links to delta"),
        ]
        script = [
            ("decompose", "chain question", {
                "sub_queries": [
                    {"head": "alpha", "relation": "linked_to", "tail": "?B"},
                    {"head": "?B", "relation": "linked_to", "tail": "?C"},
                    {"head": "?C", "relation": "linked_to", "tail": "?D"},
                ],
                "type_hints": {"?B": "node", "?C": "node", "?D": "node"},
            }),
            ("extract", "Document id: dA",
             {"triples": [{"head": "alpha", "relation": "linked_to", "tail": "beta"}]}),
            ("extract", "Document id: dB",
             {"triples": [{"head": "beta", "relation": "linked_to", "tail": "gamma"}]}),
            ("extract", "Document id: dC",
             {"triples": [{"head": "gamma", "relation": "linked_to", "tail": "delta"}]}),
            ("type_select", "First-level types", {"labels": ["CONCEPT", "OTHER", "PRODUCT"]}),
            ("type_select", "Final two-level type", {"l1": "CONCEPT", "l2": "Method"}),
            ("answer", "(alpha, linked_to, ?B)", {"answer": "beta"}),
            ("answer", "(beta, linked_to, ?C)", {"answer": "gamma"}),
            ("answer", "(gamma, linked_to, ?D)", {"answer": "delta"}),
        ]
        cfg = validate_config(PipelineConfig(**overrides))
        return Pipeline(
            documents=docs,
            taxonomy=taxonomy,
            encoder=hash_encoder,
            gateway=Gateway(backend=scripted_mock(script)),
            cfg=cfg,
        ), cfg

    def test_binding_table_grows_by_one_per_hop(self, taxonomy, hash_encoder):
        pipeline, _ = self._pipeline(taxonomy, hash_encoder)
        answer, trace = pipeline.run_query("chain question")
        assert answer == "delta"
        assert list(trace.final_bindings.items()) == [
            ("?B", "beta"),
            ("?C", "gamma"),
            ("?D", "delta"),
        ]
        assert [hop.answer for hop in trace.hops] == ["beta", "gamma", "delta"]

    @staticmethod
    def _typed_docs():
        """The pool as the pipeline types it: one labelled triple per document."""
        label = TaxonomyLabel("CONCEPT", "Method")
        chain = [("alpha", "beta", "dA"), ("beta", "gamma", "dB"), ("gamma", "delta", "dC")]
        docs = []
        for head, tail, doc_id in chain:
            triple = Triple(Entity(head), "linked_to", Entity(tail), doc_id, label, label)
            docs.append(Document(id=doc_id, title="", text="", triples=[triple]))
        return docs

    @staticmethod
    def _assert_hop_matches(hop, ranked):
        kept, all_ranked, fallback = ranked
        assert hop.fallback == fallback
        assert hop.selected == [doc_id for doc_id, _ in kept]
        got = [(r["doc_id"], r["score"]) for r in hop.document_scores]
        for (gid, gscore), (eid, escore) in zip(got, all_ranked):
            assert gid == eid
            assert gscore == pytest.approx(escore, abs=1e-9)

    def test_hop_reranking_matches_brute_force(self, taxonomy, hash_encoder):
        pipeline, cfg = self._pipeline(taxonomy, hash_encoder)
        _, trace = pipeline.run_query("chain question")
        docs = self._typed_docs()
        for hop in trace.hops:
            resolved = hop.resolved
            self._assert_hop_matches(hop, brute_force_rank(docs, [resolved], cfg, hash_encoder))

    def test_chain_scope_scores_each_resolved_subquery_once(
        self, monkeypatch, taxonomy, hash_encoder
    ):
        pipeline, cfg = self._pipeline(taxonomy, hash_encoder, hop_scope="chain")
        scored, score = [], matching.pair_scores

        def counted(pool, sub_queries, *rest):
            scored.extend(sub_queries)
            return score(pool, sub_queries, *rest)

        for module in (reasoner, matching):  # wherever the pipeline or the rank step looks it up
            monkeypatch.setattr(module, "pair_scores", counted, raising=False)
        answer, trace = pipeline.run_query("chain question")
        assert answer == "delta"
        # hop 1 scores the three unresolved sub-queries; hops 2 and 3 each resolve two anew
        assert len(scored) == len(set(scored)) == 7
        docs, bindings = self._typed_docs(), BindingTable()
        for position, hop in enumerate(trace.hops):
            chain = [resolve(h.sub_query, bindings) for h in trace.hops]
            ranked = brute_force_rank(docs, chain, cfg, hash_encoder, force_index=position)
            self._assert_hop_matches(hop, ranked)
            bind(hop.resolved, hop.answer, bindings)


class ScriptedFaults:
    """The toy script, with ``fail(req)`` naming the requests that raise; each request
    sleeps the delay ``delay_ms(req)`` picks first."""

    def __init__(self, fail=lambda req: None, delay_ms=lambda req: 0.0):
        self.inner = load_script(FIXTURES / "llm_script.json")
        self.fail, self.delay_ms = fail, delay_ms

    def complete(self, req):
        time.sleep(self.delay_ms(req) / 1000.0)
        message = self.fail(req)
        if message:
            raise LlmUnavailable(req.role_tag, message, retryable=False)
        return self.inner.complete(req)


def _job(req):
    """What a request is for: its document for an extraction, its entity for a typing."""
    marker = "Document id: " if req.role_tag == "extract" else 'entity "'
    return req.role_tag, req.user_prompt.split(marker, 1)[1].split("\n", 1)[0]


def _fresh_pipeline(backend, pre_extract=False, corpus=None):
    return Pipeline(
        corpus or load_corpus(FIXTURES / "corpus.jsonl"),
        load_default_taxonomy(),
        CachingEncoder(HashEncoderClient()),
        Gateway(backend=backend),
        validate_config(PipelineConfig()),
        pre_extract=pre_extract,
    )


class TestStreamedTyping:
    """Each document's entities are typed while the next document is extracted; the
    question's outcome is as if typing had waited for the last extraction."""

    def _pool(self):
        _, trace = _fresh_pipeline(ScriptedFaults()).run_query(RUNNING_QUESTION)
        titles = {d.id: d.title for d in load_corpus(FIXTURES / "corpus.jsonl")}
        return [(doc_id, titles[doc_id]) for doc_id in trace.pool_ids]

    @pytest.mark.parametrize("stage", ["extract", "decompose"])
    def test_a_later_stage_error_wins_over_an_earlier_typing_error(self, stage):
        # the first document's typing fails, then the last extraction or the decomposition
        pool = self._pool()
        first_title, last_id = pool[0][1], pool[-1][0]
        failing = {"extract": f"Document id: {last_id}", "decompose": ""}[stage]
        typing_failed = threading.Event()

        def fail(req):
            if req.role_tag == "type_select" and f"Context: {first_title}" in req.user_prompt:
                typing_failed.set()
                return "typing is down"
            if req.role_tag == stage and failing in req.user_prompt:
                assert typing_failed.wait(timeout=10)
                return f"{stage} is down"

        example = QaExample("q1", RUNNING_QUESTION, ("MySQL AB",))
        run = run_benchmark([example], _fresh_pipeline(ScriptedFaults(fail)))
        assert run.report.error_count == 1
        (row,) = run.report.per_example
        assert (row.em, row.f1) == (0, 0.0)
        assert f"{stage} is down" in row.error

    @pytest.mark.parametrize("stage", ["extract", "decompose", "type_select"])
    def test_failed_question_cancels_queued_requests(self, monkeypatch, stage):
        # one pool thread. After the failing request, the thread takes the next queued
        # request it may hold and holds it until the failed question cancels some
        # request; every request queued behind the held one must then never reach the
        # backend. A failed decomposition is read after every extraction reply, so
        # there only the type selections sent after the last extraction are held
        _one_pool_thread(monkeypatch)
        cancelled, failed, sent = threading.Event(), threading.Event(), []
        pool = self._pool()
        first_id = pool[0][0]

        def failing(req):
            if stage == "extract":  # the first document parsed; later ones queue behind it
                return req.role_tag == "extract" and f"Document id: {first_id}" in req.user_prompt
            if stage == "decompose":
                return req.role_tag == "decompose"
            # with pre_extract, the question's first sub-query slot (slots have no context)
            return req.role_tag == "type_select" and "Context:" not in req.user_prompt

        def held(req):
            extracted = sum(r.role_tag == "extract" for r in sent) == len(pool)
            return stage != "decompose" or (req.role_tag == "type_select" and extracted)

        class HeldAfterFailure(ScriptedFaults):
            def complete(self, req):
                sent.append(req)
                if failed.is_set() and held(req):
                    assert cancelled.wait(timeout=10)
                if failing(req):
                    failed.set()
                    raise LlmUnavailable(req.role_tag, f"{stage} is down", retryable=False)
                return super().complete(req)

        class WatchedPool(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                future.add_done_callback(lambda f: f.cancelled() and cancelled.set())
                return future

        monkeypatch.setattr(reasoner, "ThreadPoolExecutor", WatchedPool)
        pipeline = _fresh_pipeline(HeldAfterFailure(), pre_extract=stage == "type_select")
        with pytest.raises(QueryFailure, match=f"{stage} is down"):
            pipeline.run_query(RUNNING_QUESTION)
        assert cancelled.is_set() and not _request_threads()
        start = [failing(req) for req in sent].index(True) + 1
        if stage == "decompose":  # held from the first request after the last extraction
            start = max(i for i, req in enumerate(sent) if req.role_tag == "extract") + 1
        after = sent[start:]
        # only requests of the job that was already running (a typing job sends two stages)
        assert after and {_job(req) for req in after} == {_job(after[0])}

    @pytest.mark.parametrize("mode", ["plain", "pre_extract"])
    @settings(max_examples=8, deadline=None)
    @given(
        delays_ms=st.fixed_dictionaries(
            {role: st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4) for role in ROLE_TAGS}
        ),
        parallel=st.sampled_from([1, 2]),
    )
    def test_outputs_do_not_depend_on_when_typing_replies_arrive(self, mode, delays_ms, parallel):
        # type selections finish before or after later extractions, as the draw falls
        def delay_ms(req):
            options = delays_ms[req.role_tag]
            return options[zlib.crc32(req.user_prompt.encode()) % len(options)]

        delayed = _toy_outputs(ScriptedFaults(delay_ms=delay_ms), mode, parallel)
        assert delayed == _undelayed_outputs(mode)


class TestBlankDocuments:
    """A document with no text sends no extraction and has no triples."""

    @pytest.mark.parametrize("mode", ["plain", "pre_extract"])
    def test_blank_document_sends_nothing_and_changes_no_answer(self, mode):
        corpus = load_corpus(FIXTURES / "corpus.jsonl")
        corpus.insert(1, Document(id="blank", title="Blank page", text=" \n\t "))
        backend = ScriptedFaults()
        predictions, report, traces = _toy_outputs(backend, mode, 1, corpus)
        assert (predictions, report) == _undelayed_outputs(mode)[:2]
        assert all("blank" in trace["pool_ids"] for trace in traces.values())
        extracted = [_job(req)[1] for req in backend.inner.calls if req.role_tag == "extract"]
        assert extracted and "blank" not in extracted


class TestOneTypingStep:
    """A question sends each typing job once and waits for its labels once."""

    def _record(self, monkeypatch):
        submitted, collects = [], []
        submit, collect = EntityTyper.submit, EntityTyper.collect

        def recording_submit(typer, jobs):
            jobs = list(jobs)
            submitted.extend((entity.surface, context) for entity, context in jobs)
            submit(typer, jobs)

        def recording_collect(typer):
            collects.append(len(submitted))
            return collect(typer)

        monkeypatch.setattr(EntityTyper, "submit", recording_submit)
        monkeypatch.setattr(EntityTyper, "collect", recording_collect)
        return submitted, collects

    @pytest.mark.parametrize("pre_extract", [False, True])
    def test_one_collect_after_each_job_is_submitted_once(self, monkeypatch, pre_extract):
        submitted, collects = self._record(monkeypatch)
        corpus = load_corpus(FIXTURES / "corpus.jsonl")
        gateway = Gateway(backend=ScriptedFaults())
        query = None if pre_extract else RUNNING_QUESTION

        def doc_jobs(docs):
            return [
                (entity.surface, doc.title)
                for doc in docs
                for t in send_extraction(doc, query, gateway)
                for entity in (t.head, t.tail)
            ]

        pipeline = _fresh_pipeline(ScriptedFaults(), pre_extract=pre_extract)
        setup_jobs = doc_jobs(corpus) if pre_extract else []
        setup_collects = [len(setup_jobs)] if pre_extract else []
        assert (submitted, collects) == (setup_jobs, setup_collects)
        _, trace = pipeline.run_query(RUNNING_QUESTION)
        by_id = {doc.id: doc for doc in corpus}
        question_jobs = [] if pre_extract else doc_jobs(by_id[i] for i in trace.pool_ids)
        decomposition = send_decomposition(RUNNING_QUESTION, gateway)
        question_jobs += [(e.surface, c) for e, c in subquery_typing_jobs(decomposition)]
        assert submitted == setup_jobs + question_jobs
        assert collects == setup_collects + [len(submitted)]


class TestRequestPool:
    """A question sends every request before its answers on a bounded pool of its own."""

    @pytest.mark.parametrize("pre_extract", [False, True])
    def test_a_repeated_question_puts_no_typing_job_on_its_pool(self, monkeypatch, pre_extract):
        # its labels are held by the pipeline's map: they are read on the question's thread
        typing_jobs = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                if isinstance(getattr(fn, "__self__", None), (EntityTyper, LabelMap)):
                    typing_jobs.append(args)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(reasoner, "ThreadPoolExecutor", CountingPool)
        pipeline = _fresh_pipeline(ScriptedFaults(), pre_extract=pre_extract)
        first_answer, first = pipeline.run_query(RUNNING_QUESTION)
        assert typing_jobs
        typing_jobs.clear()
        answer, trace = pipeline.run_query(RUNNING_QUESTION)
        assert typing_jobs == []
        assert (answer, trace.to_dict()) == (first_answer, first.to_dict())

    def test_failed_pre_extraction_stops_the_pool(self):
        # the set-up's typed error reaches the caller, and no request thread outlives it
        senders = set()

        class ExtractDown(ScriptedFaults):
            def complete(self, req):
                senders.add(threading.current_thread())
                return super().complete(req)

        backend = ExtractDown(fail=lambda req: req.role_tag == "extract" and "extract is down")
        with pytest.raises(LlmUnavailable, match="extract is down"):
            _fresh_pipeline(backend, pre_extract=True)
        assert senders and all(t.name.startswith("tasr-request") for t in senders)
        assert not [t for t in senders if t.is_alive()]

    def test_request_threads_stop_before_the_first_answer(self):
        # a question's pool lives for its requests before the answers, not for the pipeline
        alive_at_answers = []

        class Watching(ScriptedFaults):
            def complete(self, req):
                if req.role_tag == "answer":
                    alive_at_answers.append(_request_threads())
                else:
                    assert threading.current_thread().name.startswith("tasr-request")
                return super().complete(req)

        outputs = _toy_outputs(Watching(), "plain", 1)
        assert outputs == _undelayed_outputs("plain")
        assert alive_at_answers and not any(alive_at_answers)

    def test_no_request_thread_outlives_a_failed_question(self):
        backend = ScriptedFaults(fail=lambda req: req.role_tag == "type_select" and "typing is down")
        with pytest.raises(QueryFailure, match="typing is down"):
            _fresh_pipeline(backend).run_query(RUNNING_QUESTION)
        assert not _request_threads()

    @pytest.mark.parametrize("workers", [2, 8, reasoner.REQUEST_WORKERS])
    def test_requests_in_flight_never_exceed_the_pool(self, monkeypatch, workers):
        # answers leave from the question threads; every other request from its question's pool
        monkeypatch.setattr(reasoner, "REQUEST_WORKERS", workers)
        lock, in_flight, peak = threading.Lock(), [0], [0]

        class Counting(ScriptedFaults):
            def complete(self, req):
                if req.role_tag == "answer":
                    return super().complete(req)
                with lock:
                    in_flight[0] += 1
                    peak[0] = max(peak[0], in_flight[0])
                try:
                    return super().complete(req)
                finally:
                    with lock:
                        in_flight[0] -= 1

        outputs = _toy_outputs(Counting(delay_ms=lambda req: 1.0), "plain", 3)
        assert outputs == _undelayed_outputs("plain")
        assert 1 <= peak[0] <= workers * 3

    def test_decomposition_is_sent_while_extractions_wait(self):
        # each extraction reply is held until its question's decomposition request arrives:
        # a pipeline that sent the decomposition after the extraction replies would hang
        questions = [example.question for example in load_dataset(FIXTURES / "questions.jsonl")]
        decomposed = {question: threading.Event() for question in questions}

        class ExtractAfterDecompose(ScriptedFaults):
            def complete(self, req):
                if req.role_tag in ("extract", "decompose"):
                    (question,) = [q for q in questions if q in req.user_prompt]
                    if req.role_tag == "decompose":
                        decomposed[question].set()
                    else:
                        assert decomposed[question].wait(timeout=10)
                return super().complete(req)

        outputs = within(60, lambda: _toy_outputs(ExtractAfterDecompose(), "plain", 1))
        assert outputs == _undelayed_outputs("plain")

    @pytest.mark.parametrize("mode", ["plain", "pre_extract"])
    def test_one_pool_thread_serves_three_questions(self, monkeypatch, mode):
        # typing jobs that wait on another question's selection share the one thread too
        _one_pool_thread(monkeypatch)
        outputs = within(60, lambda: _toy_outputs(ScriptedFaults(), mode, 3))
        assert outputs == _undelayed_outputs(mode)


def _one_pool_thread(monkeypatch):
    """Questions from here on, and the set-up, send on one request thread each."""
    monkeypatch.setattr(reasoner, "REQUEST_WORKERS", 1)


def _request_threads():
    return [t for t in threading.enumerate() if t.name.startswith("tasr-request")]


def _toy_outputs(backend, mode, parallel, corpus=None):
    """Predictions, report and traces of one toy run; ``corpus`` defaults to the toy corpus."""
    pipeline = _fresh_pipeline(backend, pre_extract=mode == "pre_extract", corpus=corpus)
    with tempfile.TemporaryDirectory() as trace_dir:
        run = run_benchmark(
            load_dataset(FIXTURES / "questions.jsonl"), pipeline, trace_dir=trace_dir,
            parallel=parallel,
        )
        traces = {p.name: json.loads(p.read_text()) for p in Path(trace_dir).iterdir()}
    return run.predictions, run.report.to_dict(), traces


@functools.lru_cache(maxsize=None)
def _undelayed_outputs(mode):
    return _toy_outputs(ScriptedFaults(), mode, 1)
