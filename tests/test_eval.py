import copy
import functools
import hashlib
import json
import tempfile
import threading
import time
import zlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasr import embedding, llm
from tasr.config import PipelineConfig, validate_config
from tasr.embedding import CachingEncoder, HashEncoderClient
from tasr.errors import DatasetParseError, EncoderUnavailable, LlmUnavailable
from tasr.evaluation import (
    QaExample,
    load_corpus,
    load_dataset,
    run_benchmark,
    score_predictions,
    write_trace,
)
from tasr.llm import FORMAT_RETRY_SUFFIX, TRANSPORT_BACKOFF_S, Gateway, ScriptEntry
from tasr.llm import ScriptedMockBackend, load_script
from tasr.reasoner import Pipeline
from tasr.taxonomy import load_default_taxonomy

from conftest import DATA, FIXTURES, within, write_jsonl


class TestLoaders:
    def test_toy_corpus(self, toy_corpus):
        assert [d.id for d in toy_corpus] == [f"doc{i}" for i in range(1, 7)]
        assert all(d.title and d.text for d in toy_corpus)

    def test_toy_dataset(self, toy_dataset):
        assert [q.id for q in toy_dataset] == ["q1", "q2", "q3"]
        assert toy_dataset[0].answers == ("MySQL AB",)

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetParseError):
            load_dataset(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "question": "q", "answers": ["x"]}\nnot json\n')
        with pytest.raises(DatasetParseError):
            load_dataset(path)

    def test_missing_field_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [{"id": "a", "title": "t"}])
        with pytest.raises(DatasetParseError):
            load_corpus(path)

    def test_example_requires_answers(self):
        with pytest.raises(DatasetParseError):
            QaExample(id="x", question="q", answers=())

    def test_duplicate_id_error_names_the_line(self, tmp_path):
        record = {"id": "q1", "question": "q?", "answers": ["x"]}
        path = write_jsonl(tmp_path / "d.jsonl", [record, {**record, "id": "q2"}, record])
        with pytest.raises(DatasetParseError, match=r"line 3: duplicate id 'q1'"):
            load_dataset(path)

    def test_duplicate_corpus_id_error_names_the_line(self, tmp_path):
        # a repeated id would hide the first document: retrieval maps ids to documents
        corpus = tmp_path / "c.jsonl"
        toy = (FIXTURES / "corpus.jsonl").read_text(encoding="utf-8")
        extra = {"id": "doc1", "title": "Another", "text": "Other text."}
        corpus.write_text(toy + json.dumps(extra) + "\n", encoding="utf-8")
        with pytest.raises(DatasetParseError, match=r"line 7: duplicate id 'doc1'"):
            load_corpus(corpus)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_lines_end_only_at_newline(self, tmp_path, separator):
        # JSON lets these stand unescaped inside strings; str.splitlines() would split there
        text = f"first{separator}second"
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            json.dumps({"id": "d1", "title": text, "text": text}, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(
            json.dumps({"id": "q1", "question": text, "answers": [text]}, ensure_ascii=False),
            encoding="utf-8",
        )
        (document,) = load_corpus(corpus)
        assert (document.title, document.text) == (text, text)
        (example,) = load_dataset(dataset)
        assert (example.question, example.answers) == (text, (text,))


def _questions(stream):
    """A parallel=1 stream cut after each run of answers: one part per question, the
    set-up requests of ``pre_extract`` joining the first."""
    parts = [[]]
    for request in stream:
        if parts[-1] and parts[-1][-1][0] == "answer" and request[0] != "answer":
            parts.append([])
        parts[-1].append(request)
    return parts


def _sorted_roles(part, roles):
    return sorted(request for request in part if request[0] in roles)


class TestRunBenchmark:
    def test_toy_benchmark_hand_scored(self, toy_pipeline, toy_dataset):
        run = run_benchmark(toy_dataset, toy_pipeline)
        report = run.report
        by_id = {r.id: r for r in report.per_example}
        # q1, q2 answer exactly; q3 answers "Sun Microsystems, Inc." against
        # gold "Sun Microsystems": EM 0, F1 = 2 * (2/3 * 1) / (2/3 + 1) = 0.8
        assert (by_id["q1"].em, by_id["q1"].f1) == (1, 1.0)
        assert (by_id["q2"].em, by_id["q2"].f1) == (1, 1.0)
        assert by_id["q3"].em == 0
        assert by_id["q3"].f1 == pytest.approx(0.8, abs=1e-12)
        assert report.em_avg == pytest.approx(2 / 3, abs=1e-12)
        assert report.f1_avg == pytest.approx((1 + 1 + 0.8) / 3, abs=1e-12)
        assert report.error_count == 0
        assert report.fallback_count == 0

    def test_averages_recompute_from_rows(self, toy_pipeline, toy_dataset):
        report = run_benchmark(toy_dataset, toy_pipeline).report
        n = len(report.per_example)
        assert report.em_avg == pytest.approx(sum(r.em for r in report.per_example) / n, abs=1e-12)
        assert report.f1_avg == pytest.approx(sum(r.f1 for r in report.per_example) / n, abs=1e-12)

    def test_errored_query_scores_zero_and_is_counted(self, toy_pipeline, toy_dataset):
        extended = list(toy_dataset) + [
            QaExample(id="q4", question="Unknown question with no script?", answers=["whatever"])
        ]
        report = run_benchmark(extended, toy_pipeline).report
        q4 = next(r for r in report.per_example if r.id == "q4")
        assert (q4.em, q4.f1) == (0, 0.0)
        assert q4.error is not None
        assert report.error_count == 1
        assert report.em_avg == pytest.approx(2 / 4, abs=1e-12)

    def test_empty_dataset_rejected(self, toy_pipeline):
        with pytest.raises(DatasetParseError):
            run_benchmark([], toy_pipeline)

    def test_encoder_reply_too_large_for_a_float_fails_only_its_question(
        self, monkeypatch, toy_corpus, taxonomy, toy_backend, default_cfg, toy_dataset
    ):
        # the encoder stub answers as the hash encoder does, but one question's vector holds
        # an integer too large for a float64, as json.loads reads it from a reply
        hash_client = HashEncoderClient()

        def stub_post_json(url, payload, timeout, unavailable, headers=None):
            texts = payload["texts"]
            vectors = [v.tolist() for v in hash_client.encode(texts)]
            if toy_dataset[1].question in texts:
                vectors[texts.index(toy_dataset[1].question)][0] = 10**400
            return {"embeddings": vectors}

        monkeypatch.setattr(embedding, "post_json", stub_post_json)
        monkeypatch.setattr(llm, "TRANSPORT_BACKOFF_S", 0)  # the bad reply is retryable
        encoder = CachingEncoder(embedding.HttpEncoderClient("http://encoder.invalid"))
        pipeline = Pipeline(toy_corpus, taxonomy, encoder, Gateway(toy_backend), default_cfg)
        report = run_benchmark(toy_dataset, pipeline).report
        assert [r.id for r in report.per_example] == ["q1", "q2", "q3"]
        failed = report.per_example[1]
        assert (failed.em, failed.f1, report.error_count) == (0, 0.0, 1)
        assert "too large" in failed.error
        assert [r.answer for r in report.per_example] == ["MySQL AB", "", "Sun Microsystems, Inc."]

    def test_parallel_matches_serial(self, toy_pipeline, toy_dataset):
        serial = run_benchmark(toy_dataset, toy_pipeline)
        parallel = run_benchmark(toy_dataset, toy_pipeline, parallel=3)
        assert serial.predictions == parallel.predictions
        assert serial.report.to_dict() == parallel.report.to_dict()

    def test_rerun_is_identical(self, toy_pipeline, toy_dataset):
        first = run_benchmark(toy_dataset, toy_pipeline)
        second = run_benchmark(toy_dataset, toy_pipeline)
        assert first.report.to_dict() == second.report.to_dict()
        assert first.predictions == second.predictions

    @pytest.mark.parametrize("mode", ["plain", "pre_extract", "pure"])
    def test_request_stream_matches_golden(
        self, mode, toy_corpus, taxonomy, hash_encoder, toy_backend, default_cfg, toy_dataset
    ):
        # every request the toy run sends: its role and a sha256 of both prompts. The golden
        # plain and pre_extract streams repeat type selections that questions share; the
        # pipeline's label map sends each once. Extractions, decompositions and type selections
        # leave the request pool in timing order, so only each question's answers keep a fixed
        # order, after the rest. "pure" is the plain run with typing_mode="pure".
        cfg = validate_config(PipelineConfig(typing_mode="pure")) if mode == "pure" else default_cfg
        pipeline = Pipeline(
            toy_corpus, taxonomy, hash_encoder, Gateway(backend=toy_backend), cfg,
            pre_extract=mode == "pre_extract",
        )
        run_benchmark(toy_dataset, pipeline)
        stream = [
            (req.role_tag, hashlib.sha256(f"{req.system_prompt}\0{req.user_prompt}".encode()).hexdigest())
            for req in toy_backend.calls
        ]
        golden = [tuple(request) for request in json.loads((DATA / "request_stream.json").read_text())[mode]]
        assert set(stream) == set(golden)
        typed = [request for request in stream if request[0] == "type_select"]
        assert len(typed) == len(set(typed))
        # questions in dataset order, each sending its extractions and decomposition before
        # its first answer, and its answers in hop order
        parts, golden_parts = _questions(stream), _questions(golden)
        assert len(parts) == len(golden_parts) == len(toy_dataset)
        for part, golden_part in zip(parts, golden_parts):
            pre_answer = ("extract", "decompose")
            assert _sorted_roles(part, pre_answer) == _sorted_roles(golden_part, pre_answer)
            answers = [request for request in part if request[0] == "answer"]
            assert answers == [request for request in golden_part if request[0] == "answer"]

    @pytest.mark.parametrize("mode", ["plain", "pre_extract"])
    @settings(max_examples=12, deadline=None)
    @given(
        delays_ms=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8),
        parallel=st.sampled_from([1, 2, 3]),
    )
    def test_outputs_do_not_depend_on_request_timing(self, mode, delays_ms, parallel):
        # with parallel 3 all three questions race for the type selections they share
        assert _toy_run(mode, delays_ms, parallel) == _undelayed_toy_run(mode)

    def test_traces_written_per_question(self, toy_pipeline, toy_dataset, tmp_path):
        run_benchmark(toy_dataset, toy_pipeline, trace_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.glob("*.json"))
        assert files == ["q1.json", "q2.json", "q3.json"]
        trace = json.loads((tmp_path / "q1.json").read_text())
        assert trace["final_answer"] == "MySQL AB"
        assert trace["final_bindings"] == {
            "?Database": "MySQL database",
            "?Company": "MySQL AB",
        }
        assert len(trace["sub_queries"]) == 2

    def test_failing_question_writes_its_partial_trace(
        self, toy_corpus, taxonomy, hash_encoder, default_cfg, toy_dataset, tmp_path
    ):
        # q1's second hop is the first "developed_by" answer request; q2 asks the same later
        script = load_script(FIXTURES / "llm_script.json")
        failed = []

        class FailOnceBackend:
            def complete(self, req):
                if req.role_tag == "answer" and "developed_by" in req.user_prompt and not failed:
                    failed.append(req)
                    raise LlmUnavailable("answer", "endpoint down", retryable=False)
                return script.complete(req)

        gateway = Gateway(FailOnceBackend())
        pipeline = Pipeline(toy_corpus, taxonomy, hash_encoder, gateway, default_cfg)
        run = run_benchmark(toy_dataset, pipeline, trace_dir=tmp_path)
        assert [r.error is not None for r in run.report.per_example] == [True, False, False]
        assert sorted(p.name for p in tmp_path.glob("*.json")) == ["q1.json", "q2.json", "q3.json"]
        trace = json.loads((tmp_path / "q1.json").read_text())
        assert [hop["index"] for hop in trace["sub_queries"]] == [1]  # the hop before the failure
        assert trace["sub_queries"][0]["answer"] == "MySQL database"
        assert trace["final_answer"] == ""


class DelayedBackend:
    """The toy script, sleeping a drawn time per request: the prompt's hash picks the delay."""

    def __init__(self, delays_ms):
        self.inner = load_script(FIXTURES / "llm_script.json")
        self.delays_s = [ms / 1000.0 for ms in delays_ms]

    def complete(self, req):
        time.sleep(self.delays_s[zlib.crc32(req.user_prompt.encode()) % len(self.delays_s)])
        return self.inner.complete(req)


def _toy_run(mode, delays_ms, parallel):
    """Predictions, report, traces and request multiset of one toy run."""
    backend = DelayedBackend(delays_ms)
    pipeline = Pipeline(
        load_corpus(FIXTURES / "corpus.jsonl"),
        load_default_taxonomy(),
        CachingEncoder(HashEncoderClient()),
        Gateway(backend=backend),
        validate_config(PipelineConfig()),
        pre_extract=mode == "pre_extract",
    )
    with tempfile.TemporaryDirectory() as trace_dir:
        run = run_benchmark(
            load_dataset(FIXTURES / "questions.jsonl"), pipeline, trace_dir=trace_dir,
            parallel=parallel,
        )
        traces = {p.name: json.loads(p.read_text()) for p in Path(trace_dir).iterdir()}
    requests = Counter((r.role_tag, r.system_prompt, r.user_prompt) for r in backend.inner.calls)
    return run.predictions, run.report.to_dict(), traces, requests


@functools.lru_cache(maxsize=None)
def _undelayed_toy_run(mode):
    return _toy_run(mode, [0.0], 1)


class FlakyEncoderClient:
    """The hash encoder, whose first call fails with a transport error."""

    def __init__(self, retryable):
        self.inner = HashEncoderClient()
        self.retryable, self.calls = retryable, 0

    def encode(self, texts):
        self.calls += 1
        if self.calls == 1:
            raise EncoderUnavailable("encoder restarting", retryable=self.retryable)
        return self.inner.encode(texts)


class TestFlakyEncoder:
    """An encoder failure follows the chat policy: a retryable one is sent again after one
    back-off and changes no output; a fatal one fails the build at once."""

    def _build(self, client, monkeypatch):
        slept = []
        with monkeypatch.context() as patch:
            patch.setattr(time, "sleep", slept.append)
            pipeline = Pipeline(
                load_corpus(FIXTURES / "corpus.jsonl"),
                load_default_taxonomy(),
                CachingEncoder(client),
                Gateway(backend=load_script(FIXTURES / "llm_script.json")),
                validate_config(PipelineConfig()),
            )
        return pipeline, slept

    def _run(self, pipeline):
        with tempfile.TemporaryDirectory() as trace_dir:
            dataset = load_dataset(FIXTURES / "questions.jsonl")
            run = run_benchmark(dataset, pipeline, trace_dir=trace_dir)
            traces = {p.name: p.read_bytes() for p in Path(trace_dir).iterdir()}
        return run.predictions, run.report.to_dict(), traces

    def test_retryable_failure_at_build_changes_no_output(self, monkeypatch):
        flaky = FlakyEncoderClient(retryable=True)
        pipeline, slept = self._build(flaky, monkeypatch)
        assert slept == [TRANSPORT_BACKOFF_S]
        clean, _ = self._build(HashEncoderClient(), monkeypatch)
        predictions, report, traces = self._run(pipeline)
        assert (predictions, report, traces) == self._run(clean)
        assert len(traces) == len(predictions) == 3

    def test_fatal_failure_fails_the_build_after_one_call(self, monkeypatch):
        flaky = FlakyEncoderClient(retryable=False)
        with pytest.raises(EncoderUnavailable, match="encoder restarting"):
            self._build(flaky, monkeypatch)
        assert flaky.calls == 1


class GatedBackend:
    """The toy script, holding the first stage-1 type selection for ``entity`` until a
    second question asks the pipeline's label map for it; the first ``failures`` of
    those requests raise."""

    def __init__(self, entity, failures=0):
        self.inner = load_script(FIXTURES / "llm_script.json")
        self.entity, self.failures = entity, failures
        self.marker = f'First-level types for entity "{entity}".'
        self.sent = 0
        self.second_asker = threading.Event()
        self._lock = threading.Lock()

    def watch(self, pipeline):
        lookup, askers = pipeline.labels.get, []

        def counting_lookup(key, type_new):
            if key[0] == self.entity:
                askers.append(key)
                if len(askers) == 2:
                    self.second_asker.set()
            return lookup(key, type_new)

        pipeline.labels.get = counting_lookup

    def complete(self, req):
        if self.marker in req.user_prompt:
            with self._lock:
                self.sent += 1
                sent = self.sent
            if sent == 1:
                assert self.second_asker.wait(timeout=10)
                time.sleep(0.05)  # the second asker is now waiting for this request
            if sent <= self.failures:
                raise LlmUnavailable("type_select", f"{self.entity} is down", retryable=False)
        return self.inner.complete(req)


class TestSharedLabels:
    """Questions of one pipeline share type selections; each is requested once."""

    QUESTION = "Who developed the MySQL database?"

    def _run(self, backend):
        """Two questions asking the same, answered at once by a new toy pipeline."""
        pipeline = Pipeline(
            load_corpus(FIXTURES / "corpus.jsonl"),
            load_default_taxonomy(),
            CachingEncoder(HashEncoderClient()),
            Gateway(backend=backend),
            validate_config(PipelineConfig()),
        )
        backend.watch(pipeline)
        dataset = [QaExample(f"same{i}", self.QUESTION, ("MySQL AB",)) for i in range(2)]
        return pipeline, within(30, lambda: run_benchmark(dataset, pipeline, parallel=2))

    def test_a_selection_two_questions_race_for_is_requested_once(self):
        backend = GatedBackend("Mars")
        _, run = self._run(backend)
        assert backend.sent == 1
        assert run.report.error_count == 0
        assert run.report.em_avg == 1.0
        typed = Counter(r.user_prompt for r in backend.inner.calls if r.role_tag == "type_select")
        assert set(typed.values()) == {1}

    def test_an_owner_failure_is_not_shared(self):
        backend = GatedBackend("Mars", failures=2)
        pipeline, run = self._run(backend)
        # the owner's request raised; the waiting question asked again itself, which raised too
        assert backend.sent == 2
        assert run.report.error_count == 2
        assert all(
            r.error is not None and (r.em, r.f1) == (0, 0.0) for r in run.report.per_example
        )
        later = QaExample("later", self.QUESTION, ("MySQL AB",))
        again = within(30, lambda: run_benchmark([later], pipeline))
        assert backend.sent == 3
        assert again.report.error_count == 0
        assert again.report.em_avg == 1.0


class TestScorePredictions:
    def test_round_trip(self, toy_dataset):
        predictions = [
            {"id": "q1", "answer": "MySQL AB"},
            {"id": "q2", "answer": "MySQL AB"},
            {"id": "q3", "answer": "Sun Microsystems, Inc."},
        ]
        report = score_predictions(predictions, toy_dataset)
        assert report.em_avg == pytest.approx(2 / 3, abs=1e-12)
        assert report.f1_avg == pytest.approx((1 + 1 + 0.8) / 3, abs=1e-12)

    def test_missing_prediction_counts_as_error(self, toy_dataset):
        report = score_predictions([{"id": "q1", "answer": "MySQL AB"}], toy_dataset)
        assert report.error_count == 2
        missing = next(r for r in report.per_example if r.id == "q2")
        assert (missing.em, missing.f1) == (0, 0.0)


class TestWriteTrace:
    def test_file_name_and_shape(self, toy_pipeline, tmp_path):
        _, trace = toy_pipeline.run_query("Who developed the MySQL database?")
        path = write_trace(trace, tmp_path / "traces", "q2")
        assert path.name == "q2.json"
        data = json.loads(path.read_text())
        assert set(data) == {
            "question",
            "pool_ids",
            "sub_queries",
            "final_bindings",
            "final_answer",
            "events",
        }


# --- malformed LLM output never aborts a batch -------------------------------

_FIELD_NAMES = ["head", "relation", "tail", "triples", "sub_queries", "labels", "l1", "l2", "answer"]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELD_NAMES) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_LIST_FIELDS = {"extract": "triples", "decompose": "sub_queries"}
_NESTED_TOO_DEEP = "[" * 100_000 + "]" * 100_000  # a raw reply past the JSON parser's depth


@st.composite
def _mutated_script(draw, entries):
    """The toy script with a few responses, or items inside them, made malformed."""
    entries = list(entries)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(entries) - 1))
        entry = entries[i]
        response = copy.deepcopy(entry.response)
        items = response.get(_LIST_FIELDS.get(entry.role_tag)) if isinstance(response, dict) else None
        if items and draw(st.booleans()):
            j = draw(st.integers(0, len(items) - 1))
            item = items[j]
            how = draw(st.sampled_from(["replace", "drop", "retype"]))
            if how == "replace" or not isinstance(item, dict) or not item:
                items[j] = draw(_json_values)
            elif how == "drop":
                del item[draw(st.sampled_from(sorted(item)))]
            else:
                item[draw(st.sampled_from(sorted(item)))] = draw(_json_values)
        else:
            response = draw(_json_values | st.just(_NESTED_TOO_DEEP))
        entries[i] = ScriptEntry(entry.role_tag, entry.match, response)
    return entries


class TestMalformedLlmOutput:
    _toy_entries = load_script(FIXTURES / "llm_script.json").entries
    _dataset = load_dataset(FIXTURES / "questions.jsonl")
    _corpus = load_corpus(FIXTURES / "corpus.jsonl")
    _encoder = CachingEncoder(HashEncoderClient())

    @settings(max_examples=60, deadline=None)
    @given(entries=_mutated_script(_toy_entries), parallel=st.sampled_from([1, 2]))
    def test_batch_always_completes_and_counts_errors(self, entries, parallel):
        pipeline = Pipeline(
            documents=self._corpus,
            taxonomy=load_default_taxonomy(),
            encoder=self._encoder,
            gateway=Gateway(backend=ScriptedMockBackend(entries), sleep=lambda s: None),
            cfg=validate_config(PipelineConfig()),
        )
        run = run_benchmark(self._dataset, pipeline, parallel=parallel)
        per_example = run.report.per_example
        assert [r.id for r in per_example] == [q.id for q in self._dataset]
        assert run.report.error_count == sum(1 for r in per_example if r.error is not None)
        assert all(r.em == 0 and r.f1 == 0.0 for r in per_example if r.error is not None)

    @pytest.mark.parametrize("blank", ["relation", "head", "extract"])
    def test_blank_subquery_field_fails_only_its_question(self, blank):
        # a blank relation or bound head is no sub-query, and a blank relation in the question's
        # extraction replies ("extract") no triple: either way that question alone scores 0/0
        if blank == "extract":
            triple = {"head": "Sun Microsystems", "relation": "  ", "tail": "MySQL AB"}
            reply = {"triples": [triple]}
            entry = ScriptEntry("extract", "Question: Which company acquired", reply)
        else:
            sub_query = {"head": "?Company", "relation": "acquired", "tail": "MySQL AB"}
            sub_query[blank] = "  "
            entry = ScriptEntry("decompose", "acquired", {"sub_queries": [sub_query]})
        entries = [entry, *self._toy_entries]
        pipeline = Pipeline(
            documents=self._corpus,
            taxonomy=load_default_taxonomy(),
            encoder=self._encoder,
            gateway=Gateway(backend=ScriptedMockBackend(entries), sleep=lambda s: None),
            cfg=validate_config(PipelineConfig()),
        )
        run = run_benchmark(self._dataset, pipeline)
        per_example = run.report.per_example
        assert [r.error is not None for r in per_example] == [False, False, True]
        assert (per_example[2].em, per_example[2].f1) == (0, 0.0)
        assert run.report.error_count == 1
        assert "empty" in per_example[2].error

    def test_reply_nested_too_deep_fails_only_its_question(self):
        entries = [ScriptEntry("answer", "acquired", _NESTED_TOO_DEEP), *self._toy_entries]
        backend = ScriptedMockBackend(entries)
        pipeline = Pipeline(
            documents=self._corpus,
            taxonomy=load_default_taxonomy(),
            encoder=self._encoder,
            gateway=Gateway(backend=backend, sleep=lambda s: None),
            cfg=validate_config(PipelineConfig()),
        )
        run = run_benchmark(self._dataset, pipeline)
        assert [r.error is not None for r in run.report.per_example] == [False, False, True]
        assert "non-JSON output after retry" in run.report.per_example[2].error
        assert sum(1 for r in backend.calls if r.user_prompt.endswith(FORMAT_RETRY_SUFFIX)) == 1
