"""Span tracing around the pipeline's public functions, from outside the program.

:class:`Tracer` replaces functions at the names where their callers look them
up (module globals of ``tasr.reasoner``, class attributes) for the duration
of a ``with`` block, and restores them afterwards. Every call becomes a span:
name, start, end, parent span and question id, with a thread-local parent
stack. Spans stay in compact in-memory arrays and are written once, when the
traced run ends. :func:`layer_metrics` turns them into per-layer numbers.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from tasr import reasoner
from tasr.embedding import CachingEncoder, VectorIndex
from tasr.llm import ROLE_TAGS, Gateway
from tasr.reasoner import Pipeline
from tasr.taxonomy import EntityTyper, TypeEmbeddingIndex, rule_type_entity

from perfbench.standins import LexicalHashEncoder, MockLlm

_ROLE_IDS = {role: i for i, role in enumerate(ROLE_TAGS)}


def _n_texts(args, result):
    return len(args[1])


def _n_keys(args, result):
    return len(args[0])


def _role(args, result):
    return _ROLE_IDS[args[1]] if isinstance(args[1], str) else _ROLE_IDS[args[1].role_tag]


def _n_triples(args, result):
    return len(result)


def _rule_typed(args, result):
    return int(rule_type_entity(args[1]) is not None)


def _rerank(args, result):
    pool, sub_queries = args[0], args[1]
    pairs = len(sub_queries) * sum(len(d.triples) for d in pool)
    return (pairs, len(pool), len(result.documents), int(result.fallback))


def _query(args, result):
    _, trace = result
    typing_fallbacks = sum(1 for e in trace.events if e.startswith("type_select fallback"))
    return (len(trace.hops), typing_fallbacks)


# (span name, owner, attribute, value function): value functions return an int
# stored with the span, or a tuple kept aside for the few spans that need more
TARGETS: list[tuple[str, Any, str, Optional[Callable]]] = [
    ("reasoner.dense_retrieve", reasoner, "dense_retrieve", None),
    ("reasoner.extract_triples", reasoner, "extract_triples", _n_triples),
    ("reasoner.type_document_triples", reasoner, "type_document_triples", None),
    ("reasoner.decompose_query", reasoner, "decompose_query", None),
    ("reasoner.type_subqueries", reasoner, "type_subqueries", None),
    ("reasoner.filter_and_rank", reasoner, "filter_and_rank", _rerank),
    ("reasoner.answer_subquery", reasoner, "answer_subquery", None),
    ("Pipeline.run_query", Pipeline, "run_query", _query),
    ("Gateway.call", Gateway, "call", _role),
    ("CachingEncoder.encode", CachingEncoder, "encode", _n_texts),
    ("VectorIndex.search", VectorIndex, "search", _n_keys),
    ("EntityTyper.type_entity", EntityTyper, "type_entity", _rule_typed),
    ("EntityTyper.select_type", EntityTyper, "select_type", None),
    ("TypeEmbeddingIndex.top_l1", TypeEmbeddingIndex, "top_l1", None),
    ("TypeEmbeddingIndex.top_l2", TypeEmbeddingIndex, "top_l2", None),
    ("MockLlm.complete", MockLlm, "complete", _role),
    ("LexicalHashEncoder.encode", LexicalHashEncoder, "encode", _n_texts),
]
NAMES = [t[0] for t in TARGETS]


class Tracer:
    """Records spans while active; ``question_ids`` maps question text to an index."""

    def __init__(self, question_ids: dict[str, int]) -> None:
        self.question_ids = question_ids
        self._ids = itertools.count()
        self._local = threading.local()
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("b")
        self.qid = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.extra: dict[int, tuple] = {}
        self._saved: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    def __enter__(self) -> "Tracer":
        for name_id, (_, owner, attr, value_fn) in enumerate(TARGETS):
            original = owner.__dict__.get(attr)
            if original is None:  # renamed in the program: its metrics read 0
                continue
            self._saved.append((owner, attr, original))
            wrapper = self._wrap(name_id, original, value_fn, attr == "run_query")
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name_id: int, fn: Callable, value_fn: Optional[Callable], is_query: bool):
        local = self._local
        ids = self._ids
        clock = time.perf_counter
        record = self._record

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.qid = -1
            if is_query:
                local.qid = self.question_ids.get(args[1], -1)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record(sid, parent, name_id, local.qid, t0, clock(), 0)
                raise
            else:
                t1 = clock()
                value = value_fn(args, result) if value_fn is not None else 0
                record(sid, parent, name_id, local.qid, t0, t1, value)
                return result
            finally:
                stack.pop()
                if is_query:
                    local.qid = -1

        return traced

    def _record(self, sid, parent, name_id, qid, t0, t1, value) -> None:
        if isinstance(value, tuple):
            self.extra[sid] = value
            value = 0
        # the seven appends of one span must not interleave with another thread's
        with self._lock:
            self.sid.append(sid)
            self.parent.append(parent)
            self.name.append(name_id)
            self.qid.append(qid)
            self.start.append(t0)
            self.end.append(t1)
            self.value.append(value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "sid": np.frombuffer(self.sid, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int8),
            "qid": np.frombuffer(self.qid, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "value": np.frombuffer(self.value, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        """Write every span as arrays (``.npz``) plus a JSON index of names and extras."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path.with_suffix(".npz"), **self.arrays())
        extra = {str(k): v for k, v in self.extra.items()}
        index = {"names": NAMES, "roles": list(ROLE_TAGS), "extra": extra}
        path.with_suffix(".json").write_text(json.dumps(index), encoding="utf-8")



def layer_metrics(
    tracer: Tracer, questions: int, query_wall_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from one traced set-up followed by ``questions`` traced queries.

    Spans with a question id belong to the query phase and are reported per
    question; spans without one come from building the pipeline and are
    reported per set-up under ``setup.``. Self time is a span's duration minus
    the time its child spans cover (children of one span run one after
    another on its thread, so they never overlap).
    """
    a = tracer.arrays()
    n = len(a["sid"])
    dur = a["end"] - a["start"]
    position = np.full(int(a["sid"].max()) + 1, -1, dtype=np.int64)
    position[a["sid"]] = np.arange(n)
    has_parent = a["parent"] >= 0
    parent_pos = np.full(n, -1, dtype=np.int64)
    parent_pos[has_parent] = position[a["parent"][has_parent]]
    child_time = np.bincount(parent_pos[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time
    name_id = {name: i for i, name in enumerate(NAMES)}
    in_query = a["qid"] >= 0
    q = float(questions)

    def mask(name: str, query: bool = True) -> np.ndarray:
        return (a["name"] == name_id[name]) & (in_query if query else ~in_query)

    def count(name: str, query: bool = True) -> int:
        return int(mask(name, query).sum())

    def ms(name: str, query: bool = True, times: np.ndarray = dur) -> float:
        return float(times[mask(name, query)].sum()) * 1000.0

    def total(name: str, query: bool = True) -> int:
        return int(a["value"][mask(name, query)].sum())

    def children_of(child: str, parent: str) -> np.ndarray:
        """Per-span count of ``child`` spans directly under each ``parent`` span."""
        c = mask(child) & has_parent
        counts = np.bincount(parent_pos[c], minlength=n)
        return counts[mask(parent)]

    def extras(name: str) -> np.ndarray:
        rows = [tracer.extra[int(s)] for s in a["sid"][mask(name)] if int(s) in tracer.extra]
        return np.asarray(rows, dtype=np.float64).reshape(len(rows), -1)

    m: dict[str, tuple[float, str]] = {}
    per_q, ms_q = "count/question", "ms/question"

    enc_texts = total("CachingEncoder.encode")
    client_texts = total("LexicalHashEncoder.encode")
    search_keys = total("VectorIndex.search")
    m["embedding.encode.calls"] = (count("CachingEncoder.encode") / q, per_q)
    m["embedding.encode.texts"] = (enc_texts / q, per_q)
    m["embedding.encode.hit_ratio"] = (_ratio(enc_texts - client_texts, enc_texts), "ratio")
    m["embedding.client.texts"] = (client_texts / q, per_q)
    m["embedding.client.ms"] = (ms("LexicalHashEncoder.encode") / q, ms_q)
    m["embedding.search.calls"] = (count("VectorIndex.search") / q, per_q)
    m["embedding.search.ms"] = (ms("VectorIndex.search") / q, ms_q)
    m["embedding.search.us_per_key"] = (
        _ratio(ms("VectorIndex.search") * 1000.0, search_keys), "us",
    )

    role = a["value"]
    for role_name, rid in _ROLE_IDS.items():
        calls = int((mask("Gateway.call") & (role == rid)).sum())
        requests = mask("MockLlm.complete") & (role == rid)
        m[f"llm.calls.{role_name}"] = (calls / q, per_q)
        m[f"llm.requests.{role_name}"] = (int(requests.sum()) / q, per_q)
        m[f"llm.format_retries.{role_name}"] = ((int(requests.sum()) - calls) / q, per_q)
        m[f"llm.wait_ms.{role_name}"] = (float(dur[requests].sum()) * 1000.0 / q, ms_q)
    m["llm.inflight_mean"] = (
        _ratio(ms("MockLlm.complete") / 1000.0, query_wall_s), "requests",
    )
    m["llm.gateway.self_ms"] = (ms("Gateway.call", times=self_time) / q, ms_q)

    typed = count("EntityTyper.type_entity")
    reached_llm = int((children_of("EntityTyper.select_type", "EntityTyper.type_entity") > 0).sum())
    query_rows = extras("Pipeline.run_query")
    m["taxonomy.type_entity.calls"] = (typed / q, per_q)
    m["taxonomy.type_entity.llm_ratio"] = (_ratio(reached_llm, typed), "ratio")
    m["taxonomy.type_entity.rule_ratio"] = (
        _ratio(total("EntityTyper.type_entity"), typed), "ratio",
    )
    m["taxonomy.select_type.ms"] = (ms("EntityTyper.select_type") / q, ms_q)
    m["taxonomy.label_search.ms"] = (
        (ms("TypeEmbeddingIndex.top_l1") + ms("TypeEmbeddingIndex.top_l2")) / q, ms_q,
    )
    m["taxonomy.fallbacks"] = (float(query_rows[:, 1].sum()) / q if len(query_rows) else 0.0, per_q)

    extracts = count("reasoner.extract_triples")
    m["structurer.extract.calls"] = (extracts / q, per_q)
    m["structurer.extract.ms"] = (ms("reasoner.extract_triples") / q, ms_q)
    m["structurer.triples_per_doc"] = (
        _ratio(total("reasoner.extract_triples"), extracts), "count/doc",
    )
    m["structurer.type_triples.ms"] = (ms("reasoner.type_document_triples") / q, ms_q)
    m["structurer.decompose.ms"] = (ms("reasoner.decompose_query") / q, ms_q)
    m["structurer.type_subqueries.ms"] = (ms("reasoner.type_subqueries") / q, ms_q)

    reranks = extras("reasoner.filter_and_rank")
    pairs, pool, kept, fallback = (reranks.sum(axis=0) if len(reranks) else np.zeros(4))
    m["matching.rerank.calls"] = (len(reranks) / q, per_q)
    m["matching.rerank.pairs"] = (float(pairs) / q, per_q)
    m["matching.rerank.ms"] = (ms("reasoner.filter_and_rank") / q, ms_q)
    m["matching.rerank.self_ms"] = (ms("reasoner.filter_and_rank", times=self_time) / q, ms_q)
    m["matching.rerank.us_per_pair"] = (
        _ratio(ms("reasoner.filter_and_rank") * 1000.0, pairs), "us",
    )
    m["matching.rerank.kept_ratio"] = (_ratio(kept, pool), "ratio")
    m["matching.rerank.fallback_ratio"] = (_ratio(fallback, len(reranks)), "ratio")

    m["reasoner.hops_per_question"] = (
        float(query_rows[:, 0].sum()) / q if len(query_rows) else 0.0, per_q,
    )
    m["reasoner.retrieve.ms"] = (ms("reasoner.dense_retrieve") / q, ms_q)
    m["reasoner.answer.ms"] = (ms("reasoner.answer_subquery") / q, ms_q)
    m["reasoner.run_query.ms"] = (ms("Pipeline.run_query") / q, ms_q)
    m["reasoner.run_query.self_ms"] = (ms("Pipeline.run_query", times=self_time) / q, ms_q)

    setup_texts = total("CachingEncoder.encode", query=False)
    setup_client = total("LexicalHashEncoder.encode", query=False)
    m["setup.embedding.client.texts"] = (float(setup_client), "count")
    m["setup.embedding.client.ms"] = (ms("LexicalHashEncoder.encode", query=False), "ms")
    m["setup.embedding.encode.hit_ratio"] = (
        _ratio(setup_texts - setup_client, setup_texts), "ratio",
    )
    m["setup.llm.requests"] = (float(count("MockLlm.complete", query=False)), "count")
    for role_name in ("extract", "type_select"):
        requests = mask("MockLlm.complete", query=False) & (role == _ROLE_IDS[role_name])
        m[f"setup.llm.requests.{role_name}"] = (float(requests.sum()), "count")
    m["setup.taxonomy.type_entity.calls"] = (
        float(count("EntityTyper.type_entity", query=False)), "count",
    )
    m["setup.taxonomy.select_type.ms"] = (ms("EntityTyper.select_type", query=False), "ms")
    m["setup.structurer.extract.ms"] = (ms("reasoner.extract_triples", query=False), "ms")
    m["setup.structurer.type_triples.ms"] = (
        ms("reasoner.type_document_triples", query=False), "ms",
    )
    return m


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0
