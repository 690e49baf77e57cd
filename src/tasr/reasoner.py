"""Sequential multi-hop reasoning with an explicit entity binding table.

One query runs as: dense retrieval; the extraction request of every document
in the pool and the question's decomposition request, sent at once; the
replies parsed in pool order and then the decomposition, each document's
entities and then the sub-query slots sent to typing as they are parsed; one
wait for the question's labels; then a strictly sequential loop over
sub-queries: resolve bound variables, rerank the fixed candidate pool, answer
the hop, bind its latent variable. The final answer is the last hop's answer.

This module schedules requests and sends only the answers. The structurer
sends the extractions and the decomposition, the typer the type selections,
all on one request pool per pipeline. It has :data:`REQUEST_WORKERS` threads,
or :data:`QUESTION_WORKERS` per question in flight once that is more. Replies
are parsed on the question's own thread, so the outcome does not depend on
which request returns first.

A pipeline keeps what it learns at set-up for its lifetime: the taxonomy label
vectors and, with ``pre_extract``, the typed corpus triples with their
component vectors. Type selections are shared by every question through one
:class:`~tasr.taxonomy.LabelMap`. Every other vector a question needs lives in
an encoder memo scoped to that question and goes when it ends.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import closing, contextmanager
from functools import partial
from itertools import islice
from typing import Iterator, Mapping, Optional, Sequence

from tasr.config import PipelineConfig
from tasr.embedding import CORPUS_CHUNK, CachingEncoder, CorpusIndex, dense_retrieve
from tasr.errors import AmbiguousBinding, LlmProtocolError, TasrError, QueryFailure, json_field
from tasr.llm import Gateway, abandon, load_prompt
from tasr.matching import RankedPool, filter_and_rank, triple_texts
from tasr.model import (
    BindingTable,
    Document,
    HopRecord,
    ReasoningTrace,
    Slot,
    SubQuery,
    TaxonomyLabel,
)
from tasr.structurer import (
    Decomposition,
    decompose_query,
    extract_triples,
    extraction_request,
    request_decomposition,
    subquery_typing_jobs,
    type_document_triples,
    type_subqueries,
)
from tasr.taxonomy import EntityTyper, LabelMap, Taxonomy, TypeEmbeddingIndex

ANSWER_SYSTEM = "You answer relational sub-queries from the given documents."
REQUEST_WORKERS = 8  # threads of a pipeline's request pool, shared by its questions,
# or this many per question in flight, when that is more. 6 is the knee of a remote-chain
# sweep at parallel=2: 4/6/8/16 per question answered 33/38/40/42 questions/s, and 8
# read 13% more peak memory than 4, since pool threads stay until the pipeline closes
QUESTION_WORKERS = 6


def resolve(sq: SubQuery, bindings: BindingTable) -> SubQuery:
    """Substitute every latent slot that has a binding; leave the rest untouched.

    Taxonomy labels are unchanged: a resolved slot keeps the type inferred for
    its variable at decomposition time.
    """

    def substitute(slot: Slot) -> Slot:
        if slot.latent and slot.text in bindings:
            return Slot.bound(bindings.get(slot.text))
        return slot

    return dataclasses.replace(sq, head=substitute(sq.head), tail=substitute(sq.tail))


def bind(sq: SubQuery, answer: str, bindings: BindingTable) -> BindingTable:
    """Bind the hop's unresolved latent variable (if any) to the answer."""
    pending = [name for name in dict.fromkeys(sq.latent_names()) if name not in bindings]
    if len(pending) > 1:
        raise AmbiguousBinding(
            f"sub-query {sq.index} still has {len(pending)} latent variables: {pending}"
        )
    if pending:
        value = answer.strip()
        if not value:
            raise TasrError(f"sub-query {sq.index} answer is empty but {pending[0]} needs a value")
        bindings.insert(pending[0], value)
    return bindings


def answer_subquery(resolved: SubQuery, docs: Sequence[Document], gateway: Gateway) -> str:
    """Ask the LLM to answer one resolved sub-query over the ranked documents."""
    if not docs:
        raise ValueError("answer_subquery requires at least one document")
    pending = [name for name in dict.fromkeys(resolved.latent_names())]
    if pending:
        question_line = f'Give the value of "{pending[0]}".'
    else:
        question_line = "State the answer to the sub-query."
    documents_block = "\n\n".join(f"[{d.id}] {d.title}\n{d.text}" for d in docs)
    prompt = load_prompt("answer").format(
        subquery=resolved.render(),
        question_line=question_line,
        documents=documents_block,
    )
    parsed = gateway.call("answer", ANSWER_SYSTEM, prompt)
    return json_field(parsed, "answer", str, partial(LlmProtocolError, "answer")).strip()


def stream_documents(
    docs: Sequence[Document],
    query: Optional[str],
    gateway: Gateway,
    typer: EntityTyper,
    requests: Executor,
) -> list[Document]:
    """Copies of the documents holding their extracted, untyped triples, in doc order.

    Each document's :func:`~tasr.structurer.extraction_request` is built on the
    calling thread and sent on ``requests``, at most ``2 * REQUEST_WORKERS``
    documents ahead of the one being parsed. Replies are parsed on the calling
    thread in doc order, and each document's typing jobs (head then tail, with the
    title as context) go to ``typer`` as its reply is parsed, so its entities are
    typed while later documents are extracted. When a document fails, the requests
    not yet started are cancelled. ``query`` conditions extraction on the question;
    None pre-extracts without it. The caller's documents are left untouched.
    """

    def send(doc: Document) -> tuple[Document, Future]:
        return doc, requests.submit(extraction_request(doc, query, gateway))

    waiting: Iterator[Document] = iter(docs)
    ahead = deque(map(send, islice(waiting, 2 * REQUEST_WORKERS)))
    extracted = []
    try:
        while ahead:
            doc, reply = ahead.popleft()
            ahead.extend(map(send, islice(waiting, 1)))
            doc = dataclasses.replace(doc, triples=extract_triples(doc, reply.result()))
            typer.submit((entity, doc.title) for t in doc.triples for entity in (t.head, t.tail))
            extracted.append(doc)
    finally:
        abandon(reply for _, reply in ahead)
    return extracted


def type_documents(
    docs: Sequence[Document], labels: Mapping[str, TaxonomyLabel]
) -> list[Document]:
    """Copies of the documents with every triple labelled from ``labels``."""
    return [
        dataclasses.replace(doc, triples=type_document_triples(doc.triples, labels))
        for doc in docs
    ]


class RequestPool(ThreadPoolExecutor):
    """A pipeline's request pool: at most ``max(REQUEST_WORKERS, QUESTION_WORKERS * n)``
    threads, where n is the most questions it has served at once.

    Threads start on demand and stay until :meth:`shutdown`, so the pool keeps the
    size of its busiest moment.
    """

    def __init__(self) -> None:
        super().__init__(REQUEST_WORKERS, thread_name_prefix="tasr-request")
        self._serving_lock = threading.Lock()
        self._questions = 0

    @contextmanager
    def serving(self) -> Iterator[None]:
        """Count one question in flight while the block runs, growing the pool to serve it."""
        with self._serving_lock:
            self._questions += 1
            # ThreadPoolExecutor.submit starts a thread while it has fewer than _max_workers
            self._max_workers = max(self._max_workers, QUESTION_WORKERS * self._questions)
        try:
            yield
        finally:
            with self._serving_lock:
                self._questions -= 1


class Pipeline:
    """Everything a query run needs: corpus index, taxonomy indexes, label map, gateway,
    request pool, config.

    :meth:`close` (or leaving a ``with`` block) stops the request pool's threads;
    a closed pipeline answers no more questions.
    """

    def __init__(
        self,
        documents: Sequence[Document],
        taxonomy: Taxonomy,
        encoder: CachingEncoder,
        gateway: Gateway,
        cfg: PipelineConfig,
        pre_extract: bool = False,
    ) -> None:
        self.cfg = cfg
        self.encoder = encoder
        self.gateway = gateway
        self.taxonomy = taxonomy
        self.type_index = TypeEmbeddingIndex(taxonomy, encoder)
        self.labels = LabelMap()
        self.pre_extract = pre_extract
        self.startup_events: list[str] = []
        self.requests = RequestPool()
        try:
            if pre_extract:
                with closing(self._typer(encoder)) as typer:
                    documents = stream_documents(documents, None, gateway, typer, self.requests)
                    documents = type_documents(documents, typer.collect())
                self.startup_events.extend(typer.events)
                # every question reranks these triples: their vectors live as long as the pipeline
                texts = [text for doc in documents for t in doc.triples for text in triple_texts(t)]
                for start in range(0, len(texts), CORPUS_CHUNK):
                    encoder.encode(texts[start : start + CORPUS_CHUNK])
            self.corpus = CorpusIndex(documents, encoder)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Cancel the requests not yet started and stop the request pool's threads."""
        self.requests.shutdown(cancel_futures=True)

    def run_query(self, question: str) -> tuple[str, ReasoningTrace]:
        """Run the full loop; returns the final answer and the complete trace."""
        trace = ReasoningTrace(question=question)
        try:
            with self.requests.serving():
                return self._run(question, trace)
        except TasrError as exc:
            raise QueryFailure(str(exc), trace=trace) from exc

    def _typer(self, encoder: CachingEncoder) -> EntityTyper:
        return EntityTyper(
            self.taxonomy, self.type_index, self.gateway, self.cfg, self.requests, self.labels,
            encoder,
        )

    def _run(self, question: str, trace: ReasoningTrace) -> tuple[str, ReasoningTrace]:
        encoder = self.encoder.scope()  # the question's vectors, dropped when it ends
        pool = dense_retrieve(question, self.corpus, self.cfg, encoder)
        trace.pool_ids = [d.id for d in pool]
        with closing(self._typer(encoder)) as typer:
            # sent ahead of the extractions, read after them: their errors come first
            decomposed = self.requests.submit(request_decomposition, question, self.gateway)
            try:
                if not self.pre_extract:
                    # per-query copies: extraction is query-conditioned
                    pool = stream_documents(pool, question, self.gateway, typer, self.requests)
                decomposition = decompose_query(decomposed.result())
            finally:
                abandon([decomposed])
            typer.submit(subquery_typing_jobs(decomposition))
            # collected after every extraction and the decomposition: their errors come first
            labels = typer.collect()
        decomposition = type_subqueries(decomposition, labels)
        if not self.pre_extract:
            pool = type_documents(pool, labels)
        pool_by_id = {d.id: d for d in pool}

        bindings = BindingTable()
        answer = ""
        for position, sub_query in enumerate(decomposition.sub_queries):
            resolved = resolve(sub_query, bindings)
            ranked = self._rerank(pool, decomposition, bindings, resolved, position, encoder)
            selected = [pool_by_id[s.doc_id] for s in ranked.documents]
            answer = answer_subquery(resolved, selected, self.gateway)
            bind(resolved, answer, bindings)
            if ranked.fallback:
                trace.events.append(f"rerank fallback at hop {sub_query.index}")
            trace.hops.append(
                HopRecord(
                    index=sub_query.index,
                    sub_query=sub_query,
                    resolved=resolved,
                    document_scores=_score_records(ranked),
                    selected=[s.doc_id for s in ranked.documents],
                    fallback=ranked.fallback,
                    answer=answer,
                )
            )

        trace.final_bindings = bindings.as_dict()
        trace.final_answer = answer
        trace.events.extend(typer.events)
        return answer, trace

    def _rerank(
        self,
        pool: Sequence[Document],
        decomposition: Decomposition,
        bindings: BindingTable,
        resolved: SubQuery,
        position: int,
        encoder: CachingEncoder,
    ) -> RankedPool:
        if self.cfg.hop_scope == "chain":
            chain = [resolve(sq, bindings) for sq in decomposition.sub_queries]
            return filter_and_rank(pool, chain, self.cfg, encoder, force_index=position)
        return filter_and_rank(pool, [resolved], self.cfg, encoder)


def _score_records(ranked: RankedPool) -> list[dict]:
    records = []
    for scored in ranked.all_scored:
        records.append(
            {
                "doc_id": scored.doc_id,
                "score": scored.score,
                "best_matches": [
                    {
                        "query_index": m.query_index,
                        "doc_triple_index": m.doc_triple_index,
                        "s_struct": m.s_struct,
                        "s_sem": m.s_sem,
                        "s_triple": m.s_triple,
                    }
                    for m in scored.best_matches
                ],
            }
        )
    return records
