"""Sequential multi-hop reasoning with an explicit entity binding table.

One query runs as: dense retrieval; the extraction request of every document
in the pool and the question's decomposition request, sent at once; the
replies parsed in pool order and then the decomposition, each document's
entities and then the sub-query slots sent to typing as they are parsed; one
wait for the question's labels; then a strictly sequential loop over
sub-queries: resolve bound variables, rerank the fixed candidate pool, answer
the hop, bind its latent variable. The final answer is the last hop's answer.

This module schedules requests and sends only the answers. The structurer
builds the extractions, the decomposition and every typing job, and the typer
the type selections; all are sent on the question's own :func:`request_pool` of
:data:`REQUEST_WORKERS` threads, which stops once the question's labels are
collected. Replies are parsed on the question's own thread, so the outcome does
not depend on which request returns first.

A pipeline keeps what it learns at set-up for its lifetime: the taxonomy label
vectors and, with ``pre_extract``, the typed corpus triples with their
component vectors. Type selections are shared by every question through one
:class:`~tasr.taxonomy.LabelMap`. Every other vector a question needs lives in
an encoder memo scoped to that question and goes when it ends.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from itertools import islice
from typing import Iterator, Mapping, Optional, Sequence

from tasr.config import PipelineConfig
from tasr.embedding import CachingEncoder, VectorIndex
from tasr.errors import (
    AmbiguousBinding,
    DuplicateDocument,
    LlmProtocolError,
    QueryFailure,
    TasrError,
    json_field,
)
from tasr.llm import Gateway, load_prompt
from tasr.matching import filter_and_rank, pair_scores, triple_texts
from tasr.model import (
    BindingTable,
    Document,
    HopRecord,
    ReasoningTrace,
    Slot,
    SubQuery,
)
from tasr.structurer import (
    decompose_query,
    decomposition_request,
    document_typing_jobs,
    extract_triples,
    extraction_request,
    subquery_typing_jobs,
    type_document_triples,
    type_subqueries,
)
from tasr.taxonomy import EntityTyper, LabelMap, Taxonomy, TypeEmbeddingIndex

ANSWER_SYSTEM = "You answer relational sub-queries from the given documents."
REQUEST_WORKERS = 11  # threads of a question's request pool: enough to send its first burst,
# the default k0 = 10 extractions and the decomposition, at once. On a 2-vCPU VM a remote-chain
# sweep at parallel=2 answered 36.0/39.7/40.4/40.1 questions/s with 8/11/12/16 threads


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


def dense_retrieve(
    question: str, corpus: VectorIndex, documents: Mapping[str, Document], k0: int,
    encoder: CachingEncoder,
) -> list[Document]:
    """The ``k0`` documents nearest the question, encoded through ``encoder``, best first."""
    return [documents[key] for key, _ in corpus.search(encoder.encode_one(question), k0)]


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
    thread in doc order, and each document's :func:`~tasr.structurer.document_typing_jobs`
    go to ``typer`` as its reply is parsed, so its entities are typed while later documents
    are extracted. The first failing document raises, and the requests still queued are
    left to the owner of ``requests`` to cancel.
    ``query`` conditions extraction on the question; None pre-extracts without it.
    The caller's documents are left untouched.
    """

    def send(doc: Document) -> tuple[Document, Future]:
        return doc, requests.submit(extraction_request(doc, query, gateway))

    waiting: Iterator[Document] = iter(docs)
    ahead = deque(map(send, islice(waiting, 2 * REQUEST_WORKERS)))
    extracted = []
    while ahead:
        doc, reply = ahead.popleft()
        ahead.extend(map(send, islice(waiting, 1)))
        doc = dataclasses.replace(doc, triples=extract_triples(doc, reply.result()))
        typer.submit(document_typing_jobs(doc))
        extracted.append(doc)
    return extracted


@contextmanager
def request_pool() -> Iterator[ThreadPoolExecutor]:
    """A pool of :data:`REQUEST_WORKERS` threads, started on demand, for one question's
    requests before its answers.

    Leaving the block cancels the requests not yet started and waits for the running
    ones, so a failed question's queued requests never reach the endpoint and no
    request or thread of the pool outlives the block.
    """
    requests = ThreadPoolExecutor(REQUEST_WORKERS, thread_name_prefix="tasr-request")
    try:
        yield requests
    finally:
        requests.shutdown(cancel_futures=True)


class Pipeline:
    """Everything a query run needs: documents by id and their index, taxonomy indexes,
    label map, gateway, config.

    A pipeline holds no threads: each question, and the ``pre_extract`` set-up, sends
    its requests on a :func:`request_pool` of its own.
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
        ids: set[str] = set()
        for doc in documents:  # checked before anything is encoded or sent
            if doc.id in ids:
                raise DuplicateDocument(f"document id {doc.id!r} is repeated")
            ids.add(doc.id)
        self.cfg = cfg
        self.encoder = encoder
        self.gateway = gateway
        self.type_index = TypeEmbeddingIndex(taxonomy, encoder)
        self.labels = LabelMap()
        self.pre_extract = pre_extract
        self.startup_events: list[str] = []
        if pre_extract:
            with request_pool() as requests:
                typer = self._typer(requests, encoder)
                documents = stream_documents(documents, None, gateway, typer, requests)
                labels = typer.collect()
                documents = [type_document_triples(doc, labels) for doc in documents]
            self.startup_events.extend(typer.events)
            # every question reranks these triples: their vectors live as long as the pipeline
            encoder.encode([text for d in documents for t in d.triples for text in triple_texts(t)])
        self.documents = {d.id: d for d in documents}
        texts = [d.embedding_text() for d in documents]
        self.corpus = VectorIndex.encode([d.id for d in documents], texts, encoder)

    def run_query(self, question: str) -> tuple[str, ReasoningTrace]:
        """Run the full loop; returns the final answer and the complete trace."""
        trace = ReasoningTrace(question=question)
        try:
            return self._run(question, trace)
        except TasrError as exc:
            raise QueryFailure(str(exc), trace=trace) from exc

    def _typer(self, requests: Executor, encoder: CachingEncoder) -> EntityTyper:
        return EntityTyper(self.type_index, encoder, self.gateway, self.cfg, requests, self.labels)

    def _run(self, question: str, trace: ReasoningTrace) -> tuple[str, ReasoningTrace]:
        # built before the question is encoded: a blank question raises here, having sent nothing
        decompose = decomposition_request(question, self.gateway)
        encoder = self.encoder.scope()  # the question's vectors, dropped when it ends
        pool = dense_retrieve(question, self.corpus, self.documents, self.cfg.k0, encoder)
        trace.pool_ids = [d.id for d in pool]
        with request_pool() as requests:
            typer = self._typer(requests, encoder)
            # sent ahead of the extractions, read after them: their errors come first
            decomposed = requests.submit(decompose)
            if not self.pre_extract:
                # per-query copies: extraction is query-conditioned
                pool = stream_documents(pool, question, self.gateway, typer, requests)
            decomposition = decompose_query(decomposed.result())
            typer.submit(subquery_typing_jobs(decomposition))
            # collected after every extraction and the decomposition: their errors come first
            labels = typer.collect()
        decomposition = type_subqueries(decomposition, labels)
        if not self.pre_extract:
            pool = [type_document_triples(doc, labels) for doc in pool]
        pool_by_id = {d.id: d for d in pool}

        bindings = BindingTable()
        answer = ""
        scored: dict[SubQuery, list] = {}  # each resolved sub-query's pair rows, scored once
        for sub_query in decomposition.sub_queries:
            resolved = resolve(sub_query, bindings)
            chain = decomposition.sub_queries if self.cfg.hop_scope == "chain" else [sub_query]
            scope = [resolve(sq, bindings) for sq in chain]
            missing = [sq for sq in scope if sq not in scored]
            scored.update(zip(missing, pair_scores(pool, missing, self.cfg, encoder)))
            rows = [scored[sq] for sq in scope]
            ranked = filter_and_rank(pool, scope, rows, self.cfg, force_index=scope.index(resolved))
            selected = [pool_by_id[s.doc_id] for s in ranked.documents]
            answer = answer_subquery(resolved, selected, self.gateway)
            bind(resolved, answer, bindings)
            trace.hops.append(HopRecord(sub_query, resolved, ranked, answer))

        trace.final_bindings = bindings.as_dict()
        trace.final_answer = answer
        trace.events.extend(typer.events)
        return answer, trace

