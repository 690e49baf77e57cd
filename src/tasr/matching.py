"""Hybrid triple matching and document reranking.

Scoring is two steps. The pair-score step, :func:`pair_scores`, reads the
component vectors of the sub-queries and the pool with one encoder call, then
scores every (sub-query, document triple) pair with one formula:

* type-pair score: weighted L1/L2 label equality;
* structural score: head/tail type-pair scores, weighted; relations play no role;
* semantic score: weighted cosines between role-prefixed component embeddings;
* triple score: alpha-mix of structural and semantic.

The rank step, :func:`filter_and_rank`, reads those pairs and scores nothing.
It keeps per sub-query the best of each document's triples, takes a gamma-mix
of the max and the mean over the top-t sub-queries as the document score, then
threshold-filters and ranks, with a top-1 fallback when the filter empties.

All functions are pure; determinism is guaranteed by explicit tie rules (doc
id ascending, sub-query position ascending, the first of equally scored
triples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from tasr.config import PipelineConfig
from tasr.embedding import CachingEncoder
from tasr.errors import EmptyPool
from tasr.model import Document, SubQuery, TaxonomyLabel, Triple

# role prefixes: the same surface embeds differently as head, relation and tail
HEAD_PREFIX = "S: "
RELATION_PREFIX = "P: "
TAIL_PREFIX = "O: "


@dataclass(frozen=True)
class TripleMatch:
    """Score breakdown for one (sub-query, document triple) pair."""

    query_index: int
    doc_triple_index: Optional[int]  # None for the tripleless-document sentinel
    s_struct: float
    s_sem: float
    s_triple: float
    type_pairs: tuple[float, float] = (0.0, 0.0)  # head, tail type-pair scores
    cosines: tuple[float, float, float] = (0.0, 0.0, 0.0)  # head, relation, tail


@dataclass(frozen=True)
class ScoredDocument:
    doc_id: str
    score: float
    best_matches: tuple[TripleMatch, ...]  # one per sub-query, in chain order


@dataclass(frozen=True)
class RankedPool:
    documents: tuple[ScoredDocument, ...]  # retained after thresholding, best first
    all_scored: tuple[ScoredDocument, ...]  # every pool document, ranked
    fallback: bool  # True when the threshold emptied the pool and top-1 was retained


def score_type_pair(tq: TaxonomyLabel, td: TaxonomyLabel, cfg: PipelineConfig) -> float:
    """Weighted exact-equality of the two label levels."""
    return cfg.w1 * float(tq.l1 == td.l1) + cfg.w2 * float(tq.l2 == td.l2)


def _type_pairs(qs: SubQuery, dt: Triple, cfg: PipelineConfig) -> tuple[float, float]:
    if qs.head_type is None or qs.tail_type is None:
        raise ValueError(f"sub-query {qs.index} is untyped")
    if dt.head_type is None or dt.tail_type is None:
        raise ValueError(f"document triple {dt.key()} is untyped")
    return (
        score_type_pair(qs.head_type, dt.head_type, cfg),
        score_type_pair(qs.tail_type, dt.tail_type, cfg),
    )


def component_texts(head: str, relation: str, tail: str) -> list[str]:
    """Role-prefixed head, relation and tail texts; latent slots embed as their ?Name text."""
    return [HEAD_PREFIX + head, RELATION_PREFIX + relation, TAIL_PREFIX + tail]


def triple_texts(triple: Triple | SubQuery) -> list[str]:
    """Component texts of a document triple or a sub-query, as the semantic score encodes them."""
    if isinstance(triple, SubQuery):
        return component_texts(triple.head.text, triple.relation, triple.tail.text)
    return component_texts(triple.head.surface, triple.relation, triple.tail.surface)


def _cosines(q_vectors, d_vectors) -> tuple[float, float, float]:
    (q_h, q_r, q_t), (d_h, d_r, d_t) = q_vectors, d_vectors
    return (float(np.dot(q_h, d_h)), float(np.dot(q_r, d_r)), float(np.dot(q_t, d_t)))


def _match(
    qs: SubQuery, triple: Triple, q_vectors, d_vectors, cfg: PipelineConfig, index: Optional[int]
) -> TripleMatch:
    """The one pair formula: alpha-mix of structural and semantic, from component vectors."""
    type_pairs = _type_pairs(qs, triple, cfg)
    cosines = _cosines(q_vectors, d_vectors)
    (s_head, s_tail), (cos_h, cos_r, cos_t) = type_pairs, cosines
    s_struct = cfg.wh * s_head + cfg.wt * s_tail
    s_sem = cfg.lh * cos_h + cfg.lr * cos_r + cfg.lt * cos_t
    return TripleMatch(
        query_index=qs.index,
        doc_triple_index=index,
        s_struct=s_struct,
        s_sem=s_sem,
        s_triple=cfg.alpha * s_struct + (1.0 - cfg.alpha) * s_sem,
        type_pairs=type_pairs,
        cosines=cosines,
    )


def pair_scores(
    pool: Sequence[Document],
    sub_queries: Sequence[SubQuery],
    cfg: PipelineConfig,
    encoder: CachingEncoder,
) -> list[list[list[TripleMatch]]]:
    """Every pair's match, by sub-query, then document, then triple, in input order.

    The sub-queries' and the pool's component vectors come from one encoder call.
    """
    triples = [t for doc in pool for t in doc.triples]
    vectors = encoder.encode([text for x in (*sub_queries, *triples) for text in triple_texts(x)])
    components = zip(vectors[0::3], vectors[1::3], vectors[2::3])  # (head, relation, tail)
    query_vectors = [next(components) for _ in sub_queries]
    doc_vectors = [[next(components) for _ in doc.triples] for doc in pool]
    scores = []
    for sq, q_vectors in zip(sub_queries, query_vectors):
        scores.append([
            [
                _match(sq, triple, q_vectors, d_vectors, cfg, i)
                for i, (triple, d_vectors) in enumerate(zip(doc.triples, by_triple))
            ]
            for doc, by_triple in zip(pool, doc_vectors)
        ])
    return scores


def aggregate_document_score(
    best_scores: Sequence[float], cfg: PipelineConfig, force_index: Optional[int] = None
) -> float:
    """Gamma-mix of the max score and the mean over the top-t sub-queries.

    ``force_index`` guarantees one sub-query (the current hop) a seat in the
    mean's top-t set, replacing the weakest member if needed.
    """
    if not best_scores:
        raise ValueError("aggregate_document_score requires at least one sub-query score")
    t = min(cfg.top_t, len(best_scores))
    order = sorted(range(len(best_scores)), key=lambda i: (-best_scores[i], i))
    chosen = order[:t]
    if force_index is not None and force_index not in chosen:
        chosen[-1] = force_index
    mean_part = sum(best_scores[i] for i in chosen) / len(chosen)
    return cfg.gamma * max(best_scores) + (1.0 - cfg.gamma) * mean_part


def filter_and_rank(
    pool: Sequence[Document],
    sub_queries: Sequence[SubQuery],
    pairs: Sequence[Sequence[Sequence[TripleMatch]]],
    cfg: PipelineConfig,
    force_index: Optional[int] = None,
) -> RankedPool:
    """Threshold-filter and rank the candidate pool from its :func:`pair_scores` rows.

    Documents scoring below theta are dropped; if that empties the list, the
    single best document is retained so the answering step always has context,
    and the fallback is flagged for the trace.
    """
    if not pool:
        raise EmptyPool("cannot rerank an empty candidate pool")
    scored = []
    for d, doc in enumerate(pool):
        # max keeps the first of equal scores; a document with no triples carries no
        # matchable structure and scores 0
        matches = [
            max(rows[d], key=lambda m: m.s_triple, default=None)
            or TripleMatch(sq.index, None, 0.0, 0.0, 0.0)
            for sq, rows in zip(sub_queries, pairs)
        ]
        score = aggregate_document_score([m.s_triple for m in matches], cfg, force_index)
        scored.append(ScoredDocument(doc_id=doc.id, score=score, best_matches=tuple(matches)))
    scored.sort(key=lambda s: (-s.score, s.doc_id))
    kept = [s for s in scored if s.score >= cfg.theta]
    if kept:
        return RankedPool(documents=tuple(kept), all_scored=tuple(scored), fallback=False)
    return RankedPool(documents=(scored[0],), all_scored=tuple(scored), fallback=True)
