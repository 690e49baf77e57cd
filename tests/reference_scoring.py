"""Straight-line brute-force reranking oracle.

Recomputes the whole scoring stack with plain loops and inline arithmetic,
sharing nothing with tasr.matching except the input data types and the
encoder. Every formula is written out once, top to bottom, so a disagreement
with the library points at exactly one place.
"""

from __future__ import annotations

import numpy as np


def brute_force_rank(pool, sub_queries, cfg, encoder, force_index=None):
    """Return (kept, all_ranked, fallback); entries are (doc_id, score) pairs."""
    scored = []
    for doc in pool:
        best_scores = []
        for sq in sub_queries:
            best = None
            for triple in doc.triples:
                # type-pair scores, both slots
                s_head = 0.0
                if sq.head_type.l1 == triple.head_type.l1:
                    s_head += cfg.w1
                if sq.head_type.l2 == triple.head_type.l2:
                    s_head += cfg.w2
                s_tail = 0.0
                if sq.tail_type.l1 == triple.tail_type.l1:
                    s_tail += cfg.w1
                if sq.tail_type.l2 == triple.tail_type.l2:
                    s_tail += cfg.w2
                s_struct = cfg.wh * s_head + cfg.wt * s_tail

                # semantic: role-prefixed component cosines
                q_h = encoder.encode_one("S: " + sq.head.text)
                q_r = encoder.encode_one("P: " + sq.relation)
                q_t = encoder.encode_one("O: " + sq.tail.text)
                d_h = encoder.encode_one("S: " + triple.head.surface)
                d_r = encoder.encode_one("P: " + triple.relation)
                d_t = encoder.encode_one("O: " + triple.tail.surface)
                s_sem = (
                    cfg.lh * float(np.dot(q_h, d_h))
                    + cfg.lr * float(np.dot(q_r, d_r))
                    + cfg.lt * float(np.dot(q_t, d_t))
                )

                s_triple = cfg.alpha * s_struct + (1.0 - cfg.alpha) * s_sem
                if best is None or s_triple > best:
                    best = s_triple
            best_scores.append(0.0 if best is None else best)

        # document aggregation: gamma-mix of max and top-t mean
        t = min(cfg.top_t, len(best_scores))
        order = sorted(range(len(best_scores)), key=lambda i: (-best_scores[i], i))
        chosen = order[:t]
        if force_index is not None and force_index not in chosen:
            chosen = chosen[:-1] + [force_index]
        mean_part = sum(best_scores[i] for i in chosen) / len(chosen)
        score = cfg.gamma * max(best_scores) + (1.0 - cfg.gamma) * mean_part
        scored.append((doc.id, score))

    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    kept = [pair for pair in scored if pair[1] >= cfg.theta]
    fallback = not kept
    if fallback:
        kept = [scored[0]]
    return kept, scored, fallback
