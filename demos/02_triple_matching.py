"""
Hybrid triple matching and document reranking
=============================================

A sub-query is matched against a document's triples with two signals:
structural (do the entity types line up?) and semantic (how close are the
role-prefixed embeddings?). Scoring is two steps. pair_scores scores every
(sub-query, triple) pair of a pool, and the alpha knob mixes the two signals
there. filter_and_rank reads those pairs: it keeps each document's best triple
per sub-query, aggregates them into one document score with gamma and top-t,
and filters with theta. So a pool is scored once per alpha, and ranked from the
same pairs at every theta.
"""

from tasr import (
    CachingEncoder,
    Document,
    Entity,
    HashEncoderClient,
    PipelineConfig,
    Slot,
    SubQuery,
    TaxonomyLabel,
    Triple,
    filter_and_rank,
    pair_scores,
)

cfg = PipelineConfig()
encoder = CachingEncoder(HashEncoderClient())

WORK_SW = TaxonomyLabel("WORK", "SoftwareProject")
PRODUCT_DB = TaxonomyLabel("PRODUCT", "Database")
ORG_COMPANY = TaxonomyLabel("ORGANIZATION", "Company")
CONCEPT_TECH = TaxonomyLabel("CONCEPT", "Technology")


def make_doc(doc_id, rows):
    # a document triple carries its entity types, just as the sub-query does
    triples = [
        Triple(Entity(head), relation, Entity(tail), doc_id, head_type, tail_type)
        for head, relation, tail, head_type, tail_type in rows
    ]
    return Document(id=doc_id, title=doc_id, text="", triples=triples)


# one first-hop sub-query: the tail is still unknown, but its TYPE is known
sub_query = SubQuery(
    index=1,
    head=Slot.bound("Science Activity Planner"),
    relation="uses",
    tail=Slot.variable("?Database"),
    head_type=WORK_SW,
    tail_type=PRODUCT_DB,
)

supporting = make_doc(
    "doc-support",
    [("Science Activity Planner", "uses", "MySQL database", WORK_SW, PRODUCT_DB)],
)
distractor = make_doc(
    "doc-distract",
    [("MySQL", "is_a", "open-source database system", PRODUCT_DB, CONCEPT_TECH)],
)
empty = make_doc("doc-empty", [])

pool = [supporting, distractor, empty]
# pairs by sub-query, then document, then triple: one sub-query here
pairs = pair_scores(pool, [sub_query], cfg, encoder)

print("per-triple score decomposition against the supporting document:")
for triple, match in zip(supporting.triples, pairs[0][0]):
    print(
        f"  ({triple.head.surface}, {triple.relation}, {triple.tail.surface})"
        f"  struct={match.s_struct:.3f} sem={match.s_sem:.3f} -> triple={match.s_triple:.3f}"
    )
print()

ranked = filter_and_rank(pool, [sub_query], pairs, cfg)
print(f"document scores (theta={cfg.theta}):")
for scored in ranked.all_scored:
    kept = "kept" if any(d.doc_id == scored.doc_id for d in ranked.documents) else "filtered"
    print(f"  {scored.doc_id:<14} S(d)={scored.score:+.4f}  {kept}")
print()

# ablations: alpha=1 scores with types alone, alpha=0 with embeddings alone; alpha
# mixes each pair's score, so each ablation scores the pool again
for alpha, name in ((1.0, "structural-only"), (0.0, "semantic-only")):
    cfg_abl = cfg.with_overrides(alpha=alpha)
    pairs_abl = pair_scores(pool, [sub_query], cfg_abl, encoder)
    ranked_abl = filter_and_rank(pool, [sub_query], pairs_abl, cfg_abl)
    order = ", ".join(s.doc_id for s in ranked_abl.all_scored)
    print(f"{name:<16} (alpha={alpha}): ranking = {order}")
print()

# an aggressive threshold empties the pool; the best document is retained
# anyway so the answering step always has context, and the trace flags it.
# theta does not change a pair's score, so the first pairs are ranked again
strict = filter_and_rank(pool, [sub_query], pairs, cfg.with_overrides(theta=0.99))
print(f"theta=0.99 -> fallback={strict.fallback}, retained={strict.documents[0].doc_id}")
