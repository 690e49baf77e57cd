"""Random scoring-instance generator used by oracle and property tests."""

from __future__ import annotations

import numpy as np

from tasr.config import PipelineConfig, validate_config
from tasr.model import Document, Entity, Slot, SubQuery, TaxonomyLabel, Triple
from tasr.taxonomy import load_default_taxonomy

_TAXONOMY = load_default_taxonomy()
_ALL_LABELS = _TAXONOMY.all_pairs()

# small vocabularies so exact component matches (cosine 1) actually occur
_ENTITIES = [f"entity {c}" for c in "abcdefghijkl"]
_RELATIONS = ["uses", "made_by", "located_in", "part_of", "causes", "rel_x"]


def _label(rng: np.random.Generator) -> TaxonomyLabel:
    return _ALL_LABELS[int(rng.integers(len(_ALL_LABELS)))]


def _entity(rng: np.random.Generator) -> str:
    return _ENTITIES[int(rng.integers(len(_ENTITIES)))]


def _relation(rng: np.random.Generator) -> str:
    return _RELATIONS[int(rng.integers(len(_RELATIONS)))]


def random_config(rng: np.random.Generator) -> PipelineConfig:
    w1 = float(rng.uniform(0.1, 0.9))
    wh = float(rng.uniform(0.1, 0.9))
    raw = rng.uniform(0.1, 1.0, size=3)
    lam = raw / raw.sum()
    return validate_config(
        PipelineConfig(
            theta=float(rng.uniform(0.0, 0.9)),
            alpha=float(rng.uniform(0.0, 1.0)),
            gamma=float(rng.uniform(0.0, 1.0)),
            top_t=int(rng.integers(1, 5)),
            w1=w1,
            w2=1.0 - w1,
            wh=wh,
            wt=1.0 - wh,
            lh=float(lam[0]),
            lr=float(lam[1]),
            lt=float(lam[2]),
        )
    )


def random_documents(rng: np.random.Generator, max_docs: int = 10, max_triples: int = 8):
    docs = []
    for d in range(int(rng.integers(1, max_docs + 1))):
        doc = Document(id=f"d{d:02d}", title=f"title {d}", text=f"body {d}")
        for i in range(int(rng.integers(0, max_triples + 1))):
            doc.triples.append(
                Triple(
                    head=Entity(_entity(rng)),
                    relation=_relation(rng),
                    tail=Entity(_entity(rng)),
                    source_doc=doc.id,
                    head_type=_label(rng),
                    tail_type=_label(rng),
                )
            )
        docs.append(doc)
    return docs


def random_subqueries(rng: np.random.Generator, max_subqueries: int = 4):
    sub_queries = []
    for i in range(1, int(rng.integers(1, max_subqueries + 1)) + 1):
        head_latent = rng.random() < 0.3
        tail_latent = rng.random() < 0.3
        sub_queries.append(
            SubQuery(
                index=i,
                head=Slot.variable(f"?H{i}") if head_latent else Slot.bound(_entity(rng)),
                relation=_relation(rng),
                tail=Slot.variable(f"?T{i}") if tail_latent else Slot.bound(_entity(rng)),
                head_type=_label(rng),
                tail_type=_label(rng),
            )
        )
    return sub_queries


def random_instance(seed: int):
    """One reranking problem: documents, typed sub-queries, config, force index."""
    rng = np.random.default_rng(seed)
    docs = random_documents(rng)
    sub_queries = random_subqueries(rng)
    cfg = random_config(rng)
    force_index = None
    if rng.random() < 0.5:
        force_index = int(rng.integers(0, len(sub_queries)))
    return docs, sub_queries, cfg, force_index
