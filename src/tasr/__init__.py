"""Multi-hop retrieval-augmented reasoning with taxonomy-typed triple matching.

Documents and questions are both turned into relational triples whose
entities carry two-level taxonomy types. A question becomes an ordered chain
of sub-queries with latent variables; each hop reranks the retrieved pool
with a hybrid structural+semantic triple score, answers the hop, and binds
the resolved entity for the following hops.

The names below are the ones the demos and the README quick start use; the
rest of the API lives in the submodules.
"""

from tasr.config import PipelineConfig
from tasr.embedding import CachingEncoder, HashEncoderClient
from tasr.evaluation import load_corpus, load_dataset, run_benchmark
from tasr.llm import Gateway, load_script
from tasr.matching import filter_and_rank, pair_scores
from tasr.metrics import exact_match, normalize_answer, token_f1
from tasr.model import Document, Entity, Slot, SubQuery, TaxonomyLabel, Triple
from tasr.reasoner import Pipeline
from tasr.taxonomy import EntityTyper, TypeEmbeddingIndex, load_default_taxonomy, rule_type_entity

__version__ = "0.1.0"
