"""
Typing entities against the two-level taxonomy
==============================================

Every entity that enters the system gets a (first-level, second-level) type.
Structured strings are typed by rules alone; everything else goes through
embedding retrieval of candidate labels and an LLM pick. This demo uses the
deterministic mock backends, so it runs offline.
"""

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tasr import (
    CachingEncoder,
    Entity,
    EntityTyper,
    Gateway,
    HashEncoderClient,
    PipelineConfig,
    TypeEmbeddingIndex,
    load_default_taxonomy,
    load_script,
    rule_type_entity,
)

ROOT = Path(__file__).resolve().parent.parent

# the bundled taxonomy: 12 coarse classes, each with fine-grained children
taxonomy = load_default_taxonomy()
print("first-level classes:", ", ".join(taxonomy.l1_classes))
print("PRODUCT children:   ", ", ".join(taxonomy.children["PRODUCT"]))
print()

# structured strings never need a model call
for text in ["1998", "2023-07-04", "37.5%", "$4.2 million", "12,576"]:
    print(f"rule-typed {text!r:>14} -> {rule_type_entity(Entity(text))}")
print()

# everything else: retrieve candidate labels by embedding similarity,
# then let the (here: scripted) LLM pick
cfg = PipelineConfig()
encoder = CachingEncoder(HashEncoderClient())
index = TypeEmbeddingIndex(taxonomy, encoder)
gateway = Gateway(backend=load_script(ROOT / "fixtures" / "toy" / "llm_script.json"))

# the index keeps no encoder: a search scores the vector its caller encoded
entity = Entity("MySQL database")
candidates = index.top_l1(encoder.encode_one(entity.surface), cfg.n_l1_candidates)
print(f"top first-level candidates for {entity.surface!r}:")
for l1, sim in candidates[:5]:
    print(f"  {l1:<14} similarity {sim:+.4f}")

# the typer types against the taxonomy its index holds, encodes through the memo it is
# given and sends its requests on an executor it is given (a pipeline gives each question
# its own memo and executor)
with ThreadPoolExecutor(1) as requests:
    typer = EntityTyper(index, encoder, gateway, cfg, requests)
    label = typer.type_entity(entity)
    print(f"\nselected type: {label}")

    # selections are kept in the label map: asking again is free and identical
    assert typer.type_entity(Entity("MySQL database")) == label
    print("second call hits the label map and returns the same label")
