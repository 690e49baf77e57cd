"""
Multi-hop reasoning with entity binding, end to end
===================================================

The full loop over the bundled toy corpus: dense retrieval, triple
extraction and typing, query decomposition into sub-queries with latent
variables, then hop-by-hop rerank / answer / bind. Runs offline against the
scripted LLM mock and the hash-embedding mock.
"""

from pathlib import Path

from tasr import (
    CachingEncoder,
    Gateway,
    HashEncoderClient,
    Pipeline,
    PipelineConfig,
    load_corpus,
    load_default_taxonomy,
    load_script,
    validate_config,
)

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "fixtures" / "toy"

question = "Which company originally developed the database that the Science Activity Planner uses?"
pipeline = Pipeline(
    documents=load_corpus(TOY / "corpus.jsonl"),
    taxonomy=load_default_taxonomy(),
    encoder=CachingEncoder(HashEncoderClient()),
    gateway=Gateway(backend=load_script(TOY / "llm_script.json")),
    cfg=validate_config(PipelineConfig()),
)
answer, trace = pipeline.run_query(question)

print(f"question: {question}")
print(f"retrieved pool: {', '.join(trace.pool_ids)}")
print()

for hop in trace.hops:
    print(f"hop {hop.index}: {hop.sub_query.render()}")
    print(f"  resolved to: {hop.resolved.render()}")
    print(f"  typed as:    ({hop.resolved.head_type}, {hop.resolved.relation}, "
          f"{hop.resolved.tail_type})")
    for record in hop.document_scores:
        marker = "<- selected" if record["doc_id"] in hop.selected else ""
        print(f"    {record['doc_id']:<6} S(d)={record['score']:+.4f} {marker}")
    print(f"  hop answer: {hop.answer!r}")
    print()

print(f"bindings: {trace.final_bindings}")
print(f"final answer: {answer!r}")
