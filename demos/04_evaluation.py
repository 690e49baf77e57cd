"""
Scoring answers: exact match, token F1, and batch reports
=========================================================

Answers are normalized (lowercase, punctuation stripped, articles dropped,
whitespace collapsed) before comparison. EM demands an exact normalized
match against some gold alias; F1 rewards token overlap. The batch runner
drives the whole pipeline over a dataset and assembles a report.
"""

from pathlib import Path

from tasr import (
    CachingEncoder,
    Gateway,
    HashEncoderClient,
    Pipeline,
    PipelineConfig,
    exact_match,
    load_corpus,
    load_dataset,
    load_default_taxonomy,
    load_script,
    normalize_answer,
    run_benchmark,
    token_f1,
    validate_config,
)

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "fixtures" / "toy"

print("normalization examples:")
for raw in ["The MySQL AB.", "MySQL   AB", "Sun Microsystems, Inc."]:
    print(f"  {raw!r:>28} -> {normalize_answer(raw)!r}")
print()

print("metric examples:")
pairs = [
    ("MySQL AB", ["MySQL AB"]),
    ("MySQL", ["MySQL AB"]),
    ("Sun Microsystems, Inc.", ["Sun Microsystems"]),
]
for pred, golds in pairs:
    print(f"  pred={pred!r:>26} golds={golds!r}: "
          f"em={exact_match(pred, golds)} f1={token_f1(pred, golds):.4f}")
print()

# batch: run every toy question through the pipeline and score the answers
pipeline = Pipeline(
    documents=load_corpus(TOY / "corpus.jsonl"),
    taxonomy=load_default_taxonomy(),
    encoder=CachingEncoder(HashEncoderClient()),
    gateway=Gateway(backend=load_script(TOY / "llm_script.json")),
    cfg=validate_config(PipelineConfig()),
)
run = run_benchmark(load_dataset(TOY / "questions.jsonl"), pipeline)

print("per-question results:")
for row in run.report.per_example:
    print(f"  {row.id}: answer={row.answer!r:>26}  em={row.em} f1={row.f1:.4f}")
print()
print(f"em_avg={run.report.em_avg:.4f}  f1_avg={run.report.f1_avg:.4f}  "
      f"fallbacks={run.report.fallback_count}  errors={run.report.error_count}")
