"""The benchmark's own checks: planted answers are reachable and runs repeat exactly."""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tasr.config import PipelineConfig, validate_config  # noqa: E402
from tasr.embedding import CachingEncoder  # noqa: E402
from tasr.evaluation import load_corpus, load_dataset, run_benchmark  # noqa: E402
from tasr.llm import Gateway  # noqa: E402
from tasr.reasoner import Pipeline  # noqa: E402
from tasr.taxonomy import load_default_taxonomy  # noqa: E402

from perfbench.standins import FORMAT_RETRY_SUFFIX, LexicalHashEncoder, MockLlm  # noqa: E402
from perfbench.tracing import TARGETS, Tracer, layer_metrics  # noqa: E402
from perfbench.workload import WorkloadSpec, build_world, mock_world, write_files  # noqa: E402

SMALL = WorkloadSpec(
    name="small", questions=12, hops=(1, 2, 3), entity_pool=6, fillers=2,
    corpus_docs=0, k0=1000, hop_scope="current", pre_extract=False, parallel=1,
    latency_ms=(), dim=256,
)


def _setup(tmp_path: Path, spec: WorkloadSpec, seed: int = 7):
    world = build_world(spec, seed)
    paths = write_files(world, tmp_path)
    taxonomy = load_default_taxonomy()
    labels = [(label.l1, label.l2) for label in taxonomy.all_pairs()]
    llm = MockLlm(mock_world(world, labels), seed, dict(spec.latency_ms))
    client = LexicalHashEncoder(spec.dim)
    cfg = validate_config(PipelineConfig(k0=spec.k0, hop_scope=spec.hop_scope))

    def pipeline() -> Pipeline:
        return Pipeline(
            load_corpus(paths["corpus"]), taxonomy, CachingEncoder(client), Gateway(llm), cfg,
            pre_extract=spec.pre_extract,
        )

    return world, load_dataset(paths["dataset"]), llm, pipeline


@pytest.mark.parametrize("scope", ["current", "chain"])
def test_whole_corpus_pool_answers_every_question_and_reruns_are_identical(tmp_path, scope):
    spec = SMALL if scope == "current" else replace(SMALL, hop_scope="chain", pre_extract=True)
    world, dataset, llm, pipeline = _setup(tmp_path, spec)
    assert len(world.docs) <= spec.k0  # the pool is the whole corpus

    first = run_benchmark(dataset, pipeline())
    assert first.report.error_count == 0
    assert first.report.em_avg == 1.0
    again = run_benchmark(dataset, pipeline(), parallel=2)
    assert again.predictions == first.predictions
    assert llm.requests["extract"] > 0 and llm.requests["type_select"] > 0


def test_generator_is_seeded():
    a = build_world(SMALL, 3)
    b = build_world(SMALL, 3)
    c = build_world(SMALL, 4)
    assert a.docs == b.docs and a.dataset == b.dataset
    assert a.docs != c.docs


def test_mock_exercises_the_format_retry_path(tmp_path):
    _, dataset, llm, pipeline = _setup(tmp_path, SMALL)
    retries = []
    complete = llm.complete

    def recording(req):
        retries.append(req.user_prompt.endswith(FORMAT_RETRY_SUFFIX))
        return complete(req)

    llm.complete = recording
    report = run_benchmark(dataset, pipeline()).report
    assert report.error_count == 0
    assert any(retries) and not all(retries)


def test_tracer_records_spans_and_restores_the_program(tmp_path):
    _, dataset, _, pipeline = _setup(tmp_path, SMALL)
    originals = [owner.__dict__[attr] for _, owner, attr, _ in TARGETS]
    ids = {ex.question: i for i, ex in enumerate(dataset)}
    with Tracer(ids) as tracer:
        traced = run_benchmark(dataset, pipeline())
    assert [owner.__dict__[attr] for _, owner, attr, _ in TARGETS] == originals
    assert traced.report.em_avg == 1.0

    metrics = layer_metrics(tracer, len(dataset), 1.0)
    docs = len(load_corpus(tmp_path / "corpus.jsonl"))
    # hop_scope "current" reranks once per hop; the pool is the whole corpus
    assert metrics["matching.rerank.calls"][0] == metrics["reasoner.hops_per_question"][0]
    assert metrics["structurer.extract.calls"][0] == docs
    assert 0.0 < metrics["embedding.encode.hit_ratio"][0] < 1.0
    assert metrics["setup.embedding.client.texts"][0] >= docs
