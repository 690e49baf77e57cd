"""Drive ``tasr`` through its public entry points and turn the runs into metrics.

Every run builds fresh state: new ``Document`` objects loaded from the
generated corpus file, a new ``CachingEncoder`` and a new ``Pipeline``, so
each run pays what a fresh ``tasr run`` pays (``pre_extract`` writes triples
into the documents it is given, and a reused encoder memo would turn misses
into hits). Only the endpoint stand-ins live for the whole process, as a
remote service would.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import tasr
from tasr.config import PipelineConfig, validate_config
from tasr.embedding import CachingEncoder
from tasr.evaluation import QaExample, load_corpus, load_dataset, run_benchmark
from tasr.llm import Gateway
from tasr.reasoner import Pipeline
from tasr.taxonomy import load_default_taxonomy

from perfbench.standins import LexicalHashEncoder, MockLlm
from perfbench.tracing import Tracer, layer_metrics
from perfbench.workload import WORKLOADS, WorkloadSpec, build_world, mock_world, write_files

CHECK_QUESTIONS = 24  # questions the check pipeline answers at parallel=1
MIN_MEASURED = 100  # questions the measured run must answer, so ten lie beyond p90
MIN_SETUPS = 3
MAX_SETUPS = 9
MIN_SETUP_TOTAL_S = 3.0  # keep building until set-up time adds up to this
CHUNK_PER_WORKER = 8  # questions per run_benchmark call, per worker
TRACE_SHARE = 0.25  # share of --seconds the untraced half of a traced run measures
EM_FLOOR = 0.5  # below this the pipeline no longer answers the planted chains


@dataclass
class Inputs:
    """One workload at one seed: generated files, the endpoint stand-ins, the config."""

    spec: WorkloadSpec
    seed: int
    out_dir: Path
    corpus_path: Path
    dataset: list[QaExample]
    world: dict  # what the mock endpoint knows
    client: LexicalHashEncoder
    cfg: PipelineConfig
    fingerprint: str  # hash of the code, the workload spec and the generated files
    rss_base_mb: float  # resident set once inputs and stand-ins exist


@dataclass
class Phase:
    """Outcome of answering questions on one pipeline."""

    predictions: dict[str, str] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    errors: int = 0
    em: float = 0.0
    f1: float = 0.0
    requests: Counter = field(default_factory=Counter)
    unstable: list[str] = field(default_factory=list)  # ids answered differently on a repeat


def prepare(name: str, seed: int, out_root: Path) -> Inputs:
    spec = WORKLOADS[name]
    world = build_world(spec, seed)
    out_dir = out_root / f"{name}-seed{seed}"
    paths = write_files(world, out_dir)
    taxonomy = load_default_taxonomy()
    labels = [(label.l1, label.l2) for label in taxonomy.all_pairs()]
    inp = Inputs(
        spec=spec,
        seed=seed,
        out_dir=out_dir,
        corpus_path=paths["corpus"],
        dataset=load_dataset(paths["dataset"]),
        world=mock_world(world, labels),
        client=LexicalHashEncoder(dim=spec.dim),
        cfg=validate_config(PipelineConfig(k0=spec.k0, hop_scope=spec.hop_scope)),
        fingerprint=_fingerprint(repr(spec), *_code_files(), *paths.values()),
        rss_base_mb=0.0,
    )
    gc.collect()
    inp.rss_base_mb = _rss_mb()
    return inp


def _code_files() -> list[Path]:
    """The program's package files and the benchmark's own sources."""
    package = Path(tasr.__file__).parent
    files = [p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    return sorted(files) + sorted(Path(__file__).parent.glob("*.py"))


def _fingerprint(text: str, *paths: Path) -> str:
    digest = hashlib.sha256(text.encode("utf-8"))
    for path in paths:
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def build(inp: Inputs) -> tuple[Pipeline, float]:
    """A fresh pipeline over freshly loaded documents; returns it and its set-up seconds.

    Each pipeline talks to its own ``MockLlm`` session, so request counts and
    the seeded format noise start afresh with every build.
    """
    documents = load_corpus(inp.corpus_path)
    llm = MockLlm(inp.world, inp.seed, dict(inp.spec.latency_ms))
    gc.collect()
    t0 = time.perf_counter()
    pipeline = Pipeline(
        documents,
        load_default_taxonomy(),
        CachingEncoder(inp.client),
        Gateway(llm),
        inp.cfg,
        pre_extract=inp.spec.pre_extract,
    )
    return pipeline, time.perf_counter() - t0


def answer(
    inp: Inputs,
    pipeline: Pipeline,
    parallel: int,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
) -> Phase:
    """Closed loop of ``parallel`` callers over the dataset, in chunks of run_benchmark.

    Questions are taken in dataset order, starting again from the first when
    the dataset runs out, so a fast pipeline still measures for ``seconds``.
    Stops after the chunk that crosses ``seconds``, or after ``count`` questions.
    """
    phase = Phase()
    timed_query = pipeline.run_query

    def run_query(question: str):
        t0 = time.perf_counter()
        try:
            return timed_query(question)
        finally:
            phase.latencies_s.append(time.perf_counter() - t0)

    pipeline.run_query = run_query
    examples = inp.dataset
    chunk = CHUNK_PER_WORKER * parallel
    llm = pipeline.gateway.backend
    before = llm.request_counts()
    gc.collect()
    start = time.perf_counter()
    while True:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        size = chunk if count is None else min(chunk, count - phase.attempted)
        if size <= 0:
            break
        batch = [examples[(phase.attempted + j) % len(examples)] for j in range(size)]
        report = run_benchmark(batch, pipeline, parallel=parallel).report
        for result in report.per_example:
            if phase.predictions.setdefault(result.id, result.answer) != result.answer:
                phase.unstable.append(result.id)
            phase.attempted += 1
            phase.errors += result.error is not None
            phase.em += result.em
            phase.f1 += result.f1
    phase.wall_s = time.perf_counter() - start
    phase.requests = llm.request_counts() - before
    del pipeline.run_query
    return phase


def untraced_run(inp: Inputs, seconds: float) -> tuple[dict, list[str]]:
    """A parallel=1 check run, the measured run, more builds.

    Every run gets its own fresh pipeline, so comparing the measured run with
    the check run also compares two fresh builds. Builds happen before and
    after the measured phase, so the ``setup_s`` median spans the run rather
    than one moment of it.
    """
    failures: list[str] = []
    setups: list[float] = []
    setup_requests: list[int] = []

    def timed_build() -> Pipeline:
        pipeline, setup_s = build(inp)
        setups.append(setup_s)
        setup_requests.append(sum(pipeline.gateway.backend.request_counts().values()))
        return pipeline

    check = answer(inp, timed_build(), parallel=1, count=CHECK_QUESTIONS).predictions
    measured = answer(inp, timed_build(), inp.spec.parallel, seconds=seconds)
    while len(setups) < MAX_SETUPS and (
        len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_TOTAL_S
    ):
        timed_build()

    differ = [qid for qid, ans in check.items() if measured.predictions.get(qid, ans) != ans]
    if differ:
        failures.append(
            f"measured run (parallel={inp.spec.parallel}) differs from the parallel=1 check "
            f"run on {differ}"
        )
    if len(set(setup_requests)) > 1:
        failures.append(f"set-up LLM requests differ between builds: {setup_requests}")
    if measured.attempted < MIN_MEASURED:
        failures.append(f"measured run answered {measured.attempted} < {MIN_MEASURED} questions")
    failures += _quality_failures(measured)
    failures += _check_against_first_run(inp, measured.predictions)

    n = measured.attempted
    completed = n - measured.errors
    lat = measured.latencies_s
    req = measured.requests
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "questions_per_s": (completed / measured.wall_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000.0, "ms"),
        "llm_calls_per_question": (sum(req.values()) / n, "count"),
        "llm_calls_per_question.extract": (req["extract"] / n, "count"),
        "llm_calls_per_question.decompose": (req["decompose"] / n, "count"),
        "llm_calls_per_question.type_select": (req["type_select"] / n, "count"),
        "llm_calls_per_question.answer": (req["answer"] / n, "count"),
        "em": (measured.em / n, "ratio"),
        "f1": (measured.f1 / n, "ratio"),
        "peak_rss_mb": (_peak_rss_mb() - inp.rss_base_mb, "MB"),
    }
    info = {
        "setups": len(setups),
        "setup_s_all": setups,
        "llm_calls_setup": setup_requests[0],
        "error_rate": measured.errors / n,
        "measured_s": measured.wall_s,
        "rss_base_mb": inp.rss_base_mb,
    }
    return _result(inp, measured, metrics, info), failures


def traced_run(inp: Inputs, seconds: float) -> tuple[dict, list[str]]:
    """An untraced pass, then a traced set-up and the same questions traced."""
    failures: list[str] = []
    pipeline, _ = build(inp)
    plain = answer(inp, pipeline, inp.spec.parallel, seconds=seconds * TRACE_SHARE)
    del pipeline
    question_ids = {ex.question: i for i, ex in enumerate(inp.dataset)}
    with Tracer(question_ids) as tracer:
        pipeline, _ = build(inp)
        traced = answer(inp, pipeline, inp.spec.parallel, count=plain.attempted)
        del pipeline
    if traced.predictions != plain.predictions:
        failures.append("traced predictions differ from untraced ones")
    failures += _quality_failures(plain)
    failures += _check_against_first_run(inp, plain.predictions)
    tracer.write(inp.out_dir.parent / f"spans-{inp.spec.name}")

    metrics = layer_metrics(tracer, traced.attempted, traced.wall_s)
    metrics["evaluation.worker_busy_ratio"] = (
        sum(plain.latencies_s) / (inp.spec.parallel * plain.wall_s), "ratio",
    )
    metrics["evaluation.error_rate"] = (plain.errors / plain.attempted, "ratio")
    metrics["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s, "ratio")
    info = {"spans": len(tracer.sid), "traced_questions": traced.attempted}
    return _result(inp, plain, metrics, info), failures


def _quality_failures(phase: Phase) -> list[str]:
    failures = []
    if phase.unstable:
        failures.append(f"repeated questions got different answers: {phase.unstable[:5]}")
    if phase.errors:
        failures.append(f"{phase.errors} of {phase.attempted} questions errored")
    if phase.em / phase.attempted < EM_FLOOR:
        failures.append(f"EM {phase.em / phase.attempted:.3f} is below {EM_FLOOR}")
    return failures


def _check_against_first_run(inp: Inputs, predictions: dict[str, str]) -> list[str]:
    """Compare with every earlier run on the same generated inputs, then add the new ids."""
    path = inp.out_dir / "predictions.json"
    saved = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    first = saved.get("answers", {}) if saved.get("inputs") == inp.fingerprint else {}
    differ = sorted(q for q, a in predictions.items() if first.get(q, a) != a)
    if differ:
        return [f"predictions differ from an earlier run on seed {inp.seed}: {differ[:5]}"]
    first.update(predictions)
    record = {"inputs": inp.fingerprint, "answers": first}
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return []


def _result(inp: Inputs, phase: Phase, metrics: dict, info: dict) -> dict:
    return {
        "workload": inp.spec.name,
        "seed": inp.seed,
        "attempted": phase.attempted,
        "failed": phase.errors,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": info,
        "machine": machine_info(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2.0**20


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
