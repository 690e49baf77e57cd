"""Dataset loading, batch execution, and EM/F1 report assembly."""

from __future__ import annotations

import functools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from tasr.errors import DatasetParseError, QueryFailure, RangeViolation, json_field, read_json
from tasr.metrics import exact_match, token_f1
from tasr.model import Document, ReasoningTrace
from tasr.reasoner import Pipeline


@dataclass(frozen=True)
class QaExample:
    id: str  # also the trace file name and the join key of predictions
    question: str
    answers: tuple[str, ...]

    def __post_init__(self) -> None:
        # an id names a trace file: NUL or a lone surrogate (from a JSON escape) cannot
        if not self.id.strip() or not self.id.isprintable() or "/" in self.id:
            raise DatasetParseError(f"example id {self.id!r} is blank, unprintable or holds '/'")
        if not self.question.strip():
            raise DatasetParseError(f"example {self.id}: question is blank")
        if not self.answers:
            raise DatasetParseError(f"example {self.id}: no gold answers")


@dataclass
class ExampleResult:
    id: str
    answer: str
    em: int
    f1: float
    error: Optional[str] = None


@dataclass
class EvalReport:
    per_example: list[ExampleResult]
    em_avg: float
    f1_avg: float
    fallback_count: int
    error_count: int
    startup_events: list[str] = field(default_factory=list)  # typing fallbacks of pre-extraction

    def to_dict(self) -> dict[str, Any]:
        return {
            "em_avg": self.em_avg,
            "f1_avg": self.f1_avg,
            "fallback_count": self.fallback_count,
            "error_count": self.error_count,
            "startup_events": self.startup_events,
            "per_example": [
                {"id": r.id, "answer": r.answer, "em": r.em, "f1": r.f1, "error": r.error}
                for r in self.per_example
            ],
        }


_field = functools.partial(json_field, error=DatasetParseError)


def load_corpus(path: str | Path) -> list[Document]:
    """Corpus JSONL: one ``{"id", "title", "text"}`` object per line; ids are unique."""
    seen: set[str] = set()

    def document(record: Any) -> Document:
        doc_id, title, text = (_field(record, name, str) for name in ("id", "title", "text"))
        return Document(_new_id(seen, doc_id), title, text)

    documents = read_json(path, DatasetParseError, "corpus", document, lines=True)
    if not documents:
        raise DatasetParseError(f"corpus {path} is empty")
    return documents


def load_dataset(path: str | Path) -> list[QaExample]:
    """Dataset JSONL: one ``{"id", "question", "answers"}`` object per line; ids are unique."""
    seen: set[str] = set()

    def example(record: Any) -> QaExample:
        question_id, question = _field(record, "id", str), _field(record, "question", str)
        answers = _field(record, "answers", list)
        if not all(isinstance(answer, str) for answer in answers):
            raise DatasetParseError("answers must all be strings")
        return QaExample(id=_new_id(seen, question_id), question=question, answers=tuple(answers))

    examples = read_json(path, DatasetParseError, "dataset", example, lines=True)
    if not examples:
        raise DatasetParseError(f"dataset {path} is empty")
    return examples


def load_predictions(path: str | Path) -> list[dict]:
    """Predictions JSONL as ``tasr run`` writes it: one ``{"id": str, "answer": str}`` object
    per line; ids are unique."""
    seen: set[str] = set()

    def prediction(record: Any) -> dict:
        _new_id(seen, _field(record, "id", str))
        if "answer" in record:
            _field(record, "answer", str)
        return record

    return read_json(path, DatasetParseError, "predictions", prediction, lines=True)


def _new_id(seen: set[str], record_id: str) -> str:
    """``record_id``, added to ``seen``; an id already there is a DatasetParseError."""
    if record_id in seen:
        raise DatasetParseError(f"duplicate id {record_id!r}")
    seen.add(record_id)
    return record_id


def write_trace(trace: ReasoningTrace, trace_dir: str | Path, question_id: str) -> Path:
    """Write one trace as ``<trace-dir>/<question-id>.json``."""
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{question_id}.json"
    path.write_text(json.dumps(trace.to_dict(), indent=2) + "\n", encoding="utf-8")
    return path


def check_parallel(parallel: int) -> None:
    """A batch runs on ``parallel`` workers: fewer than one is a RangeViolation."""
    if parallel < 1:
        raise RangeViolation("parallel", f"must be at least 1, got {parallel}")


@dataclass
class BenchmarkRun:
    report: EvalReport

    @property
    def predictions(self) -> list[dict[str, str]]:  # {"id", "answer"}, in dataset order
        return [{"id": r.id, "answer": r.answer} for r in self.report.per_example]


def run_benchmark(
    dataset: Sequence[QaExample],
    pipeline: Pipeline,
    trace_dir: Optional[str | Path] = None,
    parallel: int = 1,
) -> BenchmarkRun:
    """Run every example through the pipeline and score the answers.

    Errored queries score 0/0 and are counted, never dropped: denominators
    stay fixed. Results are assembled in dataset order regardless of the
    worker schedule, so reports are reproducible under any ``parallel``.
    """
    if not dataset:
        raise DatasetParseError("dataset has no examples")
    check_parallel(parallel)

    def run_one(example: QaExample) -> tuple[ExampleResult, int]:
        try:
            answer, trace = pipeline.run_query(example.question)
        except QueryFailure as exc:
            if trace_dir is not None and exc.trace is not None:
                write_trace(exc.trace, trace_dir, example.id)
            return _score_example(example, None, error=str(exc)), 0
        if trace_dir is not None:
            write_trace(trace, trace_dir, example.id)
        return _score_example(example, answer), sum(1 for hop in trace.hops if hop.fallback)

    with ThreadPoolExecutor(max_workers=parallel) as pool:
        outcomes = list(pool.map(run_one, dataset))

    results = [result for result, _ in outcomes]
    fallbacks = sum(count for _, count in outcomes)
    return BenchmarkRun(_report(results, fallbacks, pipeline.startup_events))


def score_predictions(
    predictions: Sequence[dict[str, str]], dataset: Sequence[QaExample]
) -> EvalReport:
    """Score an existing predictions list against the dataset golds.

    Every prediction id must name an example of the dataset.
    """
    by_id = {p["id"]: p.get("answer", "") for p in predictions}
    known = {ex.id for ex in dataset}
    for prediction_id in by_id:
        if prediction_id not in known:
            raise DatasetParseError(f"prediction id {prediction_id!r} is not in the dataset")
    return _report(
        [_score_example(ex, by_id.get(ex.id), error="missing prediction") for ex in dataset],
        fallback_count=0,
    )


def _score_example(
    example: QaExample, answer: Optional[str], error: Optional[str] = None
) -> ExampleResult:
    """EM/F1 of one answer; no answer (``None``) scores 0/0 and records ``error``."""
    if answer is None:
        return ExampleResult(example.id, "", em=0, f1=0.0, error=error)
    return ExampleResult(
        example.id,
        answer,
        em=exact_match(answer, example.answers),
        f1=token_f1(answer, example.answers),
    )


def _report(results: list[ExampleResult], fallback_count: int, startup_events=()) -> EvalReport:
    """Averages over every example: errored ones stay in the denominator."""
    return EvalReport(
        per_example=results,
        em_avg=sum(r.em for r in results) / len(results),
        f1_avg=sum(r.f1 for r in results) / len(results),
        fallback_count=fallback_count,
        error_count=sum(1 for r in results if r.error is not None),
        startup_events=list(startup_events),
    )
