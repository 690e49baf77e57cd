"""Command-line surface: batch runs, scoring, entity typing, match debugging.

Subcommands:

* ``tasr run``         run a QA dataset against a corpus; writes predictions.jsonl + report.json
* ``tasr eval``        score an existing predictions file against gold answers
* ``tasr type-entity`` type one entity string
* ``tasr match``       print the full score decomposition for one sub-query vs document triples

Endpoints come from flags or the ``TASR_LLM_URL`` / ``TASR_LLM_MODEL`` /
``TASR_LLM_API_KEY`` / ``TASR_EMBED_URL`` environment variables; the mock
backends are selected with ``mock:<script-file>`` (LLM) and ``mock:`` (encoder).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Iterator

from tasr.config import HOP_SCOPES, PipelineConfig, load_config
from tasr.embedding import CachingEncoder, encoder_from_url
from tasr.errors import DatasetParseError, TasrError, json_field, read_json
from tasr.evaluation import (
    check_parallel,
    load_corpus,
    load_dataset,
    load_predictions,
    run_benchmark,
    score_predictions,
)
from tasr.llm import Gateway, backend_from_spec
from tasr.matching import filter_and_rank, pair_scores
from tasr.model import Document, Entity, Slot, SubQuery, TaxonomyLabel, Triple
from tasr.reasoner import Pipeline, request_pool
from tasr.taxonomy import (
    EntityTyper,
    TypeEmbeddingIndex,
    load_default_taxonomy,
    load_taxonomy,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tasr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a QA dataset against a corpus")
    run.add_argument("--corpus", required=True, help="corpus JSONL ({id,title,text} per line)")
    run.add_argument("--dataset", required=True, help="QA JSONL ({id,question,answers} per line)")
    run.add_argument("--taxonomy", default=None, help="taxonomy JSON (default: bundled table)")
    run.add_argument("--config", default=None, help="config file (JSON or key=value)")
    run.add_argument("--k0", type=int, default=None)
    run.add_argument("--theta", type=float, default=None)
    run.add_argument("--alpha", type=float, default=None)
    run.add_argument("--gamma", type=float, default=None)
    run.add_argument("--top-t", type=int, default=None, dest="top_t")
    run.add_argument("--hop-scope", choices=HOP_SCOPES, default=None, dest="hop_scope")
    run.add_argument("--llm", default=None, help="chat endpoint URL or mock:<script-file>")
    run.add_argument("--embed", default=None, help="encoder endpoint URL or mock:")
    run.add_argument("--trace-dir", default=None, help="write one trace JSON per question")
    run.add_argument("--parallel", type=int, default=1)
    run.add_argument("--out-dir", default=".", help="where predictions.jsonl and report.json go")
    run.add_argument("--pre-extract", action="store_true",
                     help="extract corpus triples once up front, without query context")

    ev = sub.add_parser("eval", help="score a predictions file against gold answers")
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--out", default="report.json")

    te = sub.add_parser("type-entity", help="type one entity string")
    te.add_argument("--text", required=True)
    te.add_argument("--taxonomy", default=None)
    te.add_argument("--llm", default=None)
    te.add_argument("--embed", default=None)

    mt = sub.add_parser("match", help="score decomposition for a sub-query vs document triples")
    mt.add_argument("--subquery", required=True, help="sub-query JSON file")
    mt.add_argument("--doc-triples", required=True, dest="doc_triples",
                    help="document triples JSON file")
    mt.add_argument("--config", default=None)
    mt.add_argument("--embed", default=None)
    return parser


def _config(path: str | None) -> PipelineConfig:
    return load_config(path) if path else PipelineConfig()


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    return _config(args.config).with_overrides(
        k0=args.k0,
        theta=args.theta,
        alpha=args.alpha,
        gamma=args.gamma,
        top_t=args.top_t,
        hop_scope=args.hop_scope,
    )


def _gateway(flag: str | None) -> Gateway:
    spec = flag or os.environ.get("TASR_LLM_URL", "")
    if not spec:
        raise TasrError("no LLM endpoint: pass --llm or set TASR_LLM_URL")
    model = os.environ.get("TASR_LLM_MODEL", "default")
    api_key = os.environ.get("TASR_LLM_API_KEY", "")
    return Gateway(backend=backend_from_spec(spec, model=model, api_key=api_key))


def _encoder(flag: str | None) -> CachingEncoder:
    spec = flag or os.environ.get("TASR_EMBED_URL", "mock:")
    return CachingEncoder(encoder_from_url(spec))


def _taxonomy(flag: str | None):
    return load_taxonomy(flag) if flag else load_default_taxonomy()


@contextmanager
def _directories(*flagged: tuple[str, str | None]) -> Iterator[None]:
    """Make the missing directories of the (flag, path) pairs for the block. If making one
    fails, or the block does, the directories made here that are still empty are removed."""
    made: list[Path] = []  # innermost first
    try:
        for flag, path in flagged:
            try:
                if path is not None:
                    made[:0] = [p for p in (Path(path), *Path(path).parents) if not p.exists()]
                    Path(path).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                message = f"{flag} {path}: cannot make the directory: {exc.strerror}"
                raise TasrError(message) from exc
        yield
    except BaseException:
        for directory in made:
            with suppress(OSError):  # one that holds a file stays
                directory.rmdir()
        raise


def cmd_run(args: argparse.Namespace) -> int:
    # the dataset, the flags and both directories are checked before set-up sends a request
    cfg = _resolve_config(args)
    dataset = load_dataset(args.dataset)
    check_parallel(args.parallel)
    with _directories(("--out-dir", args.out_dir), ("--trace-dir", args.trace_dir)):
        pipeline = Pipeline(
            documents=load_corpus(args.corpus),
            taxonomy=_taxonomy(args.taxonomy),
            encoder=_encoder(args.embed),
            gateway=_gateway(args.llm),
            cfg=cfg,
            pre_extract=args.pre_extract,
        )
        run = run_benchmark(dataset, pipeline, trace_dir=args.trace_dir, parallel=args.parallel)
        out_dir = Path(args.out_dir)
        predictions_path = out_dir / "predictions.jsonl"
        with predictions_path.open("w", encoding="utf-8") as fh:
            for record in run.predictions:
                fh.write(json.dumps(record) + "\n")
        report_path = out_dir / "report.json"
        report_path.write_text(json.dumps(run.report.to_dict(), indent=2) + "\n", encoding="utf-8")

    print(f"wrote {predictions_path} and {report_path}")
    print(f"em_avg={run.report.em_avg:.4f} f1_avg={run.report.f1_avg:.4f} "
          f"fallbacks={run.report.fallback_count} errors={run.report.error_count}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    report = score_predictions(load_predictions(args.predictions), load_dataset(args.dataset))
    Path(args.out).write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_type_entity(args: argparse.Namespace) -> int:
    taxonomy = _taxonomy(args.taxonomy)
    entity = Entity(args.text)
    label = taxonomy.rule_label(entity)
    if label is None:
        encoder = _encoder(args.embed)
        index, gateway = TypeEmbeddingIndex(taxonomy, encoder), _gateway(args.llm)
        with request_pool() as requests:
            typer = EntityTyper(index, encoder, gateway, _config(None), requests)
            label = typer.type_entity(entity)
    print(json.dumps({"entity": entity.surface, "l1": label.l1, "l2": label.l2}))
    return 0


_field = functools.partial(json_field, error=DatasetParseError)
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def _text(item: Any, key: str) -> str:
    """The string ``item[key]``; one holding a lone surrogate, which a JSON escape can
    give, is rejected here because it cannot be printed."""
    text = _field(item, key, str)
    if _LONE_SURROGATE.search(text):
        raise DatasetParseError(f"{key} holds a lone surrogate: {text!r}")
    return text


def _parse_label(item: dict, key: str) -> TaxonomyLabel:
    """``item[key]`` given as ``["l1", "l2"]`` or ``{"l1": "...", "l2": "..."}``."""
    raw = item.get(key)
    if isinstance(raw, list) and len(raw) == 2:
        raw = dict(zip(("l1", "l2"), raw))
    if not isinstance(raw, dict):
        raise DatasetParseError(f"{key} must be [l1, l2] or {{'l1', 'l2'}} strings, got {raw!r}")
    return TaxonomyLabel(_text(raw, "l1"), _text(raw, "l2"))


def _parse_fields(item: Any) -> tuple[str, str, str, TaxonomyLabel, TaxonomyLabel]:
    """Head, relation, tail, head type and tail type of a sub-query or document triple."""
    head, relation, tail = (_text(item, name) for name in ("head", "relation", "tail"))
    return head, relation, tail, _parse_label(item, "head_type"), _parse_label(item, "tail_type")


def _parse_subquery(data: Any) -> SubQuery:
    head, relation, tail, head_type, tail_type = _parse_fields(data)
    index = _field(data, "index", int) if "index" in data else 1
    return SubQuery(index, Slot.parse(head), relation, Slot.parse(tail), head_type, tail_type)


def _parse_doc_triples(data: Any) -> Document:
    """A one-document pool: the listed triples under ``doc_id``."""
    items = _field(data, "triples", list)
    doc_id = _field(data, "doc_id", str) if "doc_id" in data else "doc"
    triples = []
    for item in items:
        head, relation, tail, head_type, tail_type = _parse_fields(item)
        triples.append(Triple(Entity(head), relation, Entity(tail), doc_id, head_type, tail_type))
    return Document(id=doc_id, title="", text="", triples=triples)


def cmd_match(args: argparse.Namespace) -> int:
    cfg = _config(args.config)
    encoder = _encoder(args.embed)
    sub_query = read_json(args.subquery, DatasetParseError, "sub-query", _parse_subquery)
    doc = read_json(args.doc_triples, DatasetParseError, "doc triples", _parse_doc_triples)
    pairs = [[matches]] = pair_scores([doc], [sub_query], cfg, encoder)  # printed, then ranked

    print(f"sub-query: {sub_query.render()}   "
          f"types: {sub_query.head_type}, {sub_query.tail_type}")
    header = (f"{'doc triple':<60} {'cos_h':>8} {'cos_r':>8} {'cos_t':>8} "
              f"{'St(h)':>6} {'St(t)':>6} {'S_str':>6} {'S_sem':>8} {'S_tri':>8}")
    print(header)
    print("-" * len(header))
    for triple, m in zip(doc.triples, matches):
        (cos_h, cos_r, cos_t), (st_h, st_t) = m.cosines, m.type_pairs
        text = f"({triple.head.surface}, {triple.relation}, {triple.tail.surface})"
        print(f"{text:<60} {cos_h:>8.4f} {cos_r:>8.4f} {cos_t:>8.4f} {st_h:>6.2f} {st_t:>6.2f} "
              f"{m.s_struct:>6.2f} {m.s_sem:>8.4f} {m.s_triple:>8.4f}")
    if matches:
        (scored,) = filter_and_rank([doc], [sub_query], pairs, cfg).all_scored
        print(f"\nbest triple score: {scored.best_matches[0].s_triple:.6f}   "
              f"document score: {scored.score:.6f} (threshold {cfg.theta})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "eval": cmd_eval,
        "type-entity": cmd_type_entity,
        "match": cmd_match,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return status
    except BrokenPipeError:
        # what is left in stdout's buffer goes to devnull, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return 1
    except TasrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
