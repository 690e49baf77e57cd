"""Turn documents into typed triples and queries into typed sub-query chains.

Extraction and decomposition requests are sent from here alone, and each
returns the parsed reply for :func:`extract_triples` or :func:`decompose_query`
to read. Labels are read from a typer's table; the structurer never types.
"""

from __future__ import annotations

import dataclasses
import re
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, Optional

from tasr.errors import InvalidDecomposition, InvalidEntity, LlmProtocolError, TasrError, json_field
from tasr.llm import Gateway, load_prompt
from tasr.model import (
    Document,
    Entity,
    Slot,
    SubQuery,
    TaxonomyLabel,
    Triple,
    normalize_variable_name,
)
from tasr.taxonomy import TypingJob

EXTRACT_SYSTEM = "You extract relational triples from documents."
DECOMPOSE_SYSTEM = "You decompose questions into ordered relational sub-queries."

MAX_SUBQUERIES = 8


@dataclass
class Decomposition:
    """Ordered sub-queries plus a short type description per latent variable."""

    sub_queries: list[SubQuery]
    type_hints: dict[str, str] = field(default_factory=dict)


def extraction_request(doc: Document, query: Optional[str], gateway: Gateway) -> Callable[[], Any]:
    """A document's extraction request, its prompt built on the calling thread; the call
    sends it and returns the parsed reply, or None for a document with no text.

    When ``query`` is given the prompt includes it (query-time extraction);
    passing None gives the query-agnostic pre-extraction variant.
    """
    if not doc.text.strip():
        return lambda: None
    question_block = ""
    if query:
        question_block = f"\nFocus on facts relevant to this question:\nQuestion: {query}\n"
    prompt = load_prompt("extract").format(
        question_block=question_block,
        doc_id=doc.id,
        title=doc.title,
        text=doc.text,
    )
    return partial(gateway.call, "extract", EXTRACT_SYSTEM, prompt)


def extract_triples(doc: Document, reply: Any) -> list[Triple]:
    """The deduplicated triples of one document, read from the reply its
    :func:`extraction_request` returned (None: no text, no triples)."""
    if reply is None:
        return []
    triples: list[Triple] = []
    seen: set[tuple[str, str, str]] = set()
    for item in json_field(reply, "triples", list, partial(LlmProtocolError, "extract")):
        head, relation, tail = _triple_fields("extract", item)
        triple = Triple(head=Entity(head), relation=relation, tail=Entity(tail), source_doc=doc.id)
        if triple.key() not in seen:
            seen.add(triple.key())
            triples.append(triple)
    return triples


def _triple_fields(role_tag: str, item: object) -> tuple[str, str, str]:
    """Head, relation and tail of one LLM output item; any other shape is a protocol error."""
    error = partial(LlmProtocolError, role_tag)
    return tuple(json_field(item, key, str, error) for key in ("head", "relation", "tail"))


def type_document_triples(
    triples: list[Triple], labels: Mapping[str, TaxonomyLabel]
) -> list[Triple]:
    """Typed copies of the triples: both entities get the label ``labels`` holds for
    their surface, relations are untouched."""
    return [
        dataclasses.replace(
            triple, head_type=labels[triple.head.surface], tail_type=labels[triple.tail.surface]
        )
        for triple in triples
    ]


def request_decomposition(query: str, gateway: Gateway) -> Any:
    """Send a question's decomposition request and return the parsed reply; an empty
    question sends none."""
    if not query.strip():
        raise TasrError("query is empty")
    prompt = load_prompt("decompose").format(question=query)
    return gateway.call("decompose", DECOMPOSE_SYSTEM, prompt)


def decompose_query(reply: Any) -> Decomposition:
    """The ordered chain of sub-queries with latent slots, read from the reply
    :func:`request_decomposition` returned."""
    sub_queries: list[SubQuery] = []
    items = json_field(reply, "sub_queries", list, partial(LlmProtocolError, "decompose"))
    for position, item in enumerate(items, start=1):
        head, relation, tail = _triple_fields("decompose", item)
        sub_queries.append(
            SubQuery(
                index=position,
                head=Slot.parse(head),
                relation=relation,
                tail=Slot.parse(tail),
            )
        )
    validate_chain(sub_queries)

    hints: dict[str, str] = {}
    raw_hints = reply.get("type_hints", {})
    if isinstance(raw_hints, dict):
        for name, description in raw_hints.items():
            if isinstance(description, str):  # any other value is dropped, as a missing hint
                with suppress(InvalidEntity):  # and so is a hint whose name is empty
                    hints[normalize_variable_name(str(name))] = description
    for sq in sub_queries:
        for name in sq.latent_names():
            hints.setdefault(name, _humanize_variable(name))
    return Decomposition(sub_queries=sub_queries, type_hints=hints)


def validate_chain(sub_queries: list[SubQuery]) -> None:
    """Reject chains that cannot be executed left to right.

    Each sub-query may introduce at most one new latent variable: that
    variable is the hop's answer target. A sub-query introducing two new
    variables has no producer ordering that resolves it.
    """
    if not sub_queries:
        raise InvalidDecomposition("decomposition has no sub-queries")
    if len(sub_queries) > MAX_SUBQUERIES:
        raise InvalidDecomposition(
            f"decomposition has {len(sub_queries)} sub-queries (max {MAX_SUBQUERIES})"
        )
    produced: set[str] = set()
    for sq in sub_queries:
        new = [name for name in dict.fromkeys(sq.latent_names()) if name not in produced]
        if len(new) > 1:
            raise InvalidDecomposition(
                f"sub-query {sq.index} introduces {len(new)} unresolved variables: {new}"
            )
        produced.update(new)


def subquery_typing_jobs(dec: Decomposition) -> list[TypingJob]:
    """Head then tail slot of each sub-query, in order, with no context.

    Bound slots are typed from their surface text; latent slots from the
    variable name plus its type hint.
    """
    return [
        (_slot_entity(slot, dec.type_hints), None)
        for sq in dec.sub_queries
        for slot in (sq.head, sq.tail)
    ]


def type_subqueries(dec: Decomposition, labels: Mapping[str, TaxonomyLabel]) -> Decomposition:
    """Assign every slot of every sub-query the label ``labels`` holds for the text
    :func:`subquery_typing_jobs` types it as."""

    def label(slot: Slot) -> TaxonomyLabel:
        return labels[_slot_entity(slot, dec.type_hints).surface]

    typed = [
        dataclasses.replace(sq, head_type=label(sq.head), tail_type=label(sq.tail))
        for sq in dec.sub_queries
    ]
    return Decomposition(sub_queries=typed, type_hints=dict(dec.type_hints))


def variable_description(name: str, hint: Optional[str]) -> str:
    """The text a latent variable is typed from, e.g. ``Database (database product)``."""
    base = name.lstrip("?")
    if hint and hint.strip() and hint.strip().lower() != base.lower():
        return f"{base} ({hint.strip()})"
    return _humanize_variable(name)


def _slot_entity(slot: Slot, hints: dict[str, str]) -> Entity:
    if slot.latent:
        return Entity(variable_description(slot.text, hints.get(slot.text)))
    return Entity(slot.text)


def _humanize_variable(name: str) -> str:
    body = name.lstrip("?")
    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", body)
    return spaced.lower()
