"""Two-level entity taxonomy and the coarse-to-fine typing pipeline.

Typing an entity takes the cheapest path that fires:

1. rule-based patterns for structured strings (years, dates, percentages,
   money, bare counts), when the taxonomy has the pair the rule gives;
2. :meth:`EntityTyper.select_type`, LLM selection of the first-level class
   and then the (first, second) pair. The config's ``typing_mode`` picks the
   candidates of both stages in that one method: ``retrieval`` offers the
   labels nearest the entity by embedding, ``pure`` offers every label.

An :class:`EntityTyper` serves one question and types against the taxonomy
its :class:`TypeEmbeddingIndex` holds. :meth:`EntityTyper.submit` reads a rule
label, or a selection the pipeline's :class:`LabelMap` holds for the job's
(surface, context), on the asking thread, and starts only the other selections
on an executor the typer is given (the question's request pool).
:meth:`EntityTyper.collect`, called once per question, records fallback events
in job order on the calling thread and returns the labels by surface, each
typed with the context of the surface's first job. The map is shared by every
question of a pipeline, so a pair is sent to the LLM once however many
questions ask for it; this module alone sends ``type_select`` requests. Every
label is the taxonomy's own object for its pair.
"""

from __future__ import annotations

import re
import threading
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Optional

import numpy as np

from tasr.config import PipelineConfig
from tasr.embedding import CachingEncoder, VectorIndex
from tasr.errors import EmptyBranch, LlmProtocolError, TaxonomyParseError
from tasr.errors import json_field, read_json
from tasr.llm import Gateway, load_prompt
from tasr.model import Entity, TaxonomyLabel

TYPE_SELECT_SYSTEM = "You assign entity types from a fixed two-level taxonomy."

TypingJob = tuple[Entity, Optional[str]]  # an entity and the context its prompt shows
Typed = tuple[TaxonomyLabel, tuple[str, ...]]  # a label and the fallback events it took


@dataclass(frozen=True)
class Taxonomy:
    """Ordered first-level classes, each with one or more distinct second-level children."""

    children: Mapping[str, tuple[str, ...]]  # a read-only copy of the caller's mapping
    l1_classes: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", MappingProxyType(dict(self.children)))
        if not self.children:
            raise TaxonomyParseError("taxonomy has no first-level classes")
        labels = {}  # one label object per pair, so every label typed to a pair is that object
        for name, l2s in self.children.items():
            if not l2s:
                raise EmptyBranch(f"first-level class {name!r} has no children")
            strings = isinstance(l2s, tuple) and all(isinstance(l2, str) for l2 in l2s)
            if not strings or len(set(l2s)) < len(l2s):
                raise TaxonomyParseError(f"class {name!r}: l2 must be distinct strings")
            labels.update({(name, l2): TaxonomyLabel(name, l2) for l2 in l2s})
        object.__setattr__(self, "l1_classes", tuple(self.children))
        object.__setattr__(self, "_labels", labels)

    def has_label(self, l1: str, l2: str) -> bool:
        return l2 in self.children.get(l1, ())

    def all_pairs(self) -> list[TaxonomyLabel]:
        return list(self._labels.values())

    def label(self, l1: str, l2: str) -> TaxonomyLabel:
        """The one label object of a pair the taxonomy has."""
        return self._labels[(l1, l2)]

    def rule_label(self, entity: Entity) -> Optional[TaxonomyLabel]:
        """The label object of the pair :func:`rule_type_entity` gives, when this taxonomy
        has that pair; None otherwise, and the entity goes to selection."""
        label = rule_type_entity(entity)
        return None if label is None else self._labels.get((label.l1, label.l2))


def load_taxonomy(source: str | Path) -> Taxonomy:
    """Load a taxonomy file: ``{"l1": [{"name": ..., "l2": [...]}, ...]}``."""
    return read_json(source, TaxonomyParseError, "taxonomy", taxonomy_from_dict)


def taxonomy_from_dict(data: Any) -> Taxonomy:
    """The taxonomy of a JSON value, whose list, unlike a dict, can repeat a class name."""
    children: dict[str, tuple[str, ...]] = {}
    for branch in json_field(data, "l1", list, TaxonomyParseError):
        name = json_field(branch, "name", str, TaxonomyParseError)
        l2 = json_field(branch, "l2", list, TaxonomyParseError)
        if name in children:
            raise TaxonomyParseError(f"duplicate first-level class {name!r}")
        children[name] = tuple(l2)
    return Taxonomy(children)


def load_default_taxonomy() -> Taxonomy:
    """Load the taxonomy bundled with the package."""
    return load_taxonomy(resources.files("tasr") / "data" / "default_taxonomy.json")


# --- rule-based typing -------------------------------------------------------

_MONTHS = (
    "January|February|March|April|May|June|July|August|September|October|"
    "November|December|Jan|Feb|Mar|Apr|Jun|Jul|Aug|Sep|Sept|Oct|Nov|Dec"
)

_YEAR_RE = re.compile(r"^[12][0-9]{3}$")
_ISO_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_MDY_DATE_RE = re.compile(rf"^(?:{_MONTHS})\.? \d{{1,2}},? \d{{4}}$")
_PERCENT_RE = re.compile(r"^[+-]?\d[\d,]*(?:\.\d+)?\s?%$")
_MONEY_RE = re.compile(r"^[$€£¥]\s?\d[\d,]*(?:\.\d+)?(?:\s?(?:thousand|million|billion))?$")
_COUNT_RE = re.compile(r"^\d[\d,]*$")


def rule_type_entity(entity: Entity) -> Optional[TaxonomyLabel]:
    """Type structured strings without any model call; None when nothing fires."""
    text = entity.surface
    if _YEAR_RE.match(text):
        return TaxonomyLabel("TIME", "Year")
    if _ISO_DATE_RE.match(text) or _MDY_DATE_RE.match(text):
        return TaxonomyLabel("TIME", "Date")
    if _PERCENT_RE.match(text):
        return TaxonomyLabel("QUANTITY", "Percentage")
    if _MONEY_RE.match(text):
        return TaxonomyLabel("QUANTITY", "Money")
    if _COUNT_RE.match(text):
        return TaxonomyLabel("QUANTITY", "Count")
    return None


# --- retrieval-first candidate generation ------------------------------------

class TypeEmbeddingIndex:
    """Global L1 label index plus one L2 index per first-level branch, keyed by l2 name.
    ``encoder`` encodes only the label texts: a search scores the vector its caller gives."""

    def __init__(self, taxonomy: Taxonomy, encoder: CachingEncoder) -> None:
        self.taxonomy = taxonomy
        self.l1_index = VectorIndex.encode(taxonomy.l1_classes, taxonomy.l1_classes, encoder)
        self.l2_indexes: dict[str, VectorIndex] = {}
        for l1, l2s in taxonomy.children.items():
            self.l2_indexes[l1] = VectorIndex.encode(l2s, [f"{l1}/{l2}" for l2 in l2s], encoder)

    def top_l1(self, vector: np.ndarray, n: int) -> list[tuple[str, float]]:
        """The ``n`` first-level labels nearest ``vector``."""
        return self.l1_index.search(vector, n)

    def top_l2(self, l1: str, vector: np.ndarray, m: int) -> list[tuple[str, str, float]]:
        """The ``m`` pairs of branch ``l1`` nearest ``vector``, as (l1, l2, score)."""
        return [(l1, l2, score) for l2, score in self.l2_indexes[l1].search(vector, m)]


class LabelMap:
    """Selected labels and their fallback events by (surface, context), for one pipeline.

    Lookups are single-flight: the first thread to ask for a key types it and
    later askers wait for that thread, so each key reaches the LLM once
    however many questions race for it. An owner never waits on another key,
    so waiting cannot deadlock. A failure is not stored: the owner's error
    goes to its own question, and a waiter asks again on its own thread.
    Entries that took no fallback share one ``(label, ())`` object per label,
    and keys share one string per surface.
    """

    def __init__(self) -> None:
        self._typed: dict[tuple[str, Optional[str]], Typed] = {}
        self._plain: dict[TaxonomyLabel, Typed] = {}  # the shared event-free entries
        self._surfaces: dict[str, str] = {}  # the shared string of each surface
        self._in_flight: dict[tuple[str, Optional[str]], threading.Event] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._typed)

    def held(self, key: tuple[str, Optional[str]]) -> Optional[Typed]:
        """The entry for ``key`` if the map holds it; None otherwise, without waiting."""
        with self._lock:
            return self._typed.get(key)

    def get(self, key: tuple[str, Optional[str]], type_new: Callable[[], Typed]) -> Typed:
        """The entry for ``key``, from ``type_new`` on this thread if no one holds it."""
        while True:
            with self._lock:
                if key in self._typed:
                    return self._typed[key]
                owner_done = self._in_flight.get(key)
                if owner_done is None:
                    owner_done = self._in_flight[key] = threading.Event()
                    break
            owner_done.wait()
        typed = None
        try:
            typed = type_new()
        finally:
            with self._lock:
                if typed is not None:
                    if not typed[1]:
                        typed = self._plain.setdefault(typed[0], typed)
                    # one string per surface; interned strings are never freed on Python 3.12
                    self._typed[(self._surfaces.setdefault(key[0], key[0]), key[1])] = typed
                del self._in_flight[key]
            owner_done.set()
        return typed


# --- LLM selection ------------------------------------------------------------

class EntityTyper:
    """Coarse-to-fine entity typing for one question, with fallback accounting.

    Callers submit a question's jobs and collect them once. Each surface
    submitted before a collect gets one label from ``index.taxonomy``, typed with
    the context of its first job. A rule label, or a selection ``labels`` (the
    pipeline's :class:`LabelMap`; a new, empty one by default) already holds, is
    read on the submitting thread; only the other selections become jobs, on
    ``requests``, an executor the typer neither starts nor stops, whose owner
    cancels the jobs not yet started when the question fails.

    ``events`` records every fallback a selection took (LLM protocol failure or
    out-of-vocabulary label), replayed when it is read from the map; only the
    thread that calls :meth:`collect` writes it. Retrieval mode searches ``index`` with
    each surface's vector, encoded once through ``encoder`` (the question's memo).
    """

    def __init__(
        self,
        index: TypeEmbeddingIndex,
        encoder: CachingEncoder,
        gateway: Gateway,
        cfg: PipelineConfig,
        requests: Executor,
        labels: Optional[LabelMap] = None,
    ) -> None:
        self.taxonomy = index.taxonomy
        self.index = index
        self.encoder = encoder
        self.gateway = gateway
        self.cfg = cfg
        self.requests = requests
        self.labels = LabelMap() if labels is None else labels
        self.events: list[str] = []
        self._pending: dict[str, Typed | Future[Typed]] = {}  # submitted, not yet collected

    def submit(self, jobs: Iterable[TypingJob]) -> None:
        """Start typing every surface of ``jobs`` not yet submitted since the last collect,
        with the context of its first job; only selections the map lacks go to ``requests``."""
        for entity, context in jobs:
            if entity.surface in self._pending:
                continue
            key = (entity.surface, context or None)  # an empty context shows the same prompt
            label = self.taxonomy.rule_label(entity)
            held = (label, ()) if label is not None else self.labels.held(key)
            self._pending[entity.surface] = held or self.requests.submit(
                self.labels.get, key, partial(self.select_type, entity, context)
            )

    def collect(self) -> Mapping[str, TaxonomyLabel]:
        """Wait for the jobs submitted since the last collect; their labels by surface.

        Labels and fallback events are recorded in job order, so the outcome does
        not depend on thread timing. When jobs fail, the first failing job in job
        order raises.
        """
        typed = [job if isinstance(job, tuple) else job.result() for job in self._pending.values()]
        labels = {surface: label for surface, (label, _) in zip(self._pending, typed)}
        self.events.extend(event for _, events in typed for event in events)
        self._pending = {}
        return labels

    def type_entity(self, entity: Entity, context: Optional[str] = None) -> TaxonomyLabel:
        """The label of one entity; earlier submits are collected with it."""
        self.submit([(entity, context)])
        return self.collect()[entity.surface]

    def select_type(self, entity: Entity, context: Optional[str] = None) -> Typed:
        """Two-stage selection: keep first-level labels, then pick the final pair.

        Returns the label and the fallback events the selection took.
        """
        # stage-1 candidates, how many to keep, and the stage-2 (l1, l2, score) under a kept l1
        if self.cfg.typing_mode == "pure":
            l1_candidates, keep = list(self.taxonomy.l1_classes), 1
            offer = lambda l1: [(l1, l2, 0.0) for l2 in self.taxonomy.children[l1]]
        else:
            vector = self.encoder.encode_one(entity.surface)
            hits = self.index.top_l1(vector, self.cfg.n_l1_candidates)
            l1_candidates, keep = [l1 for l1, _ in hits], self.cfg.l1_keep
            offer = lambda l1: self.index.top_l2(l1, vector, self.cfg.m_l2_candidates)
        events: list[str] = []
        context_block = f"\nContext: {context}" if context else ""
        prompt = load_prompt("type_select_l1").format(
            keep=keep,
            candidates=", ".join(l1_candidates),
            entity=entity.surface,
            context_block=context_block,
        )
        kept = self._ask(
            entity, 1, prompt, "\n\nOnly use labels from the candidate list.", events,
            lambda parsed: self._known_l1(parsed)[:keep],
        ) or l1_candidates[:keep]
        union = [candidate for l1 in kept for candidate in offer(l1)]
        offered = {(l1, l2) for l1, l2, _ in union}
        prompt = load_prompt("type_select_l2").format(
            candidates=", ".join(f"{l1}/{l2}" for l1, l2, _ in union),
            entity=entity.surface,
            context_block=context_block,
        )
        pair = self._ask(
            entity, 2, prompt, "\n\nOnly use a candidate pair from the list.", events,
            lambda parsed: _offered_pair(parsed, offered),
        ) or max(union, key=lambda item: item[2])[:2]
        return self.taxonomy.label(*pair), tuple(events)

    def _ask(
        self, entity: Entity, stage: int, prompt: str, hint: str, events: list[str], pick: Callable
    ) -> Any:
        """``pick`` of the reply, asking once more with ``hint`` if empty; None on fallback."""
        for attempt in range(2):
            try:
                parsed = self.gateway.call("type_select", TYPE_SELECT_SYSTEM, prompt)
            except LlmProtocolError:
                break
            picked = pick(parsed)
            if picked:
                return picked
            if attempt == 0:
                prompt += hint
        events.append(f"type_select fallback (stage {stage}) for entity {entity.surface!r}")
        return None

    def _known_l1(self, parsed: Any) -> list[str]:
        """First-level labels of a stage-1 reply that the taxonomy has, deduplicated in order."""
        labels = parsed.get("labels") if isinstance(parsed, dict) else None
        if not isinstance(labels, list):
            return []
        known = [l for l in labels if isinstance(l, str) and l in self.taxonomy.children]
        return list(dict.fromkeys(known))


def _offered_pair(parsed: Any, offered: set[tuple[str, str]]) -> Optional[tuple[str, str]]:
    """The (l1, l2) of a stage-2 reply when it is one of the offered pairs."""
    if isinstance(parsed, dict):
        pair = (parsed.get("l1"), parsed.get("l2"))
        if all(isinstance(part, str) for part in pair) and pair in offered:
            return pair
