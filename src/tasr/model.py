"""Core value types: entities, triples, sub-queries, bindings, documents, traces.

Everything here is an immutable value except :class:`BindingTable`, which is
confined to a single query's sequential reasoning loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from tasr.errors import DuplicateBinding, InvalidEntity

if TYPE_CHECKING:
    from tasr.matching import RankedPool

LATENT_PREFIX = "?"


@dataclass(frozen=True)
class Entity:
    """A surface-form entity mention; text is trimmed and non-empty."""

    surface: str

    def __post_init__(self) -> None:
        trimmed = self.surface.strip()
        if not trimmed:
            raise InvalidEntity("entity surface is empty after trimming")
        object.__setattr__(self, "surface", trimmed)


@dataclass(frozen=True)
class TaxonomyLabel:
    """A two-level type assignment (first-level class, second-level class)."""

    l1: str
    l2: str

    def __str__(self) -> str:
        return f"{self.l1}/{self.l2}"


@dataclass(frozen=True)
class Triple:
    """A (head, relation, tail) fact with optional entity types, carried as on a SubQuery."""

    head: Entity
    relation: str
    tail: Entity
    source_doc: Optional[str] = None
    head_type: Optional[TaxonomyLabel] = None
    tail_type: Optional[TaxonomyLabel] = None

    def __post_init__(self) -> None:
        if not self.relation.strip():
            raise InvalidEntity("triple relation is empty")
        object.__setattr__(self, "relation", self.relation.strip())

    def key(self) -> tuple[str, str, str]:
        return (self.head.surface, self.relation, self.tail.surface)


@dataclass(frozen=True)
class Slot:
    """One sub-query slot: either a bound surface string or a latent variable.

    Latent variable names carry the leading ``?``.
    """

    text: str
    latent: bool

    @classmethod
    def bound(cls, surface: str) -> "Slot":
        """A bound slot names an entity: trimmed, and rejected when blank as an Entity is."""
        return cls(Entity(surface).surface, latent=False)

    @classmethod
    def variable(cls, name: str) -> "Slot":
        """A latent slot named by :func:`normalize_variable_name`, which rejects a blank name."""
        return cls(normalize_variable_name(name), latent=True)

    @classmethod
    def parse(cls, raw: str) -> "Slot":
        raw = raw.strip()
        if raw.startswith(LATENT_PREFIX):
            return cls.variable(raw)
        return cls.bound(raw)


def normalize_variable_name(raw: str) -> str:
    """Normalize a latent variable name to ``?CamelCase``.

    ``?database system`` and ``?database_system`` both become
    ``?DatabaseSystem``; an already CamelCase name passes through.
    """
    body = raw.strip().lstrip(LATENT_PREFIX).strip()
    parts = [p for p in body.replace("_", " ").replace("-", " ").split() if p]
    if not parts:
        raise InvalidEntity(f"latent variable name {raw!r} is empty")
    return LATENT_PREFIX + "".join(p[0].upper() + p[1:] for p in parts)


@dataclass(frozen=True)
class SubQuery:
    """One reasoning hop as a triple whose slots may be latent variables."""

    index: int  # 1-based position in the decomposition
    head: Slot
    relation: str
    tail: Slot
    head_type: Optional[TaxonomyLabel] = None
    tail_type: Optional[TaxonomyLabel] = None

    def __post_init__(self) -> None:
        if not self.relation.strip():
            raise InvalidEntity(f"sub-query {self.index} relation is empty")
        object.__setattr__(self, "relation", self.relation.strip())

    def latent_names(self) -> list[str]:
        names = []
        for slot in (self.head, self.tail):
            if slot.latent:
                names.append(slot.text)
        return names

    def render(self) -> str:
        return f"({self.head.text}, {self.relation}, {self.tail.text})"


class BindingTable:
    """Insert-only, ordered map from latent variable names to resolved text."""

    def __init__(self) -> None:
        self._bindings: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._bindings)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def get(self, name: str) -> Optional[str]:
        return self._bindings.get(name)

    def insert(self, name: str, value: str) -> None:
        if name in self._bindings:
            raise DuplicateBinding(f"variable {name} is already bound")
        self._bindings[name] = value

    def as_dict(self) -> dict[str, str]:
        return dict(self._bindings)


@dataclass
class Document:
    """A corpus document, plus its extracted (and typed) triples once populated."""

    id: str
    title: str
    text: str
    triples: list[Triple] = field(default_factory=list)

    def embedding_text(self) -> str:
        return f"{self.title}\n\n{self.text}"


def _label_dict(label: Optional[TaxonomyLabel]) -> Optional[dict[str, str]]:
    if label is None:
        return None
    return {"l1": label.l1, "l2": label.l2}


def subquery_dict(sq: SubQuery) -> dict[str, Any]:
    return {
        "index": sq.index,
        "head": sq.head.text,
        "relation": sq.relation,
        "tail": sq.tail.text,
        "head_latent": sq.head.latent,
        "tail_latent": sq.tail.latent,
        "head_type": _label_dict(sq.head_type),
        "tail_type": _label_dict(sq.tail_type),
    }


@dataclass(frozen=True)
class HopRecord:
    """What one reasoning hop computed; the rest of its trace record is read from it."""

    sub_query: SubQuery
    resolved: SubQuery
    ranked: RankedPool
    answer: str

    @property
    def index(self) -> int:
        return self.sub_query.index

    @property
    def selected(self) -> list[str]:
        return [s.doc_id for s in self.ranked.documents]

    @property
    def fallback(self) -> bool:
        return self.ranked.fallback

    @property
    def document_scores(self) -> list[dict[str, Any]]:
        """Every pool document, ranked: ``{"doc_id", "score", "best_matches"}``."""
        keys = ("query_index", "doc_triple_index", "s_struct", "s_sem", "s_triple")
        return [
            {
                "doc_id": doc.doc_id,
                "score": doc.score,
                "best_matches": [{key: getattr(m, key) for key in keys} for m in doc.best_matches],
            }
            for doc in self.ranked.all_scored
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "sub_query": subquery_dict(self.sub_query),
            "resolved": subquery_dict(self.resolved),
            "document_scores": self.document_scores,
            "selected": self.selected,
            "fallback": self.fallback,
            "answer": self.answer,
        }


@dataclass
class ReasoningTrace:
    """Per-question audit record of the full reasoning run."""

    question: str
    hops: list[HopRecord] = field(default_factory=list)
    final_bindings: dict[str, str] = field(default_factory=dict)
    final_answer: str = ""
    pool_ids: list[str] = field(default_factory=list)
    events: list[str] = field(default_factory=list)  # typing fallbacks, in job order

    def to_dict(self) -> dict[str, Any]:
        # the hops' rerank fallbacks, in hop order, come before the typing fallbacks
        reranks = [f"rerank fallback at hop {hop.index}" for hop in self.hops if hop.fallback]
        return {
            "question": self.question,
            "pool_ids": self.pool_ids,
            "sub_queries": [hop.to_dict() for hop in self.hops],
            "final_bindings": self.final_bindings,
            "final_answer": self.final_answer,
            "events": reranks + self.events,
        }
