"""Seeded generator of planted multi-hop QA workloads.

A world is a functional fact graph over typed entities: every (entity,
relation) pair has one tail, so any document that states a fact states the
same fact. Questions follow typed chains of 1 to 3 relations over the default
taxonomy. Each hop's evidence document states the hop's fact and mentions
the question's start entity (the bridge mention), so a lexical encoder can
retrieve every hop's evidence from the question alone. Each evidence document
gets one distractor document, which states the same relation about another
entity of the same type and mentions a different start entity.

``entity_pool`` is the one knob for sharing: with a pool, entities are drawn
from ``entity_pool`` names per type and recur across questions and
documents; with None, every question gets fresh entities.

The pipeline receives only the files written by :func:`write_files`, in the
formats the README documents; the world itself feeds the mock endpoint.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# (l2 label, l1 label) of every entity type the chains use
TYPES = {
    "SoftwareProject": "WORK",
    "Database": "PRODUCT",
    "Company": "ORGANIZATION",
    "City": "LOCATION",
    "Country": "LOCATION",
    "Year": "TIME",
    "Scientist": "PERSON",
    "University": "ORGANIZATION",
    "Book": "WORK",
    "Writer": "PERSON",
}

# relation surface -> (head type, tail type)
RELATIONS = {
    "uses": ("SoftwareProject", "Database"),
    "developed by": ("Database", "Company"),
    "headquartered in": ("Company", "City"),
    "located in": ("City", "Country"),
    "founded in": ("Company", "Year"),
    "employed by": ("Scientist", "University"),
    "based in": ("University", "City"),
    "written by": ("Book", "Writer"),
    "born in": ("Writer", "City"),
}

CHAINS = {
    1: [[r] for r in RELATIONS],
    2: [
        ["uses", "developed by"],
        ["developed by", "headquartered in"],
        ["developed by", "founded in"],
        ["employed by", "based in"],
        ["written by", "born in"],
        ["headquartered in", "located in"],
        ["based in", "located in"],
    ],
    3: [
        ["uses", "developed by", "headquartered in"],
        ["uses", "developed by", "founded in"],
        ["developed by", "headquartered in", "located in"],
        ["employed by", "based in", "located in"],
        ["written by", "born in", "located in"],
    ],
}

_SYLLABLES = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that defines one workload's inputs and pipeline settings."""

    name: str
    questions: int
    hops: tuple[int, ...]
    entity_pool: Optional[int]
    fillers: int  # extra true facts stated in every document
    corpus_docs: int  # pad the corpus with distractor documents up to this size
    k0: int
    hop_scope: str
    pre_extract: bool
    parallel: int
    latency_ms: tuple[tuple[str, float], ...]  # per LLM role
    dim: int  # embedding size of the encoder endpoint


class _Namer:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def word(self) -> str:
        return "".join(self.rng.choices(_SYLLABLES, k=2 + (self.rng.random() < 0.3)))

    def name(self, l2: str) -> str:
        if l2 == "Year":
            return str(self.rng.randint(1900, 2023))
        while True:
            name = f"{self.word().capitalize()} {self.word().capitalize()}"
            if name not in self.used:
                self.used.add(name)
                return name


class World:
    """Typed entities, the functional fact graph, documents and questions."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self.rng = random.Random(f"{spec.name}:{seed}")
        self.namer = _Namer(self.rng)
        self.types: dict[str, tuple[str, str]] = {}
        self.edges: dict[tuple[str, str], str] = {}
        self.pools: dict[str, list[str]] = {}
        if spec.entity_pool is not None:
            self.pools = {l2: [self.entity(l2) for _ in range(spec.entity_pool)] for l2 in TYPES}
        self.docs: list[dict] = []
        self.facts: dict[str, list[tuple[str, str, str]]] = {}
        self.dataset: list[dict] = []
        self.decompositions: dict[str, dict] = {}

    def entity(self, l2: str) -> str:
        """A fresh entity of the type, or a pooled one when the world shares entities."""
        if l2 in self.pools:
            return self.rng.choice(self.pools[l2])
        surface = self.namer.name(l2)
        self.types[surface] = (TYPES[l2], l2)
        return surface

    def tail(self, head: str, relation: str) -> str:
        key = (head, relation)
        if key not in self.edges:
            self.edges[key] = self.entity(RELATIONS[relation][1])
        return self.edges[key]

    def random_fact(self) -> tuple[str, str, str]:
        relation = self.rng.choice(list(RELATIONS))
        head = self.entity(RELATIONS[relation][0])
        return head, relation, self.tail(head, relation)

    def add_doc(self, fact: tuple[str, str, str], bridge: str) -> None:
        facts = [fact] + [self.random_fact() for _ in range(self.spec.fillers)]
        doc_id = f"d{len(self.docs):06d}"
        sentences = [f"{h} {r} {t}." for h, r, t in facts]
        sentences.append(f"See also {bridge}.")
        self.docs.append({"id": doc_id, "title": bridge, "text": " ".join(sentences)})
        self.facts[doc_id] = facts

    def add_question(self, chain: list[str], start: str) -> None:
        qid = f"q{len(self.dataset):05d}"
        head = start
        hops = []
        for relation in chain:
            hops.append((head, relation, self.tail(head, relation)))
            head = hops[-1][2]
        target = RELATIONS[chain[-1]][1]
        question = (
            f"Which {_humanize(target)} is reached from {start} by following "
            + ", then ".join(chain)
            + "?"
        )
        self.dataset.append({"id": qid, "question": question, "answers": [hops[-1][2]]})
        variables = ["?" + RELATIONS[r][1] for r in chain]
        self.decompositions[question] = {
            "sub_queries": [
                {"head": start if i == 0 else variables[i - 1], "relation": r, "tail": variables[i]}
                for i, r in enumerate(chain)
            ],
            "type_hints": {v: _humanize(v[1:]) for v in variables},
        }
        for fact in hops:
            self.add_doc(fact, bridge=start)
            self.add_distractor(fact[1])

    def add_distractor(self, relation: str) -> None:
        """Same relation about another entity, bridged to a start entity no question uses."""
        head = self.entity(RELATIONS[relation][0])
        self.add_doc((head, relation, self.tail(head, relation)), bridge=self.namer.name("Book"))


def _humanize(l2: str) -> str:
    return "".join(" " + c.lower() if c.isupper() else c for c in l2).strip()


def build_world(spec: WorkloadSpec, seed: int) -> World:
    world = World(spec, seed)
    starts: set[tuple[str, ...]] = set()
    attempts = 0
    while len(world.dataset) < spec.questions:
        attempts += 1
        if attempts > 50 * spec.questions:
            raise ValueError(f"{spec.name}: entity pool too small for {spec.questions} questions")
        chain = world.rng.choice(CHAINS[world.rng.choice(spec.hops)])
        start = world.entity(RELATIONS[chain[0]][0])
        key = (start, *chain)
        if key in starts:
            continue
        starts.add(key)
        world.add_question(chain, start)
    while len(world.docs) < spec.corpus_docs:
        world.add_distractor(world.rng.choice(list(RELATIONS)))
    # the pipeline must not learn anything from document order
    order = list(range(len(world.docs)))
    world.rng.shuffle(order)
    world.docs = [world.docs[i] for i in order]
    return world


def mock_world(world: World, labels: list[tuple[str, str]]) -> dict:
    """What the mock endpoint knows: the planted facts, chains and entity types."""
    return {
        "facts": world.facts,
        "decompositions": world.decompositions,
        "types": world.types,
        "labels": labels,
    }


def write_files(world: World, out_dir: Path) -> dict[str, Path]:
    """Write corpus, dataset and gold JSONL; returns their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": out_dir / "corpus.jsonl",
        "dataset": out_dir / "questions.jsonl",
        "gold": out_dir / "gold.jsonl",
    }
    _write_jsonl(paths["corpus"], world.docs)
    _write_jsonl(paths["dataset"], world.dataset)
    _write_jsonl(paths["gold"], [{"id": q["id"], "answer": q["answers"][0]} for q in world.dataset])
    return paths


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


# Why each workload exists is recorded with it in BENCHMARK.json; the README
# maps every per-layer metric to the end-to-end metric and workload it moves.
WORKLOADS = {
    # LLM-bound: query-time extraction, default k0, latency injected per role at
    # about a fiftieth of a hosted endpoint's, which keeps the program's own CPU
    # time a small share of each question; entities recur across questions.
    "remote-chain": WorkloadSpec(
        name="remote-chain", questions=600, hops=(2, 3), entity_pool=60, fillers=1,
        corpus_docs=4000, k0=10, hop_scope="current", pre_extract=False, parallel=2,
        latency_ms=(("type_select", 3.0), ("decompose", 6.0), ("extract", 9.0), ("answer", 9.0)),
        dim=256,
    ),
    # The same, but every question gets fresh entities, so little that one
    # question types or encodes is reused by another: the bypass for sharing
    # work across questions.
    "remote-fresh": WorkloadSpec(
        name="remote-fresh", questions=600, hops=(2, 3), entity_pool=None, fillers=1,
        corpus_docs=4000, k0=10, hop_scope="current", pre_extract=False, parallel=2,
        latency_ms=(("type_select", 3.0), ("decompose", 6.0), ("extract", 9.0), ("answer", 9.0)),
        dim=256,
    ),
    # compute-bound rerank: structuring moved into set-up, a wide pool of
    # triple-dense documents scored against the whole three-hop chain.
    # Runnable by hand but not in BENCHMARK.json: see retrieval-scale.
    "rerank-wide": WorkloadSpec(
        name="rerank-wide", questions=300, hops=(3,), entity_pool=100, fillers=7,
        corpus_docs=0, k0=100, hop_scope="chain", pre_extract=True, parallel=1,
        latency_ms=(), dim=256,
    ),
    # search-bound: a large corpus of short documents, single-hop questions whose
    # entities never recur, small k0. Runnable by hand but not in BENCHMARK.json:
    # on a shared 2-vCPU machine the CPU's speed switches between states that
    # last seconds, so the timings of CPU-bound workloads move too much between
    # runs; the gated workloads spend most of their time waiting on the endpoint.
    "retrieval-scale": WorkloadSpec(
        name="retrieval-scale", questions=1500, hops=(1,), entity_pool=None, fillers=1,
        corpus_docs=50000, k0=5, hop_scope="current", pre_extract=False, parallel=1,
        latency_ms=(), dim=128,
    ),
}
