"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each criterion pins its tolerances explicitly. The whole suite runs
offline against the deterministic mock backends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tasr.cli import main
from tasr.config import PipelineConfig, validate_config
from tasr.embedding import CachingEncoder, HashEncoderClient, VectorIndex, normalize
from tasr.errors import AmbiguousBinding
from tasr.llm import Gateway, load_script, scripted_mock
from tasr.matching import aggregate_document_score, pair_scores
from tasr.metrics import exact_match, token_f1
from tasr.model import BindingTable, Document, Entity, Slot, SubQuery, TaxonomyLabel
from tasr.reasoner import Pipeline, bind, resolve
from tasr.taxonomy import EntityTyper, TypeEmbeddingIndex

from conftest import DATA, EchoSelectBackend, FIXTURES, PresetEncoderClient, rerank
from instances import random_instance
from reference_scoring import brute_force_rank

RUNNING_QUESTION = (
    "Which company originally developed the database that the Science Activity Planner uses?"
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL - {title}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS - {title}")


def test_criterion_1_golden_end_to_end_trace(toy_corpus, taxonomy):
    with criterion(1, "golden end-to-end trace on the toy corpus"):
        start = time.perf_counter()
        pipeline = Pipeline(
            documents=toy_corpus,
            taxonomy=taxonomy,
            encoder=CachingEncoder(HashEncoderClient()),
            gateway=Gateway(backend=load_script(FIXTURES / "llm_script.json")),
            cfg=validate_config(PipelineConfig()),
        )
        answer, trace = pipeline.run_query(RUNNING_QUESTION)
        elapsed = time.perf_counter() - start

        hop1, hop2 = trace.hops
        assert hop1.selected == ["doc1"], hop1.selected
        doc3 = next(r for r in hop1.document_scores if r["doc_id"] == "doc3")
        assert doc3["score"] < pipeline.cfg.theta
        assert trace.final_bindings["?Database"] == "MySQL database"
        assert hop2.selected == ["doc6"], hop2.selected
        assert trace.final_bindings["?Company"] == "MySQL AB"
        assert answer == "MySQL AB"
        assert not hop1.fallback and not hop2.fallback
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_matching_oracle_equivalence(hash_encoder):
    with criterion(2, "filter_and_rank equals brute-force scoring on 200 instances"):
        start = time.perf_counter()
        for seed in range(200):
            docs, sub_queries, cfg, force = random_instance(seed)
            ranked = rerank(docs, sub_queries, cfg, hash_encoder, force_index=force)
            kept, all_ranked, fallback = brute_force_rank(
                docs, sub_queries, cfg, hash_encoder, force_index=force
            )
            assert ranked.fallback == fallback
            assert [d.doc_id for d in ranked.documents] == [doc_id for doc_id, _ in kept]
            assert [d.doc_id for d in ranked.all_scored] == [doc_id for doc_id, _ in all_ranked]
            for scored, (_, expected) in zip(ranked.all_scored, all_ranked):
                assert abs(scored.score - expected) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_3_score_arithmetic_fixtures(default_cfg):
    with criterion(3, "hand-derived score fixtures hold within 1e-12"):
        from tasr.matching import score_type_pair
        from tasr.model import Triple

        work_sw = TaxonomyLabel("WORK", "SoftwareProject")
        work_ds = TaxonomyLabel("WORK", "Dataset")
        person = TaxonomyLabel("PERSON", "Scientist")
        product_db = TaxonomyLabel("PRODUCT", "Database")
        product_cs = TaxonomyLabel("PRODUCT", "CloudService")

        def typed(head_type, tail_type, head="A", relation="r", tail="C"):
            return Triple(Entity(head), relation, Entity(tail), "d", head_type, tail_type)

        sq = SubQuery(1, Slot.bound("A"), "r", Slot.bound("B"), work_sw, product_db)

        def pair(triple, encoder):
            # the pair-score step over a one-document pool: one sub-query, one triple
            doc = Document(id="d", title="", text="", triples=[triple])
            [[[match]]] = pair_scores([doc], [sq], default_cfg, encoder)
            return match

        # S_type partial match
        assert abs(score_type_pair(work_sw, work_ds, default_cfg) - 0.5) <= 1e-12

        # S_struct mixed-slot cases
        e = np.eye(4)
        encoder = CachingEncoder(
            PresetEncoderClient(
                {"S: A": list(e[0]), "P: r": list(e[1]), "O: B": list(e[2]), "O: C": list(e[3])}
            )
        )
        full_zero = typed(work_sw, person)
        assert abs(pair(full_zero, encoder).s_struct - 0.5) <= 1e-12
        l1_l1 = typed(work_ds, product_cs)
        assert abs(pair(l1_l1, encoder).s_struct - 0.5) <= 1e-12

        # S_sem with component cosines (1, 1, 0)
        raw = typed(work_sw, product_db)
        assert abs(pair(raw, encoder).s_sem - 0.6) <= 1e-12

        # S_triple from struct 0.5 and sem 0.8 at alpha 0.5
        half = [0.0, 0.0, 0.5, float(np.sqrt(0.75))]
        encoder2 = CachingEncoder(
            PresetEncoderClient(
                {"S: A": list(e[0]), "P: r": list(e[1]), "O: B": list(e[2]), "O: C": half}
            )
        )
        triple2 = typed(work_sw, person)
        match = pair(triple2, encoder2)
        assert abs(match.s_struct - 0.5) <= 1e-12
        assert abs(match.s_sem - 0.8) <= 1e-12
        assert abs(match.s_triple - 0.65) <= 1e-12

        # document aggregation mixture
        cfg_t2 = default_cfg.with_overrides(top_t=2)
        assert abs(aggregate_document_score([0.9, 0.5, 0.1], cfg_t2) - 0.80) <= 1e-12


def _rank_with_scores(docs, sub_queries, cfg, encoder, score_fn):
    """Independent single-signal ranking used by the ablation criterion."""
    scored = []
    for doc in docs:
        bests = []
        for sq in sub_queries:
            best = None
            for triple in doc.triples:
                s = score_fn(sq, triple)
                if best is None or s > best:
                    best = s
            bests.append(0.0 if best is None else best)
        t = min(cfg.top_t, len(bests))
        order = sorted(range(len(bests)), key=lambda i: (-bests[i], i))
        mean_part = sum(bests[i] for i in order[:t]) / t
        scored.append((doc.id, cfg.gamma * max(bests) + (1 - cfg.gamma) * mean_part))
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored


def test_criterion_4_ablation_reductions(hash_encoder):
    with criterion(4, "alpha=1 is structural-only, alpha=0 is semantic-only (50 instances)"):
        for seed in range(50):
            docs, sub_queries, cfg, _ = random_instance(seed)

            def structural(sq, triple, cfg=cfg):
                s_head = cfg.w1 * (sq.head_type.l1 == triple.head_type.l1) + cfg.w2 * (
                    sq.head_type.l2 == triple.head_type.l2
                )
                s_tail = cfg.w1 * (sq.tail_type.l1 == triple.tail_type.l1) + cfg.w2 * (
                    sq.tail_type.l2 == triple.tail_type.l2
                )
                return cfg.wh * s_head + cfg.wt * s_tail

            def semantic(sq, triple, cfg=cfg):
                cos = lambda a, b: float(
                    hash_encoder.encode_one(a) @ hash_encoder.encode_one(b)
                )
                return (
                    cfg.lh * cos("S: " + sq.head.text, "S: " + triple.head.surface)
                    + cfg.lr * cos("P: " + sq.relation, "P: " + triple.relation)
                    + cfg.lt * cos("O: " + sq.tail.text, "O: " + triple.tail.surface)
                )

            for alpha, score_fn in ((1.0, structural), (0.0, semantic)):
                cfg_abl = cfg.with_overrides(alpha=alpha)
                ranked = rerank(docs, sub_queries, cfg_abl, hash_encoder)
                expected = _rank_with_scores(docs, sub_queries, cfg_abl, hash_encoder, score_fn)
                assert [d.doc_id for d in ranked.all_scored] == [i for i, _ in expected]
                for scored, (_, value) in zip(ranked.all_scored, expected):
                    assert abs(scored.score - value) <= 1e-9


def test_criterion_5_threshold_monotonicity(hash_encoder):
    with criterion(5, "retained sets shrink as theta grows; fallback iff empty (50 instances)"):
        thetas = [round(0.1 * i, 1) for i in range(10)]
        for seed in range(50):
            docs, sub_queries, base_cfg, force = random_instance(seed)
            previous = None
            for theta in thetas:
                cfg = base_cfg.with_overrides(theta=theta)
                ranked = rerank(docs, sub_queries, cfg, hash_encoder, force_index=force)
                above = {s.doc_id for s in ranked.all_scored if s.score >= theta}
                assert ranked.fallback == (len(above) == 0)
                if not ranked.fallback:
                    kept = {s.doc_id for s in ranked.documents}
                    assert kept == above
                    if previous is not None:
                        assert kept <= previous
                    previous = kept
                else:
                    assert len(ranked.documents) == 1
                    previous = set() if previous is None else previous


def test_criterion_6_binding_state_machine():
    with criterion(6, "binding table state machine over 1000 randomized chains"):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            table = BindingTable()
            produced: list[str] = []
            n = int(rng.integers(1, 6))
            for i in range(1, n + 1):
                consume = bool(produced) and rng.random() < 0.5
                head = (
                    Slot.variable(str(rng.choice(produced)))
                    if consume
                    else Slot.bound(f"entity {i}")
                )
                introduce = rng.random() < 0.8
                tail = Slot.variable(f"?V{i}") if introduce else Slot.bound(f"tail {i}")
                sq = SubQuery(i, head, "r", tail)

                assert resolve(sq, BindingTable()) == sq  # empty table: identity

                before = len(table)
                resolved = resolve(sq, table)
                for slot in (resolved.head, resolved.tail):
                    if slot.latent:
                        assert slot.text not in table  # substitution soundness
                bind(resolved, f"answer {i}", table)
                assert len(table) - before in (0, 1)  # monotone growth
                if introduce:
                    produced.append(f"?V{i}")

        # two still-latent variables after resolution must surface, not guess
        double = SubQuery(1, Slot.variable("?A"), "r", Slot.variable("?B"))
        with pytest.raises(AmbiguousBinding):
            bind(resolve(double, BindingTable()), "answer", BindingTable())


def test_criterion_7_vector_index_exactness():
    with criterion(7, "top-k search equals exhaustive argsort on 100 random indexes"):
        rng = np.random.default_rng(1234)
        for trial in range(100):
            n = int(rng.integers(1, 1001))
            dim = int(rng.integers(4, 65))
            matrix = rng.standard_normal((n, dim))
            matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
            keys = [f"k{i:04d}" for i in range(n)]
            index = VectorIndex(keys, matrix)
            query = normalize(rng.standard_normal(dim))
            k = int(rng.integers(1, n + 1))

            hits = index.search(query, k)
            scores = matrix @ query
            expected = sorted(zip(keys, scores), key=lambda p: (-p[1], p[0]))[:k]
            assert [key for key, _ in hits] == [key for key, _ in expected]

            for key, score in hits:
                vec = matrix[keys.index(key)]
                assert abs(float(np.linalg.norm(vec)) - 1.0) <= 1e-6
                cosine = float(vec @ query) / (
                    float(np.linalg.norm(vec)) * float(np.linalg.norm(query))
                )
                assert abs(score - cosine) <= 1e-9


def test_criterion_8_typing_pipeline(taxonomy, default_cfg, request_pool):
    with criterion(8, "rule fast path, taxonomy-valid labels, one retry then fallback"):
        encoder = CachingEncoder(HashEncoderClient())
        index = TypeEmbeddingIndex(taxonomy, encoder)

        # rule-typed entities never reach the gateway
        backend = EchoSelectBackend()
        typer = EntityTyper(index, encoder, Gateway(backend=backend), default_cfg, request_pool)
        assert typer.type_entity(Entity("1998")) == TaxonomyLabel("TIME", "Year")
        assert typer.type_entity(Entity("37.5%")) == TaxonomyLabel("QUANTITY", "Percentage")
        assert backend.calls == []

        # 500 randomized entities: every label is a valid parent-child pair
        rng = np.random.default_rng(5)
        for i in range(500):
            text = f"random entity {rng.integers(10_000_000)}"
            label = typer.type_entity(Entity(text))
            assert taxonomy.has_label(label.l1, label.l2), label

        # an out-of-vocabulary label triggers exactly one retry, then fallback
        oov_backend = scripted_mock(
            [
                ("type_select", "First-level types", {"labels": ["WORK", "PRODUCT", "CONCEPT"]}),
                ("type_select", "Final two-level type", {"l1": "WORK", "l2": "Poem"}),
            ]
        )
        oov_typer = EntityTyper(
            index, encoder, Gateway(backend=oov_backend), default_cfg, request_pool
        )
        label = oov_typer.type_entity(Entity("Beowulf"))
        stage2 = [c for c in oov_backend.calls if "Final two-level type" in c.user_prompt]
        assert len(stage2) == 2
        union = []
        for l1 in ["WORK", "PRODUCT", "CONCEPT"]:
            union.extend(
                index.top_l2(l1, encoder.encode_one("Beowulf"), default_cfg.m_l2_candidates)
            )
        top = max(union, key=lambda item: item[2])
        assert label == TaxonomyLabel(top[0], top[1])


def test_criterion_9_metrics_golden_file():
    with criterion(9, "EM/F1 match the 50-case golden file; em=1 implies f1=1"):
        cases = [
            json.loads(line)
            for line in (DATA / "metrics_golden.jsonl").read_text().splitlines()
            if line.strip()
        ]
        assert len(cases) == 50
        assert {"pred": "MySQL", "golds": ["MySQL AB"]} == {
            k: cases[0][k] for k in ("pred", "golds")
        }
        for case in cases:
            assert exact_match(case["pred"], case["golds"]) == case["em"], case
            assert abs(token_f1(case["pred"], case["golds"]) - case["f1"]) <= 1e-12, case
            if case["em"] == 1:
                assert case["f1"] == 1.0, case
        assert any(abs(c["f1"] - 2 / 3) <= 1e-12 for c in cases)


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "two identical runs produce byte-identical outputs"):
        args = lambda out: [
            "run",
            "--corpus", str(FIXTURES / "corpus.jsonl"),
            "--dataset", str(FIXTURES / "questions.jsonl"),
            "--llm", f"mock:{FIXTURES / 'llm_script.json'}",
            "--embed", "mock:",
            "--out-dir", str(out),
        ]
        first, second = tmp_path / "run1", tmp_path / "run2"
        assert main(args(first)) == 0
        assert main(args(second)) == 0
        predictions = (first / "predictions.jsonl").read_bytes()
        assert predictions == (second / "predictions.jsonl").read_bytes()
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
        report = json.loads((first / "report.json").read_text())
        assert report["error_count"] == 0
