import numpy as np
import pytest

from tasr.config import PipelineConfig, validate_config
from tasr.embedding import CachingEncoder
from tasr.errors import EmptyPool
from tasr.matching import (
    aggregate_document_score,
    filter_and_rank,
    pair_scores,
    score_type_pair,
)
from tasr.model import Document, Entity, Slot, SubQuery, TaxonomyLabel, Triple

from conftest import PresetEncoderClient, rerank
from instances import random_instance
from reference_scoring import brute_force_rank

WORK_SW = TaxonomyLabel("WORK", "SoftwareProject")
WORK_DS = TaxonomyLabel("WORK", "Dataset")
PERSON_SCI = TaxonomyLabel("PERSON", "Scientist")
PRODUCT_DB = TaxonomyLabel("PRODUCT", "Database")
ORG_COMPANY = TaxonomyLabel("ORGANIZATION", "Company")
ORG_UNI = TaxonomyLabel("ORGANIZATION", "University")


def _cfg(**kwargs):
    return validate_config(PipelineConfig(**kwargs))


def _typed(head_type, tail_type, head="h", relation="r", tail="t", doc="d1"):
    return Triple(Entity(head), relation, Entity(tail), doc, head_type, tail_type)


def _sq(head="h", relation="r", tail="t", head_type=WORK_SW, tail_type=PRODUCT_DB, index=1):
    return SubQuery(
        index=index,
        head=Slot.parse(head),
        relation=relation,
        tail=Slot.parse(tail),
        head_type=head_type,
        tail_type=tail_type,
    )


def _pairs(sq, triples, cfg, encoder):
    """Each triple's match against ``sq``, from the pair-score step over a one-document pool."""
    [[matches]] = pair_scores([Document(id="d1", title="", text="x", triples=list(triples))],
                              [sq], cfg, encoder)
    return matches


def _pair(sq, triple, cfg, encoder):
    (match,) = _pairs(sq, [triple], cfg, encoder)
    return match


class TestScoreTypePair:
    def test_full_match(self, default_cfg):
        assert score_type_pair(WORK_SW, WORK_SW, default_cfg) == 1.0

    def test_l1_only_match(self, default_cfg):
        assert score_type_pair(WORK_SW, WORK_DS, default_cfg) == 0.5

    def test_zero_match(self, default_cfg):
        assert score_type_pair(WORK_SW, PERSON_SCI, default_cfg) == 0.0

    def test_asymmetric_weights(self):
        cfg = _cfg(w1=0.8, w2=0.2)
        assert score_type_pair(WORK_SW, WORK_DS, cfg) == pytest.approx(0.8, abs=1e-12)


class TestScoreStructural:
    def test_both_slots_full_match(self, default_cfg, hash_encoder):
        typed = _typed(WORK_SW, PRODUCT_DB)
        assert _pair(_sq(), typed, default_cfg, hash_encoder).s_struct == 1.0

    def test_head_full_tail_zero(self, default_cfg, hash_encoder):
        typed = _typed(WORK_SW, PERSON_SCI)
        assert _pair(_sq(), typed, default_cfg, hash_encoder).s_struct == pytest.approx(
            0.5, abs=1e-12
        )

    def test_both_slots_l1_only(self, default_cfg, hash_encoder):
        typed = _typed(WORK_DS, TaxonomyLabel("PRODUCT", "CloudService"))
        assert _pair(_sq(), typed, default_cfg, hash_encoder).s_struct == pytest.approx(
            0.5, abs=1e-12
        )

    def test_relation_plays_no_role(self, default_cfg, hash_encoder):
        typed_a = _typed(WORK_SW, PRODUCT_DB, relation="uses")
        typed_b = _typed(WORK_SW, PRODUCT_DB, relation="completely_different")
        sq = _sq(relation="uses")
        match_a, match_b = _pairs(sq, [typed_a, typed_b], default_cfg, hash_encoder)
        assert match_a.s_struct == match_b.s_struct

    def test_untyped_subquery_rejected(self, default_cfg, hash_encoder):
        # either side untyped: a sub-query without labels, or a document triple without them
        typed = _typed(WORK_SW, PRODUCT_DB)
        bare_sq = SubQuery(1, Slot.bound("h"), "r", Slot.bound("t"))
        bare_triple = Triple(Entity("h"), "r", Entity("t"), "d1")
        for sq, triple in ((bare_sq, typed), (_sq(), bare_triple)):
            with pytest.raises(ValueError):
                _pair(sq, triple, default_cfg, hash_encoder)


def _component_encoder(cos_tail: float) -> CachingEncoder:
    """Encoder pinning cosines to (1, 1, cos_tail) for the fixture pair."""
    e1 = [1.0, 0.0, 0.0, 0.0]
    e2 = [0.0, 1.0, 0.0, 0.0]
    e3 = [0.0, 0.0, 1.0, 0.0]
    tail_doc = [0.0, 0.0, cos_tail, float(np.sqrt(1.0 - cos_tail**2))]
    return CachingEncoder(
        PresetEncoderClient(
            {"S: A": e1, "P: r": e2, "O: B": e3, "O: C": tail_doc},
            dim=4,
        )
    )


class TestScoreSemantic:
    def test_identical_triples_score_one(self, default_cfg, hash_encoder):
        raw = _typed(WORK_SW, PRODUCT_DB, head="A", relation="r", tail="B")
        sq = _sq(head="A", relation="r", tail="B")
        assert _pair(sq, raw, default_cfg, hash_encoder).s_sem == pytest.approx(1.0, abs=1e-9)

    def test_component_cosines_one_one_zero(self, default_cfg):
        encoder = _component_encoder(0.0)
        raw = _typed(WORK_SW, PRODUCT_DB, head="A", relation="r", tail="C")
        sq = _sq(head="A", relation="r", tail="B")
        assert _pair(sq, raw, default_cfg, encoder).s_sem == pytest.approx(0.6, abs=1e-12)

    def test_matches_recomputation_from_raw_cosines(self, default_cfg, hash_encoder):
        rng = np.random.default_rng(3)
        for _ in range(20):
            head, tail = f"h{rng.integers(100)}", f"t{rng.integers(100)}"
            raw = _typed(WORK_SW, PRODUCT_DB, head=head, tail=tail)
            sq = _sq(head=f"qh{rng.integers(100)}", tail=f"qt{rng.integers(100)}")
            got = _pair(sq, raw, default_cfg, hash_encoder).s_sem
            cos = lambda a, b: float(
                hash_encoder.encode_one(a) @ hash_encoder.encode_one(b)
            )
            expected = (
                0.3 * cos("S: " + sq.head.text, "S: " + raw.head.surface)
                + 0.3 * cos("P: " + sq.relation, "P: " + raw.relation)
                + 0.4 * cos("O: " + sq.tail.text, "O: " + raw.tail.surface)
            )
            assert got == pytest.approx(expected, abs=1e-12)


class TestScoreTriple:
    def test_both_ceilings(self, default_cfg, hash_encoder):
        triple = _typed(WORK_SW, PRODUCT_DB, head="A", relation="r", tail="B")
        sq = _sq(head="A", relation="r", tail="B")
        match = _pair(sq, triple, default_cfg, hash_encoder)
        assert match.s_triple == pytest.approx(1.0, abs=1e-9)

    def test_half_struct_point_eight_sem(self):
        # struct: head full match, tail zero -> 0.5; sem: cosines (1, 1, 0.5) -> 0.8
        cfg = _cfg()
        encoder = _component_encoder(0.5)
        triple = _typed(WORK_SW, PERSON_SCI, head="A", relation="r", tail="C")
        sq = _sq(head="A", relation="r", tail="B")
        match = _pair(sq, triple, cfg, encoder)
        assert match.s_struct == pytest.approx(0.5, abs=1e-12)
        assert match.s_sem == pytest.approx(0.8, abs=1e-12)
        assert match.s_triple == pytest.approx(0.65, abs=1e-12)

    def test_alpha_one_is_structural_only(self, hash_encoder):
        cfg = _cfg(alpha=1.0)
        triple = _typed(WORK_SW, PRODUCT_DB, head="x", tail="y")
        match = _pair(_sq(), triple, cfg, hash_encoder)
        assert match.s_triple == match.s_struct

    def test_alpha_zero_is_semantic_only(self, hash_encoder):
        cfg = _cfg(alpha=0.0)
        triple = _typed(WORK_SW, PRODUCT_DB, head="x", tail="y")
        match = _pair(_sq(), triple, cfg, hash_encoder)
        assert match.s_triple == match.s_sem

    def test_mix_invariant_on_random_instances(self, hash_encoder):
        for seed in range(10):
            docs, sub_queries, cfg, _ = random_instance(seed)
            [by_doc] = pair_scores(docs, sub_queries[:1], cfg, hash_encoder)
            for matches in by_doc:
                for match in matches:
                    expected = cfg.alpha * match.s_struct + (1 - cfg.alpha) * match.s_sem
                    assert match.s_triple == pytest.approx(expected, abs=1e-12)


class TestPairScores:
    def test_every_pair_by_subquery_then_document_then_triple(self, hash_encoder):
        docs, sub_queries, cfg, _ = next(
            i for i in map(random_instance, range(50))
            if len(i[1]) >= 2 and sum(1 for d in i[0] if d.triples) >= 2
        )
        scores = pair_scores(docs, sub_queries, cfg, hash_encoder)
        assert len(scores) == len(sub_queries)
        for sq, by_doc in zip(sub_queries, scores):
            assert [[m.query_index for m in pairs] for pairs in by_doc] == [
                [sq.index] * len(doc.triples) for doc in docs
            ]
            for doc, pairs in zip(docs, by_doc):
                assert [m.doc_triple_index for m in pairs] == list(range(len(doc.triples)))


def _best_match(sq, doc, cfg, encoder):
    """The document's best match for one sub-query, as a one-document rerank reports it."""
    (scored,) = rerank([doc], [sq], cfg, encoder).all_scored
    return scored.best_matches[0]


class TestBestTripleScore:
    def test_singleton(self, default_cfg, hash_encoder):
        triple = _typed(WORK_SW, PRODUCT_DB)
        doc = Document(id="d1", title="", text="x", triples=[triple])
        match = _best_match(_sq(), doc, default_cfg, hash_encoder)
        assert match.doc_triple_index == 0

    def test_matches_exhaustive_max(self, default_cfg, hash_encoder):
        rng = np.random.default_rng(17)
        labels = [WORK_SW, PRODUCT_DB, PERSON_SCI, ORG_COMPANY, ORG_UNI]
        doc = Document(id="d1", title="", text="x")
        for i in range(5):
            triple = _typed(
                labels[int(rng.integers(5))],
                labels[int(rng.integers(5))],
                head=f"h{i}",
                tail=f"t{i}",
            )
            doc.triples.append(triple)
        sq = _sq()
        best = _best_match(sq, doc, default_cfg, hash_encoder)
        scores = [m.s_triple for m in _pairs(sq, doc.triples, default_cfg, hash_encoder)]
        assert best.s_triple == max(scores)
        assert best.doc_triple_index == int(np.argmax(scores))

    def test_tie_keeps_the_first_best_triple(self, default_cfg, hash_encoder):
        doc = Document(id="d1", title="", text="x", triples=[_typed(WORK_SW, PRODUCT_DB)] * 3)
        assert _best_match(_sq(), doc, default_cfg, hash_encoder).doc_triple_index == 0

    def test_tripleless_document_scores_zero(self, default_cfg, hash_encoder):
        doc = Document(id="d1", title="", text="x")
        match = _best_match(_sq(), doc, default_cfg, hash_encoder)
        assert match.s_triple == 0.0
        assert match.doc_triple_index is None


class TestAggregateDocumentScore:
    def test_hand_derived_mixture(self):
        cfg = _cfg(top_t=2, gamma=0.5)
        got = aggregate_document_score([0.9, 0.5, 0.1], cfg)
        assert got == pytest.approx(0.80, abs=1e-12)

    def test_single_subquery_equals_best_for_any_gamma(self, hash_encoder):
        triple = _typed(WORK_SW, PRODUCT_DB)
        doc = Document(id="d1", title="", text="x", triples=[triple])
        sq = _sq()
        for gamma in (0.0, 0.3, 1.0):
            cfg = _cfg(gamma=gamma)
            (scored,) = rerank([doc], [sq], cfg, hash_encoder).all_scored
            assert scored.score == pytest.approx(
                _pair(sq, triple, cfg, hash_encoder).s_triple, abs=1e-12
            )

    def test_t_at_least_count_means_over_all(self):
        cfg = _cfg(top_t=10, gamma=0.25)
        bests = [0.8, 0.2, 0.5]
        expected = 0.25 * 0.8 + 0.75 * (sum(bests) / 3)
        assert aggregate_document_score(bests, cfg) == pytest.approx(expected, abs=1e-12)

    def test_force_index_replaces_weakest(self):
        cfg = _cfg(top_t=2, gamma=0.0)
        got = aggregate_document_score([0.9, 0.5, 0.1], cfg, force_index=2)
        assert got == pytest.approx((0.9 + 0.1) / 2, abs=1e-12)

    def test_force_index_already_in_top_t_changes_nothing(self):
        cfg = _cfg(top_t=2, gamma=0.0)
        assert aggregate_document_score([0.9, 0.5, 0.1], cfg, force_index=0) == pytest.approx(
            0.7, abs=1e-12
        )


class TestFilterAndRank:
    def test_theta_zero_keeps_all_sorted(self, hash_encoder):
        docs, sub_queries, cfg, force = random_instance(5)
        cfg = _cfg(
            theta=0.0, alpha=1.0, gamma=cfg.gamma, top_t=cfg.top_t
        )  # alpha=1: scores are non-negative, so theta=0 keeps everything
        ranked = rerank(docs, sub_queries, cfg, hash_encoder, force_index=force)
        assert len(ranked.documents) == len(docs)
        scores = [d.score for d in ranked.documents]
        assert scores == sorted(scores, reverse=True)
        assert not ranked.fallback

    def test_all_below_threshold_falls_back_to_single_best(self, hash_encoder):
        docs, sub_queries, _, _ = random_instance(6)
        cfg = _cfg(theta=0.99)
        ranked = rerank(docs, sub_queries, cfg, hash_encoder)
        assert ranked.fallback
        assert len(ranked.documents) == 1
        assert ranked.documents[0].doc_id == ranked.all_scored[0].doc_id

    def test_one_encoder_call_per_rerank(self, monkeypatch, hash_encoder):
        # the chain's and the pool's component vectors come from one read, not two per pair
        docs, sub_queries, cfg, force = next(
            i for i in map(random_instance, range(50))
            if len(i[1]) >= 2 and sum(1 for d in i[0] if d.triples) >= 2
        )
        calls = []
        encode = hash_encoder.encode
        monkeypatch.setattr(
            hash_encoder, "encode", lambda texts: calls.append(texts) or encode(texts)
        )
        ranked = rerank(docs, sub_queries, cfg, hash_encoder, force_index=force)
        assert len(calls) == 1
        kept, _, _ = brute_force_rank(docs, sub_queries, cfg, hash_encoder, force_index=force)
        assert [d.doc_id for d in ranked.documents] == [doc_id for doc_id, _ in kept]

    def test_empty_pool_rejected(self, default_cfg, hash_encoder):
        with pytest.raises(EmptyPool):
            filter_and_rank([], [_sq()], [[]], default_cfg)

    def test_tie_break_doc_id_ascending(self, default_cfg, hash_encoder):
        triple_z = _typed(WORK_SW, PRODUCT_DB, doc="zz")
        triple_a = _typed(WORK_SW, PRODUCT_DB, doc="aa")
        doc_z = Document(id="zz", title="", text="x", triples=[triple_z])
        doc_a = Document(id="aa", title="", text="x", triples=[triple_a])
        ranked = rerank([doc_z, doc_a], [_sq()], default_cfg, hash_encoder)
        assert [d.doc_id for d in ranked.documents] == ["aa", "zz"]

    def test_threshold_monotone_nesting_and_fallback(self, hash_encoder):
        for seed in range(10):
            docs, sub_queries, base_cfg, force = random_instance(seed)
            previous: set[str] | None = None
            for theta in [round(0.1 * i, 1) for i in range(10)]:
                cfg = base_cfg.with_overrides(theta=theta)
                ranked = rerank(docs, sub_queries, cfg, hash_encoder, force_index=force)
                above = {s.doc_id for s in ranked.all_scored if s.score >= theta}
                assert ranked.fallback == (not above)
                kept = {s.doc_id for s in ranked.documents}
                if not ranked.fallback:
                    assert kept == above
                    if previous is not None:
                        assert kept <= previous
                    previous = kept

    def test_pool_permutation_changes_nothing(self, hash_encoder):
        docs, sub_queries, cfg, force = random_instance(9)
        ranked = rerank(docs, sub_queries, cfg, hash_encoder, force_index=force)
        rng = np.random.default_rng(0)
        shuffled = list(docs)
        rng.shuffle(shuffled)
        again = rerank(shuffled, sub_queries, cfg, hash_encoder, force_index=force)
        assert [d.doc_id for d in ranked.documents] == [d.doc_id for d in again.documents]
        assert [d.score for d in ranked.documents] == [d.score for d in again.documents]

    def test_matches_brute_force_oracle(self, hash_encoder):
        for seed in range(30):
            docs, sub_queries, cfg, force = random_instance(seed)
            ranked = rerank(docs, sub_queries, cfg, hash_encoder, force_index=force)
            kept, all_ranked, fallback = brute_force_rank(
                docs, sub_queries, cfg, hash_encoder, force_index=force
            )
            assert ranked.fallback == fallback
            assert [d.doc_id for d in ranked.documents] == [doc_id for doc_id, _ in kept]
            for scored, (_, expected) in zip(ranked.all_scored, all_ranked):
                assert scored.score == pytest.approx(expected, abs=1e-9)

    def test_structural_scores_stay_in_unit_interval(self, hash_encoder):
        for seed in range(10):
            docs, sub_queries, cfg, _ = random_instance(seed)
            cfg = cfg.with_overrides(alpha=1.0, theta=0.0)
            ranked = rerank(docs, sub_queries, cfg, hash_encoder)
            for scored in ranked.all_scored:
                assert 0.0 <= scored.score <= 1.0 + 1e-12
                for match in scored.best_matches:
                    assert 0.0 <= match.s_struct <= 1.0 + 1e-12


class TestScoredDocumentDecomposability:
    def test_score_recomputable_from_best_matches(self, hash_encoder):
        for seed in range(15):
            docs, sub_queries, cfg, force = random_instance(seed)
            ranked = rerank(docs, sub_queries, cfg, hash_encoder, force_index=force)
            for scored in ranked.all_scored:
                replayed = aggregate_document_score(
                    [m.s_triple for m in scored.best_matches], cfg, force_index=force
                )
                assert scored.score == pytest.approx(replayed, abs=1e-12)
