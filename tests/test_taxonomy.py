import json
import os
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasr.config import PipelineConfig, validate_config
from tasr.embedding import CachingEncoder, HashEncoderClient
from tasr.errors import (
    EmptyBranch,
    InvalidEntity,
    LlmUnavailable,
    TaxonomyParseError,
)
from tasr.llm import Gateway, scripted_mock
from tasr.model import Entity, TaxonomyLabel
from tasr.taxonomy import (
    EntityTyper,
    LabelMap,
    Taxonomy,
    TypeEmbeddingIndex,
    load_default_taxonomy,
    load_taxonomy,
    rule_type_entity,
    taxonomy_from_dict,
)

from conftest import EchoSelectBackend, FIXTURES, PresetEncoderClient, RecordingEncoderClient
from tasr.llm import load_script


class TestLoadTaxonomy:
    def test_bundled_table(self, taxonomy):
        assert len(taxonomy.l1_classes) == 12
        assert len(taxonomy.children["PERSON"]) == 12
        assert taxonomy.children["OTHER"] == ("Other",)
        assert taxonomy.has_label("PRODUCT", "Database")

    def test_minimal_taxonomy(self):
        tax = taxonomy_from_dict({"l1": [{"name": "X", "l2": ["Y"]}]})
        assert tax.l1_classes == ("X",)
        assert tax.children["X"] == ("Y",)

    def test_empty_branch_rejected(self):
        with pytest.raises(EmptyBranch):
            taxonomy_from_dict({"l1": [{"name": "PERSON", "l2": []}]})

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TaxonomyParseError):
            load_taxonomy(path)

    def test_duplicate_branch_rejected(self):
        with pytest.raises(TaxonomyParseError):
            taxonomy_from_dict({"l1": [{"name": "X", "l2": ["Y"]}, {"name": "X", "l2": ["Z"]}]})

    def test_no_class_rejected_when_built(self):
        with pytest.raises(TaxonomyParseError):
            Taxonomy({})

    def test_empty_branch_rejected_when_built(self):
        with pytest.raises(EmptyBranch):
            Taxonomy({"A": ()})

    @pytest.mark.parametrize("l2", [("x", "x"), ["x"], ("x", 1)], ids=["repeated", "list", "int"])
    def test_branch_of_distinct_strings_required_when_built(self, l2):
        with pytest.raises(TaxonomyParseError) as exc:
            Taxonomy({"A": l2})
        assert not isinstance(exc.value, EmptyBranch)

    def test_classes_are_the_order_of_the_branches(self):
        tax = Taxonomy({"B": ("b2", "a2"), "A": ("x",)})
        assert tax.l1_classes == ("B", "A")
        assert [(label.l1, label.l2) for label in tax.all_pairs()] == [
            ("B", "b2"), ("B", "a2"), ("A", "x")
        ]

    def test_damaged_bundled_table_is_a_parse_error(self, tmp_path, monkeypatch):
        # the bundled table is read like any taxonomy file
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "default_taxonomy.json").write_text("{not json")
        monkeypatch.setattr("tasr.taxonomy.resources.files", lambda package: tmp_path)
        with pytest.raises(TaxonomyParseError, match="default_taxonomy.json"):
            load_default_taxonomy()

    def test_label_order_preserved(self):
        tax = taxonomy_from_dict({"l1": [{"name": "B", "l2": ["b2", "a2"]}, {"name": "A", "l2": ["x"]}]})
        assert tax.l1_classes == ("B", "A")
        assert tax.children["B"] == ("b2", "a2")


class TestRuleTyping:
    # independent regex oracles for the two anchor cases
    def test_year_matches_regex_oracle(self):
        oracle = re.compile(r"^[12][0-9]{3}$")
        for text in ["1998", "2024", "1000", "2999"]:
            assert oracle.match(text)
            assert rule_type_entity(Entity(text)) == TaxonomyLabel("TIME", "Year")
        for text in ["3023", "0042", "199", "20245"]:
            assert not oracle.match(text)
            assert rule_type_entity(Entity(text)) != TaxonomyLabel("TIME", "Year")

    def test_percentage_matches_regex_oracle(self):
        oracle = re.compile(r"^[+-]?\d[\d,]*(?:\.\d+)?\s?%$")
        for text in ["37.5%", "5%", "100 %", "-3%"]:
            assert oracle.match(text)
            assert rule_type_entity(Entity(text)) == TaxonomyLabel("QUANTITY", "Percentage")

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2023-07-04", TaxonomyLabel("TIME", "Date")),
            ("January 5, 1999", TaxonomyLabel("TIME", "Date")),
            ("Jan 5 1999", TaxonomyLabel("TIME", "Date")),
            ("$4.2 million", TaxonomyLabel("QUANTITY", "Money")),
            ("€100", TaxonomyLabel("QUANTITY", "Money")),
            ("42", TaxonomyLabel("QUANTITY", "Count")),
            ("12,576", TaxonomyLabel("QUANTITY", "Count")),
        ],
    )
    def test_structured_patterns(self, text, expected):
        assert rule_type_entity(Entity(text)) == expected

    @pytest.mark.parametrize("text", ["MySQL database", "Mars", "query language", "v1998"])
    def test_unstructured_returns_none(self, text):
        assert rule_type_entity(Entity(text)) is None


class TestRetrieveCandidates:
    def test_default_width_is_ten(self, taxonomy, hash_encoder, default_cfg):
        index = TypeEmbeddingIndex(taxonomy, hash_encoder)
        vector = hash_encoder.encode_one("MySQL database")
        cands = index.top_l1(vector, default_cfg.n_l1_candidates)
        assert len(cands) == 10
        sims = [s for _, s in cands]
        assert sims == sorted(sims, reverse=True)

    def test_singleton_taxonomy_returns_its_branch(self, default_cfg):
        tax = taxonomy_from_dict({"l1": [{"name": "X", "l2": ["Y"]}]})
        encoder = CachingEncoder(HashEncoderClient())
        index = TypeEmbeddingIndex(tax, encoder)
        cands = index.top_l1(encoder.encode_one("anything"), default_cfg.n_l1_candidates)
        assert [l1 for l1, _ in cands] == ["X"]

    def test_second_level_names_survive_a_slash_in_the_class_name(self, default_cfg):
        tax = taxonomy_from_dict({"l1": [{"name": "A/B", "l2": ["c/d", "e"]}]})
        encoder = CachingEncoder(HashEncoderClient())
        index = TypeEmbeddingIndex(tax, encoder)
        cands = index.top_l2("A/B", encoder.encode_one("anything"), default_cfg.m_l2_candidates)
        assert sorted(l2 for _, l2, _ in cands) == ["c/d", "e"]
        assert all(tax.has_label(l1, l2) for l1, l2, _ in cands)

    def test_equal_similarity_breaks_ties_lexicographically(self, default_cfg):
        tax = taxonomy_from_dict({"l1": [{"name": "ZZ", "l2": ["z"]}, {"name": "AA", "l2": ["a"]}]})
        same = list(np.eye(4)[0])
        encoder = CachingEncoder(PresetEncoderClient({"ZZ": same, "AA": same, "probe": same}))
        index = TypeEmbeddingIndex(tax, encoder)
        cands = index.top_l1(encoder.encode_one("probe"), default_cfg.n_l1_candidates)
        assert [l1 for l1, _ in cands] == ["AA", "ZZ"]

    def test_an_empty_scope_holds_the_entity_vectors(
        self, taxonomy, hash_encoder, default_cfg, request_pool
    ):
        # an empty memo is still the memo the typer encodes through, not the pipeline's one
        index = TypeEmbeddingIndex(taxonomy, hash_encoder)
        scope, held = hash_encoder.scope(), len(hash_encoder)
        gateway = Gateway(backend=EchoSelectBackend())
        typer = EntityTyper(index, scope, gateway, default_cfg, request_pool)
        typer.select_type(Entity("a surface no one encoded"))
        typer.select_type(Entity("another surface no one encoded"))
        assert (len(hash_encoder), len(scope)) == (held, 2)

    def test_retrieval_selection_encodes_its_surface_once(
        self, taxonomy, hash_encoder, default_cfg, request_pool, monkeypatch
    ):
        # both stages search with one vector: stage 2 searches each of the kept branches
        typer = _typer(taxonomy, hash_encoder, EchoSelectBackend(), default_cfg, request_pool)
        encoded, encode = [], CachingEncoder.encode
        record = lambda self, texts: encoded.append(texts) or encode(self, texts)
        monkeypatch.setattr(CachingEncoder, "encode", record)
        assert default_cfg.typing_mode == "retrieval" and default_cfg.l1_keep > 1
        typer.select_type(Entity("Science Activity Planner"))
        assert encoded == [["Science Activity Planner"]]

    def test_search_after_build_sends_nothing_to_the_client(self, taxonomy):
        client = RecordingEncoderClient()
        index = TypeEmbeddingIndex(taxonomy, CachingEncoder(client))
        sent, vector = len(client.seen), HashEncoderClient(dim=64).encode(["probe"])[0]
        assert index.top_l1(vector, 3) and index.top_l2("PRODUCT", vector, 3)
        assert len(client.seen) == sent


def _typer(taxonomy, encoder, backend, cfg, requests):
    index = TypeEmbeddingIndex(taxonomy, encoder)
    return EntityTyper(index, encoder, Gateway(backend=backend), cfg, requests)


class TestSelectType:
    def test_scripted_selection(self, taxonomy, hash_encoder, default_cfg, request_pool):
        backend = load_script(FIXTURES / "llm_script.json")
        typer = _typer(taxonomy, hash_encoder, backend, default_cfg, request_pool)
        label = typer.type_entity(Entity("Science Activity Planner"))
        assert label == TaxonomyLabel("WORK", "SoftwareProject")

    def test_rule_typed_entity_never_calls_gateway(
        self, taxonomy, hash_encoder, default_cfg, request_pool
    ):
        backend = scripted_mock([])
        typer = _typer(taxonomy, hash_encoder, backend, default_cfg, request_pool)
        assert typer.type_entity(Entity("2024")) == TaxonomyLabel("TIME", "Year")
        assert typer.type_entity(Entity("37.5%")) == TaxonomyLabel("QUANTITY", "Percentage")
        assert backend.calls == []

    def test_rule_pair_outside_the_taxonomy_goes_to_selection(
        self, taxonomy, default_cfg, request_pool
    ):
        one_class = taxonomy_from_dict({"l1": [{"name": "THING", "l2": ["Item"]}]})
        backend = scripted_mock(
            [
                ("type_select", "First-level types", {"labels": ["THING"]}),
                ("type_select", "Final two-level type", {"l1": "THING", "l2": "Item"}),
            ]
        )
        encoder = CachingEncoder(HashEncoderClient())
        typer = _typer(one_class, encoder, backend, default_cfg, request_pool)
        assert typer.type_entity(Entity("1998")) is one_class.label("THING", "Item")
        assert len(backend.calls) == 2
        # a pair the taxonomy has comes back as the taxonomy's own object
        assert taxonomy.rule_label(Entity("1998")) is taxonomy.label("TIME", "Year")

    def test_out_of_vocabulary_label_retries_once_then_falls_back(
        self, taxonomy, hash_encoder, default_cfg, request_pool
    ):
        backend = scripted_mock(
            [
                ("type_select", "First-level types", {"labels": ["WORK", "PRODUCT", "CONCEPT"]}),
                ("type_select", "Final two-level type", {"l1": "WORK", "l2": "Poem"}),
            ]
        )
        index = TypeEmbeddingIndex(taxonomy, hash_encoder)
        gateway = Gateway(backend=backend)
        typer = EntityTyper(index, hash_encoder, gateway, default_cfg, request_pool)
        label = typer.type_entity(Entity("Beowulf"))

        stage2_calls = [c for c in backend.calls if "Final two-level type" in c.user_prompt]
        assert len(stage2_calls) == 2  # exactly one retry
        # fallback is the highest-similarity candidate across the kept branches
        union, vector = [], hash_encoder.encode_one("Beowulf")
        for l1 in ["WORK", "PRODUCT", "CONCEPT"]:
            union.extend(index.top_l2(l1, vector, default_cfg.m_l2_candidates))
        best = max(union, key=lambda item: item[2])
        assert label == TaxonomyLabel(best[0], best[1])
        assert any("fallback" in e for e in typer.events)

    def test_non_json_stage1_falls_back_to_top_candidates(
        self, taxonomy, hash_encoder, default_cfg, request_pool
    ):
        backend = scripted_mock(
            [
                ("type_select", "First-level types", "not json"),
                ("type_select", "Final two-level type", "also not json"),
            ]
        )
        typer = _typer(taxonomy, hash_encoder, backend, default_cfg, request_pool)
        label = typer.type_entity(Entity("Beowulf"))
        assert taxonomy.has_label(label.l1, label.l2)
        assert len(typer.events) == 2  # both stages fell back

    def test_non_string_labels_fall_back(self, taxonomy, hash_encoder, default_cfg, request_pool):
        backend = scripted_mock(
            [
                ("type_select", "First-level types", {"labels": [["WORK"], {"l1": 1}, 3]}),
                ("type_select", "Final two-level type", {"l1": ["WORK"], "l2": {}}),
            ]
        )
        typer = _typer(taxonomy, hash_encoder, backend, default_cfg, request_pool)
        label = typer.type_entity(Entity("Beowulf"))
        assert taxonomy.has_label(label.l1, label.l2)
        assert len(typer.events) == 2  # both stages fell back

    def test_memoized_per_surface(self, taxonomy, hash_encoder, default_cfg, request_pool):
        backend = EchoSelectBackend()
        typer = _typer(taxonomy, hash_encoder, backend, default_cfg, request_pool)
        first = typer.type_entity(Entity("repeat me"))
        calls_after_first = len(backend.calls)
        second = typer.type_entity(Entity("  repeat me  "))
        assert first == second
        assert len(backend.calls) == calls_after_first

    def test_empty_entity_rejected(self):
        with pytest.raises(InvalidEntity):
            Entity("   ")

    def test_parent_child_membership_over_random_entities(
        self, taxonomy, hash_encoder, default_cfg, request_pool
    ):
        backend = EchoSelectBackend()
        typer = _typer(taxonomy, hash_encoder, backend, default_cfg, request_pool)
        rng = np.random.default_rng(11)
        for i in range(100):
            text = f"entity-{rng.integers(1_000_000)}"
            label = typer.type_entity(Entity(text))
            assert taxonomy.has_label(label.l1, label.l2)

    def test_pure_mode_shows_full_label_list(self, taxonomy, hash_encoder, request_pool):
        cfg = validate_config(PipelineConfig(typing_mode="pure"))
        backend = EchoSelectBackend()
        typer = _typer(taxonomy, hash_encoder, backend, cfg, request_pool)
        label = typer.type_entity(Entity("some entity"))
        assert taxonomy.has_label(label.l1, label.l2)
        stage1 = next(c for c in backend.calls if "First-level types" in c.user_prompt)
        for l1 in taxonomy.l1_classes:
            assert l1 in stage1.user_prompt

    def test_keys_typed_to_one_pair_share_its_label_object(
        self, taxonomy, hash_encoder, request_pool
    ):
        backend = scripted_mock(
            [
                ("type_select", "First-level types", {"labels": ["PRODUCT"]}),
                ("type_select", "Final two-level type", {"l1": "PRODUCT", "l2": "Database"}),
            ]
        )
        cfg = validate_config(PipelineConfig(typing_mode="pure"))
        typer = _typer(taxonomy, hash_encoder, backend, cfg, request_pool)
        keys = [("MySQL", "Open-source relational databases"), ("PostgreSQL", None)]
        typer.submit([(Entity(surface), context) for surface, context in keys])
        typer.collect()
        held = [typer.labels.get(key, lambda: pytest.fail("not held")) for key in keys]
        assert held[0][0] is held[1][0] is taxonomy.label("PRODUCT", "Database")
        assert held[0] is held[1]  # keys that took no fallback share one entry object


class OovEchoBackend:
    """Echoes type selections; ``oov`` entities get an out-of-vocabulary stage-1 label,
    so their stage 1 falls back."""

    def __init__(self, oov=()):
        self.oov = set(oov)
        self.echo = EchoSelectBackend()

    def complete(self, req):
        entity = re.search(r'entity "(.*)"', req.user_prompt).group(1)
        if entity in self.oov and "First-level types" in req.user_prompt:
            return json.dumps({"labels": ["NOT_A_TYPE"]})
        return self.echo.complete(req)


class ReverseOrderBackend(OovEchoBackend):
    """An entity of ``order`` is answered only once the next one is done, so jobs finish
    in reverse order; ``fail`` entities raise on their first request."""

    def __init__(self, order, fail=(), oov=()):
        super().__init__(oov)
        self.order, self.fail = list(order), set(fail)
        self.done = {name: threading.Event() for name in order}

    def complete(self, req):
        entity = re.search(r'entity "(.*)"', req.user_prompt).group(1)
        position = self.order.index(entity)
        if position + 1 < len(self.order):
            assert self.done[self.order[position + 1]].wait(timeout=10)
        if entity in self.fail:
            self.done[entity].set()
            raise LlmUnavailable("type_select", f"no answer for {entity}", retryable=False)
        reply = super().complete(req)
        if "Final two-level type" in req.user_prompt:
            self.done[entity].set()
        return reply


class TestTypeAll:
    def test_first_failing_job_in_job_order_raises(
        self, taxonomy, hash_encoder, default_cfg, request_pool
    ):
        # the later job fails first in time; the earlier one is still the error
        names = ["fine entity", "slow failure", "fast failure"]
        backend = ReverseOrderBackend(names, fail=names[1:])
        typer = _typer(taxonomy, hash_encoder, backend, default_cfg, request_pool)
        with pytest.raises(LlmUnavailable, match="no answer for slow failure"):
            typer.submit([(Entity(name), None) for name in names])
            typer.collect()

    def test_labels_and_events_follow_job_order(
        self, taxonomy, hash_encoder, default_cfg, request_pool
    ):
        names = ["alpha entity", "beta entity", "gamma entity"]
        backend = ReverseOrderBackend(names, oov=names[:2])
        typer = _typer(taxonomy, hash_encoder, backend, default_cfg, request_pool)
        jobs = [(Entity(name), f"title {i}") for i, name in enumerate(names)]
        typer.submit(jobs + [(Entity("alpha entity"), "later title")])
        labels = typer.collect()
        assert typer.events == [
            f"type_select fallback (stage 1) for entity {name!r}" for name in names[:2]
        ]
        # a surface is typed once, with the context of its first job
        alpha = [c.user_prompt for c in backend.echo.calls if '"alpha entity"' in c.user_prompt]
        assert alpha and all("Context: title 0" in prompt for prompt in alpha)
        serial_backend = OovEchoBackend(oov=names[:2])
        serial = _typer(taxonomy, hash_encoder, serial_backend, default_cfg, request_pool)
        assert [labels[name] for name in names] == [serial.type_entity(*job) for job in jobs]


    def test_two_submits_type_an_overlapping_surface_once(
        self, taxonomy, hash_encoder, default_cfg, request_pool
    ):
        # the second submit repeats a surface with another context: its first job's context wins
        first = [(Entity("alpha entity"), "title 0"), (Entity("beta entity"), "title 0")]
        second = [(Entity("beta entity"), "title 1"), (Entity("gamma entity"), "title 1")]
        oov = ["beta entity", "gamma entity"]
        streamed, batched = OovEchoBackend(oov), OovEchoBackend(oov)
        typer = _typer(taxonomy, hash_encoder, streamed, default_cfg, request_pool)
        typer.submit(first)
        typer.submit(second)
        streamed_labels = typer.collect()
        once = _typer(taxonomy, hash_encoder, batched, default_cfg, request_pool)
        once.submit(first + second)
        batched_labels = once.collect()
        beta = [c.user_prompt for c in streamed.echo.calls if '"beta entity"' in c.user_prompt]
        assert beta and all("Context: title 0" in prompt for prompt in beta)
        assert sorted(c.user_prompt for c in streamed.echo.calls) == sorted(
            c.user_prompt for c in batched.echo.calls
        )
        assert typer.events == once.events and len(typer.events) == 2
        assert streamed_labels == batched_labels and len(streamed_labels) == 3


class TestLabelMap:
    KEY = ("MySQL", "Open-source relational databases")
    TYPED = (TaxonomyLabel("PRODUCT", "Database"), ())

    def _down(self):
        raise LlmUnavailable("type_select", "endpoint down", retryable=False)

    def _start(self, target):
        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        return thread

    def test_concurrent_askers_share_one_selection(self):
        labels, started, release, calls, results = LabelMap(), threading.Event(), threading.Event(), [], []

        def type_new():
            calls.append(1)
            started.set()
            assert release.wait(timeout=10)
            return self.TYPED

        threads = [self._start(lambda: results.append(labels.get(self.KEY, type_new)))]
        assert started.wait(timeout=10)
        threads += [self._start(lambda: results.append(labels.get(self.KEY, type_new))) for _ in range(3)]
        time.sleep(0.05)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert calls == [1]
        assert results == [self.TYPED] * 4
        assert len(labels) == 1

    def test_a_waiter_types_again_itself_when_the_owner_fails(self):
        labels, started, release = LabelMap(), threading.Event(), threading.Event()
        errors, results, waiter_calls = [], [], []

        def failing():
            started.set()
            assert release.wait(timeout=10)
            self._down()

        def owner():
            try:
                labels.get(self.KEY, failing)
            except LlmUnavailable as exc:
                errors.append(exc)

        def succeeding():
            waiter_calls.append(1)
            return self.TYPED

        first = self._start(owner)
        assert started.wait(timeout=10)
        second = self._start(lambda: results.append(labels.get(self.KEY, succeeding)))
        time.sleep(0.05)
        assert waiter_calls == []  # the waiter sends nothing while the owner's request is out
        release.set()
        first.join(timeout=10)
        second.join(timeout=10)
        assert len(errors) == 1
        assert waiter_calls == [1]
        assert results == [self.TYPED]
        assert len(labels) == 1  # the waiter's own result is kept

    def test_each_key_is_typed_once_under_contention(self):
        labels, lock, typed_keys = LabelMap(), threading.Lock(), []
        keys = [(f"entity {i}", None) for i in range(20)]
        n_threads = (os.cpu_count() or 1) + 4
        start = threading.Barrier(n_threads)
        results = [[] for _ in range(n_threads)]

        def type_new(key):
            with lock:
                typed_keys.append(key)
            time.sleep(0)
            return (TaxonomyLabel("OTHER", key[0]), ())

        def work(i):
            start.wait()
            for key in keys[i % 5 :] + keys[: i % 5]:
                results[i].append((key, labels.get(key, lambda: type_new(key))))

        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(typed_keys) == sorted(keys)
        expected = {key: (TaxonomyLabel("OTHER", key[0]), ()) for key in keys}
        assert all(len(r) == len(keys) and all(expected[k] == v for k, v in r) for r in results)

    def test_a_failure_is_not_stored(self):
        labels, results = LabelMap(), []
        with pytest.raises(LlmUnavailable):
            labels.get(self.KEY, self._down)
        assert len(labels) == 0
        # a key left in flight would hold a later asker forever
        self._start(lambda: results.append(labels.get(self.KEY, lambda: self.TYPED))).join(10)
        assert results == [self.TYPED]

    def test_keys_share_one_string_per_surface(self):
        # surfaces parsed from different replies are equal but distinct objects
        labels, surface = LabelMap(), self.KEY[0]
        for context in ("first title", "second title"):
            key = ("".join(surface), context)
            assert key[0] is not surface
            labels.get(key, lambda: self.TYPED)
        first, second = labels._typed
        assert first[0] is second[0]

    def test_shared_surfaces_are_not_interned(self):
        # interned strings are never freed on Python 3.12: the map keeps its own table
        labels, surface = LabelMap(), f"surface {os.getpid()} {time.monotonic_ns()}"
        labels.get((surface, None), lambda: self.TYPED)
        equal = "".join(surface)
        assert equal is not surface
        assert sys.intern(equal) is equal

    def test_typers_sharing_a_map_replay_its_events(
        self, taxonomy, hash_encoder, default_cfg, request_pool
    ):
        backend, sent = OovEchoBackend(oov=["alpha entity"]), []
        complete = backend.complete
        backend.complete = lambda req: sent.append(req) or complete(req)
        index = TypeEmbeddingIndex(taxonomy, hash_encoder)
        labels = LabelMap()
        first, second = (
            EntityTyper(
                index, hash_encoder, Gateway(backend=backend), default_cfg, request_pool, labels
            )
            for _ in range(2)
        )
        jobs = [(Entity("alpha entity"), "title"), (Entity("1998"), "title")]
        first.submit(jobs)
        first_labels = first.collect()
        assert len(sent) == 3  # stage 1, its retry, stage 2
        second.submit(jobs)
        assert second.collect() == first_labels
        assert len(sent) == 3
        assert second.events == first.events == [
            "type_select fallback (stage 1) for entity 'alpha entity'"
        ]
        assert len(labels) == 1  # rule-typed surfaces never reach the map


class KeyedEchoBackend(OovEchoBackend):
    """Echoes type selections and records the (surface, context) key of every request;
    stage 1 of a ``gated`` surface waits for ``release``."""

    def __init__(self, oov=(), gated=()):
        super().__init__(oov)
        self.gated, self.keys = set(gated), []
        self.started, self.release = threading.Semaphore(0), threading.Event()

    def complete(self, req):
        entity = re.search(r'entity "(.*)"', req.user_prompt).group(1)
        context = re.search(r"\nContext: (.*)", req.user_prompt)
        self.keys.append((entity, context and context.group(1)))
        if entity in self.gated and "First-level types" in req.user_prompt:
            self.started.release()
            assert self.release.wait(timeout=10)
        return super().complete(req)


SURFACES = ["alpha entity", "beta entity", "gamma entity", "delta entity", "1998", "37.5%"]


class TestHeldSelections:
    """A typer reads rule labels and held selections on the asking thread; only the keys
    the map does not hold become jobs, and the outcome is the same either way."""

    @settings(max_examples=30, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(st.sampled_from(SURFACES), st.sampled_from([None, "", "title A", "title B"])),
            min_size=1,
            max_size=10,
        ),
        oov=st.sets(st.sampled_from(SURFACES)),
        data=st.data(),
    )
    def test_held_and_in_flight_keys_collect_as_cold_ones(
        self, taxonomy, default_cfg, jobs, oov, data
    ):
        encoder = CachingEncoder(HashEncoderClient())
        index = TypeEmbeddingIndex(taxonomy, encoder)
        first = {}  # each surface's key: the context of its first job, none when empty
        for surface, context in jobs:
            first.setdefault(surface, context or None)
        selected = [key for key in first.items() if taxonomy.rule_label(Entity(key[0])) is None]
        held = data.draw(
            st.lists(st.sampled_from(selected), unique=True) if selected else st.just([])
        )
        held_jobs = [(Entity(surface), context) for surface, context in held]

        def typer(backend, labels, requests):
            return EntityTyper(
                index, encoder, Gateway(backend=backend), default_cfg, requests, labels
            )

        def collect(backend, labels, before=lambda: None):
            with ThreadPoolExecutor(4) as requests:
                asking = typer(backend, labels, requests)
                asking.submit((Entity(surface), context) for surface, context in jobs)
                before()
                return asking.collect(), asking.events

        cold_backend = KeyedEchoBackend(oov)
        cold = collect(cold_backend, LabelMap())
        assert list(cold[0]) == list(first)
        assert set(cold_backend.keys) == set(selected)

        warm, warm_backend = LabelMap(), KeyedEchoBackend(oov)
        with ThreadPoolExecutor(4) as requests:
            other = typer(KeyedEchoBackend(oov), warm, requests)
            other.submit(held_jobs)
            other.collect()
        assert collect(warm_backend, warm) == cold
        assert not set(warm_backend.keys) & set(held)

        in_flight, gated = LabelMap(), KeyedEchoBackend(oov, gated=[s for s, _ in held])
        flight_backend = KeyedEchoBackend(oov)
        with ThreadPoolExecutor(max(len(held), 1)) as requests:
            other = typer(gated, in_flight, requests)
            other.submit(held_jobs)
            assert all(gated.started.acquire(timeout=10) for _ in held)
            assert collect(flight_backend, in_flight, gated.release.set) == cold
            other.collect()
        assert not set(flight_backend.keys) & set(held)
