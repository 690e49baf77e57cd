import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tasr import model
from tasr.errors import DuplicateBinding, InvalidEntity
from tasr.matching import RankedPool, ScoredDocument, TripleMatch
from tasr.model import (
    BindingTable,
    Entity,
    HopRecord,
    ReasoningTrace,
    Slot,
    SubQuery,
    TaxonomyLabel,
    Triple,
    normalize_variable_name,
)


class TestEntity:
    def test_surface_is_trimmed(self):
        assert Entity("  MySQL AB ").surface == "MySQL AB"

    @pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
    def test_empty_rejected(self, raw):
        with pytest.raises(InvalidEntity):
            Entity(raw)


class TestTriple:
    def test_relation_keeps_surface_form(self):
        triple = Triple(Entity("a"), "developed_by", Entity("b"))
        assert triple.relation == "developed_by"

    def test_types_carried_as_on_subquery(self):
        def type_fields(cls):
            return {f.name: (f.type, f.default) for f in dataclasses.fields(cls) if "type" in f.name}

        assert type_fields(Triple) == type_fields(SubQuery)
        assert set(type_fields(Triple)) == {"head_type", "tail_type"}
        label = TaxonomyLabel("OTHER", "Other")
        triple = Triple(Entity("a"), "r", Entity("b"), head_type=label, tail_type=label)
        assert triple.key() == ("a", "r", "b")



class TestSlot:
    def test_parse_bound(self):
        slot = Slot.parse(" MySQL AB ")
        assert not slot.latent
        assert slot.text == "MySQL AB"

    def test_parse_latent_normalizes_to_camel_case(self):
        assert Slot.parse("?database").text == "?Database"
        assert Slot.parse("?database system").text == "?DatabaseSystem"
        assert Slot.parse("?database_system").text == "?DatabaseSystem"
        assert Slot.parse("?Company").text == "?Company"

    def test_bound_text_starting_with_question_mark_stays_bound(self):
        slot = Slot.bound("?not a variable")
        assert not slot.latent

    def test_normalize_variable_name_empty_rejected(self):
        with pytest.raises(InvalidEntity):
            normalize_variable_name("?")

    @pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
    def test_blank_bound_slot_rejected(self, raw):
        for build in (Slot.bound, Slot.parse):
            with pytest.raises(InvalidEntity):
                build(raw)

    @pytest.mark.parametrize("name", ["", "  ", "?", " ? ", "?_-"])
    def test_blank_variable_name_rejected(self, name):
        with pytest.raises(InvalidEntity):
            Slot.variable(name)

    def test_variable_name_follows_the_parse_rule(self):
        assert Slot.variable("database system") == Slot.parse("?database system")
        assert Slot.variable("database system").text == "?DatabaseSystem"

    @given(st.text(max_size=12).map("?".__add__))
    def test_variable_equals_parse_for_any_latent_name(self, name):
        try:
            expected = Slot.parse(name)
        except InvalidEntity:
            with pytest.raises(InvalidEntity):
                Slot.variable(name)
        else:
            assert Slot.variable(name) == expected


class TestBindingTable:
    def test_starts_empty(self):
        table = BindingTable()
        assert len(table) == 0
        assert "?X" not in table

    def test_insert_and_lookup(self):
        table = BindingTable()
        table.insert("?Database", "MySQL database")
        assert table.get("?Database") == "MySQL database"
        assert "?Database" in table

    def test_rebinding_rejected(self):
        table = BindingTable()
        table.insert("?X", "first")
        with pytest.raises(DuplicateBinding):
            table.insert("?X", "second")
        assert table.get("?X") == "first"

    def test_insertion_order_preserved(self):
        table = BindingTable()
        table.insert("?B", "2")
        table.insert("?A", "1")
        assert list(table.as_dict()) == ["?B", "?A"]


class TestSubQuery:
    def test_latent_names_in_slot_order(self):
        sq = SubQuery(
            index=1,
            head=Slot.variable("?A"),
            relation="r",
            tail=Slot.variable("?B"),
        )
        assert sq.latent_names() == ["?A", "?B"]

    def test_render(self):
        sq = SubQuery(index=1, head=Slot.bound("x"), relation="uses", tail=Slot.variable("?Y"))
        assert sq.render() == "(x, uses, ?Y)"

    def test_relation_is_trimmed(self):
        sq = SubQuery(1, Slot.bound("a"), " developed_by\n", Slot.variable("?B"))
        assert sq.relation == "developed_by"
        assert sq.render() == "(a, developed_by, ?B)"

    @pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
    def test_blank_relation_rejected(self, raw):
        with pytest.raises(InvalidEntity):
            SubQuery(1, Slot.bound("a"), raw, Slot.variable("?B"))


class TestTraceRecords:
    def _hop(self, index, fallback):
        sq = SubQuery(index, Slot.bound("a"), "r", Slot.variable("?V"))
        best = ScoredDocument("d2", 0.375, (TripleMatch(index, 0, 0.5, 0.25, 0.375),))
        tripleless = ScoredDocument("d1", 0.0, (TripleMatch(index, None, 0.0, 0.0, 0.0),))
        return HopRecord(sq, sq, RankedPool((best,), (best, tripleless), fallback), "v")

    def test_hop_record_renders_what_its_hop_computed(self):
        hop = self._hop(2, fallback=True)
        assert [f.name for f in dataclasses.fields(HopRecord)] == [
            "sub_query", "resolved", "ranked", "answer"
        ]
        assert (hop.index, hop.selected, hop.fallback) == (2, ["d2"], True)
        match = {"query_index": 2, "doc_triple_index": 0, "s_struct": 0.5, "s_sem": 0.25}
        zero = {"query_index": 2, "doc_triple_index": None, "s_struct": 0.0, "s_sem": 0.0}
        assert hop.document_scores == [  # every pool document, ranked
            {"doc_id": "d2", "score": 0.375, "best_matches": [{**match, "s_triple": 0.375}]},
            {"doc_id": "d1", "score": 0.0, "best_matches": [{**zero, "s_triple": 0.0}]},
        ]
        assert list(hop.to_dict()) == [
            "index", "sub_query", "resolved", "document_scores", "selected", "fallback", "answer"
        ]

    def test_events_are_rerank_fallbacks_in_hop_order_then_typing_fallbacks(self):
        hops = [self._hop(1, True), self._hop(2, False), self._hop(3, True)]
        trace = ReasoningTrace("q?", hops=hops, events=["typing 1", "typing 2"])
        assert trace.to_dict()["events"] == [
            "rerank fallback at hop 1", "rerank fallback at hop 3", "typing 1", "typing 2"
        ]

    def test_model_imports_no_other_package_module_at_run_time(self):
        # a hop's ranked pool is annotated from tasr.matching only for type checkers
        tree = ast.parse(Path(model.__file__).read_text(encoding="utf-8"))
        imported = {n.module for n in tree.body if isinstance(n, ast.ImportFrom)}
        assert {name for name in imported if name.startswith("tasr")} == {"tasr.errors"}
