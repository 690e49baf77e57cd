import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tasr.errors import DuplicateBinding, InvalidEntity
from tasr.model import (
    BindingTable,
    Entity,
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
