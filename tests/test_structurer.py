import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasr.errors import InvalidDecomposition, LlmProtocolError
from tasr.llm import Gateway, scripted_mock
from tasr.model import Document, Entity, Slot, SubQuery, TaxonomyLabel, Triple
from tasr.errors import TasrError
from tasr.structurer import (
    Decomposition,
    decompose_query,
    extraction_request,
    request_decomposition,
    subquery_typing_jobs,
    type_document_triples,
    type_subqueries,
    validate_chain,
    variable_description,
)
from tasr.taxonomy import EntityTyper, TypeEmbeddingIndex

from conftest import EchoSelectBackend, send_decomposition, send_extraction

RUNNING_QUESTION = (
    "Which company originally developed the database that the Science Activity Planner uses?"
)


@pytest.fixture()
def toy_gateway(toy_backend):
    return Gateway(backend=toy_backend)


def _type_triples(triples, typer):
    typer.submit((entity, None) for t in triples for entity in (t.head, t.tail))
    return type_document_triples(triples, typer.collect())


def _type_subqueries(dec, typer):
    typer.submit(subquery_typing_jobs(dec))
    return type_subqueries(dec, typer.collect())


class TestExtractTriples:
    def test_doc1_contains_uses_triple(self, toy_corpus, toy_gateway):
        doc1 = next(d for d in toy_corpus if d.id == "doc1")
        triples = send_extraction(doc1, RUNNING_QUESTION, toy_gateway)
        assert (
            Triple(Entity("Science Activity Planner"), "uses", Entity("MySQL database"), "doc1")
            in triples
        )
        assert all(t.source_doc == "doc1" for t in triples)

    def test_doc6_contains_developer_triple(self, toy_corpus, toy_gateway):
        doc6 = next(d for d in toy_corpus if d.id == "doc6")
        triples = send_extraction(doc6, RUNNING_QUESTION, toy_gateway)
        assert (
            Triple(Entity("MySQL AB"), "developed", Entity("MySQL database"), "doc6") in triples
        )

    def test_empty_body_returns_empty_without_llm_call(self):
        backend = scripted_mock([])
        doc = Document(id="empty", title="t", text="   ")
        assert extraction_request(doc, "q", Gateway(backend=backend))() is None
        assert send_extraction(doc, "q", Gateway(backend=backend)) == []
        assert backend.calls == []

    def test_duplicates_within_document_collapse(self):
        backend = scripted_mock(
            [
                (
                    "extract",
                    "Document id: dup",
                    {
                        "triples": [
                            {"head": "a", "relation": "r", "tail": "b"},
                            {"head": "a", "relation": "r", "tail": "b"},
                            {"head": "a", "relation": "r", "tail": "c"},
                        ]
                    },
                )
            ]
        )
        doc = Document(id="dup", title="t", text="body")
        triples = send_extraction(doc, "q", Gateway(backend=backend))
        assert len(triples) == 2

    def test_duplicates_across_documents_are_kept(self):
        response = {"triples": [{"head": "a", "relation": "r", "tail": "b"}]}
        backend = scripted_mock([("extract", "Document id:", response)])
        gateway = Gateway(backend=backend)
        t1 = send_extraction(Document(id="d1", title="t", text="x"), "q", gateway)
        t2 = send_extraction(Document(id="d2", title="t", text="x"), "q", gateway)
        assert t1[0].key() == t2[0].key()
        assert (t1[0].source_doc, t2[0].source_doc) == ("d1", "d2")

    def test_query_conditioning_controls_prompt(self):
        backend = scripted_mock([("extract", "Document id:", {"triples": []})])
        gateway = Gateway(backend=backend)
        doc = Document(id="d", title="t", text="body")
        send_extraction(doc, "where is it?", gateway)
        send_extraction(doc, None, gateway)
        assert "where is it?" in backend.calls[0].user_prompt
        assert "Question:" not in backend.calls[1].user_prompt


    @pytest.mark.parametrize(
        "item",
        [
            {"relation": "r", "tail": "b"},  # no head
            {"head": "a", "relation": 3, "tail": "b"},  # non-string field
            {"head": None, "relation": "r", "tail": "b"},
            "a r b",  # not an object
            ["a", "r", "b"],
        ],
    )
    def test_malformed_item_is_a_protocol_error(self, item):
        response = {"triples": [{"head": "a", "relation": "r", "tail": "b"}, item]}
        backend = scripted_mock([("extract", "Document id:", response)])
        doc = Document(id="d", title="t", text="body")
        with pytest.raises(LlmProtocolError) as exc:
            send_extraction(doc, "q", Gateway(backend=backend))
        assert exc.value.role_tag == "extract"


class TestTypeDocumentTriples:
    def _typer(self, taxonomy, hash_encoder, backend, request_pool):
        from tasr.config import PipelineConfig, validate_config

        return EntityTyper(
            TypeEmbeddingIndex(taxonomy, hash_encoder),
            hash_encoder,
            Gateway(backend=backend),
            validate_config(PipelineConfig()),
            request_pool,
        )

    def test_returns_typed_copies_and_leaves_input_untyped(
        self, taxonomy, hash_encoder, request_pool
    ):
        typer = self._typer(taxonomy, hash_encoder, EchoSelectBackend(), request_pool)
        triples = [Triple(Entity("alpha"), "uses", Entity("beta"), "d")]
        typed = _type_triples(triples, typer)
        assert len(typed) == 1
        assert typed[0].key() == triples[0].key()
        assert typed[0].source_doc == "d"
        assert typed[0].head_type == typer.type_entity(Entity("alpha"))
        assert typed[0].tail_type == typer.type_entity(Entity("beta"))
        assert triples[0].head_type is None and triples[0].tail_type is None

    def test_labels_come_from_a_plain_table(self):
        # a lookup: no typer and no backend
        table = {"alpha": TaxonomyLabel("PRODUCT", "Database"), "beta": TaxonomyLabel("X", "Y")}
        triples = [
            Triple(Entity("alpha"), "uses", Entity("beta"), "d"),
            Triple(Entity("beta"), "r", Entity("alpha"), "d"),
        ]
        typed = type_document_triples(triples, table)
        assert [(t.head_type, t.tail_type) for t in typed] == [
            (table["alpha"], table["beta"]), (table["beta"], table["alpha"])
        ]

    def test_empty_list(self, taxonomy, hash_encoder, request_pool):
        typer = self._typer(taxonomy, hash_encoder, EchoSelectBackend(), request_pool)
        assert _type_triples([], typer) == []

    def test_shared_entity_typed_once(self, taxonomy, hash_encoder, request_pool):
        backend = EchoSelectBackend()
        typer = self._typer(taxonomy, hash_encoder, backend, request_pool)
        shared = "shared entity"
        triples = [
            Triple(Entity(shared), "r1", Entity("other one"), "d"),
            Triple(Entity(shared), "r2", Entity("other two"), "d"),
            Triple(Entity("other three"), "r3", Entity(shared), "d"),
        ]
        typed = _type_triples(triples, typer)
        assert len(typed) == len(triples)
        assert [t.relation for t in typed] == ["r1", "r2", "r3"]
        stage1_for_shared = [
            c for c in backend.calls if f'First-level types for entity "{shared}"' in c.user_prompt
        ]
        assert len(stage1_for_shared) == 1


class TestDecomposeQuery:
    def test_running_example(self, toy_gateway):
        dec = send_decomposition(RUNNING_QUESTION, toy_gateway)
        assert len(dec.sub_queries) == 2
        s1, s2 = dec.sub_queries
        assert (s1.head.text, s1.relation, s1.tail.text) == (
            "Science Activity Planner",
            "uses",
            "?Database",
        )
        assert not s1.head.latent and s1.tail.latent
        assert (s2.head.text, s2.relation, s2.tail.text) == ("?Database", "developed_by", "?Company")
        assert dec.type_hints["?Database"] == "database product"

    def test_empty_question_has_no_request(self):
        backend = scripted_mock([])
        with pytest.raises(TasrError, match="query is empty"):
            request_decomposition(" \t ", Gateway(backend=backend))
        assert backend.calls == []

    def test_single_hop(self, toy_gateway):
        dec = send_decomposition("Who developed the MySQL database?", toy_gateway)
        assert len(dec.sub_queries) == 1
        assert dec.sub_queries[0].tail.latent

    def test_consumer_before_producer_rejected(self):
        backend = scripted_mock(
            [
                (
                    "decompose",
                    "bad order",
                    {
                        "sub_queries": [
                            {"head": "?Database", "relation": "developed_by", "tail": "?Company"},
                            {"head": "Planner", "relation": "uses", "tail": "?Database"},
                        ],
                        "type_hints": {},
                    },
                )
            ]
        )
        with pytest.raises(InvalidDecomposition):
            send_decomposition("bad order question", Gateway(backend=backend))

    def test_empty_decomposition_rejected(self):
        backend = scripted_mock([("decompose", "none", {"sub_queries": [], "type_hints": {}})])
        with pytest.raises(InvalidDecomposition):
            send_decomposition("none at all", Gateway(backend=backend))

    def test_overlong_chain_rejected(self):
        subs = [{"head": f"e{i}", "relation": "r", "tail": f"?V{i}"} for i in range(9)]
        backend = scripted_mock([("decompose", "long", {"sub_queries": subs})])
        with pytest.raises(InvalidDecomposition):
            send_decomposition("long question", Gateway(backend=backend))

    def test_missing_hints_are_filled(self):
        backend = scripted_mock(
            [
                (
                    "decompose",
                    "fill",
                    {"sub_queries": [{"head": "x", "relation": "r", "tail": "?BigThing"}]},
                )
            ]
        )
        dec = send_decomposition("fill hints", Gateway(backend=backend))
        assert dec.type_hints["?BigThing"] == "big thing"

    @pytest.mark.parametrize("hint", [None, 7, 2.5, True, ["gadget"], {"kind": "gadget"}])
    def test_non_string_hint_is_typed_as_a_missing_one(self, hint):
        sub_queries = [{"head": "x", "relation": "r", "tail": "?BigThing"}]

        def job_texts(reply):
            return [entity.surface for entity, _ in subquery_typing_jobs(decompose_query(reply))]

        hinted = {"sub_queries": sub_queries, "type_hints": {"?BigThing": hint}}
        assert job_texts(hinted) == job_texts({"sub_queries": sub_queries})

    @settings(max_examples=50, deadline=None)
    @given(
        empty=st.lists(
            st.tuples(st.sampled_from(["", "?"]), st.text(alphabet="_- \t", max_size=3)).map(
                "".join
            ),
            min_size=1,
        ),
        hints=st.dictionaries(
            st.sampled_from(["?BigThing", "small_thing", "?other-thing"]), st.text(max_size=8)
        ),
        description=st.text(max_size=8),
        empty_first=st.booleans(),
    )
    def test_a_hint_whose_name_is_empty_is_dropped(self, empty, hints, description, empty_first):
        sub_queries = [
            {"head": "x", "relation": "r", "tail": "?BigThing"},
            {"head": "?BigThing", "relation": "r2", "tail": "?SmallThing"},
        ]
        dropped = {name: description for name in empty}
        type_hints = {**dropped, **hints} if empty_first else {**hints, **dropped}
        dec = decompose_query({"sub_queries": sub_queries, "type_hints": type_hints})
        assert dec == decompose_query({"sub_queries": sub_queries, "type_hints": hints})

    def test_latent_names_normalized(self):
        backend = scripted_mock(
            [
                (
                    "decompose",
                    "normalize",
                    {
                        "sub_queries": [
                            {"head": "x", "relation": "r", "tail": "?database system"},
                            {"head": "?database_system", "relation": "r2", "tail": "y"},
                        ],
                        "type_hints": {"? database system": "storage software"},
                    },
                )
            ]
        )
        dec = send_decomposition("normalize this", Gateway(backend=backend))
        assert dec.sub_queries[0].tail.text == "?DatabaseSystem"
        assert dec.sub_queries[1].head.text == "?DatabaseSystem"
        assert dec.type_hints["?DatabaseSystem"] == "storage software"


    @pytest.mark.parametrize(
        "item",
        [
            "(x, r, ?Y)",  # a plain string, not an object
            {"head": "x", "tail": "?Y"},  # no relation
            {"head": "x", "relation": ["r"], "tail": "?Y"},
            7,
        ],
    )
    def test_malformed_item_is_a_protocol_error(self, item):
        backend = scripted_mock([("decompose", "malformed", {"sub_queries": [item]})])
        with pytest.raises(LlmProtocolError) as exc:
            send_decomposition("malformed question", Gateway(backend=backend))
        assert exc.value.role_tag == "decompose"


class TestValidateChain:
    def test_second_occurrence_is_consumption(self):
        chain = [
            SubQuery(1, Slot.bound("a"), "r", Slot.variable("?X")),
            SubQuery(2, Slot.variable("?X"), "r", Slot.variable("?Y")),
            SubQuery(3, Slot.variable("?Y"), "r", Slot.bound("b")),
        ]
        validate_chain(chain)  # no error

    def test_two_new_variables_rejected(self):
        chain = [SubQuery(1, Slot.variable("?A"), "r", Slot.variable("?B"))]
        with pytest.raises(InvalidDecomposition):
            validate_chain(chain)


class TestTypeSubqueries:
    def _typer(self, taxonomy, hash_encoder, backend, request_pool):
        from tasr.config import PipelineConfig, validate_config

        return EntityTyper(
            TypeEmbeddingIndex(taxonomy, hash_encoder),
            hash_encoder,
            Gateway(backend=backend),
            validate_config(PipelineConfig()),
            request_pool,
        )

    def test_running_example_typed_from_taxonomy(
        self, toy_gateway, toy_backend, taxonomy, hash_encoder, request_pool
    ):
        dec = send_decomposition(RUNNING_QUESTION, toy_gateway)
        typer = EntityTyper(
            TypeEmbeddingIndex(taxonomy, hash_encoder), hash_encoder, toy_gateway,
            toy_pipeline_cfg(), request_pool,
        )
        typed = _type_subqueries(dec, typer)
        s1, s2 = typed.sub_queries
        assert s1.head_type == TaxonomyLabel("WORK", "SoftwareProject")
        assert s1.tail_type == TaxonomyLabel("PRODUCT", "Database")
        assert s2.head_type == TaxonomyLabel("PRODUCT", "Database")
        assert s2.tail_type == TaxonomyLabel("ORGANIZATION", "Company")

    def test_rule_typable_bound_slot_skips_llm(self, taxonomy, hash_encoder, request_pool):
        backend = EchoSelectBackend()
        typer = self._typer(taxonomy, hash_encoder, backend, request_pool)
        dec = Decomposition(
            sub_queries=[SubQuery(1, Slot.bound("1998"), "occurred_in", Slot.bound("somewhere"))]
        )
        typed = _type_subqueries(dec, typer)
        assert typed.sub_queries[0].head_type == TaxonomyLabel("TIME", "Year")
        assert not any('"1998"' in c.user_prompt for c in backend.calls)

    def test_idempotent(self, taxonomy, hash_encoder, request_pool):
        backend = EchoSelectBackend()
        typer = self._typer(taxonomy, hash_encoder, backend, request_pool)
        dec = Decomposition(
            sub_queries=[SubQuery(1, Slot.bound("alpha"), "r", Slot.variable("?Thing"))],
            type_hints={"?Thing": "gadget"},
        )
        typer.submit(subquery_typing_jobs(dec))
        labels = typer.collect()
        once = type_subqueries(dec, labels)
        twice = type_subqueries(once, labels)
        assert once.sub_queries == twice.sub_queries

    def test_labels_come_from_a_plain_table(self):
        # a bound slot is looked up by its text, a latent one by its description
        table = {
            "alpha": TaxonomyLabel("PRODUCT", "Database"),
            "Thing (gadget)": TaxonomyLabel("OTHER", "Other"),
        }
        dec = Decomposition(
            sub_queries=[SubQuery(1, Slot.bound("alpha"), "r", Slot.variable("?Thing"))],
            type_hints={"?Thing": "gadget"},
        )
        (sq,) = type_subqueries(dec, table).sub_queries
        assert (sq.head_type, sq.tail_type) == (table["alpha"], table["Thing (gadget)"])

    def test_latent_slot_typed_from_hint_description(self, taxonomy, hash_encoder, request_pool):
        backend = EchoSelectBackend()
        typer = self._typer(taxonomy, hash_encoder, backend, request_pool)
        dec = Decomposition(
            sub_queries=[SubQuery(1, Slot.bound("alpha"), "r", Slot.variable("?Thing"))],
            type_hints={"?Thing": "gadget"},
        )
        _type_subqueries(dec, typer)
        assert any('entity "Thing (gadget)"' in c.user_prompt for c in backend.calls)


class TestVariableDescription:
    def test_name_plus_hint(self):
        assert variable_description("?Database", "database product") == "Database (database product)"

    def test_hint_equal_to_name_collapses(self):
        assert variable_description("?Database", "database") == "database"

    def test_missing_hint_humanizes_name(self):
        assert variable_description("?BigCompany", None) == "big company"


def toy_pipeline_cfg():
    from tasr.config import PipelineConfig, validate_config

    return validate_config(PipelineConfig())
