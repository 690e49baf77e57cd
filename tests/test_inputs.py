"""Every input file goes through ``tasr.errors.read_json``: whatever a file holds, a load
returns or raises a TasrError with a short message, never another exception.

One property per loader feeds it arbitrary bytes, arbitrary JSON values and objects
that hold some of the format's keys with valid or arbitrary values.
"""

import contextlib
import io
import json
import uuid

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tasr.cli import main
from tasr.config import PipelineConfig, load_config
from tasr.embedding import CachingEncoder, HashEncoderClient
from tasr.errors import (
    ConfigError,
    DatasetParseError,
    EmptyBranch,
    RangeViolation,
    TasrError,
    TaxonomyParseError,
    json_field,
    read_json,
)
from tasr.evaluation import load_corpus, load_dataset, load_predictions
from tasr.llm import ROLE_TAGS, load_script
from tasr.taxonomy import load_taxonomy

MESSAGE_BOUND = 300  # bytes of a message besides the path it names

SCALARS = (
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text()
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=10,
)


def near(**valid):
    """Objects holding some of the format's keys, each most often a valid value, else any
    JSON value."""
    return st.fixed_dictionaries(
        {}, optional={k: st.one_of(v, v, JSON_VALUES) for k, v in valid.items()}
    )


def document(values):
    """A file of one JSON value, or arbitrary bytes."""
    return st.tuples(values, st.booleans()).map(
        lambda pair: json.dumps(pair[0], ensure_ascii=pair[1]).encode("utf-8", "surrogatepass")
    ) | st.binary(max_size=300)


def jsonl(values):
    """A JSONL file of lines holding one JSON value each, some blank, or arbitrary bytes."""
    line = st.tuples(values, st.booleans()).map(
        lambda pair: json.dumps(pair[0], ensure_ascii=pair[1]).encode("utf-8", "surrogatepass")
    )
    return st.lists(line | st.just(b""), max_size=4).map(b"\n".join) | st.binary(max_size=300)


LABELS = (
    st.lists(st.text(max_size=8), min_size=2, max_size=2)
    | near(l1=st.text(), l2=st.text())
    | SCALARS  # neither a pair nor an object
    | st.lists(st.text(max_size=8), max_size=3).filter(lambda labels: len(labels) != 2)
)
MATCH_ITEM = near(
    head=st.text(max_size=8),
    relation=st.text(max_size=8),
    tail=st.text(max_size=8),
    head_type=LABELS,
    tail_type=LABELS,
)
SUBQUERY = near(
    head=st.text(max_size=8),
    relation=st.text(max_size=8),
    tail=st.text(max_size=8),
    head_type=LABELS,
    tail_type=LABELS,
    index=st.integers(),
)
VALID_SUBQUERY = {
    "head": "a", "relation": "r", "tail": "?b", "head_type": ["X", "Y"], "tail_type": ["X", "Y"]
}
VALID_DOC_TRIPLES = {"doc_id": "d", "triples": [{**VALID_SUBQUERY, "tail": "b"}]}


@pytest.fixture(scope="module")
def write(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")

    def write_file(content: bytes):
        path = directory / uuid.uuid4().hex
        path.write_bytes(content)
        return path

    return write_file


def loads_or_fails_cleanly(load, path, holds=lambda value: True):
    """``load(path)`` returns a value that ``holds``, or raises a short TasrError."""
    try:
        value = load(path)
    except TasrError as exc:
        assert len(str(exc).replace(str(path), "").encode()) < MESSAGE_BOUND, str(exc)
    else:
        assert holds(value)


def strings(*values):
    return all(isinstance(value, str) for value in values)


def runs_or_fails_cleanly(argv, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code:
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().replace(str(path), "").encode()) < MESSAGE_BOUND


PROPERTY = settings(max_examples=100, deadline=None)


class TestEveryLoaderReturnsOrFailsTyped:
    @PROPERTY
    @given(jsonl(JSON_VALUES | near(id=st.text(), title=st.text(), text=st.text())))
    def test_corpus(self, write, content):
        loads_or_fails_cleanly(
            load_corpus,
            write(content),
            lambda documents: all(strings(d.id, d.title, d.text) for d in documents),
        )

    @PROPERTY
    @given(jsonl(JSON_VALUES | near(
        id=st.text(), question=st.text(), answers=st.lists(st.text(), max_size=3)
    )))
    def test_dataset(self, write, content):
        loads_or_fails_cleanly(
            load_dataset,
            write(content),
            lambda examples: all(strings(e.id, e.question, *e.answers) for e in examples),
        )

    @PROPERTY
    @given(jsonl(JSON_VALUES | near(id=st.sampled_from(["q1", "q2"]), answer=st.text())))
    def test_predictions(self, write, content):
        loads_or_fails_cleanly(
            load_predictions,
            write(content),
            lambda records: all(strings(r["id"], r.get("answer", "")) for r in records),
        )

    @PROPERTY
    @given(
        document(JSON_VALUES | near(**{
            name: st.integers() | st.floats() | st.sampled_from(["current", "chain", "pure"])
            for name in PipelineConfig.__dataclass_fields__
        }))
        | st.lists(
            st.tuples(st.sampled_from([*PipelineConfig.__dataclass_fields__, "x"]), st.text())
        ).map(lambda lines: "\n".join(f"{k}={v}" for k, v in lines).encode())
    )
    def test_config(self, write, content):
        loads_or_fails_cleanly(load_config, write(content))

    @PROPERTY
    @given(document(JSON_VALUES | near(l1=st.lists(
        JSON_VALUES | near(name=st.text(max_size=6), l2=st.lists(st.text(max_size=6))), max_size=3
    ))))
    def test_taxonomy(self, write, content):
        loads_or_fails_cleanly(
            load_taxonomy,
            write(content),
            lambda taxonomy: all(strings(p.l1, p.l2) for p in taxonomy.all_pairs()),
        )

    @PROPERTY
    @given(document(JSON_VALUES | near(responses=st.lists(
        JSON_VALUES | near(role=st.sampled_from(ROLE_TAGS), match=st.text(), response=JSON_VALUES),
        max_size=3,
    ))))
    def test_script(self, write, content):
        loads_or_fails_cleanly(
            load_script,
            write(content),
            lambda backend: all(
                e.role_tag in ROLE_TAGS and strings(e.match) for e in backend.entries
            ),
        )

    @PROPERTY
    @given(jsonl(JSON_VALUES | near(
        text=st.text(),
        vector=st.lists(
            st.integers() | st.floats() | st.just(10**400) | st.text() | st.booleans() | st.none(),
            min_size=2,
            max_size=2,
        ),
    )))
    @example(b'{"text": "a", "vector": [0.0, "1.0"]}')
    @example(b'{"text": "a", "vector": [true, 0.0]}')
    @example(b'{"text": "a", "vector": [0.0, null]}')
    def test_vector_cache(self, write, content):
        loads_or_fails_cleanly(
            lambda path: CachingEncoder(HashEncoderClient(dim=2), cache_path=path), write(content)
        )

    @PROPERTY
    @given(document(JSON_VALUES | SUBQUERY))
    @example(json.dumps({**VALID_SUBQUERY, "head_type": "X/Y"}).encode())
    @example(json.dumps({**VALID_SUBQUERY, "tail_type": ["X", "Y", "Z"]}).encode())
    def test_match_subquery(self, write, content):
        path = write(content)
        doc_triples = write(json.dumps(VALID_DOC_TRIPLES).encode())
        argv = ["match", "--subquery", str(path), "--doc-triples", str(doc_triples)]
        runs_or_fails_cleanly([*argv, "--embed", "mock:"], path)

    @PROPERTY
    @given(document(JSON_VALUES | near(
        doc_id=st.text(max_size=6), triples=st.lists(JSON_VALUES | MATCH_ITEM, max_size=3)
    )))
    @example(json.dumps({"triples": [{**VALID_SUBQUERY, "tail": "b", "tail_type": 7}]}).encode())
    def test_match_doc_triples(self, write, content):
        path = write(content)
        subquery = write(json.dumps(VALID_SUBQUERY).encode())
        argv = ["match", "--subquery", str(subquery), "--doc-triples", str(path)]
        runs_or_fails_cleanly([*argv, "--embed", "mock:"], path)


class TestReadJson:
    def test_message_names_what_path_and_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n\n[\n')
        with pytest.raises(DatasetParseError) as exc:
            read_json(path, DatasetParseError, "thing", lambda value: value, lines=True)
        assert str(exc.value).startswith(f"thing {path} line 3: ")

    def test_error_from_parse_keeps_its_class_and_fields(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("{}")

        def parse(value):
            raise RangeViolation("alpha", "too big")

        with pytest.raises(RangeViolation) as exc:
            read_json(path, ConfigError, "config", parse)
        assert exc.value.field == "alpha"
        assert str(exc.value) == f"config {path}: alpha: too big"

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"\xff" * 3000, id="not-utf8"),
            pytest.param(b"[" * 100_000, id="nested-too-deep"),
            pytest.param(b"1" * 5000, id="too-many-digits"),
            pytest.param(b'{"a": ' + b"x" * 3000 + b"}", id="not-json"),
        ],
    )
    def test_undecodable_file_is_the_given_error_with_a_short_message(self, tmp_path, content):
        path = tmp_path / "f.json"
        path.write_bytes(content)
        with pytest.raises(TaxonomyParseError) as exc:
            read_json(path, TaxonomyParseError, "taxonomy", lambda value: value)
        assert len(str(exc.value).replace(str(path), "")) < MESSAGE_BOUND

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="No such file"):
            read_json(tmp_path / "absent", ConfigError, "config", lambda value: value)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'\n1\n  \r\n2\r\n\n')
        assert read_json(path, DatasetParseError, "x", lambda value: value, lines=True) == [1, 2]


class TestJsonField:
    @pytest.mark.parametrize(
        "value,kind",
        [
            pytest.param([], str, id="not-an-object"),
            pytest.param({}, str, id="missing"),
            pytest.param({"k": 1}, str, id="wrong-kind"),
            pytest.param({"k": True}, int, id="bool-is-not-int"),
        ],
    )
    def test_other_shapes_raise_the_given_error(self, value, kind):
        with pytest.raises(EmptyBranch, match="expected {'k': "):
            json_field(value, "k", kind, EmptyBranch)

    def test_returns_the_value(self):
        assert json_field({"k": 3}, "k", int, EmptyBranch) == 3
        assert json_field({"k": False}, "k", bool, EmptyBranch) is False
