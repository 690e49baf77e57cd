import io
import json
import math
import tempfile
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from tasr.cli import main
from tasr.llm import Gateway

from conftest import DATA, FIXTURES


def _run_args(out_dir, extra=()):
    return [
        "run",
        "--corpus", str(FIXTURES / "corpus.jsonl"),
        "--dataset", str(FIXTURES / "questions.jsonl"),
        "--llm", f"mock:{FIXTURES / 'llm_script.json'}",
        "--embed", "mock:",
        "--out-dir", str(out_dir),
        *extra,
    ]


class TestRunCommand:
    def test_writes_predictions_and_report(self, tmp_path, capsys):
        assert main(_run_args(tmp_path)) == 0
        predictions = [
            json.loads(line)
            for line in (tmp_path / "predictions.jsonl").read_text().splitlines()
        ]
        assert predictions == [
            {"id": "q1", "answer": "MySQL AB"},
            {"id": "q2", "answer": "MySQL AB"},
            {"id": "q3", "answer": "Sun Microsystems, Inc."},
        ]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["em_avg"] == pytest.approx(2 / 3)
        assert report["error_count"] == 0

    def test_flag_overrides_reach_config(self, tmp_path):
        # theta=0.99 filters everything; fallback keeps runs alive, answers unchanged
        assert main(_run_args(tmp_path, ["--theta", "0.99"])) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fallback_count"] > 0

    def test_pre_extract_mode_gives_same_answers(self, tmp_path):
        plain, pre = tmp_path / "plain", tmp_path / "pre"
        assert main(_run_args(plain)) == 0
        assert main(_run_args(pre, ["--pre-extract"])) == 0
        assert (plain / "predictions.jsonl").read_text() == (
            pre / "predictions.jsonl"
        ).read_text()

    def test_config_file_is_honored(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"theta": 0.99}')
        assert main(_run_args(tmp_path, ["--config", str(cfg_file)])) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fallback_count"] > 0

    def test_trace_dir(self, tmp_path):
        trace_dir = tmp_path / "traces"
        assert main(_run_args(tmp_path, ["--trace-dir", str(trace_dir)])) == 0
        assert sorted(p.name for p in trace_dir.glob("*.json")) == [
            "q1.json",
            "q2.json",
            "q3.json",
        ]

    def test_taxonomy_file_holding_the_bundled_table_changes_nothing(self, tmp_path):
        table = tmp_path / "taxonomy.json"
        table.write_bytes((resources.files("tasr") / "data" / "default_taxonomy.json").read_bytes())
        runs = {}
        for name, extra in (("default", []), ("file", ["--taxonomy", str(table)])):
            out = tmp_path / name
            assert main(_run_args(out, ["--trace-dir", str(out / "traces"), *extra])) == 0
            runs[name] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*.json*")}
        assert len(runs["default"]) == 5  # predictions, report and three traces
        assert runs["file"] == runs["default"]

    def test_two_runs_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(_run_args(first)) == 0
        assert main(_run_args(second)) == 0
        assert (first / "predictions.jsonl").read_bytes() == (
            second / "predictions.jsonl"
        ).read_bytes()
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()

    def test_missing_llm_endpoint_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("TASR_LLM_URL", raising=False)
        code = main(
            [
                "run",
                "--corpus", str(FIXTURES / "corpus.jsonl"),
                "--dataset", str(FIXTURES / "questions.jsonl"),
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 1
        assert "TASR_LLM_URL" in capsys.readouterr().err


    @pytest.mark.parametrize("extra, message", [
        pytest.param(["--parallel", "0"], "parallel: must be at least 1, got 0", id="0"),
        pytest.param(["--parallel", "-2"], "parallel: must be at least 1, got -2", id="-2"),
        pytest.param(
            ["--pre-extract", "--parallel", "0"], "parallel: must be at least 1, got 0",
            id="pre-extract",
        ),
        pytest.param(
            ["--pre-extract", "--dataset", "{tmp}/no-question.jsonl"], "dataset ",
            id="dataset-line-without-question",
        ),
        pytest.param(["--out-dir", "{tmp}/file"], "--out-dir ", id="out-dir-is-a-file"),
        pytest.param(["--trace-dir", "{tmp}/file"], "--trace-dir ", id="trace-dir-is-a-file"),
    ])
    def test_parallel_below_one_fails_cleanly(
        self, tmp_path, capsys, monkeypatch, extra, message
    ):
        # a bad flag, dataset or directory is found before the pipeline sends a request
        (tmp_path / "file").write_text("")
        (tmp_path / "no-question.jsonl").write_text('{"id": "q1", "answers": ["a"]}\n')
        sent, call = [], Gateway.call
        monkeypatch.setattr(Gateway, "call", lambda self, *a: sent.append(a[0]) or call(self, *a))
        argv = _run_args(tmp_path, [arg.format(tmp=tmp_path) for arg in extra])
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert sent == []
        assert not (tmp_path / "predictions.jsonl").exists()

    @pytest.mark.parametrize("extra, message", [
        pytest.param(
            ["--out-dir", "{tmp}/new/out", "--trace-dir", "{tmp}/file"], "--trace-dir ",
            id="trace-dir-fails-after-out-dir",
        ),
        pytest.param(
            ["--trace-dir", "{tmp}/new/traces", "--out-dir", "{tmp}/file/out"], "--out-dir ",
            id="out-dir-fails-before-trace-dir",
        ),
        pytest.param(
            ["--out-dir", "{tmp}/old", "--trace-dir", "{tmp}/old/new/traces",
             "--corpus", "{tmp}/missing.jsonl"], "corpus ",
            id="set-up-fails-after-both",
        ),
    ])
    def test_a_failed_run_leaves_no_directory_it_made(self, tmp_path, capsys, extra, message):
        # directories that were there before the run stay
        (tmp_path / "file").write_text("")
        (tmp_path / "old").mkdir()
        argv = _run_args(tmp_path, [arg.format(tmp=tmp_path) for arg in extra])
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "old"]
        assert list((tmp_path / "old").iterdir()) == []


# the five toy runs whose outputs must not change: each mode's extra flags
TOY_MODES = {
    "plain": [],
    "pre_extract": ["--pre-extract"],
    "chain": ["--hop-scope", "chain"],
    "parallel_2": ["--parallel", "2"],
    "pure": ["--config", "{pure}"],
}


def _toy_outputs(root, extra):
    """What a toy ``tasr run`` writes under ``root``: predictions, report, one parsed
    trace per question and the stdout summary line."""
    root.mkdir(parents=True)
    pure = root / "pure.cfg"  # the config file the pure mode names
    pure.write_text("typing_mode=pure\n")
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        extra = [arg.format(pure=pure) for arg in extra]
        assert main(_run_args(root / "out", ["--trace-dir", str(root / "traces"), *extra])) == 0
    return {
        "predictions.jsonl": (root / "out" / "predictions.jsonl").read_text(),
        "report.json": (root / "out" / "report.json").read_text(),
        "traces": {p.name: json.loads(p.read_text()) for p in sorted((root / "traces").iterdir())},
        "summary": stdout.getvalue().splitlines()[-1],
    }


def _same_json(actual, expected):
    """Equal parsed JSON, floats within 1e-9 relative (1e-12 absolute near 0): component
    cosines go through BLAS, whose last bits may differ between hosts."""
    if isinstance(expected, float):
        return isinstance(actual, float) and math.isclose(
            actual, expected, rel_tol=1e-9, abs_tol=1e-12
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict) and actual.keys() == expected.keys()
            and all(_same_json(actual[key], value) for key, value in expected.items())
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list) and len(actual) == len(expected)
            and all(map(_same_json, actual, expected))
        )
    return type(actual) is type(expected) and actual == expected


@pytest.mark.parametrize("mode", TOY_MODES)
def test_toy_run_matches_golden_outputs(tmp_path, mode):
    golden = json.loads((DATA / "toy_outputs.json").read_text())[mode]
    outputs = _toy_outputs(tmp_path / mode, TOY_MODES[mode])
    for name in ("predictions.jsonl", "report.json", "summary"):
        assert outputs[name] == golden[name], name
    assert outputs["traces"].keys() == golden["traces"].keys()
    for name, trace in golden["traces"].items():
        assert _same_json(outputs["traces"][name], trace), name


class TestEvalCommand:
    def test_scores_predictions_file(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(_run_args(run_dir)) == 0
        out = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--predictions", str(run_dir / "predictions.jsonl"),
                "--dataset", str(FIXTURES / "questions.jsonl"),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["em_avg"] == pytest.approx(2 / 3)
        assert report["f1_avg"] == pytest.approx((1 + 1 + 0.8) / 3)


class TestTypeEntityCommand:
    def test_rule_typed_entity_needs_no_llm(self, capsys):
        assert main(["type-entity", "--text", "1998"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"entity": "1998", "l1": "TIME", "l2": "Year"}

    def test_llm_typed_entity_with_mock(self, capsys):
        code = main(
            [
                "type-entity",
                "--text", "MySQL database",
                "--llm", f"mock:{FIXTURES / 'llm_script.json'}",
                "--embed", "mock:",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["l1"], out["l2"]) == ("PRODUCT", "Database")


_PLANNER_SUBQUERY = {
    "head": "Science Activity Planner",
    "relation": "uses",
    "tail": "?Database",
    "head_type": ["WORK", "SoftwareProject"],
    "tail_type": ["PRODUCT", "Database"],
}
_PLANNER_USES_MYSQL = {
    "head": "Science Activity Planner",
    "relation": "uses",
    "tail": "MySQL database",
    "head_type": ["WORK", "SoftwareProject"],
    "tail_type": ["PRODUCT", "Database"],
}
_MYSQL_BY_COMPANY = {
    "head": "MySQL",
    "relation": "developed_by",
    "tail": "MySQL AB",
    "head_type": ["PRODUCT", "Database"],
    "tail_type": ["ORGANIZATION", "Company"],
}
_MATCH_HEADER = """\
sub-query: (Science Activity Planner, uses, ?Database)   types: WORK/SoftwareProject, PRODUCT/Database
doc triple                                                      cos_h    cos_r    cos_t  St(h)  St(t)  S_str    S_sem    S_tri
------------------------------------------------------------------------------------------------------------------------------
"""
_MATCH_ROWS = """\
(Science Activity Planner, uses, MySQL database)               1.0000   1.0000   0.0854   1.00   1.00   1.00   0.6342   0.8171
(MySQL, developed_by, MySQL AB)                                0.0403  -0.0561   0.0492   0.00   0.00   0.00   0.0149   0.0075
(Science Activity Planner, uses, MySQL database)               1.0000   1.0000   0.0854   1.00   1.00   1.00   0.6342   0.8171

best triple score: 0.817083   document score: 0.817083 (threshold 0.3)
"""


class TestMatchCommand:
    def test_prints_score_decomposition(self, tmp_path, capsys):
        sq_path = tmp_path / "sq.json"
        dt_path = tmp_path / "dt.json"
        sq_path.write_text(json.dumps(_PLANNER_SUBQUERY))
        dt_path.write_text(json.dumps({"doc_id": "doc1", "triples": [_PLANNER_USES_MYSQL]}))
        code = main(
            ["match", "--subquery", str(sq_path), "--doc-triples", str(dt_path), "--embed", "mock:"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "S_tri" in out and "cos_h" in out
        assert "document score" in out
        # full type match on both slots with exact head/relation strings
        assert "1.00" in out

    @pytest.mark.parametrize("triples,expected", [
        pytest.param([_PLANNER_USES_MYSQL, _MYSQL_BY_COMPANY, _PLANNER_USES_MYSQL],
                     _MATCH_HEADER + _MATCH_ROWS, id="match-mismatch-tie"),
        pytest.param([], _MATCH_HEADER, id="tripleless"),
    ])
    def test_stdout_is_golden(self, tmp_path, capsys, triples, expected):
        # byte for byte: a row per triple in input order, a type mismatch, a tie between
        # equal triples, and a tripleless document that prints the header alone
        sq_path, dt_path = tmp_path / "sq.json", tmp_path / "dt.json"
        sq_path.write_text(json.dumps(_PLANNER_SUBQUERY))
        dt_path.write_text(json.dumps({"doc_id": "d", "triples": triples}))
        argv = ["match", "--subquery", str(sq_path), "--doc-triples", str(dt_path), "--embed", "mock:"]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_pool_is_scored_once(self, tmp_path, monkeypatch):
        # the printed rows and the document score are read from one pair table
        from tasr import cli, matching

        calls, score = [], matching.pair_scores
        for module in (cli, matching):  # wherever the command or the rank step looks it up
            monkeypatch.setattr(module, "pair_scores", lambda *a: calls.append(a) or score(*a))
        sq_path, dt_path = tmp_path / "sq.json", tmp_path / "dt.json"
        sq_path.write_text(json.dumps(_PLANNER_SUBQUERY))
        triples = [_PLANNER_USES_MYSQL, _MYSQL_BY_COMPANY, _PLANNER_USES_MYSQL]
        dt_path.write_text(json.dumps({"doc_id": "d", "triples": triples}))
        argv = ["match", "--subquery", str(sq_path), "--doc-triples", str(dt_path), "--embed", "mock:"]
        assert main(argv) == 0
        assert len(calls) == 1


def _bad_input_argv(kind, path, tmp_path):
    if kind == "eval":
        dataset = str(FIXTURES / "questions.jsonl")
        return ["eval", "--predictions", path, "--dataset", dataset, "--out", str(tmp_path / "r.json")]
    if kind == "match":
        doc_triples = tmp_path / "dt.json"
        doc_triples.write_text('{"triples": []}')
        return ["match", "--subquery", path, "--doc-triples", str(doc_triples), "--embed", "mock:"]
    if kind == "config":
        return _run_args(tmp_path, ["--config", path])
    if kind in ("dataset", "corpus", "taxonomy"):
        return _run_args(tmp_path, [f"--{kind}", path])
    return _run_args(tmp_path, ["--llm", f"mock:{path}"])


def _dataset_line(question_id):
    return json.dumps({"id": question_id, "question": "Who?", "answers": ["x"]}) + "\n"


_NO_TAIL = {"head": "a", "relation": "r", "head_type": ["X", "Y"], "tail_type": ["X", "Y"]}
_INPUT_KINDS = ("eval", "match", "config", "dataset", "corpus", "taxonomy", "script")
_NOT_UTF8 = b'{"id": "q\xff1", "question": "q?", "answers": ["x"]}\n'
_NOT_UTF8_3KB = b'{"head": "' + b"\xff" * 3000 + b'"}'
_NESTED_TOO_DEEP = "[" * 100_000 + "]" * 100_000 + "\n"
_INT_TOO_LARGE_FOR_FLOAT = "1" + "0" * 400


def _corpus_line(**changes):
    return json.dumps({"id": "d1", "title": "T", "text": "x", **changes}) + "\n"


def _bundled_taxonomy(change):
    data = json.loads(
        (resources.files("tasr") / "data" / "default_taxonomy.json").read_text(encoding="utf-8")
    )
    change(data["l1"][0])
    return json.dumps(data)


def _toy_script(change):
    data = json.loads((FIXTURES / "llm_script.json").read_text())
    change(data["responses"][0])
    return json.dumps(data)


@pytest.mark.parametrize(
    "kind,content",
    [
        pytest.param("eval", None, id="eval-missing-file"),
        pytest.param("eval", '{"id": "q1", "answer": "x"}\nnot json\n', id="eval-non-json-line"),
        pytest.param("eval", "[1, 2]\n", id="eval-non-object-line"),
        pytest.param("eval", '{"answer": "x"}\n', id="eval-record-without-id"),
        pytest.param("eval", '{"id": "q1", "answer": 5}\n', id="eval-non-string-answer"),
        pytest.param("eval", '{"id": "q1", "answer": "x"}\n{"id": "q1", "answer": "y"}\n',
                     id="eval-duplicate-id"),
        pytest.param("eval", '{"id": "q1", "answer": "x"}\n{"id": "zz", "answer": "y"}\n',
                     id="eval-id-not-in-dataset"),
        pytest.param("match", json.dumps(_NO_TAIL), id="match-subquery-without-tail"),
        pytest.param("match", None, id="match-missing-subquery-file"),
        pytest.param("config", None, id="config-missing-file"),
        pytest.param("config", "k0=abc\n", id="config-unparsable-int"),
        pytest.param("config", '{"theta": "abc"}', id="config-non-number-json-value"),
        pytest.param("config", '{"w1": NaN, "w2": 0.5}', id="config-nan-weight"),
        pytest.param("dataset", '{"id": "q1", "question": "q?", "answers": 5}\n',
                     id="dataset-answers-not-a-list"),
        pytest.param("dataset", '{"id": "q1", "question": "   ", "answers": ["x"]}\n',
                     id="dataset-blank-question"),
        pytest.param("dataset", _dataset_line(""), id="dataset-empty-id"),
        pytest.param("dataset", _dataset_line("a/q1"), id="dataset-id-with-slash"),
        pytest.param("dataset", _dataset_line("../x"), id="dataset-id-escaping-trace-dir"),
        pytest.param("dataset", _dataset_line("q\u0000"), id="dataset-id-with-nul"),
        pytest.param("dataset", _dataset_line("q\ud800"), id="dataset-id-with-lone-surrogate"),
        pytest.param("dataset", _dataset_line("q1") + _dataset_line("q1"),
                     id="dataset-duplicate-id"),
        pytest.param("script", None, id="mock-script-missing-file"),
        pytest.param("script", '{"responses": [{"role": "answer", "response": {}}]}',
                     id="mock-script-entry-without-match"),
        pytest.param("config", '{"alpha": %s}' % _INT_TOO_LARGE_FOR_FLOAT,
                     id="config-int-too-large-for-float"),
        pytest.param("match", json.dumps({**_NO_TAIL, "tail": "?b", "relation": " \t "}),
                     id="match-blank-relation"),
        pytest.param("match", json.dumps({**_NO_TAIL, "tail": "?b", "head": "  "}),
                     id="match-blank-bound-head"),
        pytest.param("match", json.dumps({**_NO_TAIL, "tail": "b", "index": 1e400}),
                     id="match-infinite-index"),
        pytest.param("match", _NOT_UTF8_3KB, id="match-3kb-not-utf8"),
        # valid JSON escapes of lone surrogates: such text cannot be printed
        pytest.param("match", json.dumps({**_NO_TAIL, "tail": "b\ud800"}),
                     id="match-lone-surrogate"),
        pytest.param("match", json.dumps({**_NO_TAIL, "tail": "b", "head_type": ["X", "\udc00"]}),
                     id="match-lone-surrogate-in-a-type"),
        pytest.param("script", _NOT_UTF8_3KB, id="script-3kb-not-utf8"),
        pytest.param("corpus", _corpus_line(id=5), id="corpus-int-id"),
        pytest.param("corpus", _corpus_line(title=None), id="corpus-null-title"),
        pytest.param("corpus", _corpus_line(text=["x"]), id="corpus-list-text"),
        pytest.param("dataset", '{"id": 1, "question": "q?", "answers": ["x"]}\n',
                     id="dataset-int-id"),
        pytest.param("dataset", '{"id": "q1", "question": 7, "answers": ["x"]}\n',
                     id="dataset-int-question"),
        pytest.param("dataset", '{"id": "q1", "question": "q?", "answers": ["x", 2]}\n',
                     id="dataset-non-string-answer"),
        pytest.param("taxonomy", _bundled_taxonomy(lambda b: b.update(name=7)),
                     id="taxonomy-int-class-name"),
        pytest.param("taxonomy", _bundled_taxonomy(lambda b: b.update(l2="ab")),
                     id="taxonomy-l2-a-string"),
        pytest.param("taxonomy", _bundled_taxonomy(lambda b: b.update(l2=["x", "x"])),
                     id="taxonomy-duplicate-l2"),
        pytest.param("taxonomy", _bundled_taxonomy(lambda b: b.update(l2=[["x"]])),
                     id="taxonomy-l2-holding-a-list"),
        pytest.param("script", _toy_script(lambda e: e.update(match=3)), id="script-int-match"),
        pytest.param("script", _toy_script(lambda e: e.update(role="summarize")),
                     id="script-unknown-role"),
        *[pytest.param(kind, _NOT_UTF8, id=f"{kind}-not-utf8") for kind in _INPUT_KINDS],
        *[pytest.param(kind, _NESTED_TOO_DEEP, id=f"{kind}-nested-too-deep")
          for kind in _INPUT_KINDS],
    ],
)
def test_bad_input_file_fails_cleanly(tmp_path, capsys, kind, content):
    path = tmp_path / "input"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    assert main(_bad_input_argv(kind, str(path), tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # one short line however large the input: 300 bytes beside each mention of the path
    assert len(err.replace(str(path), "").encode()) < 300


def test_pre_extract_typing_fallbacks_reach_report(tmp_path):
    # an out-of-vocabulary stage-1 reply, twice, sends one entity to the fallback
    script = json.loads((FIXTURES / "llm_script.json").read_text())
    script["responses"].insert(0, {
        "role": "type_select",
        "match": 'First-level types for entity "Mars".',
        "response": {"labels": ["NOT_A_TYPE"]},
    })
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script))
    out = tmp_path / "out"
    assert main(_run_args(out, ["--pre-extract", "--llm", f"mock:{script_path}"])) == 0
    report = json.loads((out / "report.json").read_text())
    # the scripted stage-2 pair is then not among the pairs offered, so stage 2 falls back too
    assert report["startup_events"] == [
        "type_select fallback (stage 1) for entity 'Mars'",
        "type_select fallback (stage 2) for entity 'Mars'",
    ]

    assert main(_run_args(tmp_path / "plain")) == 0
    assert json.loads((tmp_path / "plain" / "report.json").read_text())["startup_events"] == []


if __name__ == "__main__":  # rewrite the golden outputs: PYTHONPATH=src python tests/test_cli.py
    with tempfile.TemporaryDirectory() as tmp:
        golden = {mode: _toy_outputs(Path(tmp) / mode, extra) for mode, extra in TOY_MODES.items()}
    (DATA / "toy_outputs.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
