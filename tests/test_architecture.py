"""Whole-repo guards.

Chat traffic flows through the gateway module only, requests are sent and
parsed by ``Gateway`` alone, each role's requests are sent from one module,
the structurer reads labels without typing, the reasoner submits only calls and
jobs built elsewhere, only the matching module spells a triple's component
texts or computes a pair or document score, JSON is decoded only where outside
input enters, only dense search over a large matrix multiplies matrices, the
typing mode is read in one place, thread pools are built in two places and
their private state is left alone, the demos run, and every function the
benchmark's traced run wraps still exists under its name.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tasr"


def _sources():
    return {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}


def test_chat_endpoint_only_in_gateway_module():
    for name, text in _sources().items():
        if name != "llm.py":
            assert "chat/completions" not in text, name


def test_only_gateway_sends_requests_and_parses_replies():
    # Gateway.call owns retries and parsing: callers get the parsed value back
    for name, text in _sources().items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Attribute) and node.attr == "parsed"), name
        if name == "llm.py":
            (gateway,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Gateway"]
            tree.body.remove(gateway)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr != "complete", f"{name}:{node.lineno} calls .complete("


def test_each_role_is_sent_from_one_module():
    # a request's prompt, send and parse live together: x.call("<role>", ...) directly,
    # or handed on as submit(x.call, "<role>", ...) or partial(x.call, "<role>", ...)
    senders = {}
    for name, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            args = node.args
            if isinstance(node.func, ast.Attribute) and node.func.attr == "call":
                role = args[0] if args else None
            elif args and isinstance(args[0], ast.Attribute) and args[0].attr == "call":
                role = args[1] if len(args) > 1 else None
            else:
                continue
            assert isinstance(role, ast.Constant), f"{name}:{node.lineno} sends an unnamed role"
            senders.setdefault(role.value, set()).add(name)
    assert senders == {
        "extract": {"structurer.py"},
        "decompose": {"structurer.py"},
        "type_select": {"taxonomy.py"},
        "answer": {"reasoner.py"},
    }


def test_no_module_imports_requests():
    # HTTP goes through the standard library (tasr.llm.post_json)
    for name, text in _sources().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] != "requests" for alias in node.names), name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "requests", name


def test_structurer_labels_by_lookup():
    # typing is one step of the question: the structurer reads labels, it never types
    assert "EntityTyper" not in _sources()["structurer.py"]


def test_reasoner_submits_built_calls():
    # the structurer builds each request and typing job on the question's thread: the
    # reasoner hands each over whole, as .submit(one_argument)
    submits = [
        node for node in ast.walk(ast.parse(_sources()["reasoner.py"]))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "submit"
    ]
    assert submits
    for node in submits:
        assert len(node.args) == 1 and not node.keywords, f"reasoner.py:{node.lineno}"


def test_component_texts_named_only_in_matching():
    # matching.triple_texts is the one place that spells a triple's role-prefixed texts
    from tasr.matching import HEAD_PREFIX, RELATION_PREFIX, TAIL_PREFIX

    prefixes = (HEAD_PREFIX, RELATION_PREFIX, TAIL_PREFIX)
    for name, text in _sources().items():
        if name == "matching.py":
            continue
        for word in ("component_texts", "HEAD_PREFIX", "RELATION_PREFIX", "TAIL_PREFIX"):
            assert word not in text, f"{name} names {word}"
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not node.value.startswith(prefixes), f"{name}:{node.lineno}"


def test_scores_computed_only_in_matching():
    # the CLI, the demos and the pipeline read pair scores from matching.pair_scores and
    # document scores from matching.filter_and_rank; none rebuilds either by hand
    formulas = {"TripleMatch", "aggregate_document_score", "_match"}
    paths = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py")]
    for path in (p for p in paths if p.name != "matching.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            called = getattr(func, "id", getattr(func, "attr", None))
            assert called not in formulas, f"{path.name}:{node.lineno} calls {called}"


def _scoped_nodes(node, scope=""):
    """Every node under ``node`` with the dotted name of the function or class holding it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _scoped_nodes(child, f"{scope}.{child.name}".lstrip("."))
            continue
        yield scope, child
        yield from _scoped_nodes(child, scope)


def test_json_decoded_only_at_the_input_boundaries():
    # input files go through errors.read_json; replies are decoded where they are received
    allowed = {"read_json", "Gateway.call", "post_json", "load_default_taxonomy"}
    for name, text in _sources().items():
        for scope, node in _scoped_nodes(ast.parse(text)):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Attribute) and func.attr == "loads":
                where = scope or "module scope"
                assert scope in allowed, f"{name}:{node.lineno} decodes JSON in {where}"


def test_matrix_product_only_in_large_dense_search():
    # a matrix product runs in OpenBLAS, whose threads spin between calls and split rows
    # by core count: score a matrix row by row with np.vecdot, or np.dot two 1-D vectors.
    # Dense search alone multiplies, and only a matrix past embedding.SEARCH_BLAS_BYTES
    one_d_dots = {("matching.py", "_cosines")}  # dots one component vector with another
    products = {"matmul", "dot", "vdot", "inner", "tensordot"}
    multiplied = []
    for name, text in _sources().items():
        for scope, node in _scoped_nodes(ast.parse(text)):
            if isinstance(getattr(node, "op", None), ast.MatMult):
                multiplied.append((name, scope))
            if isinstance(node, ast.Attribute) and node.attr in products:
                assert node.attr == "dot" and (name, scope) in one_d_dots, (
                    f"{name}:{node.lineno} calls {node.attr} in {scope or 'module scope'}"
                )
    assert multiplied == [("embedding.py", "VectorIndex.search")]


def test_typing_mode_read_once_outside_config():
    # EntityTyper.select_type picks both typing stages' candidates in one branch on the mode
    reads = []
    for name, text in _sources().items():
        if name == "config.py":  # defines, parses and validates the field
            continue
        for scope, node in _scoped_nodes(ast.parse(text)):
            named = getattr(node, "attr", None) or getattr(node, "value", None)
            if named == "typing_mode":  # cfg.typing_mode, or a getattr by name
                reads.append((name, scope))
    assert reads == [("taxonomy.py", "EntityTyper.select_type")]


def test_thread_pools_built_in_two_places_and_not_reached_into():
    # a question's requests run on reasoner.request_pool, which stops with the question;
    # run_benchmark runs the questions. An executor's private state (its thread cap, queue
    # and threads) is the standard library's: no module subclasses an executor or sets it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as idle:
        private = {attr for attr in vars(idle) if attr.startswith("_")}
    built = []
    for name, text in _sources().items():
        tree = ast.parse(text)
        for scope, node in _scoped_nodes(tree):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "ThreadPoolExecutor":
                built.append((name, scope))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [getattr(base, "id", getattr(base, "attr", "")) for base in node.bases]
                assert not any(b.endswith("Executor") for b in bases), f"{name}: {node.name}"
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for part in (part for target in targets for part in ast.walk(target)):
                    assert getattr(part, "attr", None) not in private, (
                        f"{name}:{node.lineno} sets an executor's {part.attr}"
                    )
    assert sorted(built) == [("evaluation.py", "run_benchmark"), ("reasoner.py", "request_pool")]


def test_demos_run_to_completion():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        done = subprocess.run(
            [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, f"{demo.name}:\n{done.stderr}"


def test_benchmark_tracer_targets_resolve():
    # the traced benchmark run wraps these names; a renamed one would read 0 silently
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from perfbench.tracing import TARGETS

    for name, owner, attr, _ in TARGETS:
        assert callable(owner.__dict__.get(attr)), name
    assert "type_select fallback" in _sources()["taxonomy.py"]
