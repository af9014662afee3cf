"""Tests of the benchmark itself: deterministic inputs and counts, steady
memory figures, reference checks that catch wrong output, and span
arithmetic.  Run with

    python3 -m pytest perfbench
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Tracer, plain_api
from workloads import WORKLOADS, expr_value

pp = run.import_pikaparse()
NAMES = sorted(WORKLOADS)
COUNTS = (
    "grammar.clauses",
    "engine.memo_entries_per_char",
    "engine.watermark_violations",
    "tree.nodes_per_char",
    "tree.ast_nodes_per_char",
    "recovery.error_spans_per_doc",
    "recovery.islands_per_doc",
)


def compiled(wl):
    grammar = pp.compile_grammar(wl.grammar_text)
    wl.pipeline(plain_api(pp), grammar, wl.warmup)
    return grammar


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    _, _, e2e, _ = run.end_to_end(pp, WORKLOADS["assign-recover"], 5, 0)
    _, _, layers, _ = run.per_layer(pp, WORKLOADS["assign-recover"], 5, 0)
    assert [m["name"] for m in spec["end_to_end"]] == [k for k in e2e if k != "failed_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    for m in spec["end_to_end"]:
        assert e2e[m["name"]]["unit"] == m["unit"]
    for m in spec["per_layer"]:
        assert layers[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("name", NAMES)
def test_blocks_depend_only_on_seed(name):
    wl = WORKLOADS[name]
    texts = [d.text for d in wl.block(3, 1)]
    assert texts == [d.text for d in wl.block(3, 1)]
    assert texts != [d.text for d in wl.block(4, 1)]
    assert texts != [d.text for d in wl.block(3, 2)]


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly(name):
    # seconds=0 runs exactly one block, so both runs see the same documents.
    first = run.per_layer(pp, WORKLOADS[name], 5, 0)
    second = run.per_layer(pp, WORKLOADS[name], 5, 0)
    assert first[:2] == second[:2]
    for key in COUNTS:
        assert first[2][key]["value"] == second[2][key]["value"], key
    assert first[2]["engine.watermark_violations"]["value"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_peak_bytes_repeat(name):
    wl = WORKLOADS[name]
    grammar = compiled(wl)
    api = plain_api(pp)

    def pipeline(doc):
        return wl.pipeline(api, grammar, doc.text)

    a, n = run.peak_bytes_per_char(wl, 6, pipeline)
    b, _ = run.peak_bytes_per_char(wl, 6, pipeline)
    assert n == len(wl.block(6, 0))
    assert abs(a - b) <= 0.001 * a


def test_tree_layer_idle_on_recovery():
    metrics = run.per_layer(pp, WORKLOADS["assign-recover"], 5, 0)[2]
    for key in ("tree.extract_parse_tree_ns_per_char", "tree.to_ast_ns_per_char",
                "tree.nodes_per_char", "tree.ast_nodes_per_char"):
        assert metrics[key]["value"] == 0, key
    assert metrics["recovery.error_spans_per_doc"]["value"] > 0


def test_growth_exponent_sees_long_runs():
    wl = WORKLOADS["expr-leftrec"]
    assert max(d.key for d in wl.block(5, 0)) >= 128
    metrics = run.per_layer(pp, wl, 5, 0)[2]
    assert metrics["engine.run_growth_exponent"]["value"] > 0.2


def test_checks_reject_wrong_output():
    api = plain_api(pp)
    for name in NAMES:
        wl = WORKLOADS[name]
        grammar = compiled(wl)
        doc = wl.block(8, 0)[3]
        out = wl.pipeline(api, grammar, doc.text)
        assert wl.check(doc, out) is None, name
        wrong = copy.copy(doc)
        if name == "expr-leftrec":
            wrong.ref = ("neg", doc.ref)
        elif name == "json-docs":
            wrong.text = doc.text.replace("[", "[0, ", 1) if "[" in doc.text else "[]"
        else:
            wrong.ref = [(s + 1, e) for s, e in doc.ref]
        assert wl.check(wrong, out) is not None, name


def test_expr_value_reads_ast():
    grammar = pp.compile_grammar(WORKLOADS["expr-leftrec"].grammar_text)
    ast = pp.to_ast(pp.extract_parse_tree(pp.parse(grammar, "a-(1+b)*--2")))
    assert expr_value(ast) == (
        "bin", "-", ("var", "a"),
        ("bin", "*", ("bin", "+", ("num", "1"), ("var", "b")),
         ("neg", ("neg", ("num", "2")))))


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["doc", 0, 100, -1, 0], ["a", 10, 50, 0, 0],
                    ["gc", 20, 30, 1, 0], ["b", 60, 90, 0, 0]]
    assert tracer.self_times() == [30, 30, 10, 30]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "assign-recover",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
