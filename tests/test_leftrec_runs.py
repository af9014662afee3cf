"""Flat left-recursive operator runs cost linear time and memory.

A run of k operands under a left-associative level has, at every operand's
column, a left-nested match that reaches the end of the run: the fixpoint
the pika parser computes.  Growing that seed one operand at a time would
cost Theta(k^2) evaluations, but the fill recognizes a level of the shape
H <- H op Y / Y and computes each column's fixpoint in one evaluation from
the final column to its right, so matcher calls per char stay flat across
run lengths.  The table holds one packed (length, alternative) int per
entry and no child pointers; a tree's children are built on read, replaying
a column to rebuild the growth steps a left-nested run is made of.  So
retained bytes per char stay flat too, and close to those of a right-nested
input of the same operands.
"""

import functools
import gc
import tracemalloc

from pikaparse import extract_parse_tree, parse
from pikaparse.bench import expression_grammar

from helpers import count_matcher_calls

RUNS = (40, 160, 320)


def flat_sum(k):
    return "+".join(["ab"] * k)


def right_nested_sum(k):
    text = "ab"
    for _ in range(k - 1):
        text = "ab+(" + text + ")"
    return text


def retained_bytes_per_char(grammar, text):
    """Bytes the filled table keeps alive, per input char."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = parse(grammar, text)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del table
    return kept / len(text)


def operands(node):
    """The tree of a sum as nested (left, op, right) tuples of text."""
    kids = node.children
    if len(kids) == 1 and node.name == "E0":
        return operands(kids[0])
    if len(kids) == 3:
        return (operands(kids[0]), kids[1].text, kids[2].text)
    return node.text


def test_flat_runs_retain_linear_memory(monkeypatch):
    g = expression_grammar()
    parse(g, flat_sum(3))  # builds the grammar's fill plan
    nested = retained_bytes_per_char(g, right_nested_sum(RUNS[1]))
    flat = {k: retained_bytes_per_char(g, flat_sum(k)) for k in RUNS}
    calls = {k: count_matcher_calls(monkeypatch, g, flat_sum(k)) / len(flat_sum(k)) for k in RUNS}
    for k in RUNS:
        print("k=%d: %.0f B/char retained, %.1f matcher calls/char" % (k, flat[k], calls[k]))
    print("right-nested k=%d: %.0f B/char retained" % (RUNS[1], nested))
    assert max(flat.values()) <= 2 * min(flat.values()), flat
    for k in RUNS:
        assert flat[k] <= 2 * nested, (k, flat[k], nested)
    # The fill's work per run is linear: per char it does not grow with k.
    assert max(calls.values()) <= 1.5 * min(calls.values()), calls


def test_flat_runs_parse_as_the_left_fold():
    g = expression_grammar()
    for k in RUNS:
        table = parse(g, flat_sum(k))
        assert table.matched_whole()
        assert table.watermark_violations == 0
        expected = functools.reduce(lambda left, right: (left, "+", right), ["ab"] * k)
        assert operands(extract_parse_tree(table)) == expected
