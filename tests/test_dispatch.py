"""Terminal dispatch on the column's character.

A column tries only the terminals that can start with its character, so
terminals that cannot match cost nothing per char, and the dispatch state
a grammar keeps grows with the grammar, not with the texts it parses.
"""

import pytest

from pikaparse import compile_grammar, parse
from pikaparse.oracle import describe_match, packrat_parse, same_shape

from helpers import JSON_GRAMMAR, count_matcher_calls


KEYWORD_INPUT = "let x be y and z or w " * 20


def keyword_grammar(k):
    # No keyword starts with a lowercase letter or a space, so none can
    # match anywhere in KEYWORD_INPUT.
    heads = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    keywords = " / ".join("'%skw%d'" % (heads[i % len(heads)], i) for i in range(k))
    return compile_grammar(
        "Text <- (Keyword / Word / ' ')+;\n"
        "Keyword <- %s;\n"
        "Word <- [a-z]+;\n" % keywords
    )


def test_keywords_that_cannot_start_cost_nothing(monkeypatch):
    counts = [
        count_matcher_calls(monkeypatch, keyword_grammar(k), KEYWORD_INPUT)
        for k in (10, 100, 1000)
    ]
    assert counts[0] == counts[1] == counts[2], counts
    assert counts[0] > 0


def json_string(first_code_point, n):
    return '"' + "".join(map(chr, range(first_code_point, first_code_point + n))) + '"'


def built_entries(grammar):
    return sum(e is not None for e in grammar.fill_plan.entries)


@pytest.mark.parametrize("first", [0x4E00, 0x20000], ids=["bmp", "astral"])
def test_distinct_cjk_string_parses_like_the_oracle(first):
    g = compile_grammar(JSON_GRAMMAR)
    text = json_string(first, 20000)
    table = parse(g, text)
    assert table.watermark_violations == 0
    assert table.matched_whole()
    expected = packrat_parse(g, text).match
    got = table.start_match()
    assert same_shape(got, expected), (describe_match(got), describe_match(expected))


def test_dispatch_state_is_bounded_by_the_grammar():
    g = compile_grammar(JSON_GRAMMAR)
    parse(g, json_string(0x4E00, 20000))
    plan = g.fill_plan
    bounds = list(plan.bounds)
    entries = built_entries(g)
    # The terminals split the code points into this many intervals, one
    # entry each at most, whatever the texts hold.
    assert len(plan.entries) == len(bounds) + 1 == 43
    # None of the second text's 20,000 code points is in the first text.
    assert parse(g, json_string(0x20000, 20000)).matched_whole()
    assert plan is g.fill_plan
    assert plan.bounds == bounds
    assert len(plan.entries) == 43
    assert built_entries(g) == entries
