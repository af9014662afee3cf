"""Error-span discovery and resume points read from a filled memo table."""

import pytest

from pikaparse import compile_grammar, parse
from pikaparse.recovery import (
    ErrorSpan,
    covering_matches,
    find_error_spans,
    next_match_after,
)

from helpers import ASSIGN


def table(text):
    return parse(compile_grammar(ASSIGN), text)


# === error spans ===

def test_clean_input_has_no_spans():
    assert find_error_spans(table("a=1;b=2;")) == []


def test_single_interior_corruption():
    t = table("a=1;###b=2;")
    spans = find_error_spans(t)
    assert spans == [ErrorSpan(4, 7)]
    assert spans[0].slice(t.text) == "###"


def test_corruption_at_start():
    assert find_error_spans(table("##a=1;")) == [ErrorSpan(0, 2)]


def test_corruption_at_end():
    assert find_error_spans(table("a=1;##")) == [ErrorSpan(4, 6)]


def test_multiple_corruptions():
    t = table("#a=1;##b=2;#")
    assert find_error_spans(t) == [
        ErrorSpan(0, 1),
        ErrorSpan(5, 7),
        ErrorSpan(11, 12),
    ]


def test_nothing_matches_anywhere():
    assert find_error_spans(table("####")) == [ErrorSpan(0, 4)]


def test_empty_input_has_no_spans():
    assert find_error_spans(table("")) == []


def test_rule_name_filter():
    t = table("a=1;###b=2;")
    assert find_error_spans(t, "Assign") == [ErrorSpan(4, 7)]
    assert find_error_spans(t, ["Program", "Assign"]) == [ErrorSpan(4, 7)]


def test_overlapping_matches_merge_in_sweep():
    # Program and Assign both cover the leading statement; the sweep must
    # not double-count or leave gaps between overlapping intervals.
    t = table("a=1;b=2;##")
    assert find_error_spans(t, ["Program", "Assign"]) == [ErrorSpan(8, 10)]


# === resume points ===

def test_next_match_at_exact_position():
    t = table("a=1;###b=2;")
    m = next_match_after(t, "Assign", 7)
    assert (m.pos, m.len) == (7, 4)
    assert t.text[m.pos : m.end] == "b=2;"


def test_next_match_searches_forward():
    t = table("a=1;###b=2;")
    m = next_match_after(t, "Assign", 5)
    assert (m.pos, m.len) == (7, 4)


def test_next_match_includes_current_position():
    t = table("a=1;###b=2;")
    m = next_match_after(t, "Assign", 0)
    assert (m.pos, m.len) == (0, 4)


def test_next_match_none_when_exhausted():
    t = table("a=1;###b=2;")
    assert next_match_after(t, "Assign", 8) is None


def test_min_len_filters_empty_matches():
    g = compile_grammar("S <- O 'b'; O <- 'a'?;")
    t = parse(g, "b")
    assert next_match_after(t, "O", 0) is None
    m = next_match_after(t, "O", 0, min_len=0)
    assert m is not None and m.len == 0


def test_min_len_zero_finds_the_empty_match_at_pos():
    # The table stores no empty match; a nullable rule matches at any
    # position of the text and at its end, and nowhere past it.
    g = compile_grammar("S <- O 'b'; O <- 'a'?;")
    t = parse(g, "bab")
    assert t.stored(g.rule_clause("O"), 0) is None
    for pos in (0, 3):
        m = next_match_after(t, "O", pos, min_len=0)
        assert (m.pos, m.len) == (pos, 0)
    m = next_match_after(t, "O", 1, min_len=0)
    assert (m.pos, m.len) == (1, 1)
    assert next_match_after(t, "O", 4, min_len=0) is None


# === recovered islands ===

def test_islands_need_a_positive_min_len():
    # An empty island would not move the walk.
    t = parse(compile_grammar("S <- O 'b'; O <- 'a'?;"), "b")
    for min_len in (0, -1):
        with pytest.raises(ValueError, match="min_len"):
            covering_matches(t, ["O"], min_len=min_len)


def test_islands_around_corruption():
    t = table("a=1;##b=2;")
    islands = covering_matches(t)
    assert [(m.pos, m.len) for m in islands] == [(0, 4), (6, 4)]
    assert [t.text[m.pos : m.end] for m in islands] == ["a=1;", "b=2;"]


def test_islands_prefer_longest_at_same_start():
    t = table("a=1;b=2;##")
    islands = covering_matches(t, ["Program", "Assign"])
    assert [(m.pos, m.len) for m in islands] == [(0, 8)]


def test_islands_empty_when_no_matches():
    assert covering_matches(table("####")) == []


def test_islands_on_clean_input():
    t = table("a=1;b=2;")
    assert [(m.pos, m.len) for m in covering_matches(t)] == [(0, 8)]


# === span properties over many generated corruptions ===

def test_spans_partition_consistently():
    import random

    rng = random.Random(42)
    g = compile_grammar(ASSIGN)
    for _ in range(60):
        parts = []
        for _ in range(rng.randint(1, 4)):
            name = "".join(rng.choice("abc") for _ in range(rng.randint(1, 3)))
            parts.append("%s=%d;" % (name, rng.randint(0, 99)))
            if rng.random() < 0.5:
                parts.append("#" * rng.randint(1, 3))
        text = "".join(parts)
        t = parse(g, text)
        spans = find_error_spans(t, "Assign")
        # Spans are ordered, non-empty, non-overlapping, and only cover '#'.
        prev_end = -1
        for s in spans:
            assert s.start < s.end
            assert s.start > prev_end
            prev_end = s.end
            assert set(s.slice(text)) == {"#"}
        # Every '#' falls inside some span.
        covered = set()
        for s in spans:
            covered.update(range(s.start, s.end))
        for i, ch in enumerate(text):
            if ch == "#":
                assert i in covered
