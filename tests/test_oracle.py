"""The top-down reference parser and the match-shape comparator."""

import itertools
import random
import sys
import threading

import pytest

from pikaparse import NotFollowedBy, OneOrMore, compile_grammar, parse
from pikaparse.engine import FillPlan, Match
from pikaparse.oracle import (
    LeftRecursionError,
    describe_match,
    ensure_no_left_recursion,
    packrat_parse,
    same_shape,
)

from helpers import ARITH_CLIMB, ARITH_LEFTREC, compile_climb


# === left-recursion screening ===

def test_accepts_non_left_recursive_grammar():
    ensure_no_left_recursion(compile_climb())


def test_rejects_left_recursive_grammar():
    g = compile_grammar(ARITH_LEFTREC, start_rule="E0")
    with pytest.raises(LeftRecursionError, match="left recursive"):
        ensure_no_left_recursion(g)
    with pytest.raises(LeftRecursionError):
        packrat_parse(g, "a+b")


def test_error_names_the_cycle_rule():
    g = compile_grammar("A <- B 'x'; B <- A / 'b';")
    with pytest.raises(LeftRecursionError, match="'A'|'B'"):
        ensure_no_left_recursion(g)


def test_hidden_left_recursion_through_nullable_prefix():
    # The nullable first element lets evaluation reach S again at the same
    # position, which the static check must catch.
    g = compile_grammar("S <- 'x'? S 'y' / 'z';")
    with pytest.raises(LeftRecursionError):
        ensure_no_left_recursion(g)
    # A lookahead evaluates its operand at its own position too, although
    # the bottom-up engine never seeds the lookahead from its operand.
    g = compile_grammar("A <- !A 'x' / 'y';")
    with pytest.raises(LeftRecursionError):
        ensure_no_left_recursion(g)
    lookahead = g.rule_clause("A").sub_clauses[0].sub_clauses[0]
    assert isinstance(lookahead, NotFollowedBy)
    a = g.rule_clause("A")
    assert lookahead.clause_idx not in FillPlan(g).parents[a.clause_idx]


def test_right_recursion_is_fine():
    ensure_no_left_recursion(compile_grammar("A <- 'a' A / 'b';"))


# === agreement with the bottom-up engine ===

def test_agreement_on_expression_samples():
    g = compile_climb()
    for text in [
        "a", "ab", "a+b", "a*b+c", "-x", "(a+b)*c", "1+2*3",
        "", "+", "a+", "((a)", "a+b+c", "-(-x)", "zz*9/4",
    ]:
        bottom = parse(g, text).start_match()
        top = packrat_parse(g, text).match
        assert same_shape(bottom, top), (text, describe_match(bottom),
                                         describe_match(top))


def test_agreement_on_random_character_soup():
    g = compile_climb()
    rng = random.Random(11)
    chars = "ab+*-/()12 "
    for _ in range(200):
        text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 24)))
        bottom = parse(g, text).start_match()
        top = packrat_parse(g, text).match
        assert same_shape(bottom, top), text


@pytest.mark.parametrize("grammar", ["A <- !'x' 'y';", "A <- ('a' !'b')?;", "A <- &'y';"])
def test_agreement_with_lookaheads_outside_empty_matches(grammar):
    # Assembly accepts these: no empty match depends on a lookahead.
    g = compile_grammar(grammar)
    for n in range(4):
        for chars in itertools.product("abxy", repeat=n):
            text = "".join(chars)
            bottom = parse(g, text).start_match()
            top = packrat_parse(g, text).match
            assert same_shape(bottom, top), text


def test_agreement_includes_match_length():
    g = compile_climb()
    text = "a+b!junk"
    bottom = parse(g, text).start_match()
    top = packrat_parse(g, text).match
    assert bottom is not None and bottom.len == 3
    assert same_shape(bottom, top)


def test_deep_right_recursion_without_overflow():
    # The chain of demands is far deeper than the default recursion limit
    # allows; the evaluator unwinds it in bounded pieces.
    g = compile_grammar("A <- 'a' A / 'b';")
    text = "a" * 5000 + "b"
    res = packrat_parse(g, text)
    assert res.match is not None and res.match.len == len(text)
    bottom = parse(g, text).start_match()
    assert same_shape(bottom, res.match)


def test_parse_starts_no_thread_and_keeps_interpreter_settings(monkeypatch):
    def refuse(self):
        raise AssertionError("packrat_parse started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    limit, stack = sys.getrecursionlimit(), threading.stack_size()
    g = compile_grammar("A <- 'a' A / 'b';")
    text = "a" * 5000 + "b"
    assert packrat_parse(g, text).match.len == len(text)
    assert packrat_parse(compile_climb(), "a+b*c").match.len == 5
    assert (sys.getrecursionlimit(), threading.stack_size()) == (limit, stack)


def test_left_recursion_past_the_nesting_bound_is_reported():
    # L's cycle is met about 600 demands deep, so the chain that reaches it
    # has been unwound and retried on the way.
    g = compile_grammar("S <- 'a' S / L; L <- L 'x' / 'y';")
    with pytest.raises(LeftRecursionError, match="position 300"):
        packrat_parse(g, "a" * 300 + "yx", check_left_recursion=False)


def test_left_recursive_cycle_longer_than_the_nesting_bound_is_reported():
    # The cycle is longer than the nesting bound, so unwinds cut it before
    # any evaluation comes round to itself: a demand that waits to be
    # evaluated after an unwind must still count as busy.
    n = 500
    g = compile_grammar(" ".join("R%d <- R%d / 'x';" % (i, (i + 1) % n) for i in range(n)))
    with pytest.raises(LeftRecursionError, match="position 0"):
        packrat_parse(g, "x", check_left_recursion=False)


def test_children_of_a_grammar_the_engine_never_parsed():
    # Reading the oracle's children builds the grammar's fill plan; they
    # must be the children the engine's table gives for the same match.
    def fields(m):
        # A zero-length match is a leaf: the engine synthesizes it childless.
        kids = () if m.len == 0 else tuple(map(fields, m.sub_matches))
        return (m.clause, m.pos, m.len, m.alt_idx, kids)

    cases = [
        ("S <- Item+ ';'?; Item <- !'#' [a-z]+ &[ ;] ' '* / '#' [0-9]*;",
         ["ab cd ;", "ab #12 cd;", "# x", "abc "]),
        ("S <- ('(' S ')')* !')' 'x'? '.'+;", ["((.).)x.", "(x.)..", ".", ".)", "()."]),
    ]
    matched = 0
    for source, texts in cases:
        for text in texts:
            g = compile_grammar(source)
            assert any(type(c) is OneOrMore and c.chained for c in g.all_clauses)
            top = packrat_parse(g, text).match
            assert g.fill_plan is None
            if top is None:
                continue
            got = fields(top)
            bottom = parse(g, text).start_match()
            assert got == fields(bottom), text
            matched += 1
    assert matched == 8


def test_memo_is_write_once_and_complete():
    g = compile_grammar("A <- 'ab' / 'a';")
    res = packrat_parse(g, "ab")
    assert (g.start_clause.clause_idx, 0) in res.memo
    assert all(v is not None or v is None for v in res.memo.values())


# === shape comparison ===

def test_same_shape_none_handling():
    g = compile_grammar("A <- 'a';")
    m = parse(g, "a").start_match()
    assert same_shape(None, None)
    assert not same_shape(m, None)
    assert not same_shape(None, m)


def test_same_shape_differs_on_span():
    g = compile_grammar("A <- [a-z] [a-z];")
    a = parse(g, "xy").start_match()
    b = parse(g, "xz").start_match()
    assert same_shape(a, b)  # same clauses, same spans; text may differ
    c = parse(g, "xyz").start_match()
    assert same_shape(a, c)  # both match the first two characters


def test_same_shape_differs_on_alternative():
    g = compile_grammar("A <- 'ab' / 'aa';")
    a = parse(g, "ab").start_match()
    b = parse(g, "aa").start_match()
    assert not same_shape(a, b)


def test_same_shape_zero_length_is_a_leaf():
    # A zero-length match compares equal regardless of recorded internals.
    g = compile_grammar("A <- 'x'? 'y';")
    opt = g.rule_clause("A").sub_clauses[0]
    synth = Match(opt, 0, 0)
    built = Match(opt, 0, 0, (Match(opt.sub_clauses[1], 0, 0),), 1)
    assert same_shape(synth, built)
    assert not same_shape(synth, Match(opt, 1, 0))


def test_describe_match_truncates():
    g = compile_grammar("A <- [a-z]+;")
    m = parse(g, "abcdefghij" * 20).start_match()
    text = describe_match(m, limit=10)
    assert text.endswith("...")
    assert "Seq" in text or "OneOrMore" in text
