"""The bottom-up matching engine: fill order, match improvement, left
recursion, lookahead, zero-length economy."""

import random
import warnings

import pytest

from pikaparse.clauses import First, GrammarError, GrammarWarning, Nothing, OneOrMore, Seq
from pikaparse.engine import Match, match_clause, parse
from pikaparse.metagrammar import compile_grammar
from pikaparse.oracle import packrat_parse, same_shape
from pikaparse.tree import extract_parse_tree, node_from_match

from gram_gen import random_grammar, sample_input
from helpers import ARITH_LEFTREC, compile_leftrec, shape


# === basics ===

def test_single_terminal():
    g = compile_grammar("A <- 'a';")
    t = parse(g, "a")
    assert t.matched_whole()
    m = t.start_match()
    assert (m.pos, m.len) == (0, 1)
    assert not parse(g, "b").matched_whole()
    assert not parse(g, "aa").matched_whole()


def test_string_terminal():
    g = compile_grammar("A <- 'ab' 'cd';")
    assert parse(g, "abcd").matched_whole()
    assert parse(g, "abxd").start_match() is None


def test_match_clause_reads_through_the_given_lookup():
    g = compile_grammar("A <- 'a' 'b' ('c' / 'x' / 'y') 'd';")
    t = parse(g, "abyd")
    a = g.rule_clause("A")
    m = match_clause(a, 0, "abyd", t.lookup)
    assert m.len == 4 and same_shape(m, t.start_match())
    assert match_clause(a, 1, "abyd", t.lookup) is None


def test_choice_takes_first_alternative():
    g = compile_grammar("A <- 'ab' / 'a';")
    m = parse(g, "ab").start_match()
    assert m.len == 2 and m.alt_idx == 0
    m = parse(g, "ac").start_match()
    assert m is not None and m.len == 1 and m.alt_idx == 1


def test_partial_match_is_not_whole():
    g = compile_grammar("A <- 'a';")
    t = parse(g, "ab")
    assert t.start_match() is not None
    assert not t.matched_whole()


def test_empty_input_nullable_start():
    g = compile_grammar("A <- 'a'?;")
    t = parse(g, "")
    assert t.matched_whole()
    assert t.start_match().len == 0


def test_empty_input_consuming_start():
    g = compile_grammar("A <- 'a';")
    t = parse(g, "")
    assert t.start_match() is None
    assert not t.matched_whole()


# === a guarded right recursion, traced by hand ===

def test_right_recursion_trace():
    # A <- 'a' A / 'b' on "aab": three nested choice matches, one stored
    # match per clause per viable position, eight stored matches total.
    g = compile_grammar("A <- 'a' A / 'b';")
    t = parse(g, "aab")
    assert t.matched_whole()
    assert t.stored_count == 8
    assert t.watermark_violations == 0

    top = t.start_match()
    assert top.alt_idx == 0 and top.len == 3
    seq = top.sub_matches[0]
    assert isinstance(seq.clause, Seq)
    inner = seq.sub_matches[1]
    assert (inner.pos, inner.len, inner.alt_idx) == (1, 2, 0)
    innermost = inner.sub_matches[0].sub_matches[1]
    assert (innermost.pos, innermost.len, innermost.alt_idx) == (2, 1, 1)


# === left recursion ===

def test_left_recursion_grows_to_fixed_point():
    g = compile_grammar("S <- S '+' T / T; T <- [a-z];")
    t = parse(g, "a+b+c")
    assert t.matched_whole()
    assert t.watermark_violations == 0
    top = t.start_match()
    assert top.alt_idx == 0 and top.len == 5
    # Left-nested: the left operand of the outer sum is the "a+b" match.
    left = top.sub_matches[0].sub_matches[0]
    assert (left.pos, left.len) == (0, 3)
    assert left.sub_matches[0].sub_matches[0].len == 1


def test_left_recursion_single_item():
    g = compile_grammar("S <- S '+' T / T; T <- [a-z];")
    m = parse(g, "z").start_match()
    assert m.len == 1 and m.alt_idx == 1


def test_choice_improvement_prefers_earlier_alternative():
    # At position 0 the fallback T alternative is found first; the
    # left-recursive alternative arrives later and must displace it.
    g = compile_grammar("S <- S '+' T / T; T <- [a-z];")
    m = parse(g, "a+b").start_match()
    assert m.alt_idx == 0 and m.len == 3


def test_interior_positions_memoize_their_own_best():
    g = compile_grammar("S <- S '+' T / T; T <- [a-z];")
    t = parse(g, "a+b+c")
    mid = t.stored(g.rule_clause("S"), 2)
    assert mid is not None and mid.len == 3  # "b+c" viewed from position 2


def test_deep_left_nesting():
    g = compile_leftrec()
    n = 400
    text = "a" + "+b" * n
    t = parse(g, text)
    assert t.matched_whole()
    assert t.watermark_violations == 0
    m = t.start_match()
    for _ in range(n):
        assert m.alt_idx == 0
        m = m.sub_matches[0].sub_matches[0]
    assert m.alt_idx == 1


# A known divergence (README, "Known divergences"): a rule with two growing
# alternatives.  For each text, what E matches at 0 here and what bounded
# left recursion (Warth, Douglass & Millstein 2008) grows there.  Bounded
# growth re-runs E's whole choice on each step, so after a+b it tries
# E '+' T, fails at '-', and grows through E '-' T to (a+b)-c.  The pika
# fill keeps E '+' T's stored a+b at column 0, and E's ordered choice
# reads that alternative 0 before alternative 1's longer a+b-c; an earlier
# alternative beats a longer later one, so E stops at a+b.
TWO_GROWING = "E <- l:E op:'+' r:T / l:E op:'-' r:T / T; T <- v:[a-z]+;"
TWO_GROWING_MATCHES = {
    # text: (pika, bounded left recursion)
    "a+b-c": ("a+b", "a+b-c"),
    "a-b+c": ("a-b+c", "a-b+c"),
    "a+b+c": ("a+b+c", "a+b+c"),
}


@pytest.mark.parametrize("text", sorted(TWO_GROWING_MATCHES))
def test_two_growing_alternatives_diverge_from_bounded_left_recursion(text):
    pika, bounded = TWO_GROWING_MATCHES[text]
    assert bounded == text  # bounded left recursion matches each whole
    t = parse(compile_grammar(TWO_GROWING), text)
    m = t.start_match()
    assert text[m.pos : m.end] == pika
    assert t.matched_whole() == (pika == text)
    # The divergence is the choice reading its first alternative's stored
    # sequence: a+b through alternative 0, with a+b-c stored for its second.
    if pika != text:
        minus = t.grammar.rule_clause("E").sub_clauses[1]  # E '-' T
        assert m.alt_idx == 0 and t.stored(minus, 0).len == len(text)
    # One growing alternative, the operators a choice inside it, grows as
    # bounded left recursion does.
    one = compile_grammar("E <- l:E op:('+' / '-') r:T / T; T <- v:[a-z]+;")
    assert parse(one, text).matched_whole()


# Two rules that read each other at one position through lookaheads.  In
# PEG, B matches 'x' at the start of 'xx', so !B fails there and A has no
# match.  The fill follows clause order instead, which follows the rules'.
LOOKAHEAD_CYCLE = ("B <- 'x' / !A 'q';", "A <- !B 'x' 'x' / 'y';")


@pytest.mark.parametrize("b_first, a_len", [(True, 2), (False, None)])
def test_a_cycle_through_lookaheads_depends_on_rule_order(b_first, a_len):
    b, a = LOOKAHEAD_CYCLE
    text = b + a if b_first else a + b
    names = "'B', 'A'" if b_first else "'A', 'B'"  # in the order they are declared
    with pytest.warns(GrammarWarning, match="cycle through a lookahead joins rules %s," % names):
        g = compile_grammar(text)
    t = parse(g, "xx")
    # Clause order follows the start rule, the first one declared.  With B
    # first, B sorts above A's !B 'x' 'x', which reads B before B stores at
    # column 0: !B succeeds and A matches both characters.
    assert t.stored_len(g.rule_clause("A"), 0) == a_len
    assert t.stored_len(g.rule_clause("B"), 0) == 1
    assert not t.matched_whole()


# === zero-length economy ===

def test_nothing_is_never_stored():
    g = compile_grammar("A <- 'x'? 'y'?;")
    t = parse(g, "qxy")
    nothing = next(c for c in g.all_clauses if isinstance(c, Nothing))
    assert all(t.stored(nothing, p) is None for p in range(4))
    assert all(not isinstance(m.clause, Nothing) for m in t.all_stored())


def test_evaluated_zero_length_match_is_stored():
    # The fill never schedules a clause just to store an empty match, but a
    # clause it does evaluate stores whatever it yields.  Here 'y' matching
    # schedules the First, whose always-matching first alternative makes
    # that an empty match at position 0.
    with pytest.warns(GrammarWarning, match="always matches"):
        g = compile_grammar("A <- ('x'? / 'y') 'z';")
    t = parse(g, "yz")
    first = g.rule_clause("A").sub_clauses[0]
    m = t.stored(first, 0)
    assert m is not None and m.len == 0 and m.alt_idx == 0
    assert t.stored(first.sub_clauses[0], 0) is None
    assert not t.matched_whole()


def test_synthesized_zero_length_lookup():
    # 'x' matches nowhere, so nothing schedules the Optional: the table holds
    # no empty match for it, in the text or past its end, and lookup
    # synthesizes one on the spot.
    g = compile_grammar("A <- 'x'? 'y';")
    t = parse(g, "y")
    opt = g.rule_clause("A").sub_clauses[0]
    for pos in (0, 1):
        assert t.stored(opt, pos) is None
        synth = t.lookup(opt, pos)
        assert synth.len == 0 and synth.alt_idx == 1 and synth.sub_matches == ()
    assert t.matched_whole()


def test_warning_free_grammars_store_only_consuming_matches():
    # The fill evaluates a clause only after a seed child stored or improved
    # a match, and without an always-matching alternative before the last,
    # a clause read through a consuming child consumes too.  Empty matches
    # are then only ever synthesized.
    with warnings.catch_warnings():
        warnings.simplefilter("error", GrammarWarning)
        cases = [
            (compile_grammar("N <- '-'? [0-9]+;"), ["-12", "7", "-", "x-1", ""]),
            (compile_grammar("A <- 'x'? 'y';"), ["y", "xy", "x", "yy", "qy"]),
        ]
        rng = random.Random(2026)
        for _ in range(100):
            g, alphabet = random_grammar(rng)
            cases.append((g, [sample_input(rng, g, alphabet) for _ in range(5)]))
    for g, texts in cases:
        for text in texts:
            stored = parse(g, text).all_stored()
            assert all(m.len > 0 for m in stored), (g, text)


def test_optional_chain_matches_sparse_input():
    g = compile_grammar("S <- 'a'? 'b'? 'c'? 'd'?;")
    t = parse(g, "bd")
    assert t.matched_whole()
    assert t.start_match().len == 2


# === repetitions, both modes ===

def test_greedy_repetition_consumes_run():
    g = compile_grammar("A <- [a-z]+;", rewrite_repetitions=False)
    t = parse(g, "hello")
    assert t.matched_whole()
    rep = t.start_match()
    assert isinstance(rep.clause, OneOrMore)
    assert [m.len for m in rep.sub_matches] == [1] * 5


def test_greedy_repetition_stores_quadratic_subclause_slots():
    g = compile_grammar("A <- [a-z]+;", rewrite_repetitions=False)
    t = parse(g, "hello")
    rep_clause = g.rule_clause("A")
    slots = 0
    for p in range(5):
        m = t.stored(rep_clause, p)
        assert m is not None and m.len == 5 - p
        slots += len(m.sub_matches)
    assert slots == 15  # 5+4+3+2+1


def test_chained_repetition_stores_linear_matches():
    g = compile_grammar("A <- [a-z]+;")
    t = parse(g, "hello")
    assert t.matched_whole()
    chain = g.rule_clause("A")
    assert [t.stored(chain, p).len for p in range(5)] == [5, 4, 3, 2, 1]
    assert t.stored_count == 10  # one terminal and one link per column
    def key(m):
        return (m.clause, m.pos, m.len, m.alt_idx)

    for p in range(5):
        # Each link holds its letter and the link where that letter ends.
        # Matches are built on read, so compare what they say, not identity.
        m = t.stored(chain, p)
        assert key(m.sub_matches[0]) == key(t.stored(chain.sub_clauses[0], p))
        rest = [key(t.stored(chain, p + 1))] if p < 4 else []
        assert list(map(key, m.sub_matches[1:])) == rest


def test_star_chain_accepts_empty():
    g = compile_grammar("A <- 'a'* 'b';")
    assert parse(g, "b").matched_whole()
    assert parse(g, "aaab").matched_whole()
    assert not parse(g, "aa").matched_whole()


# === negative lookahead ===

def test_lookahead_blocks_and_allows():
    g = compile_grammar("A <- !'a' [a-z];")
    assert parse(g, "b").matched_whole()
    assert parse(g, "a").start_match() is None


def test_lookahead_sees_longer_clauses():
    g = compile_grammar("A <- !'if' [a-z]+;")
    assert parse(g, "iffy").start_match() is None
    assert parse(g, "ivory").matched_whole()


def test_double_negation_is_positive_lookahead():
    g = compile_grammar("A <- &'ab' [a-z]+;")
    assert parse(g, "abc").matched_whole()
    assert parse(g, "acb").start_match() is None


def test_lookahead_cycle_is_a_grammar_error():
    with pytest.raises(GrammarError, match="lookaheads of rule 'A' form a cycle"):
        compile_grammar("A <- !A;")


def test_mutual_lookahead_cycle_is_a_grammar_error():
    for text in ("A <- !B; B <- !A;", "A <- !!A;", "S <- 'q' X; X <- !Y; Y <- &X;"):
        with pytest.raises(GrammarError, match="form a cycle"):
            compile_grammar(text)


def test_long_lookahead_chain_across_rules():
    # Each rule is one lookahead deep, but the chain runs through all of
    # them; an even number of negations tests 'x' positively.
    n = 3000
    text = "S <- A0 [a-z];\n" + "".join(
        "A%d <- !A%d;\n" % (i, i + 1) for i in range(n)
    ) + "A%d <- 'x';\n" % n
    g = compile_grammar(text)
    assert parse(g, "x").matched_whole()
    assert not parse(g, "y").matched_whole()
    # The reference parser walks the chain through the same matcher.
    for s in ("x", "y"):
        top = packrat_parse(g, s).match
        assert same_shape(parse(g, s).start_match(), top)
        assert (top is not None) == (s == "x")


# === the full expression grammar ===

def test_expression_grammar_end_to_end():
    g = compile_leftrec()
    for text, ok in [
        ("a+b*c", True),
        ("-x*(y+4)", True),
        ("((((z))))", True),
        ("10/2-3", True),
        ("--9", True),
        ("a++b", False),
        ("(a", False),
        ("", False),
    ]:
        assert parse(g, text).matched_whole() == ok, text


def test_precedence_binds_multiplication_tighter():
    g = compile_leftrec()
    t = parse(g, "1+2*3")
    top = t.start_match()
    assert top.alt_idx == 0  # the additive alternative wins at the top
    left = top.sub_matches[0].sub_matches[0]
    assert (left.pos, left.len) == (0, 1)  # just "1", not "1+2"


# === table queries and invariants ===

def test_match_positions_are_descending():
    g = compile_leftrec()
    t = parse(g, "a+b*c-(d/e)")
    for c in g.all_clauses:
        ps = t.match_positions(c)
        assert list(ps) == sorted(ps, reverse=True)
        stored = [p for p in range(len(t.text), -1, -1) if t.stored(c, p) is not None]
        assert list(ps) == stored


def test_lookup_outside_any_match_is_none():
    g = compile_grammar("A <- 'a';")
    t = parse(g, "b")
    assert t.lookup(g.start_clause, 0) is None


def test_lookup_outside_the_input_is_none():
    # Nothing matches past either end of the text: not a clause that can
    # match zero characters, nor a lookahead that would succeed there.
    g = compile_grammar("A <- 'x'? 'y' !'z';")
    t = parse(g, "y")
    opt, _, ahead = g.rule_clause("A").sub_clauses
    for pos in (-1, 2, 6):
        assert t.lookup(opt, pos) is None
        assert t.lookup(ahead, pos) is None
    assert t.lookup(opt, 1).len == 0 and t.lookup(ahead, 1).len == 0


def test_watermark_clean_on_random_inputs():
    g = compile_leftrec()
    rng = random.Random(7)
    chars = "ab+*-/()19"
    for _ in range(50):
        s = "".join(rng.choice(chars) for _ in range(rng.randint(0, 30)))
        t = parse(g, s)
        assert t.watermark_violations == 0


def test_match_repr_is_informative():
    g = compile_grammar("A <- 'a';")
    m = parse(g, "a").start_match()
    assert "0,1" in repr(m)


def test_match_end_property():
    m = Match(None, 3, 4)
    assert m.end == 7


# === packed values ===

def test_a_wide_first_keeps_its_alternative_and_its_length():
    # The table packs each match as len << shift | alt, with shift wide
    # enough for the grammar's widest First, so 5,000 alternatives neither
    # wrap the alternative nor spill into the length.
    alts = " / ".join("'x%d;'" % i for i in range(5000))
    g = compile_grammar("S <- A 'end'; A <- %s;" % alts)
    assert g.alt_shift == 13
    text = "x4999;end"
    t = parse(g, text)
    assert t.matched_whole()
    choice = t.start_match().sub_matches[0]
    assert (choice.alt_idx, choice.len) == (4999, 6)
    top = packrat_parse(g, text).match
    assert same_shape(t.start_match(), top)
    assert shape(extract_parse_tree(t)) == shape(node_from_match(top, g, text))
