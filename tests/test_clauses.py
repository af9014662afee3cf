"""Clause data model: construction, identity payloads, rendering."""

import pytest

from pikaparse.clauses import (
    Char,
    CharSet,
    First,
    FollowedBy,
    GrammarError,
    Nothing,
    NotFollowedBy,
    OneOrMore,
    Optional,
    Rule,
    RuleRef,
    Seq,
    Str,
    ZeroOrMore,
    escape_literal,
)


# === construction and validation ===

def test_arity_checks():
    with pytest.raises(GrammarError):
        Seq((Char("a"),))
    with pytest.raises(GrammarError):
        First((Char("a"),))
    with pytest.raises(GrammarError):
        OneOrMore((Char("a"), Char("b")))
    with pytest.raises(GrammarError):
        NotFollowedBy(())
    Seq((Char("a"), Char("b"), Char("c")))  # three or more is fine


def test_char_requires_single_character():
    with pytest.raises(GrammarError):
        Char("ab")
    with pytest.raises(GrammarError):
        Char("")


def test_str_requires_two_characters():
    with pytest.raises(GrammarError):
        Str("a")
    assert Str("ab").string == "ab"


def test_label_tuple_must_match_arity():
    Seq((Char("a"), Char("b")), labels=("x", None))
    with pytest.raises(GrammarError):
        Seq((Char("a"), Char("b")), labels=("x",))


def test_default_labels_are_all_none():
    s = Seq((Char("a"), Char("b")))
    assert s.sub_clause_labels == (None, None)


def test_rule_associativity_validation():
    Rule("R", Char("a"), associativity="L")
    Rule("R", Char("a"), associativity="R")
    with pytest.raises(GrammarError):
        Rule("R", Char("a"), associativity="left")


# === character sets ===

def test_charset_normalizes_and_merges_ranges():
    cs = CharSet([(ord("d"), ord("f")), (ord("a"), ord("c"))])
    assert cs.ranges == ((ord("a"), ord("f")),)


def test_charset_merges_overlap():
    cs = CharSet([(48, 55), (52, 57)])
    assert cs.ranges == ((48, 57),)


def test_charset_keeps_disjoint_ranges():
    cs = CharSet([(ord("0"), ord("9")), (ord("a"), ord("f"))])
    assert len(cs.ranges) == 2


def test_charset_rejects_inverted_range():
    with pytest.raises(GrammarError):
        CharSet([(ord("z"), ord("a"))])


def test_charset_rejects_empty_unless_negated():
    with pytest.raises(GrammarError):
        CharSet([])
    anychar = CharSet([], negated=True)
    assert anychar.matches_char("x")
    assert anychar.matches_char("\n")


def test_charset_matches_char():
    cs = CharSet.of("abc")
    assert cs.matches_char("b")
    assert not cs.matches_char("d")
    neg = CharSet.of("abc", negated=True)
    assert not neg.matches_char("b")
    assert neg.matches_char("d")


def test_negated_multi_range_set_at_each_range_edge():
    ranges = [(ord("0"), ord("9")), (ord("A"), ord("F")), (ord("x"), ord("x"))]
    neg = CharSet(ranges, negated=True)
    for lo, hi in ranges:
        assert neg.matches_char(chr(lo - 1)), chr(lo - 1)
        assert not neg.matches_char(chr(lo)), chr(lo)
        assert not neg.matches_char(chr(hi)), chr(hi)
        assert neg.matches_char(chr(hi + 1)), chr(hi + 1)


def test_charset_identity_ignores_written_order():
    a = CharSet([(ord("a"), ord("b")), (ord("x"), ord("y"))])
    b = CharSet([(ord("x"), ord("y")), (ord("a"), ord("b"))])
    assert a.payload() == b.payload()


# === payloads (the interning key ingredients) ===

def test_payloads_distinguish_kinds():
    assert Char("a").payload() == ("a",)
    assert Str("ab").payload() == ("ab",)
    assert RuleRef("X").payload() == ("X",)
    assert CharSet.of("a").payload() != CharSet.of("a", negated=True).payload()


def test_composites_have_no_payload_and_repeat_greedily():
    # Composite identity is kind, labels and subclauses alone.  Whether a
    # repetition is chained is assembly's choice, so it starts greedy.
    rep = OneOrMore((Char("a"),))
    assert not rep.chained
    for c in (Seq((Char("a"), Char("b"))), First((Char("a"), Char("b"))), rep):
        assert c.payload() == ()


# === display ===

def test_terminal_display():
    assert repr(Char("a")) == "'a'"
    assert repr(Str("ab")) == "'ab'"
    assert repr(Nothing()) == "()"
    assert repr(CharSet.of("abc")) == "[a-c]"
    assert repr(CharSet.of("ax")) == "[ax]"
    assert repr(CharSet.of("k", negated=True)) == "[^k]"


def test_display_escapes():
    assert repr(Char("\n")) == "'\\n'"
    assert repr(Char("'")) == "'\\''"
    assert escape_literal("a\tb") == "a\\tb"
    assert repr(CharSet.of("-")) == "[\\u002D]"
    assert repr(CharSet.of("]")) == "[\\]]"


def test_display_control_chars_as_unicode_escape():
    assert repr(Char("\x01")) == "'\\u0001'"


def test_operator_display_precedence():
    inner = First((Char("a"), Char("b")))
    assert repr(Seq((inner, Char("c")))) == "('a' / 'b') 'c'"
    assert repr(First((Seq((Char("a"), Char("b"))), Char("c")))) == "'a' 'b' / 'c'"
    assert repr(OneOrMore((inner,))) == "('a' / 'b')+"
    assert repr(NotFollowedBy((Char("a"),))) == "!'a'"
    assert repr(NotFollowedBy((Seq((Char("a"), Char("b"))),))) == "!('a' 'b')"
    assert repr(FollowedBy((Char("a"),))) == "&'a'"
    assert repr(Optional((Char("a"),))) == "'a'?"
    assert repr(ZeroOrMore((Char("a"),))) == "'a'*"


def test_suffix_on_composite_parenthesizes():
    assert repr(OneOrMore((Seq((Char("a"), Char("b"))),))) == "('a' 'b')+"


def test_labeled_subclause_display():
    s = Seq((Char("a"), Char("b")), labels=("x", None))
    assert repr(s) == "x:'a' 'b'"
    assert repr(OneOrMore((Char("a"),), labels=("x",))) == "(x:'a')+"
    assert repr(NotFollowedBy((Char("a"),), labels=("x",))) == "!x:'a'"


def test_ruleref_displays_as_name():
    assert repr(RuleRef("Expr")) == "Expr"


def test_display_stops_at_named_boundary():
    inner = Seq((Char("a"), Char("b")))
    outer = First((inner, Char("c")))
    names = {id(inner): "AB"}
    assert outer.display(names) == "AB / 'c'"
    # ctx -1 means: expand this clause itself even though it is named.
    assert inner.display(names, ctx=-1) == "'a' 'b'"


def test_display_terminates_on_unnamed_cycle():
    a = Seq((Char("x"), Char("x")))
    loop = First((a, Char("y")))
    a.sub_clauses = (loop, Char("x"))
    text = repr(loop)
    assert "..." in text


def test_display_of_a_deep_clause_tree():
    # 1,000 levels of (x:... () / 'b'), built in code: display does not
    # recurse, so any depth renders.
    clause, text = Char("a"), "'a'"
    for level in range(1000):
        clause = First((Seq((clause, Nothing()), ("x", None)), Char("b")))
        text = "x:%s () / 'b'" % (text if level == 0 else "(" + text + ")")
    assert repr(clause) == text
    assert repr(NotFollowedBy((clause,))) == "!(" + text + ")"


def test_rule_repr_mentions_precedence():
    r = Rule("E", Char("a"), precedence=2, associativity="L")
    assert repr(r).startswith("E[2,L] <- ")
