"""Grammar text parsing, precedence shorthand expansion, and rendering."""

import random
import time
import warnings

import pytest

from pikaparse.clauses import (
    Char,
    CharSet,
    First,
    FollowedBy,
    GrammarError,
    GrammarWarning,
    Nothing,
    NotFollowedBy,
    OneOrMore,
    Optional,
    Rule,
    RuleRef,
    Seq,
    Str,
    ZeroOrMore,
)
from pikaparse.engine import parse
from pikaparse.grammar import MAX_CLAUSE_DEPTH, assemble_grammar
from pikaparse.metagrammar import (
    MAX_SELF_REFERENCES,
    GrammarSyntaxError,
    compile_grammar,
    parse_rules,
    render_grammar,
    rewrite_precedence_hierarchy,
)

from helpers import ARITH_SHORTHAND


def body_of(text):
    rules = parse_rules(text)
    assert len(rules) == 1
    return rules[0].clause


# === clause syntax ===

def test_single_character_literal():
    c = body_of("A <- 'x';")
    assert isinstance(c, Char) and c.char == "x"


def test_multi_character_literal():
    c = body_of("A <- 'xyz';")
    assert isinstance(c, Str) and c.string == "xyz"


def test_empty_literal_matches_nothing():
    assert isinstance(body_of("A <- '';"), Nothing)


def test_empty_parens_match_nothing():
    assert isinstance(body_of("A <- ();"), Nothing)


def test_literal_escapes():
    c = body_of(r"A <- 'a\nb\t\\\'';")
    assert c.string == "a\nb\t\\'"


def test_unicode_escape():
    c = body_of(r"A <- 'A';")
    assert isinstance(c, Char) and c.char == "A"


def test_sequence_and_choice_nesting():
    c = body_of("A <- 'a' 'b' / 'c';")
    assert isinstance(c, First)
    assert isinstance(c.sub_clauses[0], Seq)
    assert isinstance(c.sub_clauses[1], Char)


def test_choice_binds_looser_than_sequence():
    c = body_of("A <- 'a' ('b' / 'c') 'd';")
    assert isinstance(c, Seq)
    assert isinstance(c.sub_clauses[1], First)


def test_suffix_operators():
    assert isinstance(body_of("A <- 'a'+;"), OneOrMore)
    assert isinstance(body_of("A <- 'a'*;"), ZeroOrMore)
    assert isinstance(body_of("A <- 'a'?;"), Optional)


def test_suffixes_stack():
    c = body_of("A <- 'a'+?;")
    assert isinstance(c, Optional)
    assert isinstance(c.sub_clauses[0], OneOrMore)


def test_prefix_operators():
    assert isinstance(body_of("A <- !'a';"), NotFollowedBy)
    assert isinstance(body_of("A <- &'a';"), FollowedBy)
    c = body_of("A <- !!'a';")
    assert isinstance(c.sub_clauses[0], NotFollowedBy)


def test_prefix_applies_to_suffixed_atom():
    c = body_of("A <- !'a'+;")
    assert isinstance(c, NotFollowedBy)
    assert isinstance(c.sub_clauses[0], OneOrMore)


def test_rule_reference():
    c = body_of("A <- Other;")
    assert isinstance(c, RuleRef) and c.rule_name == "Other"


def test_names_may_contain_digits_and_tilde():
    c = body_of("A <- B2~1;")
    assert c.rule_name == "B2~1"


def test_labels_attach_to_sequence_edges():
    c = body_of("A <- x:'a' 'b' y:'c';")
    assert c.sub_clause_labels == ("x", None, "y")


def test_lone_labeled_operand_gets_carrier_sequence():
    c = body_of("A <- v:'a';")
    assert isinstance(c, Seq)
    assert c.sub_clause_labels == ("v", None)
    assert isinstance(c.sub_clauses[1], Nothing)


def test_label_applies_to_whole_suffixed_clause():
    c = body_of("A <- xs:'a'+ 'b';")
    assert isinstance(c.sub_clauses[0], OneOrMore)
    assert c.sub_clause_labels == ("xs", None)


def test_comments_and_whitespace():
    rules = parse_rules(
        """
        # leading comment
        A <- 'a'   # trailing comment
             'b';
        B <- 'c';  # another
        """
    )
    assert [r.name for r in rules] == ["A", "B"]
    assert isinstance(rules[0].clause, Seq)


# === character sets ===

def test_charset_ranges_and_singles():
    c = body_of("A <- [a-cx];")
    assert isinstance(c, CharSet)
    assert c.matches_char("b") and c.matches_char("x")
    assert not c.matches_char("d")


def test_charset_negation():
    c = body_of("A <- [^a-c];")
    assert not c.matches_char("b")
    assert c.matches_char("z")


def test_negated_empty_set_matches_any_character():
    c = body_of("A <- [^];")
    assert c.matches_char("q") and c.matches_char("\n")


def test_trailing_dash_is_literal():
    c = body_of("A <- [a-];")
    assert c.matches_char("a") and c.matches_char("-")
    assert not c.matches_char("b")


def test_leading_dash_is_literal():
    c = body_of("A <- [-a];")
    assert c.matches_char("-") and c.matches_char("a")


def test_escaped_bracket_in_set():
    c = body_of(r"A <- [\]];")
    assert c.matches_char("]")


def test_unicode_escape_range_in_set():
    c = body_of(r"A <- [A-C];")
    assert c.matches_char("B") and not c.matches_char("D")


# === diagnostics ===

def err(text):
    with pytest.raises(GrammarSyntaxError) as info:
        parse_rules(text)
    return info.value


def test_missing_semicolon_reports_position():
    e = err("A <- 'a'")
    assert "';'" in str(e) and e.line == 1
    assert "^" in str(e)


def test_unterminated_literal():
    e = err("A <- 'abc;\nB <- 'b';")
    assert "unterminated literal" in str(e)
    assert e.line == 1


def test_unterminated_charset():
    assert "unterminated character set" in str(err("A <- [abc;"))


def test_backwards_range():
    assert "backwards" in str(err("A <- [z-a];"))


def test_empty_charset_rejected():
    assert "never match" in str(err("A <- [];"))


def test_missing_arrow():
    assert "<-" in str(err("A 'a';"))


def test_unknown_escape():
    assert "unknown escape" in str(err(r"A <- '\q';"))


def test_bad_unicode_escape():
    assert "four hex digits" in str(err(r"A <- '\u12';"))


def test_missing_clause_after_bang():
    assert "'!'" in str(err("A <- !;"))


def test_unclosed_group_points_at_opener():
    e = err("A <- ('a' 'b';")
    assert "')'" in str(e)
    assert e.col == 6


def test_empty_grammar_rejected():
    assert "at least one rule" in str(err("   # nothing here\n"))


def test_error_column_accuracy():
    e = err("Ab <- [z-a];")
    assert (e.line, e.col) == (1, 7)


# === nesting limit ===

DEEP = 1000


@pytest.mark.parametrize("text,col", [
    ("A <- " + "(" * DEEP + "'a'" + ")" * DEEP + ";", 106),
    ("A <- " + "!" * DEEP + "'a';", 106),
    ("A <- " + "('a' " * DEEP + ")?" * DEEP + ";", 506),
    ("A <- 'a'" + "+" * DEEP + ";", 109),
])
def test_deep_nesting_is_a_syntax_error(text, col):
    with pytest.raises(GrammarSyntaxError, match="nesting deeper than 100") as info:
        compile_grammar(text)
    assert (info.value.line, info.value.col) == (1, col)


def test_nesting_at_the_limit_compiles_and_parses():
    g = compile_grammar("A <- " + "(" * 100 + "'a'" + ")" * 100 + ";")
    assert parse(g, "a").matched_whole()
    # 100 negations cancel out: the body means &'b' 'b'.
    g = compile_grammar("A <- " + "!" * 100 + "'b' 'b';")
    assert parse(g, "b").matched_whole()
    assert not parse(g, "a").matched_whole()


_SOUP = [
    "A", "B", "E", "x:", "<-", "<-", ";", ";", "/", "(", ")", "()", "!", "&",
    "+", "*", "?", "'a'", "'bc'", "''", "[a-c]", "[^]", "[1]", "[0,L]",
    "[2,R]", "# c\n", " ", "\n",
]


def test_random_grammar_text_compiles_or_raises_grammar_error():
    rng = random.Random(11)
    for _ in range(3000):
        if rng.random() < 0.5:
            # Rule-shaped: a name, an arrow, a random body, a semicolon.
            body = [rng.choice(_SOUP) for _ in range(rng.randint(1, 12))]
            tokens = [rng.choice("ABE"), "<-"] + body + [";"]
        else:
            tokens = [rng.choice(_SOUP) for _ in range(rng.randint(1, 20))]
        text = " ".join(tokens)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GrammarWarning)
            try:
                compile_grammar(text)
            except GrammarError:
                pass


# === precedence shorthand ===

def test_negative_precedence_rejected():
    assert "negative" in str(err("E[-1] <- 'x';"))


def test_duplicate_level_rejected():
    with pytest.raises(GrammarError, match="duplicate precedence"):
        compile_grammar("E[1] <- 'a'; E[1] <- 'b';")


def test_plain_and_leveled_declaration_conflict():
    with pytest.raises(GrammarError, match="with and without"):
        compile_grammar("E[1] <- 'a'; E <- 'b';")


def test_associativity_needs_two_self_references():
    with pytest.raises(GrammarError, match="at least two"):
        compile_grammar("E[1,L] <- 'x' E; E[0] <- 'y';")


def test_associativity_without_bracket_is_parse_error():
    assert "L or R" in str(err("E[1,X] <- 'a';"))


def test_shorthand_expansion_structure():
    rules = rewrite_precedence_hierarchy(parse_rules(ARITH_SHORTHAND))
    names = [r.name for r in rules]
    assert names == ["E", "E4", "E3", "E2", "E1", "E0"]
    alias = rules[0]
    assert alias.alias and alias.precedence_group == "E"
    assert isinstance(alias.clause, RuleRef) and alias.clause.rule_name == "E0"
    # The loosest two levels are left-recursive: first alternative starts
    # with a reference to the level itself.
    e0 = rules[-1].clause
    assert isinstance(e0, First)
    head = e0.sub_clauses[0].sub_clauses[0]
    assert isinstance(head, RuleRef) and head.rule_name == "E0"


def test_right_associative_expansion():
    rules = rewrite_precedence_hierarchy(
        parse_rules("P[1,R] <- P '^' P; P[0] <- [a-z];")
    )
    by_name = {r.name: r for r in rules}
    p1 = by_name["P1"].clause
    # P1 is the tightest level, so it takes no failover wrap and becomes
    # P1 <- P0 '^' P1: recursion on the right, so right-nested trees.
    assert isinstance(p1, Seq)
    assert p1.sub_clauses[0].rule_name == "P0"
    assert p1.sub_clauses[2].rule_name == "P1"


def test_deep_precedence_rule_reaches_the_depth_check():
    # Built in code past what grammar text allows.  Expanding the shorthand
    # does not recurse, so assembly's depth limit is what reports it.
    deep = RuleRef("E")
    for _ in range(1500):
        deep = NotFollowedBy((deep,))
    rules = rewrite_precedence_hierarchy([
        Rule("E", Seq((deep, Char("x"))), precedence=0),
        Rule("E", Char("y"), precedence=1),
    ])
    with pytest.raises(
        GrammarError, match="rule 'E0' nests clauses more than %d" % MAX_CLAUSE_DEPTH
    ):
        assemble_grammar(rules)


def test_precedence_rule_containing_itself_is_a_grammar_error():
    loop = Seq((RuleRef("E"), Char("x")))
    loop.sub_clauses = (First((loop, RuleRef("E"))), Char("x"))
    with pytest.raises(GrammarError, match="contains itself"):
        rewrite_precedence_hierarchy([Rule("E", loop, precedence=0)])


def test_shared_clause_dag_expands_in_its_size():
    # The DAG unfolds into 2 ** 40 characters and holds no reference to E,
    # so expansion keeps it as it is.  Never display it.
    dag = Char("a")
    for _ in range(40):
        dag = Seq((dag, dag))
    t0 = time.perf_counter()
    rules = rewrite_precedence_hierarchy([
        Rule("E", Seq((dag, RuleRef("E"))), precedence=0),
        Rule("E", Char("b"), precedence=1),
    ])
    assert time.perf_counter() - t0 < 1.0
    e0 = rules[1]
    assert e0.name == "E0"
    assert e0.clause.sub_clauses[0].sub_clauses[0] is dag
    t0 = time.perf_counter()
    g = assemble_grammar(rules)
    assert time.perf_counter() - t0 < 1.0
    assert len(g.all_clauses) == 45


def test_self_reference_dag_is_refused_before_expanding():
    # Every level doubles the references to E that expansion would rebuild:
    # 2 ** 40 of them here.
    dag = Seq((RuleRef("E"), Char("a")))
    for _ in range(40):
        dag = Seq((dag, dag))
    t0 = time.perf_counter()
    with pytest.raises(GrammarError, match="rule 'E' refers to 'E' 1099511627776 times"):
        rewrite_precedence_hierarchy([
            Rule("E", dag, precedence=0),
            Rule("E", Char("b"), precedence=1),
        ])
    assert time.perf_counter() - t0 < 0.1


def test_self_reference_limit_is_inclusive():
    def level(n):
        return Rule("E", Seq([RuleRef("E")] * n + [Char("a")]), precedence=0)

    tightest = Rule("E", Char("b"), precedence=1)
    rules = rewrite_precedence_hierarchy([level(MAX_SELF_REFERENCES), tightest])
    assert len(rules[1].clause.sub_clauses[0].sub_clauses) == MAX_SELF_REFERENCES + 1
    with pytest.raises(GrammarError, match="at most %d" % MAX_SELF_REFERENCES):
        rewrite_precedence_hierarchy([level(MAX_SELF_REFERENCES + 1), tightest])


def test_single_level_group():
    g = compile_grammar("E[0] <- 'e' E / 'x';")
    assert g.start_rule == "E"
    t = parse(g, "eex")
    assert t.matched_whole()


# === rendering ===

EXPECTED_RENDER = """\
E <- E0;
E4 <- '(' E0 ')';
E3 <- ([0-9]+ / [a-z]+) / E4;
E2 <- '-' (E2 / E3) / E3;
E1 <- E1 ('*' / '/') E2 / E2;
E0 <- E0 ('+' / '-') E1 / E1;
"""


def test_render_of_expanded_shorthand():
    # Both assembly modes build the same clauses, so they render alike.
    for rewrite in (True, False):
        g = compile_grammar(ARITH_SHORTHAND, rewrite_repetitions=rewrite)
        assert render_grammar(g) == EXPECTED_RENDER


def test_render_without_rewrite_keeps_greedy_repetitions():
    # Rendering spells the desugared core: the star shows up as its
    # expansion, while the greedy repetition itself survives as '+'.
    g = compile_grammar("A <- 'a'+ / 'b'*;", rewrite_repetitions=False)
    assert render_grammar(g) == "A <- 'a'+ / ('b'+ / ());\n"


def test_render_reparse_same_language():
    g = compile_grammar(ARITH_SHORTHAND)
    g2 = compile_grammar(render_grammar(g), start_rule=g.start_rule)
    for text in ["a+b*c", "-x*(y+4)", "((7))", "a+", "", "1*2*3-4", "zq-"]:
        t1 = parse(g, text)
        t2 = parse(g2, text)
        assert t1.matched_whole() == t2.matched_whole()
        m1, m2 = t1.start_match(), t2.start_match()
        assert (m1 is None) == (m2 is None)
        if m1 is not None:
            assert m1.len == m2.len


def test_render_escapes_reparse():
    g = compile_grammar(r"A <- '\n' [\]a-c] '--';")
    g2 = compile_grammar(render_grammar(g))
    for text in ["\nb--", "\n]--", "\nd--", "b--"]:
        assert parse(g, text).matched_whole() == parse(g2, text).matched_whole()
