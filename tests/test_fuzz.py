"""Property-based tests with hypothesis.

The first draws a generated grammar without left recursion and an input.
Every (clause, position) the reference parser evaluated must read from the
engine's table with the same length and alternative, and the two start
matches must have the same shape.

The second builds clause graphs in code, of every clause class, with none
of gram_gen's constraints, and checks that assembly either succeeds or
raises GrammarError, and that every grammar it accepts parses, reads and
projects soundly.

The last two write grammar text, from metagrammar tokens and by editing
valid grammars, and check that compile_grammar returns a Grammar or raises
GrammarError, never any other exception.

The runs are derandomized, so they draw the same examples every time.
"""

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from pikaparse import (
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
    Grammar,
    assemble_grammar,
    compile_grammar,
    covering_matches,
    extract_parse_tree,
    find_error_spans,
    parse,
    render_grammar,
    to_ast,
)
from pikaparse.oracle import describe_match, packrat_parse, same_shape

from gram_gen import random_grammar, sample_input
from helpers import ARITH_LABELED, ARITH_LEFTREC, ASSIGN, JSON_GRAMMAR

randoms = st.randoms(use_true_random=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=800)
@given(data=st.data())
def test_every_oracle_entry_reads_the_same_from_the_table(data):
    g, alphabet = random_grammar(data.draw(randoms, label="grammar"))
    text = data.draw(
        st.one_of(
            st.text(alphabet=alphabet + "x", max_size=24),
            randoms.map(lambda rng: sample_input(rng, g, alphabet)),
        ),
        label="text",
    )
    table = parse(g, text)
    res = packrat_parse(g, text, check_left_recursion=False)
    shift = g.alt_shift
    for (idx, pos), v in res.memo.items():
        m = table.lookup(g.all_clauses[idx], pos)
        expected = None if v is None else (v >> shift, v & ~(-1 << shift))
        assert (None if m is None else (m.len, m.alt_idx)) == expected, (idx, pos)
    bottom, top = table.start_match(), res.match
    assert same_shape(bottom, top), (describe_match(bottom), describe_match(top))
    assert table.watermark_violations == 0


COMPOSITES = (Seq, First, OneOrMore, NotFollowedBy, FollowedBy, Optional, ZeroOrMore)
# Nothing is rarer than the other leaves: assembly rejects most places it lands.
LEAVES = (Char, Char, CharSet, Str, RuleRef, RuleRef, RuleRef, Nothing)


def random_rule_set(rng):
    """1 to 4 rules over the alphabet "ab", built from every clause class:
    labels on half the edges, clauses shared by several parents (the same
    object), and references to any rule, itself included."""
    names = ["R%d" % i for i in range(rng.randint(1, 4))]
    built = []

    def clause(depth):
        if built and rng.random() < 0.15:
            return rng.choice(built)
        # A rule's body is composite, and clauses three levels down are leaves.
        kinds = COMPOSITES if depth == 0 else LEAVES if depth == 3 else COMPOSITES + LEAVES
        kind = rng.choice(kinds)
        if kind is Char:
            c = Char(rng.choice("ab"))
        elif kind is CharSet:
            c = CharSet.of(rng.choice(("a", "ab")), negated=rng.random() < 0.3)
        elif kind is Str:
            c = Str(rng.choice(("ab", "ba", "aa")))
        elif kind is Nothing:
            c = Nothing()
        elif kind is RuleRef:
            c = RuleRef(rng.choice(names))
        else:
            subs = [clause(depth + 1) for _ in range(rng.randint(kind.min_arity, kind.max_arity or 3))]
            c = kind(subs, [rng.choice("xy") if rng.random() < 0.5 else None for _ in subs])
        built.append(c)
        return c

    return [Rule(name, clause(0)) for name in names]


def read_whole(root):
    """Read every node's children, checking that they tile their parent."""
    stack = [root]
    while stack:
        node = stack.pop()
        at = node.pos
        for child in node.children:
            assert child.pos == at, (node, child)
            at = child.end
        assert not node.children or at == node.end, node
        stack.extend(node.children)


def ast_rows(ast):
    """An AST as (label, pos, len, child count) rows in preorder."""
    rows, stack = [], [ast] if ast is not None else []
    while stack:
        node = stack.pop()
        rows.append((node.label, node.pos, node.len, len(node.children)))
        stack.extend(reversed(node.children))
    return rows


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(rng=randoms, chained=st.booleans(),
       texts=st.lists(st.text(alphabet="ab", max_size=8), min_size=1, max_size=3))
def test_clause_graphs_built_in_code_assemble_parse_and_project(rng, chained, texts):
    rules = random_rule_set(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            g = assemble_grammar(rules, rewrite_repetitions=chained)
        except GrammarError:
            return
        again = assemble_grammar(rules, rewrite_repetitions=chained)
    assert render_grammar(again) == render_grammar(g)
    for text in texts:
        table = parse(g, text)
        assert table.watermark_violations == 0
        fresh = extract_parse_tree(table)
        if fresh is not None:
            whole = extract_parse_tree(table)
            read_whole(whole)
            assert ast_rows(to_ast(fresh)) == ast_rows(to_ast(whole)), text
        find_error_spans(table)
        covering_matches(table)
        for m in table.all_stored():
            m.sub_matches  # builds the match's children


# Pieces of grammar text: names, the arrow and the end of a rule, the
# operators, literals and character sets with each escape, precedence
# tiers, comments and white space, and pieces that are wrong on their own.
TOKENS = (
    "A", "B", "E", "x1", "_", "<-", "<", ";", "/", "(", ")", "()", "?", "*", "+", "!", "&",
    ":", "l:", "'a'", "''", "'ab'", "'\\n'", "'\\u0041'", "'\\q'", "'\\u12'", "[a-z]",
    "[^]", "[^a]", "[z-a]", "[\\]]", "[\\u0041-\\u005a]", "[", "]", "'", '"', "\\",
    "[0]", "[1,L]", "[2,R]", "[1,X]", "[-1]", "[99999999999999999999]", "#c\n", " ", "\n",
    "\ufeff", "\u00e9", "\x00", "-", ",",
)
ATOMS = ("A", "B", "E", "'a'", "''", "[a-z]", "[^]", "()", "'\\u0041'", "[ab]")
RULE_NAMES = ("A", "B", "E[0]", "E[1,L]", "E[2,R]", "E[3]")

expressions = st.recursive(
    st.sampled_from(ATOMS),
    lambda e: st.one_of(
        st.tuples(e, e).map(" ".join),
        st.tuples(e, e).map(" / ".join),
        e.map("({})".format),
        st.tuples(e, st.sampled_from("?*+")).map("".join),
        st.tuples(st.sampled_from("!&"), e).map("".join),
        e.map("l:{}".format),
    ),
    max_leaves=8,
)


def grammar_text(rules):
    """(name, expression) rules as grammar text, with a rule added for each
    name they read but do not define.  A tier with associativity reads its
    rule on both sides of the expression, as an infix operator."""
    defined = {name.split("[")[0] for name, _ in rules}
    lines = [
        ("%s <- E %s E;" if "," in name else "%s <- %s;") % (name, e) for name, e in rules
    ]
    lines += ["%s <- '%s';" % (n, n.lower()) for n in "ABE" if n not in defined]
    return "\n".join(lines)


grammar_texts = st.lists(
    st.tuples(st.sampled_from(RULE_NAMES), expressions),
    min_size=1,
    max_size=4,
    unique_by=lambda rule: rule[0],
).map(grammar_text)
VALID = (JSON_GRAMMAR, ARITH_LABELED, ARITH_LEFTREC, ASSIGN, "S <- (k:[a-z] v:[0-9])+;")


def compiles_or_is_rejected(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            g = compile_grammar(text)
        except GrammarError:
            return
    assert isinstance(g, Grammar)


@settings(derandomize=True, database=None, deadline=None, max_examples=1500)
@given(text=st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=30).map("".join),
    grammar_texts,
))
def test_grammar_text_compiles_or_is_rejected(text):
    compiles_or_is_rejected(text)


@settings(derandomize=True, database=None, deadline=None, max_examples=1500)
@given(data=st.data())
def test_edited_grammar_text_compiles_or_is_rejected(data):
    # Small edits of a valid or generated grammar: each replaces up to 6
    # characters at a random place with a token, or with nothing.
    text = data.draw(st.one_of(st.sampled_from(VALID), grammar_texts), label="grammar")
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        i = data.draw(st.integers(0, len(text)), label="at")
        j = data.draw(st.integers(i, min(len(text), i + 6)), label="to")
        text = text[:i] + data.draw(st.sampled_from(TOKENS + ("",)), label="token") + text[j:]
    compiles_or_is_rejected(text)
