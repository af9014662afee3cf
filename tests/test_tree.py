"""Parse-tree extraction, repetition flattening, and AST projection."""

import random
import warnings

from pikaparse import (
    CharSet,
    OneOrMore,
    Rule,
    assemble_grammar,
    compile_grammar,
    covering_matches,
    extract_parse_tree,
    find_error_spans,
    parse,
    to_ast,
)
from pikaparse.tree import ASTNode, ParseTreeNode, node_from_match

import gram_gen
from helpers import ASSIGN, compile_leftrec, parse_tree


def tree_shape(node):
    return (node.name, node.label, node.pos, node.len,
            tuple(tree_shape(c) for c in node.children))


# === node basics ===

def test_node_fields_and_text():
    g = compile_grammar(ASSIGN)
    root = parse_tree(g, "ab=12;")
    assert root.name == "Program"
    assert (root.pos, root.end, root.text) == (0, 6, "ab=12;")
    assign = root.children[0]
    assert assign.name == "Assign" and assign.text == "ab=12;"
    lhs, eq, rhs, semi = assign.children
    assert (lhs.label, lhs.text) == ("lhs", "ab")
    assert (rhs.label, rhs.text) == ("rhs", "12")
    assert eq.text == "=" and semi.text == ";"
    assert [c.text for c in lhs.children] == ["a", "b"]


def test_no_match_extracts_none():
    g = compile_grammar("A <- 'a';")
    assert extract_parse_tree(parse(g, "b")) is None
    assert to_ast(None) is None


def test_partial_match_still_extracts():
    g = compile_grammar("A <- 'a';")
    t = parse(g, "ab")
    root = extract_parse_tree(t)
    assert root is not None and root.len == 1
    assert not t.matched_whole()


def test_node_repr_mentions_name_and_span():
    g = compile_grammar(ASSIGN)
    r = repr(parse_tree(g, "a=1;"))
    assert "Program" in r and "[0,4)" in r


# === repetition flattening ===

def test_flatten_collapses_chains():
    g = compile_grammar(ASSIGN)
    root = parse_tree(g, "ab=12;c=3;")
    assert [c.text for c in root.children] == ["ab=12;", "c=3;"]
    lhs = root.children[0].children[0]
    assert [c.text for c in lhs.children] == ["a", "b"]


def test_flatten_matches_greedy_repetition_spans():
    # With and without chained repetitions, the tree is the same: names,
    # labels and spans everywhere.  Greedy matches hold their repeats flat,
    # so the greedy grammar is an independent reference.  Where the input
    # does not fully parse, error spans and islands agree too.
    items = "L <- (items:W ',')+; W <- [a-z]+;"
    whole_star = "L <- W*; W <- [a-z]+ ' '?;"
    listing = "List <- Item* End?; Item <- w:[a-z]+ ' '?; End <- '.'+;"
    cases = [
        (ASSIGN, ["a=1;", "ab=12;c=3;", "x=9;y=8;z=7;"]),
        (items, ["ab,", "ab,c,", "".join("w%s," % ("x" * (i % 3)) for i in range(40))]),
        (whole_star, ["", "ab", "ab cd e ", "a " * 30]),
        (listing, ["ab cd e..", "", "abc", "x y.", "#a"]),
    ]
    for text_grammar, texts in cases:
        chained = compile_grammar(text_grammar)
        greedy = compile_grammar(text_grammar, rewrite_repetitions=False)
        for text in texts:
            a = parse(chained, text)
            b = parse(greedy, text)
            assert a.matched_whole() == (text != "#a"), text
            assert tree_shape(extract_parse_tree(a)) == tree_shape(extract_parse_tree(b)), text
            if not a.matched_whole():
                assert find_error_spans(a) == find_error_spans(b), text
                islands = [
                    [(g.node_name(m.clause), m.pos, m.len) for m in covering_matches(t)]
                    for g, t in ((chained, a), (greedy, b))
                ]
                assert islands[0] == islands[1], text

    rng = random.Random(7)
    compared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(300):
            rules, alphabet = gram_gen.random_rules(rng)
            chained = assemble_grammar(rules)
            greedy = assemble_grammar(rules, rewrite_repetitions=False)
            for _ in range(3):
                text = gram_gen.sample_input(rng, greedy, alphabet)
                a = parse_tree(chained, text)
                b = parse_tree(greedy, text)
                assert (a is None) == (b is None), text
                if a is not None:
                    assert tree_shape(a) == tree_shape(b), text
                    compared += 1
    assert compared > 300


def test_flatten_deep_chain_iteratively():
    g = compile_grammar("A <- 'a'+;")
    text = "a" * 3000
    t = parse(g, text)
    root = extract_parse_tree(t)
    assert len(root.children) == 3000
    assert all(c.text == "a" for c in root.children)


# === edge labels ===

def test_choice_alternative_labels():
    # Lone labeled alternatives ride in carrier sequences; projection
    # still finds the right label per alternative.
    g = compile_grammar("A <- x:'a' / y:'b';")
    assert to_ast(parse_tree(g, "a")).label == "x"
    assert to_ast(parse_tree(g, "b")).label == "y"


def test_optional_node_keeps_its_sequence_label():
    # The label binds the whole optional element, present or absent.
    g = compile_grammar("S <- p:'a'? 'b';")
    for text in ["ab", "b"]:
        opt = parse_tree(g, text).children[0]
        assert opt.label == "p"
        assert all(c.label is None for c in opt.children)


def test_choice_labels_picked_by_alternative_index():
    # Labels attached per alternative (via direct construction) follow
    # whichever alternative produced the match.
    from pikaparse.clauses import Char, First, Rule
    from pikaparse.grammar import assemble_grammar

    g = assemble_grammar([Rule("A", First((Char("a"), Char("b")), ("x", "y")))])
    assert parse_tree(g, "a").children[0].label == "x"
    assert parse_tree(g, "b").children[0].label == "y"


def test_sequence_position_labels():
    g = compile_grammar("P <- left:[a-z] right:[a-z];")
    left, right = parse_tree(g, "xy").children
    assert (left.label, right.label) == ("left", "right")


def test_repetition_label_lands_on_collapsed_node():
    g = compile_grammar("W <- word:[a-z]+;")
    root = parse_tree(g, "abc")
    # The carrier wraps the labeled chain; find the labeled node.
    node = root
    while node.label is None:
        assert node.children, "no labeled node found"
        node = node.children[0]
    assert node.label == "word" and node.text == "abc"
    assert [c.text for c in node.children] == ["a", "b", "c"]
    # A label on the repetition's own operand edge (built in code) lands on
    # every repeat, in both modes.
    rule = Rule("W", OneOrMore((CharSet.of("abc"),), ("ch",)))
    for rewrite in (True, False):
        g = assemble_grammar([rule], rewrite_repetitions=rewrite)
        root = parse_tree(g, "abc")
        assert [(c.label, c.text) for c in root.children] == [
            ("ch", "a"), ("ch", "b"), ("ch", "c")]


# === AST projection ===

def test_ast_flat_labels():
    g = compile_grammar(ASSIGN)
    ast = to_ast(parse_tree(g, "ab=12;c=3;"))
    assert ast.label is None  # synthetic root holding the labeled nodes
    assert [(n.label, n.text) for n in ast.children] == [
        ("lhs", "ab"),
        ("rhs", "12"),
        ("lhs", "c"),
        ("rhs", "3"),
    ]


def test_ast_nested_labels():
    g = compile_grammar("S <- whole:('(' inner:[a-z] ')');")
    ast = to_ast(parse_tree(g, "(k)"))
    assert ast.label == "whole" and ast.text == "(k)"
    assert len(ast.children) == 1
    assert ast.children[0].label == "inner"
    assert ast.children[0].text == "k"


def test_ast_single_label_is_returned_directly():
    g = compile_grammar("S <- v:[0-9]+;")
    ast = to_ast(parse_tree(g, "42"))
    assert isinstance(ast, ASTNode)
    assert ast.label == "v" and ast.text == "42"


def test_ast_without_labels_is_none():
    g = compile_grammar("S <- 'a' 'b';")
    assert to_ast(parse_tree(g, "ab")) is None


def test_ast_on_deep_chain():
    g = compile_grammar("S <- item:'a'+;")
    ast = to_ast(parse_tree(g, "a" * 2500))
    assert ast.label == "item" and ast.len == 2500


# === expression trees ===

def test_expression_tree_left_nesting():
    g = compile_leftrec()
    root = parse_tree(g, "a+b+c")
    assert root.name == "E0" and root.text == "a+b+c"
    inner = root.children[0].children[0]
    assert inner.name == "E0" and inner.text == "a+b"


def test_node_from_match_standalone():
    g = compile_grammar("A <- 'a' 'b';")
    t = parse(g, "ab")
    root = node_from_match(t.start_match(), g, t.text)
    assert isinstance(root, ParseTreeNode)
    assert [c.text for c in root.children] == ["a", "b"]
