"""Parse-tree extraction, repetition flattening, AST projection, and
children built on first read."""

import gc
import random
import sys
import threading
import warnings
import weakref

import pytest

from pikaparse import (
    CharSet,
    First,
    GrammarError,
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
from pikaparse import tree
from pikaparse.engine import Match, MemoTable
from pikaparse.tree import ASTNode, ParseTreeNode, node_from_match

import gram_gen
from helpers import (
    ARITH_LABELED,
    ASSIGN,
    JSON_GRAMMAR,
    compile_leftrec,
    expression_doc,
    json_doc,
    matched_children,
    parse_tree,
)


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


def test_tree_and_ast_nodes_are_distinct_types():
    # The two share their span fields, but neither is the other.
    root = parse_tree(compile_grammar(ASSIGN), "ab=12;")
    ast = to_ast(root)
    assert not isinstance(root, ASTNode) and not isinstance(ast, ParseTreeNode)
    assert (ast.pos, ast.end, ast.text) == (root.pos, root.end, root.text)


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


# === children built on first read ===

JSON_DOCS = [
    '{"a": [1, 2, {"b": [[3], [4, 5], "x\\u0041y"]}], "c": null, "d": -1.5e3}',
    '[true, false, "", {}, [], 0.25, "tab\\tand \\"quote\\""]',
    ' {"key" : {"nested": [ {"deep": [1e-7, -0, 12345678901234567890]} ]}} ',
]


def ast_shape(node):
    if node is None:
        return None
    return (node.label, node.pos, node.len, tuple(ast_shape(c) for c in node.children))


def labeled_leftrec_grammar(rng):
    """gram_gen's left-recursive grammar with a random label on 30% of
    the edges of its rule bodies, plus its alphabet."""
    while True:
        got = gram_gen.random_leftrec_rules(rng)
        if got is None:
            continue
        rules, alphabet = got
        stack = [r.clause for r in rules]
        while stack:
            c = stack.pop()
            c.sub_clause_labels = tuple(
                rng.choice("xy") if rng.random() < 0.3 else None for _ in c.sub_clauses)
            stack.extend(c.sub_clauses)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                g = assemble_grammar(rules, "L", rewrite_repetitions=rng.random() < 0.7)
            return g, alphabet
        except GrammarError:
            continue


def json_ast_reruns(monkeypatch, g):
    """The clauses whose children projecting JSON_DOCS under g builds
    through the decoder, each checked against what rerunning its matcher
    over the filled table with match_clause reads."""
    built = []
    entries = MemoTable._entries

    def checked(self, clause, pos, length, alt_idx):
        got = entries(self, clause, pos, length, alt_idx)
        assert got == matched_children(self, Match(clause, pos, length, self, alt_idx))
        built.append(clause)
        return got

    monkeypatch.setattr(MemoTable, "_entries", checked)
    for text in JSON_DOCS:
        ast = to_ast(extract_parse_tree(parse(g, text)))
        assert ast.label == "v" and ast.len == len(text.strip())
    return built


def test_to_ast_reruns_no_clause_that_reaches_no_label(monkeypatch):
    # The JSON grammar's lexical rules hold no label, so the AST needs none
    # of their nodes' children: String, Number, WS and Hex never have
    # theirs built.  Greedy repetitions' children are built like chained
    # ones' (below).
    g = compile_grammar(JSON_GRAMMAR, rewrite_repetitions=False)
    lexical = [g.rule_clause(name) for name in ("String", "Number", "WS", "Hex")]
    built = json_ast_reruns(monkeypatch, g)
    assert any(type(c) is OneOrMore for c in built)
    assert not {id(c) for c in lexical} & {id(c) for c in built}
    assert all(c.reaches_label for c in built)
    assert not any(c.reaches_label for c in lexical)


def test_the_json_ast_reruns_nothing(monkeypatch):
    # With chained repetitions the JSON AST reads every choice's and
    # sequence's children from the memo itself, and only a repetition's
    # through the decoder, which selects them from the memo too: each is
    # what its matcher reads over the filled table.
    built = json_ast_reruns(monkeypatch, compile_grammar(JSON_GRAMMAR))
    assert built and {type(c) for c in built} == {OneOrMore}


def test_the_labeled_expression_ast_reruns_no_choice(monkeypatch):
    # Each choice and sequence of the labeled expression grammar read
    # final values when the fill evaluated it, a level's operand
    # alternative included, so its children are selected from the memo,
    # and each level's growth steps are walked: building the AST replays
    # nothing.
    g = compile_grammar(ARITH_LABELED)
    calls = []
    for name in ("_replay", "_walk"):
        method = getattr(MemoTable, name)

        def counted(self, *args, name=name, method=method):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(MemoTable, name, counted)
    for text in ("a+b*-(c-d)/e", "1-2-3*x*y/(z+4)", "--a", "((a))", "7"):
        ast = to_ast(extract_parse_tree(parse(g, text)))
        assert ast is not None, text
    assert set(calls) == {"_walk"}


def projection_cases():
    """(grammar, texts) pairs: JSON, the labeled expression grammar, both
    again on generated documents, and 200 labeled left-recursive grammars
    from gram_gen."""
    cases = [(compile_grammar(JSON_GRAMMAR), JSON_DOCS),
             (compile_grammar(ARITH_LABELED), ["a+b*-(c-d)/e", "1-2-3*x*y/(z+4)"]),
             (compile_leftrec(), ["a+b*-(c-d)/e"])]
    rng = random.Random(20261018)
    # The benchmark's two tree grammars on generated documents.
    cases.append((cases[0][0], [json_doc(rng) for _ in range(25)]))
    cases.append((cases[1][0], [expression_doc(rng) for _ in range(25)]))
    for _ in range(200):
        g, alphabet = labeled_leftrec_grammar(rng)
        cases.append((g, [gram_gen.sample_short_input(rng, g, alphabet) for _ in range(5)]))
    return cases


def read_partly(root, rng):
    """Read the children of about half the nodes reached, from the root."""
    stack = [root]
    while stack:
        node = stack.pop()
        if rng.random() < 0.5:
            stack.extend(node.children)


def test_a_fresh_tree_projects_as_a_tree_read_whole():
    labeled = 0
    for g, texts in projection_cases():
        for text in texts:
            table = parse(g, text)
            whole = extract_parse_tree(table)
            if whole is None:
                continue
            tree_shape(whole)  # reads every node's children
            expected = ast_shape(to_ast(whole))
            assert ast_shape(to_ast(extract_parse_tree(table))) == expected, text
            labeled += expected is not None
    assert labeled >= 300


INLINE = "S <- A / 'q'; A <- k:'a' v:'b';"


@pytest.mark.parametrize("how", ["shorter", "longer", "missing"])
@pytest.mark.parametrize("corrupt", ["choice", "member"])
def test_to_ast_raises_where_the_memo_contradicts_an_inline_read(monkeypatch, corrupt, how):
    # S's unlabeled edge to A is a choice step and A's members a sequence
    # that to_ast reads from the memo itself, calling no decoder; a stored
    # value that does not give the length its parent's entry says raises
    # the error the decoder's select raises for that entry.
    g = compile_grammar(INLINE)
    s, a = g.rule_clause("S"), g.rule_clause("A")
    table = parse(g, "ab")
    calls = []
    entries = MemoTable._entries

    def counted(self, *args):
        calls.append(args)
        return entries(self, *args)

    monkeypatch.setattr(MemoTable, "_entries", counted)
    ast = to_ast(extract_parse_tree(table))
    assert ast_shape(ast) == (None, 0, 2, (("k", 0, 1, ()), ("v", 1, 1, ())))
    assert calls == []
    target, read, at = {"choice": (s, a, 0), "member": (a, a.sub_clauses[1], 1)}[corrupt]
    values = table._tables[read.clause_idx]
    if how == "missing":
        del values[at]
    else:
        values[at] += (1 if how == "longer" else -1) << g.alt_shift
    with pytest.raises(RuntimeError) as selected:
        table.stored(target, 0).sub_matches
    assert "does not match at 0 as its memo entry says" in str(selected.value)
    with pytest.raises(RuntimeError) as inline:
        to_ast(extract_parse_tree(table))
    assert str(inline.value) == str(selected.value)
    assert len(calls) == 1  # only the decoder's own select above


def test_a_tree_read_partly_projects_as_a_fresh_tree():
    rng = random.Random(18)
    labeled = 0
    for g, texts in projection_cases():
        for text in texts:
            table = parse(g, text)
            fresh = extract_parse_tree(table)
            if fresh is None:
                continue
            expected = ast_shape(to_ast(fresh))
            partly = extract_parse_tree(table)
            read_partly(partly, rng)
            assert ast_shape(to_ast(partly)) == expected, text
            # Projecting reads nothing, so the tree still reads whole as a
            # tree never projected.
            assert tree_shape(partly) == tree_shape(fresh), text
            labeled += expected is not None
    assert labeled >= 300


def test_projecting_a_fresh_tree_builds_no_node(monkeypatch):
    built = []
    init = tree.ParseTreeNode.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    projected = 0
    for g, texts in projection_cases()[:3]:
        for text in texts:
            root = parse_tree(g, text)
            monkeypatch.setattr(tree.ParseTreeNode, "__init__", counted)
            ast = to_ast(root)
            monkeypatch.setattr(tree.ParseTreeNode, "__init__", init)
            assert built == [], text
            assert root._entry is not None, text  # root.children is unbuilt
            projected += ast is not None
            assert tree_shape(root) == tree_shape(parse_tree(g, text)), text
            assert ast_shape(to_ast(root)) == ast_shape(ast), text
    assert projected == len(JSON_DOCS) + 2  # compile_leftrec has no label


def test_a_tree_outlives_its_table_and_then_lets_it_go():
    g = compile_leftrec()
    text = "a*b+-c*(d+e)-f/g+h"
    expected = tree_shape(parse_tree(g, text))
    table = parse(g, text)
    ref = weakref.ref(table)
    root = extract_parse_tree(table)
    del table
    gc.collect()
    assert ref() is not None  # unread children still need it
    gc.disable()
    try:
        assert tree_shape(root) == expected
        # Every node's entry is dropped once its children are built, so
        # nothing refers to the table any more.
        assert ref() is None
    finally:
        gc.enable()


def test_an_ast_outlives_its_table():
    g = compile_grammar(ARITH_LABELED)
    text = "a*b+-c*(d+e)-f/g+h"
    expected = ast_shape(to_ast(parse_tree(g, text)))
    table = parse(g, text)
    ref = weakref.ref(table)
    root = extract_parse_tree(table)
    ast = to_ast(root)
    gc.collect()
    gc.disable()
    try:
        del table, root
        assert ref() is None
        assert ast_shape(ast) == expected
    finally:
        gc.enable()


def in_threads(read, n=6):
    """What read() returns in each of n threads started together, with
    the interpreter switching threads as often as it can."""
    results, errors = [], []

    def run():
        try:
            results.append(read())
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    return results


def test_threads_projecting_one_unread_tree_agree():
    g = compile_grammar(ARITH_LABELED)
    text = "a*b*c+d-e*f/(g+h+i)-j*k+l" * 3
    expected = ast_shape(to_ast(parse_tree(g, text)))
    root = extract_parse_tree(parse(g, text))
    assert in_threads(lambda: ast_shape(to_ast(root))) == [expected] * 6
    assert root._entry is not None  # projecting left the tree unread


def test_threads_walking_one_unread_tree_agree():
    g = compile_leftrec()
    text = "a*b*c+d-e*f/(g+h+i)-j*k+l" * 3
    expected = tree_shape(parse_tree(g, text))
    root = extract_parse_tree(parse(g, text))
    assert in_threads(lambda: tree_shape(root)) == [expected] * 6
