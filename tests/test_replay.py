"""Cut growth steps: a column's final matches hold their superseded
left-recursive operands as cuts, whose children are rebuilt by replaying
the column.  Every tree read through them must be the tree the fill built.
"""

import gc
import random
import sys
import weakref

import pytest

from pikaparse import compile_grammar, engine, extract_parse_tree, parse, tree
from pikaparse.bench import expression_grammar
from pikaparse.clauses import NotFollowedBy, OneOrMore
from pikaparse.engine import FillPlan, MemoTable

from enum_oracle import all_trees, norm_match
from gram_gen import random_leftrec_grammar, sample_short_input
from helpers import JSON_GRAMMAR, compile_leftrec, shape


def walk(m):
    """Every match in m's tree, m first, rebuilding the cuts on the way."""
    out, stack = [], [m]
    while stack:
        m = stack.pop()
        out.append(m)
        stack.extend(m.sub_matches)
    return out


def cuts_in(table):
    return sum(type(s) is engine._Cut for m in table.all_stored() for s in m.sub_matches)


def full_form(table):
    """Every stored match, its whole tree in normalized form."""
    return [norm_match(m) for m in table.all_stored()]


def uncut_table(monkeypatch, grammar, text):
    """The table the fill builds when it cuts nothing."""
    with monkeypatch.context() as m:
        m.setattr(MemoTable, "_cutter", lambda self, holders: lambda pos: None)
        return parse(grammar, text)


def test_left_recursive_pairs_match_the_enumerator():
    rng = random.Random(20261018)
    pairs = unique = compared = rebuilt = 0
    for _ in range(300):
        g, alphabet = random_leftrec_grammar(rng)
        for _ in range(7):
            text = sample_short_input(rng, g, alphabet)
            pairs += 1
            try:
                trees = all_trees(g, text)
            except AssertionError:  # too many derivations to enumerate
                continue
            if len(trees) != 1:
                continue
            unique += 1
            table = parse(g, text)
            assert table.watermark_violations == 0
            m = table.start_match()
            if m is None or m.len != len(text):
                # Ordered choice may commit to a shorter match than the one
                # derivation of the whole input; that is PEG semantics.
                continue
            compared += 1
            rebuilt += sum(type(x) is engine._Cut for x in walk(m))
            assert norm_match(m) == trees[0], text
    print("%d pairs, %d unique derivations, %d compared, %d cut children rebuilt"
          % (pairs, unique, compared, rebuilt))
    assert unique >= 1000
    assert compared >= 900
    assert rebuilt > 0


def test_cut_tables_read_as_the_uncut_fill(monkeypatch):
    rng = random.Random(77)
    cut_pairs = 0
    for _ in range(120):
        g, alphabet = random_leftrec_grammar(rng)
        for _ in range(4):
            text = sample_short_input(rng, g, alphabet, max_len=40)
            table = parse(g, text)
            cut_pairs += cuts_in(table) > 0
            assert full_form(table) == full_form(uncut_table(monkeypatch, g, text)), text
            assert table.watermark_violations == 0
    g = compile_leftrec()
    for text in ("1+2*3-4/5+x*y*z-7", "a*b*c*d+e*f*g-(h-i-j-k)/l/m", "--a-b-c*d"):
        table = parse(g, text)
        cut_pairs += cuts_in(table) > 0
        assert full_form(table) == full_form(uncut_table(monkeypatch, g, text))
    print("%d tables with cuts" % cut_pairs)
    assert cut_pairs >= 50


class History(dict):
    """A per-clause table that remembers every match stored in it."""

    def __init__(self):
        super().__init__()
        self.steps = []

    def __setitem__(self, pos, m):
        self.steps.append(m)
        super().__setitem__(pos, m)


def test_replay_rebuilds_every_superseded_step():
    # Not only the steps the fill cuts: a cut made of any match that a
    # clause whose matches can be cut stored and then replaced rebuilds
    # that match's children.
    rng = random.Random(9)
    grammars = [random_leftrec_grammar(rng) for _ in range(150)]
    grammars.append((compile_leftrec(), "1+-*/(a)"))
    steps = 0
    for g, alphabet in grammars:
        text = sample_short_input(rng, g, alphabet, max_len=30)
        parse(g, text)
        table = MemoTable(g, text)
        table._tables = [History() for _ in g.all_clauses]
        table._run()
        source = engine._Source(table)
        for idx in g.fill_plan.replays:
            tbl = table._tables[idx]
            for m in tbl.steps:
                if m.sub_matches and tbl[m.pos] is not m:
                    rebuilt = engine._Cut(m, source).sub_matches
                    assert list(map(norm_match, rebuilt)) == list(map(norm_match, m.sub_matches))
                    steps += 1
    assert steps > 500


def test_walking_cuts_leaves_the_table_as_it_was():
    g = expression_grammar()
    text = "+".join(["ab"] * 30) + "*" + "*".join(["cd"] * 20)
    table = parse(g, text)
    assert cuts_in(table) > 0
    stored = list(table.all_stored())
    positions = {id(c): list(table.match_positions(c)) for c in g.all_clauses}
    seen = 0
    # Rebuilding children while iterating all_stored() must not disturb it.
    for m in table.all_stored():
        seen += len(walk(m))
    assert seen > len(stored)
    assert list(table.all_stored()) == stored
    assert table.stored_count == len(stored)
    for c in g.all_clauses:
        assert list(table._tables[c.clause_idx]) == positions[id(c)]
        assert table.match_positions(c) == positions[id(c)]
    assert table.watermark_violations == 0


def test_a_cut_repetition_replays_once_per_node(monkeypatch):
    # L+ grows with L on the same column, so its superseded steps are cut.
    # Reading a chained repetition's repeats reads each node's children
    # once, so it replays once per cut node of the chain.
    g = compile_grammar("L <- L+ 'x' / 'y';")
    text = "yxxxx"
    table = parse(g, text)
    uncut = uncut_table(monkeypatch, g, text)
    assert table.matched_whole()
    replays = []
    replay = engine._Source.replay
    monkeypatch.setattr(
        engine._Source, "replay", lambda self, cut: replays.append(cut) or replay(self, cut)
    )
    checked = 0
    for m in table.all_stored():
        for j, c in enumerate(m.sub_matches):
            if type(c) is not engine._Cut:
                continue
            assert type(c.clause) is OneOrMore and c.clause.chained
            cut_nodes, node = 0, c
            while True:
                cut_nodes += type(node) is engine._Cut
                subs = node.sub_matches
                if len(subs) < 2:
                    break
                node = subs[1]
            del replays[:]
            repeats = tree._repeats(c)
            assert len(replays) == cut_nodes
            twin = uncut.stored(m.clause, m.pos).sub_matches[j]
            assert list(map(norm_match, repeats)) == list(map(norm_match, tree._repeats(twin)))
            checked += 1
    assert checked > 0
    assert shape(extract_parse_tree(table)) == shape(extract_parse_tree(uncut))


def test_a_match_outlives_its_table():
    g = expression_grammar()
    text = "+".join(["ab"] * 12)
    expected = norm_match(parse(g, text).start_match())
    m = parse(g, text).start_match()  # the table is dropped at once
    assert norm_match(m) == expected


def test_tables_are_freed_without_the_cycle_collector():
    g = expression_grammar()
    table = parse(g, "+".join(["ab"] * 12))
    extract_parse_tree(table)  # replays, so the replay machinery exists
    assert cuts_in(table) > 0
    ref = weakref.ref(table)
    tables = table._tables
    gc.disable()
    try:
        del table
        assert ref() is None
        assert sys.getrefcount(tables) == 2  # this name and the argument
    finally:
        gc.enable()


def test_json_grammar_has_nothing_to_cut():
    g = compile_grammar(JSON_GRAMMAR)
    text = '{"a": [1, 2, {"b": [[3], [4, 5], "x\\u0041y"]}], "c": null, "d": -1.5e3}'
    table = parse(g, text)
    assert table.matched_whole()
    assert g.fill_plan.holders == () and g.fill_plan.replays == {}
    assert cuts_in(table) == 0
    assert not any(type(x) is engine._Cut for m in table.all_stored() for x in walk(m))


@pytest.mark.parametrize("text, cut", [("a+b", False), ("a*b-c", False), ("a+b+c", True)])
def test_only_runs_of_three_operands_are_cut(text, cut):
    # Two operands leave one superseded step per column, which holds no
    # other, so nothing is cut and extracting the tree replays nothing.
    g = compile_leftrec()
    table = parse(g, text)
    assert table.matched_whole()
    assert (cuts_in(table) > 0) == cut


def test_plan_replays_one_left_recursive_level_at_a_time():
    g = compile_leftrec()
    plan = FillPlan(g)
    name = g.clause_name
    levels = {name(g.all_clauses[i]) for i in plan.replays if name(g.all_clauses[i])}
    assert levels == {"E0", "E1"}
    for target, (evaluated, seeds, parents) in plan.replays.items():
        # A level's replay evaluates that level's rule and its growing
        # sequence; the level below is final by the time either pops.
        assert len(evaluated) == 2 and target in evaluated
        assert set(parents) == set(evaluated)
    assert set(plan.holders) == {i for ev, _, _ in plan.replays.values() for i in ev}
