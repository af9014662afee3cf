"""Dispatch entries that store every clause the column's character decides.

A column's entry runs its queue over the character with probe matchers and
stores each clause whose value that alone fixes, so the fill never pops
it.  These tests compare the tables with those of a fill whose entries
store only the single-character terminals (helpers.reference_entry), key
order included, pin what the JSON grammar's entries decide, and build one
grammar's entries from several threads at once.
"""

import importlib.util
import itertools
import os
import random
import sys
import threading
import warnings
from bisect import bisect_right

from pikaparse import (
    First,
    NotFollowedBy,
    OneOrMore,
    Seq,
    compile_grammar,
    engine,
    parse,
)

from gram_gen import (
    random_grammar,
    random_leftrec_grammar,
    random_precedence_grammar,
    sample_expression,
    sample_input,
    sample_short_input,
)
from helpers import JSON_GRAMMAR, reference_plan


def load_workloads():
    """The benchmark's workloads module, perfbench/workloads.py."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tables(table):
    return [list(t.items()) for t in table._tables]


def fills_agree(g, texts):
    """Assert that each text fills the same tables, in the same order, with
    g's own entries and with the reference entries; whether some entry g's
    fills built decided a clause above a terminal."""
    plan = engine._plan(g)
    reference = reference_plan(g)
    for text in texts:
        table = parse(g, text)
        g.fill_plan = reference
        try:
            expected = parse(g, text)
        finally:
            g.fill_plan = plan
        assert tables(table) == tables(expected), (g.rules, text)
        assert table.watermark_violations == 0
    return any(
        not g.all_clauses[i].is_terminal for e in plan.entries if e is not None for i, _ in e[0]
    )


def test_decided_entries_fill_the_tables_the_terminal_entries_fill():
    rng = random.Random(20261028)
    cases = []
    for _ in range(250):
        g, alphabet = random_grammar(rng)
        cases.append((g, [sample_input(rng, g, alphabet) for _ in range(3)]))
    for side_entry in (False, True):
        for _ in range(150):
            g, alphabet = random_leftrec_grammar(rng, side_entry=side_entry)
            cases.append((g, [sample_short_input(rng, g, alphabet) for _ in range(3)]))
    for _ in range(200):
        text, operands, operators = random_precedence_grammar(rng)
        cases.append(
            (compile_grammar(text), [sample_expression(rng, operands, operators) for _ in range(3)])
        )
    pairs = decided = 0
    for g, texts in cases:
        decided += fills_agree(g, texts)
        pairs += len(texts)
    print("%d pairs; %d of %d grammars decided a clause above a terminal"
          % (pairs, decided, len(cases)))
    assert pairs >= 2000
    assert decided >= 300


def test_decided_entries_fill_the_benchmark_documents_as_before():
    decided = {}
    for name, wl in load_workloads().WORKLOADS.items():
        g = compile_grammar(wl.grammar_text)
        decided[name] = fills_agree(g, [d.text for b in (0, 1) for d in wl.block(1, b)])
    # Every clause of the assignment grammar above a letter or a digit is a
    # repetition, or reads one: each reads past the column.
    assert decided == {"expr-leftrec": True, "json-docs": True, "assign-recover": False}


# Hand-written grammars, each with the alphabet its inputs are drawn from.
HAND_WRITTEN = [
    # A lookahead over a Str, and over a clause only a Str's store can
    # schedule: undecided where the Str can start.
    ("S <- (!'ab' [a-c] / 'ab')+;", "abc"),
    ("S <- (!('ab' 'c') [a-z] / 'ab')+;", "abc"),
    # A nullable first member, read as its zero-length match where nothing
    # is stored, and as its match where one is.
    ("S <- (' '? [a-z] / [0-9])+;", " a1"),
    ("S <- (W [a-z])+; W <- [ ]*;", " ab"),
    # A choice decided by an earlier alternative, and undecided where it
    # reaches its later one, which reads past the column.
    ("S <- ('x' / [a-z] [a-z] / [0-9])+;", "xy1"),
    # A Str sharing its first character with a CharSet, either way round.
    ("S <- ('ab' / [a-c])+;", "abc"),
    ("S <- ([a-c] / 'ab')+;", "abc"),
    # Two lookaheads closing a cycle: A reads B at its own position, though
    # B sorts above it, so B is never decided.
    ("B <- 'x' / !A 'q'; A <- !B 'x' 'x' / 'y';", "xyq"),
    # Left recursion: a recognized level and one that grows its seed.
    ("E <- E '+' T / T; T <- [a-z] / '(' E ')';", "a+()"),
    ("E <- E '+' T / E '-' T / T; T <- [0-9]+;", "1+-"),
]


def test_hand_written_grammars_fill_as_before():
    for grammar, alphabet in HAND_WRITTEN:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = compile_grammar(grammar)
        texts = ["".join(t) for n in range(6) for t in itertools.product(alphabet, repeat=n)]
        fills_agree(g, texts)


def test_json_entry_at_a_letter_stores_the_string_body():
    g = compile_grammar(JSON_GRAMMAR)
    clauses = g.all_clauses
    body = next(c for c in clauses if type(c) is Seq and type(c.sub_clauses[0]) is NotFollowedBy)
    choice = next(c for c in clauses if type(c) is First and body in c.sub_clauses)
    repeat = next(c for c in clauses if type(c) is OneOrMore and c.sub_clauses[0] is choice)
    assert g.display_clause(body) == r'!["\\] [^]'
    assert choice.sub_clauses.index(body) == 1
    plan = engine._plan(g)

    def entry(ch):
        stores, rest = plan.entry(bisect_right(plan.bounds, ord(ch)))
        return dict(stores), rest

    one = 1 << g.alt_shift
    stored, rest = entry("a")
    # One character long; the choice takes it through its alternative 1.
    assert stored[body.clause_idx] == one
    assert stored[choice.clause_idx] == one | 1
    # The repetition reads its own match right of the column.
    assert repeat.clause_idx not in stored
    assert rest & plan.bits[repeat.clause_idx]
    # The fill stores what the entry decided.
    table = parse(g, '"ab"')
    for c, v in ((body, one), (choice, one | 1)):
        assert table._tables[c.clause_idx][1] == v
    # The lookahead fails at '"', and at '\' the choice's alternative 0
    # reads past the column.
    for ch in '"\\':
        stored, rest = entry(ch)
        assert choice.clause_idx not in stored
        assert not rest & plan.bits[body.clause_idx]


def test_threads_sharing_a_fresh_grammar_fill_the_tables_one_thread_fills():
    g = compile_grammar(JSON_GRAMMAR)
    lows = [cp for cp in [0] + engine._plan(g).bounds if cp <= 0x10FFFF]
    chars = "".join(map(chr, lows))
    # Every thread meets every interval, each in its own order.
    texts = [
        ['["%s", 1, {"k": true}]' % (chars[i:] + chars[:i]), chars[::-1][i:], '{"a": [%d]}' % i]
        for i in range(0, len(chars), 7)
    ]
    expected = [[tables(parse(g, text)) for text in mine] for mine in texts]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            shared = compile_grammar(JSON_GRAMMAR)
            start = threading.Barrier(len(texts))
            got = [None] * len(texts)

            def work(t):
                start.wait(timeout=60)
                got[t] = [tables(parse(shared, text)) for text in texts[t]]

            threads = [threading.Thread(target=work, args=(t,)) for t in range(len(texts))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert got == expected
            assert all(e is not None for e in shared.fill_plan.entries[: len(lows)])
    finally:
        sys.setswitchinterval(switch)
