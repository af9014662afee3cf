"""Dispatch entries that store every clause the column's character decides,
and the chains that store a column's decided parents when their child
stores.

A column's entry runs its queue over the character with probe matchers and
stores each clause whose value that alone fixes, so the fill never pops
it.  It also gives each clause left to the fill whose value alone decides
some of its seed ancestors a chain: when it stores, the fill stores them
too, and they never pop.  These tests compare the tables with those of a
fill whose entries store only the single-character terminals and have no
chains (helpers.reference_entry), key order included, pin what the JSON
and expression grammars' entries decide, and build one grammar's entries
from several threads at once.
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
from helpers import ARITH_LABELED, JSON_GRAMMAR, reference_plan


def load_workloads():
    """The benchmark's workloads module, perfbench/workloads.py."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tables(table):
    return [list(t.items()) for t in table._tables]


def chains(entry):
    """An entry's chains: {chain start: (mask, links)}."""
    return {
        c: (int(m), m.links) for c, m in enumerate(entry[2]) if type(m) is engine._Chain
    }


def chained_pops(monkeypatch, g, text):
    """The (clause, pos) pairs that one parse of text both stored through a
    chain and evaluated: a chain's clauses must never pop where its start
    stores."""
    plan = engine._plan(g)
    evaluated = set()

    def counted(factory):
        def build(clause, text, read, shift, late=engine._unchecked):
            matcher = factory(clause, text, read, shift, late)
            if read is None or isinstance(getattr(read, "__self__", None), engine._Probe):
                return matcher  # a dispatch or probe matcher
            i = clause.clause_idx

            def call(pos):
                evaluated.add((i, pos))
                return matcher(pos)

            return call

        return build

    with monkeypatch.context() as m:
        for kind, factory in list(engine._FACTORIES.items()):
            m.setitem(engine._FACTORIES, kind, counted(factory))
        m.setattr(engine, "_first_matcher", counted(engine._first_matcher))
        table = parse(g, text)
    both = []
    for pos, ch in enumerate(text):
        entry = plan.entries[bisect_right(plan.bounds, ord(ch))]
        for c, (_, links) in chains(entry).items():
            if pos in table._tables[c]:
                both += [(q, pos) for q, _ in links if (q, pos) in evaluated]
    return both


def fills_agree(g, texts):
    """Assert that each text fills the same tables, in the same order, with
    g's own entries and with the reference entries, and that no chain holds
    a held clause; whether some entry g's fills built decided a clause
    above a terminal, and whether one built a chain."""
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
    built = [e for e in plan.entries if e is not None]
    held = plan._probe.held
    for e in built:
        for c, (_, links) in chains(e).items():
            assert c not in held and not held & {q for q, _ in links}, g.rules
    decided = any(not g.all_clauses[i].is_terminal for e in built for i, _ in e[0])
    return decided, any(map(chains, built))


def test_decided_entries_fill_the_tables_the_terminal_entries_fill(monkeypatch):
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
    pairs = decided = chained = 0
    for g, texts in cases:
        above, chain = fills_agree(g, texts)
        decided += above
        chained += chain
        pairs += len(texts)
        if chain:
            for text in texts:
                assert chained_pops(monkeypatch, g, text) == [], (g.rules, text)
    print("%d pairs; of %d grammars, %d decided a clause above a terminal and %d built a chain"
          % (pairs, len(cases), decided, chained))
    assert pairs >= 2000
    assert decided >= 300
    assert chained >= 300


def test_decided_entries_fill_the_benchmark_documents_as_before():
    decided = {}
    for name, wl in load_workloads().WORKLOADS.items():
        g = compile_grammar(wl.grammar_text)
        decided[name] = fills_agree(g, [d.text for b in (0, 1) for d in wl.block(1, b)])
    # Every clause of the assignment grammar above a letter or a digit is a
    # repetition, or reads one: each reads past the column, and none takes
    # its child's value.
    assert decided == {
        "expr-leftrec": (True, True),
        "json-docs": (True, True),
        "assign-recover": (False, False),
    }


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
    # Chains: labelled alternatives over repetitions; a choice whose
    # earlier alternative is a Str that may match, so that it takes no
    # chain there; choices whose other alternative the entry stores, or
    # leaves to the fill; a nullable first member; a lookahead before a
    # repetition.
    ("S <- (x:[a-z]+ / y:[0-9]+ / z:'(' S ')')+;", "a1()"),
    ("S <- ('ab' / [a-c]+ / [0-9])+;", "abc1"),
    ("S <- (A / B)+; A <- [a-c] '!'; B <- [a-c]+ / 'b';", "ab!"),
    ("S <- (A / B)+; A <- [a-c]+; B <- [b-d] '!' / [a-c];", "ab!"),
    ("S <- ('x'? [a-c]+ / !'b' [a-c] / [0-9])+;", "xb1"),
    ("S <- (T / [0-9])+; T <- &[a-c] [a-c]+ / [0-9]+;", "ac1"),
    # A choice whose earlier alternative reads as its zero-length match
    # where nothing is stored: it never takes the repetition's value, so it
    # is on no chain.
    ("S <- (' '? / [a-z]+) [a-z];", " ab"),
]


def test_hand_written_grammars_fill_as_before(monkeypatch):
    for grammar, alphabet in HAND_WRITTEN:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = compile_grammar(grammar)
        texts = ["".join(t) for n in range(6) for t in itertools.product(alphabet, repeat=n)]
        fills_agree(g, texts)
        for text in texts:
            assert chained_pops(monkeypatch, g, text) == [], (grammar, text)


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
        stores, rest, _ = plan.entry(bisect_right(plan.bounds, ord(ch)))
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


def test_expression_entry_at_a_digit_chains_the_choices_above_the_number():
    g = compile_grammar(ARITH_LABELED)
    plan = engine._plan(g)
    stores, rest, masks = plan.entry(bisect_right(plan.bounds, ord("7")))
    number = next(c for c in g.all_clauses if g.display_clause(c) == "[0-9]+")
    assert rest == plan.bits[number.clause_idx]
    # The repetition reads its own match right of the column, so the fill
    # pops it; its store decides every plain choice above it.
    chain = masks[number.clause_idx]
    assert type(chain) is engine._Chain
    assert [(g.display_clause(g.all_clauses[q]), a) for q, a in chain.links] == [
        ("num:[0-9]+ ()", 0),
        ("num:[0-9]+ () / var:[a-z]+ ()", 0),
        ("(num:[0-9]+ () / var:[a-z]+ ()) / E4", 0),
        ("'-' neg:(E2 / E3) / E3", 1),
        ("E2 / E3", 0),
    ]
    # The level above E2 reads its growing sequence first: it is held, and
    # the chain schedules it alone, in place of the chain's clauses.
    level = next(c for c in g.all_clauses if g.display_clause(c) == "l:E1 op:('*' / '/') r:E2 / E2")
    assert level.clause_idx in plan._probe.held
    assert chain == plan.bits[level.clause_idx]
    # The fill stores what the chain decided.
    table = parse(g, "7")
    one = 1 << g.alt_shift
    for q, a in chain.links:
        assert table._tables[q][0] == one | a


def test_a_sequence_after_a_decided_lookahead_joins_its_members_chain(monkeypatch):
    g = compile_grammar("S <- !'c' N / 'x'; N <- [0-9]+;")
    plan = engine._plan(g)
    number = next(c for c in g.all_clauses if g.display_clause(c) == "[0-9]+")
    _, rest, masks = plan.entry(bisect_right(plan.bounds, ord("5")))
    assert rest == plan.bits[number.clause_idx]
    # The lookahead reads as its zero-length match at a digit, so the
    # sequence's value is the repetition's, and so is the choice's.
    chain = masks[number.clause_idx]
    assert type(chain) is engine._Chain
    assert [(g.display_clause(g.all_clauses[q]), a) for q, a in chain.links] == [
        ("!'c' N", 0),
        ("!'c' N / 'x'", 0),
    ]
    assert chain == 0  # nothing reads the choice
    texts = ["5", "123", "x", "c1", "12x"]
    fills_agree(g, texts)
    for text in texts:
        assert chained_pops(monkeypatch, g, text) == [], text


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

    def decided(plan):
        """Each interval's stores, rest and chains."""
        return [(e[0], e[1], chains(e)) for e in plan.entries[: len(lows)]]

    # The chains too: the string body's repetition takes its optional
    # wrapper's value at a letter, for one.
    expected_entries = decided(g.fill_plan)
    assert sum(len(e[2]) for e in expected_entries) >= len(lows)
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
            assert decided(shared.fill_plan) == expected_entries
    finally:
        sys.setswitchinterval(switch)
