"""The fill checks a value against the stored one only where a clause can
pop twice in a column.

FillPlan.rescheduled holds the clauses that the fill can schedule again in
a column after they pop there: those with a pusher, transitively over the
fill's seed parents, that sorts at or above them.  Every other clause pops
at most once per column, so the fill stores what its matcher returns
without reading the table first.  These tests count the evaluations of
each (clause, column), and compare the tables with those of a fill that
checks every clause for improvement.
"""

import random
from collections import Counter

from pikaparse import compile_grammar, engine, parse
from pikaparse.clauses import NotFollowedBy
from pikaparse.engine import FillPlan

from gram_gen import (
    random_leftrec_grammar,
    random_precedence_grammar,
    sample_expression,
    sample_short_input,
)
from helpers import (
    ARITH_LABELED,
    ARITH_POSTFIX,
    ASSIGN,
    JSON_GRAMMAR,
    compile_leftrec,
    expression_doc,
    json_doc,
)

# Two growing alternatives, and the same sums grown through a second rule.
DIRECT = "E <- E '+' T / E '-' T / T; T <- [0-9]+;"
INDIRECT = "E <- M T / T; M <- E ('+' / '-'); T <- [0-9]+;"


def assign_doc(rng):
    """A document for ASSIGN: assignments with junk inserted, as the
    recovery workload's are."""
    parts = []
    for _ in range(rng.randint(1, 12)):
        name = "".join(rng.choice("abc") for _ in range(rng.randint(1, 3)))
        parts.append("%s=%d;" % (name, rng.randint(0, 99)))
        if rng.random() < 0.2:
            parts.append(rng.choice(["#", "=;", "a=", "1", "@@"]))
    return "".join(parts)


def rescheduled(g):
    return {g.display_clause(g.all_clauses[i]) for i in FillPlan(g).rescheduled}


def evaluations(monkeypatch, grammar, text):
    """One parse of text, and a Counter of (clause index, pos) over the
    evaluations it makes.  An evaluation counted far more often than any
    terminating fill could make it raises, so a fill that never stops
    fails instead of hanging."""
    counts = Counter()
    limit = 4 * (len(text) + 2) * len(grammar.all_clauses)

    def counted(factory):
        def build(clause, text, read, shift, late):
            matcher = factory(clause, text, read, shift, late)
            # A dispatch entry tries a terminal with no reader, and a
            # lookahead is read on demand: neither is an evaluation.
            if read is None or type(clause) is NotFollowedBy:
                return matcher
            i = clause.clause_idx

            def call(pos):
                counts[i, pos] += 1
                assert counts[i, pos] <= limit, "clause %d does not settle at %d" % (i, pos)
                return matcher(pos)

            return call

        return build

    with monkeypatch.context() as m:
        for kind, factory in list(engine._FACTORIES.items()):
            m.setitem(engine._FACTORIES, kind, counted(factory))
        # A recognized level's rule is built by _first_matcher itself.
        m.setattr(engine, "_first_matcher", counted(engine._first_matcher))
        table = parse(grammar, text)
    return table, counts


def test_rescheduled_clauses_close_a_cycle_through_a_clause_at_or_above_them():
    assert rescheduled(compile_grammar(DIRECT)) == {
        "E '+' T", "E '-' T", "E '+' T / E '-' T / T"
    }
    assert rescheduled(compile_grammar(INDIRECT)) == {"E ('+' / '-')", "M T", "M T / T"}
    # A grammar without a cycle, and the recognized levels, whose growing
    # sequence the level's rule stores without scheduling anything.
    for g in (
        compile_grammar(ARITH_LABELED),
        compile_grammar(JSON_GRAMMAR),
        compile_grammar(ASSIGN),
        compile_leftrec(),
    ):
        assert FillPlan(g).rescheduled == frozenset()
    assert len(rescheduled(compile_grammar(ARITH_POSTFIX, start_rule="E0"))) > 0


def test_only_rescheduled_clauses_pop_twice_in_a_column(monkeypatch):
    rng = random.Random(20261021)
    cases = [
        (compile_grammar(ARITH_LABELED), [expression_doc(rng) for _ in range(25)]),
        (compile_grammar(JSON_GRAMMAR), [json_doc(rng) for _ in range(25)]),
        (compile_grammar(ASSIGN), [assign_doc(rng) for _ in range(25)]),
        (compile_grammar(DIRECT), ["1+2-3+45", "7", "1-2-3-4-5-6", "1+"]),
        (compile_grammar(INDIRECT), ["1+2-3+45", "7", "1-2-3-4-5-6", "1+"]),
        (compile_grammar(ARITH_POSTFIX, start_rule="E0"), ["1+2!*3?-4", "a*b!!+c??"]),
    ]
    for _ in range(150):
        g, alphabet = random_leftrec_grammar(rng, side_entry=rng.random() < 0.3)
        cases.append((g, [sample_short_input(rng, g, alphabet) for _ in range(2)]))
    for _ in range(150):
        text, operands, operators = random_precedence_grammar(rng)
        cases.append(
            (compile_grammar(text), [sample_expression(rng, operands, operators) for _ in range(2)])
        )
    evaluated = twice = 0
    for g, texts in cases:
        again = FillPlan(g).rescheduled
        for text in texts:
            table, counts = evaluations(monkeypatch, g, text)
            assert table.watermark_violations == 0
            popped_twice = {i for (i, _), k in counts.items() if k > 1}
            assert popped_twice <= again, (g.rules, text, popped_twice - again)
            evaluated += sum(counts.values())
            twice += sum(k - 1 for k in counts.values())
    print("%d evaluations, %d of them a clause's second or later in its column"
          % (evaluated, twice))
    assert twice > 0


def test_unchecked_stores_fill_the_tables_a_fill_checking_every_clause_fills():
    rng = random.Random(20261022)
    grammars = []
    for _ in range(200):
        g, alphabet = random_leftrec_grammar(rng, side_entry=rng.random() < 0.3)
        grammars.append((g, [sample_short_input(rng, g, alphabet) for _ in range(6)]))
    for _ in range(150):
        text, operands, operators = random_precedence_grammar(rng)
        grammars.append(
            (compile_grammar(text), [sample_expression(rng, operands, operators) for _ in range(6)])
        )
    pairs = with_checks = 0
    for g, texts in grammars:
        plan = engine._plan(g)
        checked = FillPlan(g)
        checked.rescheduled = frozenset(range(len(g.all_clauses)))
        with_checks += bool(plan.rescheduled)
        for text in texts:
            table = parse(g, text)
            g.fill_plan = checked
            try:
                reference = parse(g, text)
            finally:
                g.fill_plan = plan
            pairs += 1
            # The same values, stored in the same order.
            assert [list(t.items()) for t in table._tables] == [
                list(t.items()) for t in reference._tables
            ], text
            assert table.watermark_violations == 0
    print("%d pairs; %d of %d grammars check some clause" % (pairs, with_checks, len(grammars)))
    assert pairs >= 2000
    assert with_checks >= 100
