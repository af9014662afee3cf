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
from pikaparse.clauses import Nothing, NotFollowedBy
from pikaparse.engine import FillPlan
from pikaparse.grammar import same_position_subs

from gram_gen import (
    random_grammar,
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
    ring_grammar,
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
            # A dispatch entry tries a terminal with no reader and decides
            # a clause with a probe matcher at probe position 0, and a
            # lookahead is read on demand: none of them is an evaluation.
            if (
                read is None
                or isinstance(getattr(read, "__self__", None), engine._Probe)
                or type(clause) is NotFollowedBy
            ):
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


def pushed_reach(clause):
    """The indices of the clauses clause is pushed through, by a plain
    search over seed children that push: the clauses clause reads at its
    own position, unless it is a lookahead, which is no one's seed parent,
    less lookaheads and the empty clause, whose stores the fill never
    makes.  It holds clause's own index only if clause is on a cycle."""
    seen, todo = set(), [clause]
    while todo:
        c = todo.pop()
        if type(c) is NotFollowedBy:
            continue
        for s in same_position_subs(c):
            if type(s) not in (NotFollowedBy, Nothing) and s.clause_idx not in seen:
                seen.add(s.clause_idx)
                todo.append(s)
    return seen


def test_one_reach_pass_gives_each_clause_its_highest_pusher():
    # One pass over the seed parents gives every cycle fact of the plan.
    # Check what it found against a search per clause from the grammar's
    # clauses alone: the highest index a clause is pushed through, and the
    # rescheduled clauses, which are those that reach an index at or above
    # their own, less the recognized levels' rules and sequences: the fill
    # stores a level's sequence itself and schedules nothing for it.
    rng = random.Random(20261027)
    grammars = [
        compile_grammar(ARITH_LABELED),
        compile_grammar(JSON_GRAMMAR),
        compile_grammar(ASSIGN),
        compile_grammar(DIRECT),
        compile_grammar(INDIRECT),
        compile_grammar(ARITH_POSTFIX, start_rule="E0"),
        # Interlocked cycles: a clause's reach grows after the pass first
        # visits it, through a cycle that a later clause closes.
        compile_grammar("R0 <- R0 'd' / R1 'a' / 'x'; R1 <- R1 'b' / R0 'c' / 'x';"),
        compile_grammar("R0 <- R2 'd' / 'x'; R1 <- R2 'b' / R1 'c' / 'x'; R2 <- R1 'a' / 'x';"),
        compile_grammar(ring_grammar(20, "xw")),
    ]
    for _ in range(600):
        grammars.append(random_grammar(rng)[0])
    for side_entry in (False, True):
        for _ in range(400):
            grammars.append(random_leftrec_grammar(rng, side_entry=side_entry)[0])
    for _ in range(600):
        grammars.append(compile_grammar(random_precedence_grammar(rng)[0]))
    cyclic = levels = 0
    for g in grammars:
        plan = FillPlan(g)
        clauses = g.all_clauses
        _, top = engine._pushed_through(clauses, plan.parents)
        again, on_cycle = set(), False
        for i, c in enumerate(clauses):
            reach = pushed_reach(c)
            assert max(i, top[i]) == max(reach | {i}), g.display_clause(c)
            if plan.walks[i] is None and max(reach, default=-1) >= i:
                again.add(i)
            on_cycle |= i in reach
        assert plan.rescheduled == again, g.rules
        cyclic += on_cycle
        levels += any(plan.walks)
    print("%d grammars, %d with a same-position cycle, %d with a recognized level"
          % (len(grammars), cyclic, levels))
    assert len(grammars) >= 2000 and cyclic >= 800 and levels >= 300


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
