"""Left-associative precedence levels filled in one evaluation per column.

FillPlan recognizes each level of the shape H <- H op Y / Y whose growing
seed nothing else reads while it grows, and the fill computes H and its
sequence once per column from the final entries to its right.  Every
stored (clause, position, length, alternative) must be the one the growing
seed leaves, and so must every tree built from the table, whose growth
steps are walked from the memo instead of replayed.
"""

import random

from pikaparse import compile_grammar, engine, parse
from pikaparse.bench import expression_grammar
from pikaparse.engine import FillPlan

from gram_gen import random_precedence_grammar, sample_expression
from helpers import compile_leftrec
from test_replay import full_form

# T reads E at its own position through a lookahead, so a step of E's
# growth is read by the lookahead's operand, which sorts below E.
LOOKAHEAD_ON_THE_CYCLE = "E <- E '+' T / T; T <- !(E '+' 'x') [a-z];"


def without_levels(monkeypatch, g):
    """g's FillPlan with the recognizer off: every level grows its seed."""
    with monkeypatch.context() as m:
        m.setattr(engine, "_levels", lambda clauses, *args: [None] * len(clauses))
        return FillPlan(g)


def growing(monkeypatch, text):
    """text's grammar, filled with the recognizer off."""
    g = compile_grammar(text)
    g.fill_plan = without_levels(monkeypatch, g)
    return g


def levels(plan):
    """{h: s} for each recognized level of plan, from its walks."""
    return {level[0].clause_idx: level[1].clause_idx for level in plan.walks if level}


def stored(table):
    return sorted((m.clause.clause_idx, m.pos, m.len, m.alt_idx) for m in table.all_stored())


def test_levels_fill_the_tables_the_growing_seed_fills(monkeypatch):
    rng = random.Random(20261019)
    pairs = recognized = rejected = 0
    for _ in range(400):
        text, operands, operators = random_precedence_grammar(rng)
        g = compile_grammar(text)
        slow = growing(monkeypatch, text)
        assert [slow.display_clause(c) for c in slow.all_clauses] == [
            g.display_clause(c) for c in g.all_clauses
        ]
        plan = FillPlan(g)
        recognized += bool(levels(plan))
        rejected += not levels(plan) and any(plan.replays)
        for k in range(6):
            expression = sample_expression(rng, operands, operators)
            table, reference = parse(g, expression), parse(slow, expression)
            pairs += 1
            assert stored(table) == stored(reference), (text, expression)
            assert table.watermark_violations == 0
            if k == 0:  # every stored match's whole tree, built on read
                assert full_form(table) == full_form(reference), (text, expression)
    print("%d pairs; %d grammars with a recognized level, %d left-recursive without"
          % (pairs, recognized, rejected))
    assert pairs >= 2000
    assert recognized >= 150 and rejected >= 50


def test_only_the_plain_level_shape_is_recognized(monkeypatch):
    g = expression_grammar()
    names = {g.clause_name(g.all_clauses[h]) for h in levels(FillPlan(g))}
    assert names == {"E0", "E1"}
    rejected = [
        (LOOKAHEAD_ON_THE_CYCLE, ("a+b+x+c", "a+x", "a+b+c")),
        # Y reads P, which reads H, so Y can change after H first pops.
        ("Y <- P 'a' / 'a'; P <- P H / H '+' / 'b'; H <- H '+' Y / Y;", ("ba+aa+a", "a+ba+aa")),
        # The growing sequence has another reader at its own position.
        ("X <- (E '+' T) '!' / E; E <- E '+' T / T; T <- [a-z];", ("a+b!", "a+b+c!", "a+b")),
        ("E <- E '+' 'n' / &(E '-') 'm' / 'n';", ("n+n-", "m+n")),  # a lookahead alternative
        ("L <- M 'x' / 'y'; M <- L 'z' / 'w';", ("yzxzx",)),  # an indirect cycle
        ("L <- L 'x' / L 'z' / 'y';", ("yxzx",)),  # two growing alternatives
        ("L <- L 'x'? 'y' / 'y';", ("yxyy",)),  # an operator that can match nothing
        ("L <- L 'x' Y / Y; Y <- 'y'?;", ("yxxy",)),  # an operand that can match nothing
    ]
    for text, inputs in rejected:
        g, slow = compile_grammar(text), growing(monkeypatch, text)
        assert levels(FillPlan(g)) == {}, text
        for expression in inputs:
            assert stored(parse(g, expression)) == stored(parse(slow, expression)), expression


def test_walked_steps_are_the_replayed_steps(monkeypatch):
    # At every column where a level's rule is stored, a replay of the
    # column, as the fill plan would make it without the level, records
    # every growth step of the rule and its sequence; walking to each of
    # those steps must give the replay's children, step for step.
    rng = random.Random(20261020)
    cases = [
        (compile_leftrec(), ["1+2*3-4/5+x*y*z-7", "a*b*c*d+e*f*g-(h-i-j-k)/l/m", "--a-b"]),
        # A terminal operand: its entries, like the operator's, are childless.
        (compile_grammar("L <- L ',' [a-z] / [a-z];"), ["a,b,c,d", "x", "a,b,"]),
    ]
    for _ in range(250):
        text, operands, operators = random_precedence_grammar(rng)
        expressions = [sample_expression(rng, operands, operators) for _ in range(3)]
        cases.append((compile_grammar(text), expressions))
    grammars = steps = 0
    for g, expressions in cases:
        plan = FillPlan(g)
        if not levels(plan):
            continue
        grammars += 1
        clauses, shift = g.all_clauses, g.alt_shift
        replays = without_levels(monkeypatch, g).replays
        for expression in expressions:
            table = parse(g, expression)
            for h, s in levels(plan).items():
                assert replays[h] is not None and plan.replays[h] is None
                for pos in table.match_positions(clauses[h]):
                    with table._lock:
                        record = table._replay(replays[h], pos)
                    assert {i for i, _ in record} <= {h, s}
                    final = table._tables[h][pos]
                    assert (h, final) in record
                    for (i, v), replayed in record.items():
                        walked = table._walk(
                            plan.walks[i], clauses[i], pos, v >> shift, v & ~(-1 << shift)
                        )
                        assert walked == replayed, (expression, pos, i, v)
                        steps += 1
    print("%d grammars with a level, %d steps compared" % (grammars, steps))
    assert grammars >= 100 and steps >= 5000
