"""Randomized agreement between the bottom-up engine and the top-down
reference parser, over generated grammars and inputs.

A small standing version of the large acceptance run: enough pairs to
catch regressions quickly while staying fast in the regular suite.
"""

import random

from pikaparse import parse
from pikaparse.oracle import (
    describe_match,
    ensure_no_left_recursion,
    packrat_parse,
    same_shape,
)

from gram_gen import MAX_CLAUSES, random_grammar, sample_input


# === generator sanity ===

def test_generated_grammars_fit_constraints():
    rng = random.Random(101)
    for _ in range(30):
        g, alphabet = random_grammar(rng)
        assert 1 <= len(g.all_clauses) <= MAX_CLAUSES
        assert alphabet in ("ab", "abc")
        ensure_no_left_recursion(g)


def test_sampled_inputs_fit_bounds():
    rng = random.Random(102)
    g, alphabet = random_grammar(rng)
    seen_nonempty = False
    for _ in range(200):
        s = sample_input(rng, g, alphabet)
        assert len(s) <= 64
        seen_nonempty = seen_nonempty or bool(s)
    assert seen_nonempty


def test_generation_is_deterministic():
    a = random_grammar(random.Random(7))[0]
    b = random_grammar(random.Random(7))[0]
    assert [repr(c) for c in a.all_clauses] == [repr(c) for c in b.all_clauses]


# === the differential itself ===

def test_engines_agree_on_generated_pairs():
    rng = random.Random(20260822)
    derived_hits = 0
    for i in range(60):
        g, alphabet = random_grammar(rng)
        for j in range(10):
            text = sample_input(rng, g, alphabet)
            table = parse(g, text)
            assert table.watermark_violations == 0
            bottom = table.start_match()
            top = packrat_parse(g, text, check_left_recursion=False).match
            ctx = (i, j, text, describe_match(bottom), describe_match(top))
            if (bottom is None) != (top is None):
                raise AssertionError("presence disagrees: %r" % (ctx,))
            if bottom is not None:
                assert bottom.len == top.len, ctx
                if bottom.len == len(text):
                    derived_hits += 1
            assert same_shape(bottom, top), ctx
    # The input sampler is biased toward matches; make sure the bias works
    # and the agreement above is not vacuous.
    assert derived_hits > 100


def test_every_oracle_memo_entry_agrees_with_the_table():
    # Every (clause, position) the top-down parser evaluated on the pairs
    # above, not only the start match: this reaches each clause's matcher
    # at every position the oracle visits.
    rng = random.Random(20260822)
    entries = 0
    for i in range(60):
        g, alphabet = random_grammar(rng)
        for j in range(10):
            text = sample_input(rng, g, alphabet)
            table = parse(g, text)
            res = packrat_parse(g, text, check_left_recursion=False)
            memo = res.memo
            for idx, pos in memo:
                clause = g.all_clauses[idx]
                top = res.match_at(clause, pos)
                bottom = table.lookup(clause, pos)
                ctx = (i, j, text, clause, pos, describe_match(bottom), describe_match(top))
                assert (bottom is None) == (top is None), ctx
                if bottom is not None:
                    assert bottom.len == top.len, ctx
                assert same_shape(bottom, top), ctx
            entries += len(memo)
    assert entries > 2000
