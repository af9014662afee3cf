"""Grammar assembly pipeline: lowering (sugar, chained repetitions,
interning, reference resolution), ordering, nullability, validation; and
the seed parents the engine's fill plan derives from it."""

import random
import time
import warnings

import pytest

from pikaparse.clauses import (
    Char,
    CharSet,
    First,
    FollowedBy,
    GrammarError,
    GrammarWarning,
    Nothing,
    NotFollowedBy,
    OneOrMore,
    Optional,
    Rule,
    RuleRef,
    Seq,
    ZeroOrMore,
)
from pikaparse.engine import FillPlan, parse
from pikaparse.tree import extract_parse_tree
from pikaparse.grammar import (
    MAX_CLAUSE_DEPTH,
    assemble_grammar,
    depth_first,
    same_position_cycles,
    same_position_subs,
)
from pikaparse.metagrammar import compile_grammar, render_grammar

import gram_gen
from helpers import ARITH_CLIMB, ARITH_LEFTREC, JSON_GRAMMAR, same_position_reach


# === lowering of surface sugar ===

def lowered(clause):
    g = assemble_grammar([Rule("A", clause)], rewrite_repetitions=False)
    return g.rule_clause("A")


def test_desugar_optional():
    out = lowered(Optional((Char("a"),), labels=("x",)))
    assert isinstance(out, First)
    assert isinstance(out.sub_clauses[0], Char)
    assert isinstance(out.sub_clauses[1], Nothing)
    assert out.sub_clause_labels == ("x", None)


def test_desugar_zero_or_more():
    out = lowered(ZeroOrMore((Char("a"),), labels=("x",)))
    assert isinstance(out, First)
    rep = out.sub_clauses[0]
    assert isinstance(rep, OneOrMore)
    assert rep.sub_clause_labels == ("x",)
    assert isinstance(out.sub_clauses[1], Nothing)


def test_desugar_followed_by():
    out = lowered(FollowedBy((Char("a"),)))
    assert isinstance(out, NotFollowedBy)
    assert isinstance(out.sub_clauses[0], NotFollowedBy)
    assert isinstance(out.sub_clauses[0].sub_clauses[0], Char)


def test_desugar_recurses_into_composites():
    out = lowered(Seq((Optional((Char("a"),)), Char("b"))))
    assert isinstance(out, Seq)
    assert isinstance(out.sub_clauses[0], First)


# === chained repetitions ===

def test_plus_as_rule_body_becomes_self_chain():
    # X+ stays one clause.  Chained, its match is one X and then its own
    # match where that X ends.
    g = compile_grammar("A <- 'a'+;")
    body = g.rule_clause("A")
    assert isinstance(body, OneOrMore) and body.chained
    assert isinstance(body.sub_clauses[0], Char)
    assert [r.name for r in g.rules] == ["A"]
    m = parse(g, "aaa").start_match()
    first, rest = m.sub_matches
    assert isinstance(first.clause, Char) and (first.pos, first.len) == (0, 1)
    assert rest.clause is body and (rest.pos, rest.len) == (1, 2)


def test_star_as_rule_body_becomes_self_chain():
    g = compile_grammar("A <- 'a'*;")
    outer = g.rule_clause("A")
    assert isinstance(outer, First)
    body, empty = outer.sub_clauses
    assert isinstance(body, OneOrMore) and body.chained
    assert isinstance(body.sub_clauses[0], Char)
    assert isinstance(empty, Nothing)
    assert [r.name for r in g.rules] == ["A"]


def test_nested_repetition_stays_in_place():
    g = compile_grammar("C <- 'x' 'y'+;")
    assert [r.name for r in g.rules] == ["C"]
    site = g.rule_clause("C").sub_clauses[1]
    assert isinstance(site, OneOrMore) and site.chained


def test_repetition_operand_label_moves_to_chain_edge():
    g = compile_grammar("A <- item:'a'+;")
    body = g.rule_clause("A")
    assert body.sub_clause_labels[0] == "item"


def test_every_star_spelling_becomes_the_same_chain():
    # X+? and a written (X+ / ()) are X*, that is (X+ / ()), after sugar is
    # lowered.
    for body in ("'a'+?", "('a'+ / ())"):
        for rule in ("A <- %s;", "A <- 'b' %s 'c';"):
            g = compile_grammar(rule % body)
            star = compile_grammar(rule % "'a'*")
            assert render_grammar(g) == render_grammar(star)
            assert len(g.all_clauses) == len(star.all_clauses)


def test_rewrite_off_keeps_greedy_repetition():
    g = compile_grammar("A <- 'a'+;", rewrite_repetitions=False)
    rep = g.rule_clause("A")
    assert isinstance(rep, OneOrMore) and not rep.chained
    assert len(g.rules) == 1


def test_helper_names_avoid_collisions():
    # Assembly adds no rules, so a name of the form rule~n is the user's.
    g = compile_grammar("A <- 'x' 'y'+ A~1; A~1 <- 'z';")
    assert [r.name for r in g.rules] == ["A", "A~1"]
    root = extract_parse_tree(parse(g, "xyyz"))
    assert [c.name for c in root.children] == ["'x'", "'y'+", "A~1"]


# === interning ===

def test_identical_subtrees_share_one_object():
    g = compile_grammar("D <- 'a' 'b' / 'a' 'b' 'c';")
    first = g.rule_clause("D")
    alt0, alt1 = first.sub_clauses
    assert alt0.sub_clauses[0] is alt1.sub_clauses[0]  # the shared 'a'
    assert alt0.sub_clauses[1] is alt1.sub_clauses[1]  # the shared 'b'


def test_identical_alternatives_collapse():
    g = compile_grammar("D <- 'a' 'b' / 'a' 'b';")
    first = g.rule_clause("D")
    assert first.sub_clauses[0] is first.sub_clauses[1]


def test_labels_keep_clauses_distinct():
    g = compile_grammar("D <- (x:'a' 'b') / ('a' 'b');")
    first = g.rule_clause("D")
    assert first.sub_clauses[0] is not first.sub_clauses[1]


def test_nothing_is_interned_to_one_object():
    g = compile_grammar("A <- 'a'? 'b'?;")
    nothings = [c for c in g.all_clauses if isinstance(c, Nothing)]
    assert len(nothings) == 1


# === reference resolution ===

def test_refs_resolve_to_rule_clause_objects():
    g = compile_grammar("A <- B 'x'; B <- 'b';")
    assert g.rule_clause("A").sub_clauses[0] is g.rule_clause("B")


def test_alias_chain_resolves_through():
    rules = [
        Rule("A", RuleRef("B")),
        Rule("B", RuleRef("C")),
        Rule("C", Char("c")),
    ]
    g = assemble_grammar(rules)
    assert g.rule_clause("A") is g.rule_clause("C")
    assert g.start_rule == "A"


def test_alias_cycle_is_an_error():
    rules = [Rule("A", RuleRef("B")), Rule("B", RuleRef("A"))]
    with pytest.raises(GrammarError, match="alias cycle"):
        assemble_grammar(rules)


def test_long_alias_chain_compiles_in_linear_time():
    # Each alias resolves once: walking every chain from scratch took
    # minutes for 5,000 aliases.
    n = 5000
    text = "".join("A%d <- A%d;\n" % (i, i + 1) for i in range(n)) + "A%d <- 'x';" % n
    t0 = time.perf_counter()
    g = compile_grammar(text)
    assert time.perf_counter() - t0 < 5.0
    assert g.start_rule == "A0"
    assert g.rule_clause("A0") is g.rule_clause("A%d" % (n // 2)) is g.rule_clause("A%d" % n)
    assert parse(g, "x").matched_whole()
    with pytest.raises(GrammarError, match="rule alias cycle through "):
        compile_grammar("A <- B; B <- A;")


def test_unknown_reference_is_an_error():
    with pytest.raises(GrammarError, match="unknown rule"):
        assemble_grammar([Rule("A", Seq((RuleRef("Nope"), Char("a"))))])


def test_duplicate_rule_name_is_an_error():
    with pytest.raises(GrammarError, match="duplicate"):
        assemble_grammar([Rule("A", Char("a")), Rule("A", Char("b"))])


def test_undefined_start_rule_is_an_error():
    with pytest.raises(GrammarError, match="start rule"):
        assemble_grammar([Rule("A", Char("a"))], start_rule="Z")


def test_unexpanded_precedence_shorthand_is_an_error():
    with pytest.raises(GrammarError, match="precedence"):
        assemble_grammar([Rule("A", Char("a"), precedence=1)])


def test_empty_rule_list_is_an_error():
    with pytest.raises(GrammarError):
        assemble_grammar([])


# === topological order ===

def test_climb_grammar_clause_inventory():
    # Hand count: terminals '(' ')' '-' '*' '/' '+' [0-9] [a-z] = 8; the
    # repetitions [0-9]+ and [a-z]+ = 2; plus per level: E4 seq, E3 inner
    # and outer choice, E2 seq + choice, E1 operator choice + seq + choice,
    # E0 likewise = 11.  Total 21 in both modes: chaining a repetition adds
    # no clause.
    for rewrite in (True, False):
        g = compile_grammar(ARITH_CLIMB, start_rule="E0", rewrite_repetitions=rewrite)
        assert len(g.all_clauses) == 21
        reps = [c for c in g.all_clauses if isinstance(c, OneOrMore)]
        assert [c.chained for c in reps] == [rewrite, rewrite]


def test_terminals_occupy_lowest_indexes():
    g = compile_grammar(ARITH_CLIMB, start_rule="E0")
    terminals = [c for c in g.all_clauses if c.is_terminal]
    assert all(c.clause_idx == i for i, c in enumerate(terminals))
    assert all(not c.is_terminal for c in g.all_clauses[len(terminals):])


def test_clause_idx_matches_list_position():
    g = compile_grammar(ARITH_LEFTREC, start_rule="E0")
    for i, c in enumerate(g.all_clauses):
        assert c.clause_idx == i


def test_precedence_levels_order_bottom_up():
    g = compile_grammar(ARITH_CLIMB, start_rule="E0")
    idx = {n: g.rule_clause(n).clause_idx for n in ("E0", "E1", "E2", "E3")}
    assert idx["E3"] < idx["E2"] < idx["E1"] < idx["E0"]


def upward_reads(g):
    """(reader, read) for every same-position read that sorts above its
    reader."""
    return [
        (c, s)
        for c in g.all_clauses
        for s in same_position_subs(c)
        if s.clause_idx > c.clause_idx
    ]


def test_subclauses_sort_below_parents_outside_cycles():
    # The fill needs a clause to sort above every clause it reads at its
    # own start position; only a read that closes a same-position cycle
    # may sort above its reader.  Cycles through later positions do not
    # count: the choice (E2 / E3) sorts above E2, and the JSON grammar's
    # sequence item:Value (...)* above Value, although E2 and Value read
    # them further on.
    assert upward_reads(compile_grammar(ARITH_CLIMB, start_rule="E0")) == []
    assert upward_reads(compile_grammar(JSON_GRAMMAR)) == []
    leftrec = compile_grammar(ARITH_LEFTREC, start_rule="E0")
    assert {leftrec.clause_name(s) for _, s in upward_reads(leftrec)} == {"E0", "E1"}
    rng = random.Random(14)
    grammars = [leftrec]
    grammars += [gram_gen.random_grammar(rng)[0] for _ in range(150)]
    grammars += [gram_gen.random_leftrec_grammar(rng)[0] for _ in range(150)]
    grammars += [gram_gen.random_leftrec_grammar(rng, side_entry=True)[0] for _ in range(100)]
    upward = 0
    for g in grammars:
        for c, s in upward_reads(g):
            assert c in same_position_reach(s), (g.display_clause(c), g.display_clause(s))
            upward += 1
    assert upward >= 150


def test_a_left_recursive_rule_sorts_above_its_growing_sequences():
    # The order within a same-position cycle is the one part of the clause
    # order that the filled table depends on.  L sorts above its growing
    # sequences, which keep their alternatives' order, so at column 1 L
    # grows through its first alternative, to 'b' 'bbab', and the whole
    # text matches.  Were L 'b' tried first, L would grow to 'bbb' there,
    # and 'bb' 'ab' could not follow it.
    g = compile_grammar("L <- L ('bb' 'ab') / L 'b' / [b];")
    rule = g.rule_clause("L")
    grow_pair, grow_b, _ = rule.sub_clauses
    assert grow_pair.clause_idx < grow_b.clause_idx < rule.clause_idx
    assert parse(g, "bbbbab").matched_whole()


@pytest.mark.parametrize(
    "entry", ["'z' L / (M ('bb' 'ab')) 'q'", "(M ('bb' 'ab')) 'q' / 'z' L"]
)
def test_a_rule_reading_a_cycle_elsewhere_leaves_the_rule_on_top(entry):
    # L and M form the cycle, and S reads L's first growing sequence (the
    # same clause once interned) at its own start, reaching L itself only
    # after 'z'.  The walk from the rules enters the cycle at L, declared
    # first, so L still sorts above its growing sequences and the whole
    # text matches as above, whichever alternative of S comes first.
    g = compile_grammar("L <- M ('bb' 'ab') / M 'b' / [b]; M <- L / 'c'; S <- %s;" % entry)
    rule = g.rule_clause("L")
    grow_pair, grow_b, _ = rule.sub_clauses
    assert grow_pair.clause_idx < grow_b.clause_idx < rule.clause_idx
    assert parse(g, "bbbbab").matched_whole()


def test_a_rule_declared_after_a_cycle_leaves_the_cycle_order():
    # gram_gen's side entry S reads a member of L's cycle at its own start.
    # Declared after L, or before it, it cannot move another member of the
    # cycle above L: the walk that orders the cycle starts at the start rule.
    rng = random.Random(3)
    checked = {True: 0, False: 0}
    for _ in range(300):
        g, _ = gram_gen.random_leftrec_grammar(rng, side_entry=True)
        names = [r.name for r in g.rules]
        rule = g.rule_clause("L")
        cycle = [c for c in same_position_reach(rule) if rule in same_position_reach(c)]
        assert max(c.clause_idx for c in cycle) == rule.clause_idx, g
        checked[names.index("S") < names.index("L")] += 1
    assert checked[False] >= 150 and checked[True] >= 30


def stored_form(g, text):
    """Every stored (clause text, pos, len, alt) of text's table, with
    subrules named the same whatever order the rules were declared in."""
    names = {}
    for r in sorted(g.rules, key=lambda r: r.name):
        names.setdefault(id(r.clause), r.name)
    return sorted((m.clause.display(names, -1), m.pos, m.len, m.alt_idx)
                  for m in parse(g, text).all_stored())


def test_shuffled_rule_lists_fill_the_same_tables():
    # Only the order within a left-recursive cycle changes a filled table,
    # and that order follows the start rule, not the order of declaration.
    rng = random.Random(3)
    grammars = 0
    while grammars < 1000:
        got = gram_gen.random_leftrec_rules(rng, side_entry=True)
        if got is None:
            continue
        rules, alphabet = got
        rewrite = rng.random() < 0.7
        shuffled = rules[:]
        rng.shuffle(shuffled)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                g = assemble_grammar(rules, "L", rewrite_repetitions=rewrite)
            except GrammarError:
                continue
            twin = assemble_grammar(shuffled, "L", rewrite_repetitions=rewrite)
        grammars += 1
        for _ in range(4):
            text = gram_gen.sample_short_input(rng, g, alphabet)
            assert stored_form(g, text) == stored_form(twin, text), (rules, text)


# === nullability ===

def test_nullability_basics():
    g = compile_grammar("A <- 'a'? 'b'?;")
    assert g.rule_clause("A").can_match_zero_chars
    g2 = compile_grammar("A <- 'a'? 'b';")
    assert not g2.rule_clause("A").can_match_zero_chars


def test_nullability_through_lookahead():
    g = compile_grammar("A <- !'a' 'b';")
    seq = g.rule_clause("A")
    assert seq.sub_clauses[0].can_match_zero_chars
    assert not seq.can_match_zero_chars


def test_zero_idx_points_at_first_nullable_alternative():
    g = compile_grammar("A <- 'a'?;")
    first = g.rule_clause("A")
    assert first.zero_idx == 1  # the empty branch, not the 'a' branch


def test_zero_idx_of_star_chain():
    g = compile_grammar("A <- 'a'*;")
    outer = g.rule_clause("A")
    assert outer.can_match_zero_chars
    assert outer.zero_idx == 1


# === seed parents ===

def seed_parents(g, clause):
    return [g.all_clauses[i] for i in FillPlan(g).parents[clause.clause_idx]]


def test_seq_seeds_prefix_through_first_consumer():
    g = compile_grammar("A <- 'a'? 'b' 'c';")
    seq = g.rule_clause("A")
    opt, b, c = seq.sub_clauses
    assert seq in seed_parents(g, opt)
    assert seq in seed_parents(g, b)
    assert seq not in seed_parents(g, c)


def test_first_seeds_every_alternative():
    g = compile_grammar("A <- 'a' / 'b' / 'c';")
    first = g.rule_clause("A")
    for s in first.sub_clauses:
        assert first in seed_parents(g, s)


def test_lookahead_boundary_blocks_seeding():
    g = compile_grammar("A <- !'a' 'b';")
    seq = g.rule_clause("A")
    nfb = seq.sub_clauses[0]
    probe = nfb.sub_clauses[0]
    # The probe character never triggers anything: lookahead is evaluated on
    # demand, so no seeding interest crosses the lookahead boundary.  The
    # lookahead itself still registers in its sequence's prefix like any
    # other element that can match empty, it just never fires.
    assert seed_parents(g, probe) == []
    assert seed_parents(g, nfb) == [seq]


def test_climb_seed_parent_spot_checks():
    g = compile_grammar(ARITH_CLIMB, start_rule="E0")
    e0 = g.rule_clause("E0")
    e1 = g.rule_clause("E1")
    seq = e0.sub_clauses[0]
    assert set(seed_parents(g, e1)) == {seq, e0}


# === validation ===

def test_nullable_repetition_body_rejected_both_modes():
    for rewrite in (True, False):
        with pytest.raises(GrammarError, match="zero characters"):
            compile_grammar("A <- ('b'?)+;", rewrite_repetitions=rewrite)


def test_empty_match_first_in_sequence_rejected():
    with pytest.raises(GrammarError, match="empty-match"):
        assemble_grammar([Rule("A", Seq((Nothing(), Char("b"))))])


def test_empty_match_first_in_choice_rejected():
    with pytest.raises(GrammarError, match="empty-match"):
        assemble_grammar([Rule("A", First((Nothing(), Char("b"))))])


@pytest.mark.parametrize("text", [
    "S <- A 'x'; A <- !'x' !'y';",
    "S <- A 'x'; A <- &'y' / !'x';",
    "S <- A [a-z]; A <- 'a'? !'b';",
])
def test_empty_match_through_a_lookahead_rejected(text):
    # Each would read A as an empty match where its lookahead fails.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GrammarWarning)
        with pytest.raises(GrammarError, match="only if a lookahead"):
            compile_grammar(text)


def test_dead_alternative_warns():
    with pytest.warns(GrammarWarning, match="unreachable"):
        compile_grammar("A <- 'a'* / 'c';")


def test_repetition_tails_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile_grammar("A <- 'a'* 'b';")


def test_same_position_cycles_are_whole_components():
    g = compile_grammar("S <- A / 'c'; A <- B 'x' / 'a'; B <- A 'y' / B 'z' / 'b';")
    (cycle,) = same_position_cycles(g.all_clauses)
    # A and B and their three growing sequences, each once: the two cycles
    # share A and B, so they are one component.
    on_cycles = {c for c in g.all_clauses if c in same_position_reach(c)}
    assert len(cycle) == len(on_cycles) == 5 and set(cycle) == on_cycles
    assert same_position_cycles(compile_grammar(JSON_GRAMMAR).all_clauses) == []


def test_a_cycle_through_a_lookahead_warns_with_its_rules():
    # The lookahead's operand reads the rule that holds it at its own
    # position; S reads into the cycle, but is not on it.
    with pytest.warns(GrammarWarning, match="joins rules 'A', 'B',") as caught:
        compile_grammar("S <- A 'q'; A <- B 'x' / 'y'; B <- !A 'z' / 'w';")
    assert len(caught) == 1
    with pytest.warns(GrammarWarning, match="joins rule 'A',"):
        compile_grammar("A <- !A 'x' / 'y';")
    # A lookahead beside a cycle, or over one, closes none.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile_grammar("E <- E '+' T / T; T <- !'-' [a-z];")
        compile_grammar("S <- !E [a-z]; E <- E '+' 'a' / 'a';")


# === depth-first walk ===

def test_depth_first_postorder_and_back_edges():
    leaf = Char("x")
    inner = Seq((leaf, Char("y")))
    outer = First((inner, leaf))
    # Close a cycle outer -> inner -> outer by hand.
    inner.sub_clauses = (leaf, outer)
    back = []
    order = depth_first(
        [outer, inner], on_back_edge=lambda path, sub: back.append((list(path), sub))
    )
    assert order == [leaf, inner, outer]
    assert back == [([outer, inner], outer)]


# === assembly leaves its input unchanged ===

def assert_untouched(rules, reprs):
    assert [repr(r) for r in rules] == reprs
    assert all(c.clause_idx == -1 for c in depth_first(r.clause for r in rules))


def test_shared_clause_object_serves_two_grammars():
    a = CharSet.of("a")
    first = [Rule("A", Seq((OneOrMore((a,)), Char("b"))))]
    second = [Rule("B", Seq((Char("x"), Char("w"), a)))]
    before = [repr(r) for r in first + second]
    g1 = assemble_grammar(first)
    g2 = assemble_grammar(second)
    assert parse(g1, "aab").matched_whole()
    assert parse(g2, "xwa").matched_whole()
    assert_untouched(first + second, before)


def test_reassembling_a_rule_list_gives_an_equal_grammar():
    rules = [Rule("Word", OneOrMore((CharSet.of("abcdefghijklmnopqrstuvwxyz"),)))]
    before = [repr(r) for r in rules]
    g1 = assemble_grammar(rules)
    g2 = assemble_grammar(rules)
    assert render_grammar(g1) == render_grammar(g2)
    assert len(g1.all_clauses) == len(g2.all_clauses)
    assert parse(g1, "hello").matched_whole()
    assert parse(g2, "hello").matched_whole()
    assert_untouched(rules, before)


def test_failed_assembly_reports_the_same_error_again():
    # A <- 'a' ('b'?)+;  the repetition body can match zero characters.
    rules = [Rule("A", Seq((Char("a"), OneOrMore((Optional((Char("b"),)),)))))]
    for _ in range(2):
        with pytest.raises(GrammarError, match="zero characters"):
            assemble_grammar(rules)


def test_random_rule_lists_assemble_twice_into_equal_grammars():
    rng = random.Random(7)
    for i in range(300):
        rules, _ = gram_gen.random_rules(rng)
        before = [repr(r) for r in rules]
        rewrite = i % 2 == 0
        g1 = assemble_grammar(rules, rewrite_repetitions=rewrite)
        g2 = assemble_grammar(rules, rewrite_repetitions=rewrite)
        assert render_grammar(g1) == render_grammar(g2)
        assert len(g1.all_clauses) == len(g2.all_clauses)
        assert_untouched(rules, before)


# === clause depth ===

def not_chain(levels, leaf):
    c = leaf
    for _ in range(levels):
        c = NotFollowedBy((c,))
    return c


def test_clause_tree_too_deep_is_a_grammar_error():
    deep = not_chain(1500, Char("x"))
    with pytest.raises(
        GrammarError, match="rule 'Deep' nests clauses more than %d" % MAX_CLAUSE_DEPTH
    ):
        assemble_grammar([Rule("Deep", Seq((deep, Char("y"))))])


def test_clause_tree_at_the_depth_limit_compiles():
    # The sequence, its lookaheads and the character they test fill the
    # limit exactly.  An odd count of lookaheads negates, an even one tests.
    levels = MAX_CLAUSE_DEPTH - 2
    g = assemble_grammar([Rule("Deep", Seq((not_chain(levels, Char("x")), CharSet.of("xy"))))])
    assert parse(g, "x").matched_whole() == (levels % 2 == 0)
    assert parse(g, "y").matched_whole() == (levels % 2 == 1)


def test_shared_clause_counts_its_depth_at_every_occurrence():
    # Chain is lowered once, where it is a rule body; nested under 55 more
    # sequences it fills the limit, under 56 it is too deep.
    chain = not_chain(MAX_CLAUSE_DEPTH - 56, Char("x"))

    def nested(levels):
        c = chain
        for _ in range(levels):
            c = Seq((c, Char("y")))
        return c

    assemble_grammar([Rule("Chain", chain), Rule("Deeper", nested(55))])
    with pytest.raises(
        GrammarError, match="rule 'Deeper' nests clauses more than %d" % MAX_CLAUSE_DEPTH
    ):
        assemble_grammar([Rule("Chain", chain), Rule("Deeper", nested(56))])


# === shared clause DAGs ===

def shared_dag(levels):
    # Each level is one Seq holding the level below twice, so the clause
    # unfolds into 2 ** levels characters.  Never display a deep one.
    c = Char("a")
    for _ in range(levels):
        c = Seq((c, c))
    return c


def test_shared_clause_dag_assembles_in_its_size():
    t0 = time.perf_counter()
    g = assemble_grammar([Rule("A", shared_dag(40))])
    assert time.perf_counter() - t0 < 1.0
    assert len(g.all_clauses) == 41


def test_shared_clause_dag_renders_unfolded():
    g = assemble_grammar([Rule("A", shared_dag(12))])
    text = "'a'"
    for _ in range(12):
        text = "(%s %s)" % (text, text)
    assert len(g.all_clauses) == 13
    assert render_grammar(g) == "A <- %s;\n" % text[1:-1]
    assert parse(g, "a" * 4096).matched_whole()


# === naming ===

def test_rule_clauses_get_their_rule_names():
    g = compile_grammar(ARITH_CLIMB, start_rule="E0")
    for name in ("E0", "E1", "E2", "E3", "E4"):
        assert g.clause_name(g.rule_clause(name)) == name


def test_nested_repetition_is_named_by_its_text():
    g = compile_grammar("C <- 'x' 'y'+;")
    site = g.rule_clause("C").sub_clauses[1]
    assert g.clause_name(site) is None
    assert g.node_name(site) == "'y'+"


def test_anonymous_clauses_have_no_name():
    g = compile_grammar(ARITH_CLIMB, start_rule="E0")
    seq = g.rule_clause("E0").sub_clauses[0]
    assert g.clause_name(seq) is None


def test_first_declared_rule_claims_shared_clause():
    g = compile_grammar("A <- 'a'; B <- 'a';")
    assert g.rule_clause("A") is g.rule_clause("B")
    assert g.clause_name(g.rule_clause("B")) == "A"


def test_display_clause_uses_names():
    g = compile_grammar(ARITH_CLIMB, start_rule="E0")
    assert g.display_clause(g.rule_clause("E4")) == "'(' E0 ')'"
    assert g.display_clause(g.rule_clause("E3")) == "([0-9]+ / [a-z]+) / E4"


def test_node_name_falls_back_to_display():
    g = compile_grammar(ARITH_CLIMB, start_rule="E0")
    seq = g.rule_clause("E4")
    assert g.node_name(seq) == "E4"
    anon = g.rule_clause("E0").sub_clauses[0]
    assert "E1" in g.node_name(anon)


def test_start_rule_defaults_to_first_declared():
    g = compile_grammar("B <- 'b'; A <- 'a';")
    assert g.start_rule == "B"
    assert g.start_clause is g.rule_clause("B")
