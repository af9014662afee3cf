"""Matches built on read: the memo table holds packed (length, alternative)
ints, and a match's children are rebuilt when read: selected from the memo,
walked through a recognized level's growth steps or, for another clause on
a same-position cycle, rebuilt by replaying that one column.  Every tree
read this way must be the one a fill that builds a Match for every
evaluation keeps.
"""

import copy
import gc
import heapq
import random
import sys
import warnings
import weakref

import pytest

from pikaparse import compile_grammar, extract_parse_tree, find_error_spans, parse, tree
from pikaparse import covering_matches, next_match_after
from pikaparse.bench import expression_grammar
from pikaparse.clauses import First, GrammarWarning, Nothing, NotFollowedBy, OneOrMore, Seq
from pikaparse.grammar import GrammarError, assemble_grammar
from pikaparse.engine import FillPlan, Match, MemoTable, match_clause
from pikaparse.oracle import OracleResult, packrat_parse

from enum_oracle import all_trees, norm_match
from gram_gen import (
    random_grammar,
    random_leftrec_grammar,
    random_leftrec_rules,
    random_rules,
    sample_short_input,
)
from helpers import (
    ARITH_LABELED,
    ARITH_LEFTREC,
    ARITH_POSTFIX,
    ASSIGN,
    JSON_GRAMMAR,
    assert_every_child_has_a_source,
    compile_leftrec,
    compile_postfix,
    expression_doc,
    json_doc,
    matched_children,
    repeats,
    ring_grammar,
    same_position_reach,
    shape,
)


def walk(m):
    """Every match in m's tree, m first, building the children on the way."""
    out, stack = [], [m]
    while stack:
        m = stack.pop()
        out.append(m)
        stack.extend(m.sub_matches)
    return out


def full_form(table):
    """Every stored match, its whole tree in normalized form."""
    return [norm_match(m) for m in table.all_stored()]


def reference_fill(grammar, text):
    """The fill the engine makes, building a Match for every evaluation
    with match_clause: per clause, its final matches by position and every
    match it stored, in order.  Every terminal is tried at every column,
    which schedules what the engine's dispatch schedules."""
    clauses = grammar.all_clauses
    parents = FillPlan(grammar).parents
    tables = [dict() for _ in clauses]
    steps = [[] for _ in clauses]

    def lookup(sub, at):
        if type(sub) is NotFollowedBy:
            return match_clause(sub, at, text, lookup)
        m = tables[sub.clause_idx].get(at)
        if m is None and sub.can_match_zero_chars:
            return Match(sub, at, 0, (), sub.zero_idx)
        return m

    terminals = [c.clause_idx for c in clauses if c.is_terminal and type(c) is not Nothing]
    for pos in range(len(text) - 1, -1, -1):
        heap, queued = list(terminals), set(terminals)
        while heap:
            idx = heapq.heappop(heap)
            queued.discard(idx)
            m = match_clause(clauses[idx], pos, text, lookup)
            if m is None:
                continue
            old = tables[idx].get(pos)
            if old is not None and m.len <= old.len and m.alt_idx >= old.alt_idx:
                continue
            tables[idx][pos] = m
            steps[idx].append(m)
            for p in parents[idx]:
                if p not in queued:
                    queued.add(p)
                    heapq.heappush(heap, p)
    return tables, steps


def keyword_list_grammar(k):
    """A left-recursive list of k keywords and words, separated by ',' or
    ';': the keywords are clauses 0 to k-1, and the list's rule sorts above
    them all.  Its two growing alternatives make it no recognized level, so
    its columns replay."""
    heads = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    keywords = " / ".join("'%skw%d'" % (heads[i % len(heads)], i) for i in range(k))
    return compile_grammar(
        "L <- L ',' T / L ';' T / T;\nT <- Keyword / Word;\nKeyword <- %s;\nWord <- [a-z]+;\n"
        % keywords
    )


def reference_form(tables):
    return [norm_match(m) for tbl in tables for m in tbl.values()]


@pytest.fixture
def replays(monkeypatch):
    """Records (column, clauses evaluated) for every replay a table makes."""
    seen = []
    replay = MemoTable._replay

    def counted(self, how, pos):
        seen.append((pos, how[0]))
        return replay(self, how, pos)

    monkeypatch.setattr(MemoTable, "_replay", counted)
    return seen


@pytest.fixture
def walks(monkeypatch):
    """Records (column, clause index) for every walk a table makes."""
    seen = []
    walk_steps = MemoTable._walk

    def counted(self, level, clause, pos, length, alt_idx):
        seen.append((pos, clause.clause_idx))
        return walk_steps(self, level, clause, pos, length, alt_idx)

    monkeypatch.setattr(MemoTable, "_walk", counted)
    return seen


def test_left_recursive_pairs_match_the_enumerator(replays):
    rng = random.Random(20261018)
    pairs = unique = compared = 0
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
            assert norm_match(m) == trees[0], text
    print("%d pairs, %d unique derivations, %d compared, %d replays"
          % (pairs, unique, compared, len(replays)))
    # Exact counts: a change to which whole matches the engine finds on
    # left-recursive grammars moves compared even where every comparison
    # it still makes agrees.
    assert (unique, compared) == (1227, 1140)
    assert len(replays) > 0


def test_built_matches_read_as_a_match_building_fill(replays, walks):
    rng = random.Random(77)
    replayed = 0
    for _ in range(120):
        g, alphabet = random_leftrec_grammar(rng)
        for _ in range(4):
            text = sample_short_input(rng, g, alphabet, max_len=40)
            table = parse(g, text)
            before = len(replays)
            assert full_form(table) == reference_form(reference_fill(g, text)[0]), text
            replayed += len(replays) > before
            assert table.watermark_violations == 0
    hand_written = [
        # Recognized levels: their children are walked, never replayed.
        (compile_leftrec(), ("1+2*3-4/5+x*y*z-7", "a*b*c*d+e*f*g-(h-i-j-k)/l/m", "--a-b-c*d")),
        # The same levels with a postfix alternative each replay.
        (compile_postfix(), ("1+2*3-4/5+x*y*z-7", "a*b!*c*d+e!?-(h-i-j-k)/l/m", "--a-b-c*d?")),
        # Lookahead inside a left-recursive cycle: a clause on the cycle
        # reads its cycle through a lookahead, so its children come from a
        # replay that reads through that lookahead.
        (compile_grammar("E <- E '+' 'n' / &(E '-') 'm' / 'n';"), ("n+n+n", "n-", "n+n-")),
        (compile_grammar("E <- E '+' T / T; T <- !(E '+' 'x') [a-z];"), ("a+b+x+c",)),
        # Over 300 clauses: the fill's and the replay's queues span many
        # digits of an int.
        (keyword_list_grammar(300), ("Akw0,Bkw37;x,Akw36,Lkw299", "Zkw25;Akw,kw,Ckw2")),
    ]
    per_grammar = []
    for g, texts in hand_written:
        first, walked = len(replays), len(walks)
        for text in texts:
            table = parse(g, text)
            before = len(replays)
            assert full_form(table) == reference_form(reference_fill(g, text)[0]), text
            replayed += len(replays) > before
        per_grammar.append((len(replays) - first, len(walks) - walked))
    assert per_grammar[0][0] == 0 and per_grammar[0][1] > 0
    # Each other grammar, the lookahead ones included, replays a column.
    assert all(r and not w for r, w in per_grammar[1:])
    print("%d tables replayed a column" % replayed)
    assert replayed >= 50


@pytest.fixture
def selects(monkeypatch):
    """Records how each choice's child the decoder selects was found:
    'level' for a recognized level's alternative 1, 'unstored' for a
    clause read as its empty match, else the kind of the clause read."""
    seen = []

    def spy(cls):
        select = cls._select

        def counted(self, clause, pos, length, alt_idx):
            sub = clause.sub_clauses[alt_idx]
            if type(clause) is not First:  # a sequence's children
                pass
            elif self.grammar.fill_plan.walks[clause.clause_idx]:
                seen.append("level")
            elif self._values(sub.clause_idx)(pos) is None:
                seen.append("unstored")
            else:
                seen.append(type(sub).__name__)
            return select(self, clause, pos, length, alt_idx)

        monkeypatch.setattr(cls, "_select", counted)

    spy(MemoTable)
    spy(OracleResult)
    return seen


def choice_children(m):
    """The children of a First's match, each as its fields and its own
    children in normalized form (a zero-length child has none)."""
    return [
        (c.clause, c.pos, c.len, c.alt_idx, tuple(map(norm_match, c.sub_matches)))
        for c in m.sub_matches
    ]


# Choices whose chosen alternative is a string, a nullable clause with
# nothing stored where it matched, and a recognized level's alternative 1.
# No First ever chooses a lookahead: assembly rejects a First whose empty
# match would take one, and otherwise an earlier alternative always matches.
SELECTING = [
    ("S <- T+; T <- 'ab' / 'a' / 'c';", ("abac", "aab", "cabaab"), "Str"),
    ("S <- C 'x'; C <- 'q' / N / 'x'; N <- 'n'*;", ("x", "nnx"), "unstored"),
    (ARITH_LABELED, ("1+2*3", "a-b-c", "-(a)"), "level"),
]


def test_selected_children_read_as_a_match_building_fill(replays, selects):
    selected = 0
    for source, texts, kind in SELECTING:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GrammarWarning)  # an unreachable alternative
            g = compile_grammar(source)
        del selects[:]
        for text in texts:
            table = parse(g, text)
            assert table.matched_whole(), text
            ref_tables, _ = reference_fill(g, text)
            choices = [m for m in table.all_stored() if type(m.clause) is First]
            assert choices, text
            for m in choices:
                twin = ref_tables[m.clause.clause_idx][m.pos]
                assert choice_children(m) == choice_children(twin), (text, m)
            assert full_form(table) == reference_form(ref_tables), text
            # Each selected match's children, a chained repetition's too,
            # are what its matcher reads over the filled table.
            for m in table.all_stored():
                reads = g.fill_plan.selects[m.clause.clause_idx]
                if reads and reads[m.alt_idx]:
                    got = table._select(m.clause, m.pos, m.len, m.alt_idx)
                    assert got == matched_children(table, m), (text, m)
                    selected += 1
        assert kind in selects, source
    assert selected >= 50
    assert replays == []


def test_selected_children_of_the_reference_parser(selects):
    # The reference parser's memo is read through the same decoder, even
    # for a grammar the engine never parsed; its choices' selected children
    # must be the match-building fill's too.
    compared = 0
    for source, texts, _ in SELECTING[:2]:
        for text in texts:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GrammarWarning)
                g = compile_grammar(source)
            oracle = packrat_parse(g, text)
            assert g.fill_plan is None
            ref_tables, _ = reference_fill(g, text)
            for (i, pos), v in oracle.memo.items():
                twin = ref_tables[i].get(pos)
                if v is None or type(g.all_clauses[i]) is not First or twin is None:
                    continue
                m = oracle.match_at(g.all_clauses[i], pos)
                assert (m.len, m.alt_idx) == (twin.len, twin.alt_idx)
                # A zero-length child is a leaf: the top-down parser
                # evaluated it, with children, where the fill reads it as
                # a childless empty match.
                got = [f if f[2] else f[:4] + ((),) for f in choice_children(m)]
                assert got == choice_children(twin), (text, m)
                compared += 1
    assert compared >= 10
    assert "Str" in selects


@pytest.mark.parametrize("corrupt", ["shorter", "missing"])
def test_a_selected_child_the_memo_contradicts_raises(monkeypatch, corrupt):
    # A choice's child is read from the memo, so a stored value that does
    # not give the choice's length, or none at all, contradicts the choice's
    # own entry, and building its children fails instead of guessing.
    g = compile_grammar("S <- A / 'x'; A <- 'a' 'b';")
    s, a = g.rule_clause("S"), g.rule_clause("A")
    table = parse(g, "ab")
    m = table.stored(s, 0)
    if corrupt == "shorter":
        table._tables[a.clause_idx][0] = 1 << g.alt_shift
    else:
        del table._tables[a.clause_idx][0]
    replayed = []
    monkeypatch.setattr(MemoTable, "_replay", lambda self, *args: replayed.append(args))
    with pytest.raises(RuntimeError, match="does not match at 0 as its memo entry says"):
        m.sub_matches
    assert replayed == []  # the select path raised


# A sequence holding a lookahead and a nullable member that stores nothing
# where it matches empty, in a grammar with no cycle.
LOOKAHEAD_AND_NULLABLE = "S <- (A / B)+; A <- !'ab' 'a' N 'c'; B <- 'a' 'b' N; N <- 'n'*;"


def test_selected_sequences_are_their_reruns():
    # A sequence whose reads were final has its children selected from the
    # memo, each member where the one before it ends.  On every stored
    # sequence they must be what rerunning its matcher over the filled memo
    # with match_clause reads, for the engine's table and for the reference
    # parser's memo.
    rng = random.Random(41)
    cases = [
        (compile_grammar(LOOKAHEAD_AND_NULLABLE), ("aca", "abnnacabacab", "anncab")),
        (compile_grammar(JSON_GRAMMAR), ('{"a": [1, -2.5e3, {"b\\u0041": null}], "c\\n": "d"}',)),
        (compile_grammar(ARITH_LABELED), ("a+b*-(c-d)/e", "1-2-3*x*y/(z+4)")),
    ]
    for _ in range(200):
        g, alphabet = random_grammar(rng)
        cases.append((g, [sample_short_input(rng, g, alphabet) for _ in range(4)]))
    compared = lookaheads = unstored = 0
    for g, texts in cases:
        plan = FillPlan(g)
        for text in texts:
            table = parse(g, text)
            sources = [(table, table.all_stored())]
            if not any(plan.replays) and not any(plan.walks):  # no left recursion
                oracle = packrat_parse(g, text)
                sources.append((oracle, (
                    oracle.match_at(g.all_clauses[i], pos)
                    for (i, pos), v in oracle.memo.items() if v is not None
                )))
            for memo, matches in sources:
                for m in matches:
                    clause = m.clause
                    if type(clause) is not Seq:
                        continue
                    i = clause.clause_idx
                    selected = plan.replays[i] is None and plan.walks[i] is None
                    assert bool(plan.selects[i]) == selected
                    if not selected:
                        continue
                    rerun = matched_children(memo, m)
                    assert memo._select(clause, m.pos, m.len, 0) == rerun, (text, m)
                    compared += 1
                    lookaheads += any(type(e[0]) is NotFollowedBy for e in rerun)
                    unstored += any(
                        e[2] == 0 and memo._values(e[0].clause_idx)(e[1]) is None
                        and type(e[0]) is not NotFollowedBy
                        for e in rerun
                    )
    print("%d sequences compared, %d with a lookahead, %d with an unstored empty member"
          % (compared, lookaheads, unstored))
    assert compared >= 1000 and lookaheads >= 20 and unstored >= 20


@pytest.mark.parametrize("how", ["shorter", "longer", "missing"])
@pytest.mark.parametrize("corrupt", ["Y", "op", "member"])
def test_a_walked_or_selected_sequence_the_memo_contradicts_raises(monkeypatch, corrupt, how):
    # A walk reads each growth step's op and Y from the memo, and a
    # selected sequence each of its members: a value the fill read that
    # is now shorter, longer or gone contradicts the match's own entry, and
    # building its children fails instead of guessing.
    g = compile_leftrec()
    text = "a+(b)+c"
    table = parse(g, text)
    plan = g.fill_plan
    e0 = g.rule_clause("E0")
    _, _, y, op = plan.walks[e0.clause_idx]
    # E0 at 0 walks the steps a, a+(b), a+(b)+c, and its last operand and
    # E4's last member, at 2 '(' E0 ')', are the ones only the length of
    # the match itself can contradict.
    e4 = g.rule_clause("E4")
    target, read, at = {
        "Y": (e0, y, 6),
        "op": (e0, op, 1),
        "member": (e4, e4.sub_clauses[2], 4),
    }[corrupt]
    m = table.stored(target, 0 if target is e0 else 2)
    assert m.len == (7 if target is e0 else 3)
    values = table._tables[read.clause_idx]
    if how == "missing":
        del values[at]
    else:
        values[at] += (1 if how == "longer" else -1) << g.alt_shift
    calls = []
    monkeypatch.setattr(MemoTable, "_replay", lambda self, *args: calls.append(args))
    with pytest.raises(RuntimeError, match="does not match at %d as its memo entry says" % m.pos):
        m.sub_matches
    assert calls == []


def test_selected_repetitions_are_their_reruns():
    # A repetition off a cycle has its children selected: a chained one's
    # first repeat, then its own match where that ends if one is stored,
    # and a greedy one's operand where each repeat ends, up to its length.
    # At every repetition's entry of JSON and expression documents, in the
    # table and, for JSON, in the reference parser's memo, under chained
    # and greedy repetitions, they must be what rerunning its matcher over
    # the filled memo with match_clause reads.
    rng = random.Random(61)
    json_texts = [json_doc(rng) for _ in range(30)]
    expression_texts = [expression_doc(rng) for _ in range(30)]
    compared = {True: 0, False: 0}
    rests = 0
    for chained in (True, False):
        for source, texts in ((JSON_GRAMMAR, json_texts), (ARITH_LABELED, expression_texts)):
            g = compile_grammar(source, rewrite_repetitions=chained)
            for text in texts:
                table = parse(g, text)
                assert table.matched_whole(), text
                sources = [(table, table.all_stored())]
                if source is JSON_GRAMMAR:
                    oracle = packrat_parse(g, text)
                    sources.append((oracle, (
                        oracle.match_at(g.all_clauses[i], pos)
                        for (i, pos), v in oracle.memo.items()
                        if v is not None
                    )))
                for memo, matches in sources:
                    for m in matches:
                        clause = m.clause
                        if type(clause) is not OneOrMore:
                            continue
                        assert clause.chained == chained
                        assert g.fill_plan.selects[clause.clause_idx]
                        rerun = matched_children(memo, m)
                        assert memo._select(clause, m.pos, m.len, 0) == rerun, (text, m)
                        compared[chained] += 1
                        rests += chained and len(rerun) == 2
    print("%d chained repetitions compared, %d with a rest; %d greedy ones"
          % (compared[True], rests, compared[False]))
    assert compared[True] >= 1000 and rests >= 300 and compared[False] >= 4000


@pytest.mark.parametrize("how", ["shorter", "longer", "missing", "added", "first"])
def test_a_selected_repetition_the_memo_contradicts_raises(monkeypatch, how):
    # A chained repetition reads its first repeat and its own match where
    # that ends: a rest the fill read that is now shorter, longer or gone,
    # one stored where the fill read none, or a first repeat gone,
    # contradicts the match's own entry, with no replay.
    g = compile_grammar("S <- A / 'x'; A <- 'a'+;")
    a = g.rule_clause("A")
    table = parse(g, "aaa")
    assert g.fill_plan.selects[a.clause_idx]
    pos = 2 if how == "added" else 0
    m = table.stored(a, pos)
    values = table._tables[a.clause_idx]
    if how == "first":
        del table._tables[a.sub_clauses[0].clause_idx][0]
    elif how == "missing":
        del values[1]
    elif how == "added":
        values[3] = 1 << g.alt_shift
    else:
        values[1] += (1 if how == "longer" else -1) << g.alt_shift
    calls = []
    monkeypatch.setattr(MemoTable, "_replay", lambda self, *args: calls.append(args))
    with pytest.raises(RuntimeError, match="does not match at %d as its memo entry says" % pos):
        m.sub_matches
    assert calls == []


@pytest.mark.parametrize("how", ["shorter", "longer", "missing", "empty", "last"])
def test_a_selected_greedy_repetition_the_memo_contradicts_raises(monkeypatch, how):
    # A greedy repetition reads its operand where each repeat ends, up to
    # its own length: a repeat the fill read that is now shorter, longer,
    # empty or gone, or a last repeat that now ends past the match,
    # contradicts the match's own entry, with no replay and no lock held.
    g = compile_grammar("S <- A / 'x'; A <- ('a' 'b')+;", rewrite_repetitions=False)
    a = g.rule_clause("A")
    table = parse(g, "ababab")
    assert g.fill_plan.selects[a.clause_idx]
    m = table.stored(a, 0)
    values = table._tables[a.sub_clauses[0].clause_idx]
    stored = dict(values)
    assert [c.len for c in m.sub_matches] == [2, 2, 2]
    if how == "missing":
        del values[2]
    elif how == "empty":
        values[2] = 0
    elif how == "last":
        values[4] += 1 << g.alt_shift
    else:
        values[2] += (1 if how == "longer" else -1) << g.alt_shift
    calls = []
    monkeypatch.setattr(MemoTable, "_replay", lambda self, *args: calls.append(args))
    with pytest.raises(RuntimeError, match="does not match at 0 as its memo entry says"):
        m.sub_matches
    assert calls == [] and not table._lock.locked()
    values.update(stored)
    assert [c.len for c in m.sub_matches] == [2, 2, 2]


def test_replay_rebuilds_every_superseded_step():
    # Not only the steps a tree reads: every match that a clause which can
    # be superseded stored and then replaced comes back, with its
    # children, from one replay of its column.
    rng = random.Random(9)
    grammars = [random_leftrec_grammar(rng) for _ in range(150)]
    grammars.append((compile_leftrec(), "1+-*/(a)"))
    steps = 0
    for g, alphabet in grammars:
        text = sample_short_input(rng, g, alphabet, max_len=30)
        table = parse(g, text)
        _, history = reference_fill(g, text)
        for idx, how in enumerate(g.fill_plan.replays):
            if how is None:
                continue
            final = table._tables[idx]
            for m in history[idx]:
                if final[m.pos] == m.len << g.alt_shift | m.alt_idx:
                    continue
                with table._lock:
                    record = table._replay(how, m.pos)
                rebuilt = Match(m.clause, m.pos, m.len, record, m.alt_idx).sub_matches
                assert list(map(norm_match, rebuilt)) == list(map(norm_match, m.sub_matches))
                steps += 1
    assert steps > 500


def test_a_clause_reads_its_nullable_operand_after_it_stores(replays):
    # C reads the nullable O at its own position, and both start at a
    # column of 'a'.  O sorts below C, so C is evaluated only once O's
    # match there is final, and C's children are selected from the final
    # table, as the fill read them: they need no replay.
    g = compile_grammar("S <- O 'q' / C; C <- O 'a'; O <- R?; R <- 'a' C;")
    c, o = g.rule_clause("C"), g.rule_clause("O")
    assert o.clause_idx < c.clause_idx
    for text in ("aa", "aaaa", "aaaq"):
        table = parse(g, text)
        assert g.fill_plan.replays[c.clause_idx] is None
        assert full_form(table) == reference_form(reference_fill(g, text)[0]), text
    assert replays == []


def test_only_clauses_on_same_position_cycles_replay():
    rng = random.Random(14)
    grammars = [compile_leftrec(), expression_grammar(), compile_grammar(JSON_GRAMMAR)]
    grammars += [random_leftrec_grammar(rng)[0] for _ in range(200)]
    replaying = 0
    for g in grammars:
        for c, how in zip(g.all_clauses, FillPlan(g).replays):
            if how is not None:
                assert c in same_position_reach(c), g.display_clause(c)
                replaying += 1
    assert replaying >= 200


def test_every_clause_with_children_has_a_source():
    # The decoder has no fallback: every alternative of every clause with
    # children must be selected, or the clause walked or replayed, under
    # chained and greedy repetitions alike.  (Every plan tier-1 builds is
    # checked the same way as it is built; see conftest.)
    rng = random.Random(26)
    # The hand-written grammars include a repetition on a cycle.
    sources = [
        ARITH_LABELED, ARITH_LEFTREC, ARITH_POSTFIX, JSON_GRAMMAR, ASSIGN, "L <- L+ 'x' / 'y';"
    ]
    grammars = [
        compile_grammar(text, start, rewrite_repetitions=chained)
        for text, start in zip(sources, ("E", "E0", "E0", None, None, None))
        for chained in (True, False)
    ]
    pairs = 0
    while pairs < 300:
        if pairs % 2:
            got = random_leftrec_rules(rng, side_entry=rng.random() < 0.5)
            if got is None:
                continue
            rules, start = got[0], "L"
        else:
            rules, start = random_rules(rng)[0], None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GrammarWarning)  # unreachable alternatives
                pair = [
                    assemble_grammar(copy.deepcopy(rules), start, rewrite_repetitions=chained)
                    for chained in (True, False)
                ]
        except GrammarError:
            continue
        grammars += pair
        pairs += 1
    replayed = walked = 0
    for g in grammars:
        plan = FillPlan(g)
        assert_every_child_has_a_source(g, plan)
        replayed += sum(how is not None for how in plan.replays)
        walked += sum(level is not None for level in plan.walks)
    repetitions = [c.chained for g in grammars for c in g.all_clauses if type(c) is OneOrMore]
    assert repetitions.count(True) >= 50 and repetitions.count(False) >= 50
    assert replayed >= 300 and walked > 0


def test_building_matches_leaves_the_table_as_it_was(replays, walks):
    text = "+".join(["ab"] * 30) + "*" + "*".join(["cd"] * 20)
    # The expression grammar's levels are walked, the postfix grammar's
    # replayed.
    for g, built in ((expression_grammar(), walks), (compile_postfix(), replays)):
        table = parse(g, text)
        stored = [(m.clause, m.pos, m.len, m.alt_idx) for m in table.all_stored()]
        positions = {id(c): list(table.match_positions(c)) for c in g.all_clauses}
        seen = 0
        del replays[:], walks[:]
        # Building children while iterating all_stored() must not disturb it.
        for m in table.all_stored():
            seen += len(walk(m))
        assert seen > len(stored)
        assert len(built) > 0 and len(replays) + len(walks) == len(built)
        assert [(m.clause, m.pos, m.len, m.alt_idx) for m in table.all_stored()] == stored
        assert table.stored_count == len(stored)
        for c in g.all_clauses:
            assert list(table._tables[c.clause_idx]) == positions[id(c)]
            assert table.match_positions(c) == positions[id(c)]
        assert table.watermark_violations == 0


def test_a_repetition_on_a_cycle_replays_once_per_link(replays):
    # L+ grows with L on the same column, so its matches can be superseded
    # and their children come from replays.  Reading a chained repetition's
    # repeats reads each link's children once, so it replays at most once
    # per link of the chain.
    g = compile_grammar("L <- L+ 'x' / 'y';")
    text = "yxxxx"
    table = parse(g, text)
    ref_tables, _ = reference_fill(g, text)
    assert table.matched_whole()
    checked = 0
    for m in table.all_stored():
        for j, c in enumerate(m.sub_matches):
            if type(c.clause) is not OneOrMore:
                continue
            assert c.clause.chained
            del replays[:]
            reps = repeats(c)
            assert len(replays) <= len(reps)
            twin = ref_tables[m.clause.clause_idx][m.pos].sub_matches[j]
            assert list(map(norm_match, reps)) == list(map(norm_match, repeats(twin)))
            checked += 1
    assert checked > 0
    ref_start = ref_tables[g.start_clause.clause_idx][0]
    assert shape(extract_parse_tree(table)) == shape(tree.node_from_match(ref_start, g, text))


def test_a_match_outlives_its_table():
    g = expression_grammar()
    text = "+".join(["ab"] * 12)
    expected = norm_match(parse(g, text).start_match())
    m = parse(g, text).start_match()  # the table is dropped at once
    assert norm_match(m) == expected


def test_tables_are_freed_without_the_cycle_collector(replays, walks):
    # A whole tree of the expression grammar walks its levels' steps, and
    # one of the postfix grammar replays them, so either machinery exists.
    for g, built in ((expression_grammar(), walks), (compile_postfix(), replays)):
        table = parse(g, "+".join(["ab"] * 12))
        shape(extract_parse_tree(table))
        assert len(built) > 0
        ref = weakref.ref(table)
        tables = table._tables
        gc.disable()
        try:
            del table
            assert ref() is None
            assert sys.getrefcount(tables) == 2  # this name and the argument
        finally:
            gc.enable()
        del tables


def test_json_grammar_replays_nothing(replays):
    # No clause of the JSON grammar can be superseded in a column, so no
    # match needs a replay.
    g = compile_grammar(JSON_GRAMMAR)
    text = '{"a": [1, 2, {"b": [[3], [4, 5], "x\\u0041y"]}], "c": null, "d": -1.5e3}'
    table = parse(g, text)
    assert table.matched_whole()
    assert not any(g.fill_plan.replays)
    assert sum(len(walk(m)) for m in table.all_stored()) > table.stored_count
    assert replays == []


# Even a lone operand replays: a choice on a cycle that is no recognized
# level has no alternative whose child is selected.
@pytest.mark.parametrize("text, replayed", [
    ("a", True), ("a*b", True), ("a+b", True), ("a*b-c", True),
    ("a+b+c", True), ("-a*b*c+d*e/f-(g+h+i)*j", True),
])
def test_a_tree_replays_each_column_cycle_at_most_once(replays, walks, text, replayed):
    # A replay records every step of its column, so the left-nested run it
    # rebuilds needs no other replay of that column for that cycle.
    g = compile_postfix()
    table = parse(g, text)
    assert table.matched_whole()
    shape(extract_parse_tree(table))  # builds every node's children
    assert len(replays) == len(set(replays))
    assert (len(replays) > 0) == replayed
    assert walks == []


@pytest.mark.parametrize("text, walked", [
    ("a", False), ("a*b", True), ("a+b", True), ("a*b-c", True),
    ("a+b+c", True), ("-a*b*c+d*e/f-(g+h+i)*j", True),
])
def test_a_tree_walks_each_column_level_at_most_once(replays, walks, text, walked):
    # A walk rebuilds every step of its column up to the match read, each
    # step holding the last, so the left-nested run needs no other walk of
    # that column for that level, and no replay.
    g = compile_leftrec()
    table = parse(g, text)
    assert table.matched_whole()
    shape(extract_parse_tree(table))
    assert len(walks) == len(set(walks))
    assert (len(walks) > 0) == walked
    assert replays == []


def test_a_cycle_shares_one_replay_plan():
    # A replay evaluates what its target reaches through reads that may
    # change after the reader pops, and whether a read may is up to the
    # reader alone.  So clauses that reach each other, every clause of one
    # same-position cycle, evaluate the same clauses: one plan object
    # serves them all, not one per clause of the cycle.
    for text, replayed in (
        (ring_grammar(200), 402),
        (ring_grammar(200, "xw"), 603),
        ("E <- E '+' T / E '-' T / T; T <- [0-9]+;", 3),
    ):
        g = compile_grammar(text)
        plan = FillPlan(g)
        hows = [how for how in plan.replays if how is not None]
        assert len(hows) == replayed
        assert all(how is hows[0] for how in hows), text
        evaluated, _, parents = hows[0]
        assert {i for i, how in enumerate(plan.replays) if how} <= set(evaluated)
        assert set(parents) == set(evaluated)


def test_plan_replays_one_left_recursive_level_at_a_time():
    g = compile_postfix()
    plan = FillPlan(g)
    name = g.clause_name
    cyclic = [i for i, how in enumerate(plan.replays) if how]
    levels = {name(g.all_clauses[i]) for i in cyclic if name(g.all_clauses[i])}
    assert levels == {"E0", "E1"}
    assert not any(plan.walks)
    for target in cyclic:
        evaluated, seeds, parents = plan.replays[target]
        # A level's replay evaluates that level's rule and its two growing
        # sequences; the level below is final by the time any of them pops.
        assert len(evaluated) == 3 and target in evaluated
        assert set(parents) == set(evaluated)


def test_plan_walks_each_recognized_level():
    # Each recognized level's rule and growing sequence are walked, and
    # nothing of the grammar replays.
    g = compile_leftrec()
    plan = FillPlan(g)
    assert not any(plan.replays)
    walked = [i for i, level in enumerate(plan.walks) if level]
    assert {g.clause_name(g.all_clauses[i]) for i in walked} == {"E0", "E1", None}
    rules = {plan.walks[i][0] for i in walked}
    assert len(walked) == 2 * len(rules) == 4
    for h in rules:
        level = plan.walks[h.clause_idx]
        _, s, y, op = level
        # One record for the level's rule H <- S / Y and its sequence
        # S = H op Y, and the clause Y op H the fill matches in S's place.
        assert plan.walks[s.clause_idx] is level
        assert h.sub_clauses == (s, y) and s.sub_clauses == (h, op, y)
        assert level.chain.sub_clauses == (y, op, h)
        # Only H's alternative 1, Y at the column, is selected; Y here is a
        # rule with children and cannot match zero characters.
        assert plan.selects[h.clause_idx] == (None, ((y, True, None),))
        assert plan.selects[s.clause_idx] is None


def test_recovery_queries_build_no_children(monkeypatch):
    # Recovery reads lengths and positions only: it neither selects nor
    # walks children, nor replays a column.
    calls = []
    for name in ("_select", "_walk", "_replay"):
        method = getattr(MemoTable, name)

        def counted(self, *args, name=name, method=method):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(MemoTable, name, counted)
    g = compile_grammar(ASSIGN)
    table = parse(g, "ab=12;c=;d=3;")
    spans = find_error_spans(table, "Assign")
    assert spans and covering_matches(table, "Assign")
    assert next_match_after(table, "Assign", spans[0].end) is not None
    assert calls == []
    # Trees of left-recursive runs do each, so the counter counts: a
    # greedy repetition's children are selected.
    shape(extract_parse_tree(parse(compile_leftrec(), "a+b+c")))
    assert set(calls) == {"_select", "_walk"}
    del calls[:]
    greedy = compile_grammar(ARITH_LEFTREC, "E0", rewrite_repetitions=False)
    shape(extract_parse_tree(parse(greedy, "a+b+c")))
    assert set(calls) == {"_select", "_walk"}
    shape(extract_parse_tree(parse(compile_postfix(), "a+b+c")))
    assert set(calls) == {"_select", "_walk", "_replay"}


def test_threads_building_matches_from_one_table_agree():
    # Building children replays into one log and one dict of scratch
    # values per memo, under the memo's lock, for the engine's table and
    # the reference parser's result alike, and selects and walks take no
    # lock; threads that read a table whose levels are
    # walked, one whose columns replay and the same result at once must
    # each see the single-threaded trees.
    import threading

    text = "a*b*c+d-e*f/(g+h+i)-j*k+l" * 3
    walked, replayed = parse(compile_leftrec(), text), parse(compile_postfix(), text)
    j = compile_grammar(JSON_GRAMMAR)
    doc = '{"a": [1, -2.5e3, {"b": null}], "c\\n": "d"}'
    oracle = packrat_parse(j, "[%s]" % ", ".join([doc] * 4))
    assert oracle.match.len == len(oracle.text)

    def forms():
        return full_form(walked), full_form(replayed), [
            norm_match(oracle.match_at(j.all_clauses[i], pos))
            for (i, pos), v in oracle.memo.items()
            if v is not None
        ]

    expected = forms()
    results, errors = [], []

    def walk_all():
        try:
            results.append(forms())
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk_all) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [expected] * len(threads)
