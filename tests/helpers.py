"""Shared fixtures for the test suite: grammar texts and tree utilities.

The three arithmetic grammars describe the same expression language at
five precedence levels (parentheses, atoms, unary minus, mul/div,
add/sub), encoded three ways:

- ARITH_CLIMB:    plain precedence climbing, no recursion into the same
                  level, so runs of operators and nested '-' do not parse
- ARITH_LEFTREC:  left-recursive at the binary-operator levels, so runs
                  parse left-associated and '-' / parens self-nest
- ARITH_SHORTHAND: bracket notation that expands to ARITH_LEFTREC

ARITH_POSTFIX is ARITH_LEFTREC with a second growing alternative at each
binary level, a postfix operator.  No level of it has the shape FillPlan
recognizes, so every run grows its seed and its matches' children come
from replays; an input without the postfix operators parses as it does
under ARITH_LEFTREC.
"""

import json

from pikaparse import First, Nothing, Str, compile_grammar, engine, extract_parse_tree, parse
from pikaparse.grammar import same_position_subs
from pikaparse.oracle import OracleResult
from pikaparse.tree import _kids, _match_entry

ARITH_CLIMB = """
E4 <- '(' E0 ')';
E3 <- ([0-9]+ / [a-z]+) / E4;
E2 <- ('-' E3) / E3;
E1 <- (E2 ('*' / '/') E2) / E2;
E0 <- (E1 ('+' / '-') E1) / E1;
"""

ARITH_LEFTREC = """
E4 <- '(' E0 ')';
E3 <- ([0-9]+ / [a-z]+) / E4;
E2 <- ('-' (E2 / E3)) / E3;
E1 <- (E1 ('*' / '/') E2) / E2;
E0 <- (E0 ('+' / '-') E1) / E1;
"""

ARITH_POSTFIX = """
E4 <- '(' E0 ')';
E3 <- ([0-9]+ / [a-z]+) / E4;
E2 <- ('-' (E2 / E3)) / E3;
E1 <- E1 ('*' / '/') E2 / E1 '!' / E2;
E0 <- E0 ('+' / '-') E1 / E0 '?' / E1;
"""

ARITH_SHORTHAND = """
E[4] <- '(' E ')';
E[3] <- [0-9]+ / [a-z]+;
E[2] <- '-' E;
E[1,L] <- E ('*' / '/') E;
E[0,L] <- E ('+' / '-') E;
"""

# perfbench/workloads.py's expression grammar: ARITH_SHORTHAND, labeled.
ARITH_LABELED = """
E[4] <- '(' E ')';
E[3] <- num:[0-9]+ / var:[a-z]+;
E[2] <- '-' neg:E;
E[1,L] <- l:E op:('*' / '/') r:E;
E[0,L] <- l:E op:('+' / '-') r:E;
"""

ASSIGN = """
Program <- Assign+;
Assign <- lhs:[a-z]+ '=' rhs:[0-9]+ ';';
"""


# perfbench/workloads.py's JSON grammar.
JSON_GRAMMAR = r"""
Doc <- WS v:Value WS;
Value <- obj:Object / arr:Array / str:String / num:Number / lit:('true' / 'false' / 'null');
Object <- '{' WS (mem:Member (WS ',' WS mem:Member)*)? WS '}';
Member <- key:String WS ':' WS val:Value;
Array <- '[' WS (item:Value (WS ',' WS item:Value)*)? WS ']';
String <- '"' ('\\' (["\\/bfnrt] / 'u' Hex Hex Hex Hex) / !["\\] [^])* '"';
Hex <- [0-9a-fA-F];
Number <- '-'? ('0' / [1-9] [0-9]*) ('.' [0-9]+)? ([eE] ('+' / '-')? [0-9]+)?;
WS <- [ \t\n\r]*;
"""


def expression_doc(rng, depth=0):
    """A document for ARITH_LABELED: an operator run of up to 40 operands
    (6 below the top), each a number, a name, a negation or, above depth
    3, a parenthesized expression."""
    parts = []
    for i in range(rng.randint(1, 6 if depth else 40)):
        if i:
            parts.append(rng.choice("+-*/"))
        r = rng.random()
        if r < 0.15 and depth < 3:
            parts.append("(%s)" % expression_doc(rng, depth + 1))
        elif r < 0.3:
            parts.append("-" * rng.randint(1, 3) + rng.choice(["a", "7", "(b)"]))
        elif r < 0.65:
            parts.append(str(rng.randint(0, 999)))
        else:
            parts.append("".join(rng.choice("xyz") for _ in range(rng.randint(1, 3))))
    return "".join(parts)


def json_doc(rng):
    """A document for JSON_GRAMMAR: a random array or object up to 4
    levels deep, with escapes (non-ASCII characters as \\u escapes) and,
    in half of them, line breaks and indentation."""

    def value(depth):
        kind = rng.randrange(5, 8) if depth == 0 else rng.randrange(8 if depth < 4 else 5)
        if kind == 0:
            return rng.choice([True, False, None])
        if kind == 1:
            return rng.choice([0, -1, 12345678901234567890, 0.25, -1.5e-7])
        if kind < 5:
            return "".join(rng.choice('ab "\\/\n\t\u00e9') for _ in range(rng.randint(0, 6)))
        if kind < 7:
            return [value(depth + 1) for _ in range(rng.randint(0, 5))]
        return {"k%d" % i: value(depth + 1) for i in range(rng.randint(0, 5))}

    return json.dumps(value(0), indent=rng.choice([None, 1]))


def ring_grammar(n, growing="x"):
    """A left-recursive ring of n + 1 rules, one same-position cycle:
    R_i <- R_{i+1} 'x' / 'y', with one growing alternative per character
    of growing, closed by R_n reading R0, with 'z' for 'y'."""
    rules = []
    for i in range(n + 1):
        reads = " / ".join("R%d '%s'" % ((i + 1) % (n + 1), op) for op in growing)
        rules.append("R%d <- %s / '%s';" % (i, reads, "z" if i == n else "y"))
    return "\n".join(rules)


def compile_leftrec():
    return compile_grammar(ARITH_LEFTREC, start_rule="E0")


def compile_postfix():
    return compile_grammar(ARITH_POSTFIX, start_rule="E0")


def compile_climb():
    return compile_grammar(ARITH_CLIMB, start_rule="E0")


def parse_tree(grammar, text):
    """Parse text and return the flattened parse tree, or None."""
    return extract_parse_tree(parse(grammar, text))


def repeats(m):
    """The repeat matches of a OneOrMore match, in input order."""
    kids = _kids(_match_entry(m))
    return [engine.Match(c, p, n, s, a) for (c, p, n, a, s), _ in kids]


def matched_children(memo, m):
    """The children of m, a match read from memo (a MemoTable or the
    reference parser's OracleResult), as (clause, pos, length, alt_idx,
    source) entries: the matches its matcher reads when match_clause runs
    it again over the filled memo, which builds no child through the
    decoder.  The matcher must give m's own value there."""
    lookup = memo.match_at if isinstance(memo, OracleResult) else memo.lookup
    again = engine.match_clause(m.clause, m.pos, memo.text, lookup)
    assert again is not None and (again.len, again.alt_idx) == (m.len, m.alt_idx), m
    return [(c.clause, c.pos, c.len, c.alt_idx, c._subs) for c in again.sub_matches]


def assert_every_child_has_a_source(grammar, plan):
    """Assert that plan, grammar's FillPlan, says where the children of
    every match with children come from: each alternative of a clause with
    children is selected, or the clause is walked or has a replay plan."""
    for c in grammar.all_clauses:
        if engine._childless(c):
            continue
        i = c.clause_idx
        reads = plan.selects[i]
        alternatives = len(c.sub_clauses) if isinstance(c, First) else 1
        for k in range(alternatives):
            assert (
                reads is not None and reads[k] is not None
                or plan.walks[i] is not None
                or plan.replays[i] is not None
            ), (grammar.display_clause(c), k)


def reference_entry(grammar, plan, k):
    """Interval k's dispatch entry, (stores, rest), as FillPlan.entry built
    it when entries decided only single-character terminals: each that
    matches the interval's lowest code point is stored and schedules its
    seed parents, and each Str starting with that code point is scheduled
    itself.  Every other clause is left to the fill."""
    ch = chr(plan.bounds[k - 1]) if k else "\0"
    one = 1 << grammar.alt_shift
    stores, rest = [], 0
    for t in grammar.all_clauses:
        if not t.is_terminal or isinstance(t, Nothing):
            continue
        i = t.clause_idx
        probe = ch + t.string[1:] if isinstance(t, Str) else ch
        if engine.make_matcher(t, probe, None, 0)(0) is None:
            continue
        if isinstance(t, Str):
            rest |= plan.bits[i]
        else:
            stores.append((i, one))
            rest |= plan.fill_parents[i]
    return tuple(stores), rest


def reference_plan(grammar):
    """A FillPlan for grammar whose entries are all reference_entry's,
    built up front, so that a fill with it stores the terminals alone and
    evaluates every other clause it schedules."""
    plan = engine.FillPlan(grammar)
    for k in range(len(plan.entries)):
        if k == 0 or plan.bounds[k - 1] <= 0x10FFFF:
            plan.entries[k] = reference_entry(grammar, plan, k)
    return plan


def same_position_reach(clause):
    """Every clause reachable from clause through same_position_subs; it
    holds clause itself only if clause is on a same-position cycle."""
    seen, todo = set(), [clause]
    while todo:
        for s in same_position_subs(todo.pop()):
            if s not in seen:
                seen.add(s)
                todo.append(s)
    return seen


def shape(node):
    """Nested-tuple skeleton of a tree: (name, pos, len, children)."""
    return (node.name, node.pos, node.len, tuple(shape(c) for c in node.children))


def sexpr(grammar, node):
    """Compact s-expression over named nodes only, with leaf text.

    Anonymous interior nodes are elided so that two grammars producing
    the same rule structure compare equal even when they group
    subexpressions with different unnamed clauses.
    """
    parts = _named_items(grammar, node)
    if len(parts) == 1:
        return parts[0]
    return "(" + " ".join(parts) + ")"


def _named_items(grammar, node):
    name = grammar.clause_name(node.clause)
    if not node.children:
        if name:
            return ["(%s %r)" % (name, node.text)]
        return [repr(node.text)]
    inner = []
    for c in node.children:
        inner.extend(_named_items(grammar, c))
    if name:
        return ["(%s %s)" % (name, " ".join(inner))]
    return inner


def count_matcher_calls(monkeypatch, grammar, text):
    """Matcher calls made by one parse of text.

    Every matcher factory is wrapped so the matchers it builds count their
    calls.  The grammar parses text once first: its dispatch entries are
    built on first use, by calling each terminal's matcher once per entry.
    """
    parse(grammar, text)
    calls = [0]

    def counted(factory):
        def build(*args):
            matcher = factory(*args)

            def call(pos):
                calls[0] += 1
                return matcher(pos)

            return call

        return build

    for kind, factory in list(engine._FACTORIES.items()):
        monkeypatch.setitem(engine._FACTORIES, kind, counted(factory))
    table = parse(grammar, text)
    monkeypatch.undo()
    assert table.matched_whole()
    return calls[0]
