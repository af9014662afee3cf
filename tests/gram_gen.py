"""Random grammar and input generator for differential testing.

Builds small grammars over 2 or 3 letter alphabets, pairing each with a
sampler that produces inputs biased toward (near-)matches.  The shapes
are constrained so that a recursive-descent reference parser can handle
everything the bottom-up engine can:

- rule references only point at later rules, except for right recursion
  guarded by a leading terminal, so nothing is left-recursive
- repetition bodies always consume at least one character
- negative lookahead appears only inside a sequence that also contains a
  later input-consuming element, and never creates nullability
- in a choice, every alternative before the last consumes input, so no
  alternative shadows the rest of the list

Those constraints also keep the generated grammars inside the space
where synthesized zero-length matches (the bottom-up engine never stores
them) coincide with what a top-down parse of the same clause would
produce.

random_leftrec_grammar drops the first constraint on purpose: its start
rule is left-recursive, directly or through a second rule, over helper
rules from the generator above.  Only the bottom-up engine and the
exhaustive enumerator in enum_oracle can check those, on short inputs
from sample_short_input.  random_precedence_grammar writes left-recursive
grammars in precedence shorthand, with inputs from sample_expression.
"""

import random

from pikaparse.clauses import (
    Char,
    CharSet,
    First,
    NotFollowedBy,
    OneOrMore,
    Optional,
    Rule,
    RuleRef,
    Seq,
    Str,
    ZeroOrMore,
)
from pikaparse.grammar import assemble_grammar

MAX_CLAUSES = 12


class Candidate:
    """A surface clause plus the facts the generator tracks about it."""

    __slots__ = ("clause", "nullable", "size")

    def __init__(self, clause, nullable, size):
        self.clause = clause
        self.nullable = nullable
        self.size = size


def _terminal(rng, alphabet):
    roll = rng.random()
    if roll < 0.45:
        return Candidate(Char(rng.choice(alphabet)), False, 1)
    if roll < 0.75:
        k = rng.randint(1, len(alphabet))
        chars = "".join(sorted(rng.sample(alphabet, k)))
        negated = rng.random() < 0.2
        return Candidate(CharSet.of(chars, negated), False, 1)
    n = rng.randint(2, 3)
    s = "".join(rng.choice(alphabet) for _ in range(n))
    return Candidate(Str(s), False, 1)


def _ref(rng, later, rule_nullable):
    name = rng.choice(later)
    return Candidate(RuleRef(name), rule_nullable[name], 1)


def _node(rng, alphabet, later, rule_nullable, depth, budget):
    """One random candidate, consuming at most budget surface nodes."""
    if depth <= 0 or budget <= 1:
        if later and rng.random() < 0.3:
            return _ref(rng, later, rule_nullable)
        return _terminal(rng, alphabet)
    roll = rng.random()
    sub = lambda b: _node(rng, alphabet, later, rule_nullable, depth - 1, b)
    if roll < 0.28:
        return _terminal(rng, alphabet)
    if roll < 0.40 and later:
        return _ref(rng, later, rule_nullable)
    if roll < 0.60:
        n = rng.randint(2, 3)
        kids, size = [], 1
        for i in range(n):
            c = sub(max(1, (budget - size) // (n - i)))
            kids.append(c)
            size += c.size
        clause = Seq(tuple(k.clause for k in kids))
        return Candidate(clause, all(k.nullable for k in kids), size)
    if roll < 0.78:
        n = rng.randint(2, 3)
        kids, size = [], 1
        for i in range(n):
            c = sub(max(1, (budget - size) // (n - i)))
            while i < n - 1 and c.nullable:
                c = _terminal(rng, alphabet)
            kids.append(c)
            size += c.size
        clause = First(tuple(k.clause for k in kids))
        return Candidate(clause, kids[-1].nullable, size)
    if roll < 0.86:
        body = sub(budget - 1)
        while body.nullable:
            body = _terminal(rng, alphabet)
        kind = OneOrMore if rng.random() < 0.5 else ZeroOrMore
        return Candidate(kind((body.clause,)), kind is ZeroOrMore, body.size + 1)
    if roll < 0.93:
        body = sub(budget - 1)
        while body.nullable:
            body = _terminal(rng, alphabet)
        return Candidate(Optional((body.clause,)), True, body.size + 1)
    # Negative lookahead, kept safe: always followed by a consuming element.
    probe = _terminal(rng, alphabet)
    anchor = sub(max(1, budget - 2))
    while anchor.nullable:
        anchor = _terminal(rng, alphabet)
    clause = Seq((NotFollowedBy((probe.clause,)), anchor.clause))
    return Candidate(clause, False, probe.size + anchor.size + 2)


def _rule_body(rng, alphabet, name, later, rule_nullable, budget):
    body = _node(rng, alphabet, later, rule_nullable, 3, budget)
    if later or rng.random() >= 0.25 or body.nullable:
        return body
    # Right recursion: TAIL <- t TAIL / body, all alternatives consuming.
    guard = _terminal(rng, alphabet)
    rec = Seq((guard.clause, RuleRef(name)))
    clause = First((rec, body.clause))
    return Candidate(clause, False, body.size + guard.size + 3)


def random_rules(rng):
    """A list of surface rules with the start rule first."""
    alphabet = rng.choice(["ab", "abc", "abc"])
    n_rules = rng.randint(1, 3)
    names = ["R%d" % i for i in range(n_rules)]
    rule_nullable = {}
    bodies = {}
    for i in range(n_rules - 1, -1, -1):
        later = names[i + 1 :]
        budget = rng.randint(3, 7) if i == 0 else rng.randint(2, 5)
        cand = _rule_body(rng, alphabet, names[i], later, rule_nullable, budget)
        bodies[names[i]] = cand.clause
        rule_nullable[names[i]] = cand.nullable
    # Drop rules the start rule never reaches, they would fail assembly.
    reachable, stack = set(), [bodies[names[0]]]
    while stack:
        c = stack.pop()
        if isinstance(c, RuleRef):
            if c.rule_name not in reachable:
                reachable.add(c.rule_name)
                stack.append(bodies[c.rule_name])
        else:
            stack.extend(c.sub_clauses)
    kept = [n for n in names if n == names[0] or n in reachable]
    return [Rule(n, bodies[n]) for n in kept], alphabet


def random_grammar(rng):
    """An assembled grammar of at most MAX_CLAUSES clauses, plus alphabet."""
    while True:
        rules, alphabet = random_rules(rng)
        try:
            g = assemble_grammar(rules, rewrite_repetitions=False)
        except Exception:
            continue
        if len(g.all_clauses) <= MAX_CLAUSES:
            return g, alphabet


def random_leftrec_rules(rng, side_entry=False):
    """Rules whose start rule L is left-recursive, plus helper rules from
    random_rules: directly (L <- L x / y, sometimes with a second growing
    alternative) or through a second rule (L <- M x / y; M <- L z / w).
    Operands consume input: terminals, pairs of them, or references to
    helper rules that cannot match zero characters.  None if the helper
    rules do not assemble.

    With side_entry, one more rule S, declared anywhere in the list, reads
    a member of the cycle at its own start: a growing sequence (the same
    clause once interned), L or M.  Its other alternatives reach L after a
    terminal or read another member, so walks over the grammar can enter
    the cycle at any of its clauses.
    """
    helpers, alphabet = random_rules(rng)
    try:
        g = assemble_grammar(helpers, rewrite_repetitions=False)
    except Exception:
        return None
    usable = [r.name for r in helpers if not g.rule_clause(r.name).can_match_zero_chars]

    def operand():
        roll = rng.random()
        if usable and roll < 0.3:
            return RuleRef(rng.choice(usable))
        if roll < 0.45:
            return Seq((_terminal(rng, alphabet).clause, _terminal(rng, alphabet).clause))
        return _terminal(rng, alphabet).clause

    def grow(ref):
        return Seq((RuleRef(ref), operand()))

    if rng.random() < 0.5:
        alts = [grow("L")]
        if rng.random() < 0.3:
            alts.append(grow("L"))
        rules = [Rule("L", First(tuple(alts) + (operand(),)))]
        members = alts + [RuleRef("L")]
    else:
        rules = [
            Rule("L", First((grow("M"), operand()))),
            Rule("M", First((grow("L"), operand()))),
        ]
        members = [r.clause.sub_clauses[0] for r in rules] + [RuleRef("L"), RuleRef("M")]
    rules += helpers
    if side_entry:
        def entry():
            m = rng.choice(members)
            return m if isinstance(m, Seq) and rng.random() < 0.5 else Seq((m, operand()))

        def after_terminal():
            return Seq((_terminal(rng, alphabet).clause, RuleRef("L")))

        alts = [entry(), rng.choice([entry, after_terminal])()]
        rng.shuffle(alts)
        rules.insert(rng.randint(0, len(rules)), Rule("S", First(tuple(alts))))
    return rules, alphabet


def random_leftrec_grammar(rng, max_clauses=24, side_entry=False):
    """An assembled left-recursive grammar with start rule L, plus
    alphabet.  Repetitions are chained or greedy at random."""
    while True:
        got = random_leftrec_rules(rng, side_entry)
        if got is None:
            continue
        rules, alphabet = got
        try:
            g = assemble_grammar(rules, "L", rewrite_repetitions=rng.random() < 0.7)
        except Exception:
            continue
        if len(g.all_clauses) <= max_clauses:
            return g, alphabet


# ----------------------------------------------------------------------
# precedence shorthand

PRECEDENCE_OPS = ("+", "*", "^", "+*")


def random_precedence_grammar(rng):
    """Grammar text in precedence shorthand, plus the operand and operator
    tokens its inputs are made of.

    One to three binary levels, each E[i,L] or E[i,R], draw their
    operators from PRECEDENCE_OPS, so levels often share one.  A prefix
    level ('-' E) and a parenthesis level may sit between them, and an atom
    level is the tightest.  Some levels hold a lookahead: inside the
    operator, before the level's first operand, or, in the atom level, one
    that reads the loosest level at the atom's own position, which puts
    that lookahead on every level's left-recursive cycle.  A binary level
    sometimes has a third operand, so it is left-recursive without the
    H <- H op Y / Y shape.
    """
    ops = []

    def op():
        if rng.random() < 0.3:
            a, b = rng.sample(PRECEDENCE_OPS, 2)
            ops.extend((a, b))
            return "('%s' / '%s')" % (a, b)
        a = rng.choice(PRECEDENCE_OPS)
        ops.append(a)
        return "'%s'" % a

    def binary():
        o = op()
        roll = rng.random()
        if roll < 0.12:
            o = "(%s !'%s')" % (o, rng.choice(PRECEDENCE_OPS))
        elif roll < 0.2:
            return "!'x' E %s E" % o
        elif roll < 0.28:
            return "E %s E %s E" % (o, op())
        return "E %s E" % o

    bodies = [(binary(), rng.choice("LR")) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        bodies.append(("'-' E", None))
    if rng.random() < 0.4:
        bodies.append(("'(' E ')'", None))
    rng.shuffle(bodies)
    atom = rng.choice(["[ab]+", "'a' / 'b' 'b'", "[ab]"])
    if rng.random() < 0.15:
        atom = "!(E '%s' 'x') (%s)" % (rng.choice(PRECEDENCE_OPS), atom)
    bodies.append((atom, None))
    lines = []
    for level, (body, assoc) in enumerate(bodies):
        head = "E[%d,%s]" % (level, assoc) if assoc else "E[%d]" % level
        lines.append("%s <- %s;" % (head, body))
    return "\n".join(lines), ["a", "b", "ab", "bb"], sorted(set(ops))


def sample_expression(rng, operands, operators, max_len=24):
    """An input for random_precedence_grammar: operands joined by
    operators, some under a '-' or in parentheses, sometimes mutated."""

    def operand(depth):
        roll = rng.random()
        if depth < 2 and roll < 0.15:
            return "(" + expression(depth + 1) + ")"
        if roll < 0.25:
            return "-" + operand(depth)
        return rng.choice(operands)

    def expression(depth):
        parts = [operand(depth)]
        for _ in range(rng.randint(0, 6)):
            parts += [rng.choice(operators) if rng.random() < 0.95 else "x", operand(depth)]
        return "".join(parts)

    text = expression(0)
    if rng.random() < 0.2:
        text = _mutate(rng, text, "ab-()" + "".join(operators))
    return text[:max_len]


# ----------------------------------------------------------------------
# input sampling

def derive(rng, grammar, budget=120):
    """A string the grammar might match, by walking clause structure."""

    def walk(clause, fuel):
        if fuel[0] <= 0:
            return None
        fuel[0] -= 1
        kind = type(clause).__name__
        if kind == "Char":
            return clause.char
        if kind == "Str":
            return clause.string
        if kind == "CharSet":
            return _charset_char(rng, clause)
        if kind == "Nothing":
            return ""
        if kind == "NotFollowedBy":
            return ""
        if kind == "Seq":
            parts = []
            for s in clause.sub_clauses:
                p = walk(s, fuel)
                if p is None:
                    return None
                parts.append(p)
            return "".join(parts)
        if kind == "First":
            return walk(rng.choice(clause.sub_clauses), fuel)
        if kind == "OneOrMore":
            parts = []
            for _ in range(rng.randint(1, 2)):
                p = walk(clause.sub_clauses[0], fuel)
                if p is None:
                    return None
                parts.append(p)
            return "".join(parts)
        raise AssertionError("unexpected clause kind %s" % kind)

    for _ in range(4):
        s = walk(grammar.start_clause, [budget])
        if s is not None:
            return s
    return ""


def _charset_char(rng, cs):
    if not cs.negated:
        lo, hi = rng.choice(cs.ranges)
        return chr(rng.randint(lo, hi))
    for ch in "abcxyz019 ":
        if cs.matches_char(ch):
            return ch
    return "\xff"


def sample_input(rng, grammar, alphabet):
    """Mix of derived, mutated and random strings, length capped at 64."""
    roll = rng.random()
    if roll < 0.55:
        s = derive(rng, grammar)
    elif roll < 0.85:
        s = derive(rng, grammar)
        for _ in range(rng.randint(1, 2)):
            s = _mutate(rng, s, alphabet)
    else:
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
    return s[:64]


def _mutate(rng, s, alphabet):
    roll = rng.random()
    if roll < 0.3 or not s:
        i = rng.randint(0, len(s))
        return s[:i] + rng.choice(alphabet) + s[i:]
    i = rng.randrange(len(s))
    if roll < 0.55:
        return s[:i] + s[i + 1 :]
    if roll < 0.8:
        return s[:i] + rng.choice(alphabet) + s[i + 1 :]
    return s[:i]


def sample_short_input(rng, grammar, alphabet, max_len=10):
    """Like sample_input, but at most max_len characters, and a derived
    string is the longest of a few tries, so left-recursive rules grow
    over several operands."""
    roll = rng.random()
    if roll < 0.85:
        tries = [derive(rng, grammar, budget=40) for _ in range(4)]
        s = max((t for t in tries if len(t) <= max_len), key=len, default=tries[0])
        if roll >= 0.6:
            s = _mutate(rng, s, alphabet)
    else:
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
    return s[:max_len]
