"""Text form of grammars: parser, precedence rewriting, and renderer.

Grammar syntax, one rule per declaration:

    Name <- body ;
    Name[level] <- body ;          precedence shorthand
    Name[level,L] <- body ;        with associativity (L or R)

Bodies combine, loosest to tightest binding:

    a / b         ordered choice (first match wins)
    a b           sequence
    label:a       AST label on the operand
    !a  &a        negative / positive lookahead
    a+  a*  a?    one or more, zero or more, optional
    'text'        literal ('' matches nothing), escapes \\n \\r \\t \\\\ \\' \\uXXXX
    [a-z0-9]      character set, [^...] negated, [^] any character
    ()            the empty match
    Name          reference to another rule
    ( ... )       grouping

Comments run from # to end of line.  Groups and operators nest at most
MAX_NESTING (100) levels deep.

Rules sharing a name with bracketed levels form one precedence hierarchy:
each level becomes its own rule (base name + level), references to the base
name inside a level resolve to the right neighbouring level for the written
associativity, every level except the highest falls through to the next
tighter level, and the highest wraps back to the lowest, which also gets
the base name as an alias.  This reproduces the usual hand-written
precedence-climbing encoding, including left-recursive heads for
L-associative levels.
"""
from __future__ import annotations

from .clauses import (
    Char,
    CharSet,
    Clause,
    First,
    FollowedBy,
    GrammarError,
    Nothing,
    NotFollowedBy,
    OneOrMore,
    Optional,
    Rule,
    RuleRef,
    Seq,
    Str,
    ZeroOrMore,
)
from .grammar import Grammar, assemble_grammar


class GrammarSyntaxError(GrammarError):
    """A grammar text that does not parse; message carries line, column,
    and a caret-marked copy of the offending line."""

    def __init__(self, message, line, col, line_text):
        self.line = line
        self.col = col
        super().__init__(
            "line %d, column %d: %s\n  %s\n  %s^"
            % (line, col, message, line_text, " " * (col - 1))
        )


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789~")
_ESCAPES = {
    "n": "\n",
    "r": "\r",
    "t": "\t",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "[": "[",
    "]": "]",
    "^": "^",
    "-": "-",
}


# Deepest operator nesting a rule body may use: groups, prefix operators and
# suffix operators each count one level.  The parser recurses several frames
# per level, so past this a grammar text is a syntax error rather than a
# RecursionError.  It also keeps texts inside grammar.MAX_CLAUSE_DEPTH.
MAX_NESTING = 100

_SUFFIXES = {"+": OneOrMore, "*": ZeroOrMore, "?": Optional}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.n = len(text)
        self.i = 0
        self.depth = 0  # groups and prefix operators open at self.i
        self.deepest = 0  # deepest level reached in the operand being parsed

    # -- low level ---------------------------------------------------------

    def error(self, message, at=None):
        pos = self.i if at is None else at
        pos = min(pos, self.n)
        line_start = self.text.rfind("\n", 0, pos) + 1
        line_end = self.text.find("\n", pos)
        if line_end < 0:
            line_end = self.n
        line_no = self.text.count("\n", 0, pos) + 1
        raise GrammarSyntaxError(
            message, line_no, pos - line_start + 1, self.text[line_start:line_end]
        )

    def ws(self):
        t, n = self.text, self.n
        i = self.i
        while i < n:
            c = t[i]
            if c in " \t\r\n":
                i += 1
            elif c == "#":
                j = t.find("\n", i)
                i = n if j < 0 else j + 1
            else:
                break
        self.i = i

    def at(self, s) -> bool:
        return self.text.startswith(s, self.i)

    def eat(self, s) -> bool:
        if self.text.startswith(s, self.i):
            self.i += len(s)
            return True
        return False

    def nest(self, levels, at):
        if levels > MAX_NESTING:
            self.error("nesting deeper than %d levels" % MAX_NESTING, at=at)
        self.deepest = max(self.deepest, levels)

    def expect(self, s, what=None):
        if not self.eat(s):
            self.error("expected %s" % (what or repr(s)))

    def name(self):
        t, n = self.text, self.n
        i = self.i
        if i >= n or t[i] not in _NAME_START:
            return None
        j = i + 1
        while j < n and t[j] in _NAME_CONT:
            j += 1
        self.i = j
        return t[i:j]

    # -- grammar structure -------------------------------------------------

    def rules(self):
        out = []
        self.ws()
        if self.i >= self.n:
            self.error("a grammar needs at least one rule")
        while self.i < self.n:
            out.append(self.rule_decl())
            self.ws()
        return out

    def rule_decl(self):
        start = self.i
        nm = self.name()
        if nm is None:
            self.error("expected a rule name")
        prec = assoc = None
        if self.eat("["):
            prec = self.int_literal()
            if self.eat(","):
                self.ws()
                if self.eat("L"):
                    assoc = "L"
                elif self.eat("R"):
                    assoc = "R"
                else:
                    self.error("expected L or R after precedence level")
            self.ws()
            self.expect("]", "']' closing the precedence bracket")
        self.ws()
        self.expect("<-", "'<-' after the rule name")
        self.ws()
        body = self.choice()
        self.ws()
        if not self.eat(";"):
            self.error("expected ';' to end rule %r" % nm, at=self.i)
        try:
            return Rule(nm, body, precedence=prec, associativity=assoc)
        except GrammarError as exc:
            self.error(str(exc), at=start)

    def int_literal(self):
        self.ws()
        start = self.i
        if self.at("-"):
            self.error("precedence levels cannot be negative")
        t, n = self.text, self.n
        j = self.i
        while j < n and t[j].isdigit():
            j += 1
        if j == self.i:
            self.error("expected a precedence level (a nonnegative integer)")
        self.i = j
        return int(t[start:j])

    def choice(self):
        parts = [self.sequence()]
        while True:
            save = self.i
            self.ws()
            if not self.eat("/"):
                self.i = save
                break
            self.ws()
            parts.append(self.sequence())
        if len(parts) == 1:
            return parts[0]
        return First(tuple(parts))

    def sequence(self):
        items = []
        labels = []
        while True:
            save = self.i
            self.ws()
            got = self.labeled()
            if got is None:
                self.i = save
                break
            clause, label = got
            items.append(clause)
            labels.append(label)
        if not items:
            self.error("expected a clause")
        if len(items) == 1:
            single, label = items[0], labels[0]
            if label is not None:
                # A labeled lone operand still needs an edge to carry the
                # label, so wrap it in a transparent sequence with ().
                return Seq((single, Nothing()), (label, None))
            return single
        return Seq(tuple(items), tuple(labels))

    def labeled(self):
        save = self.i
        nm = self.name()
        if nm is not None and self.eat(":"):
            clause = self.prefixed()
            if clause is None:
                self.error("expected a clause after label %r" % nm)
            return clause, nm
        self.i = save
        clause = self.prefixed()
        if clause is None:
            return None
        return clause, None

    def prefixed(self):
        for op, kind in (("!", NotFollowedBy), ("&", FollowedBy)):
            if self.at(op):
                self.depth += 1
                self.nest(self.depth, self.i)
                self.i += 1
                self.ws()
                sub = self.prefixed()
                if sub is None:
                    self.error("expected a clause after %r" % op)
                self.depth -= 1
                return kind((sub,))
        return self.suffixed()

    def suffixed(self):
        outer = self.deepest
        self.deepest = self.depth
        c = self.atom()
        while c is not None:
            kind = _SUFFIXES.get(self.text[self.i : self.i + 1])
            if kind is None:
                break
            self.nest(self.deepest + 1, self.i)
            self.i += 1
            c = kind((c,))
        self.deepest = max(outer, self.deepest)
        return c

    def atom(self):
        if self.at("("):
            start = self.i
            self.eat("(")
            self.ws()
            if self.eat(")"):
                return Nothing()
            self.depth += 1
            self.nest(self.depth, start)
            inner = self.choice()
            self.depth -= 1
            self.ws()
            if not self.eat(")"):
                self.error("expected ')' to close the group opened here", at=start)
            return inner
        if self.at("'"):
            return self.literal()
        if self.at("["):
            return self.char_set()
        save = self.i
        nm = self.name()
        if nm is not None:
            return RuleRef(nm)
        self.i = save
        return None

    def literal(self):
        start = self.i
        self.eat("'")
        chars = []
        t, n = self.text, self.n
        while True:
            if self.i >= n or t[self.i] == "\n":
                self.error("unterminated literal", at=start)
            c = t[self.i]
            if c == "'":
                self.i += 1
                break
            if c == "\\":
                chars.append(self.escape())
            else:
                self.i += 1
                chars.append(c)
        s = "".join(chars)
        if not s:
            return Nothing()
        if len(s) == 1:
            return Char(s)
        return Str(s)

    def escape(self):
        start = self.i
        self.eat("\\")
        if self.i >= self.n:
            self.error("dangling escape", at=start)
        c = self.text[self.i]
        if c == "u":
            hexpart = self.text[self.i + 1 : self.i + 5]
            if len(hexpart) != 4 or any(h not in "0123456789abcdefABCDEF" for h in hexpart):
                self.error("\\u needs four hex digits", at=start)
            self.i += 5
            return chr(int(hexpart, 16))
        rep = _ESCAPES.get(c)
        if rep is None:
            self.error("unknown escape '\\%s'" % c, at=start)
        self.i += 1
        return rep

    def char_set(self):
        start = self.i
        self.eat("[")
        negated = self.eat("^")
        ranges = []
        t = self.text
        while True:
            if self.i >= self.n or t[self.i] == "\n":
                self.error("unterminated character set", at=start)
            if self.eat("]"):
                break
            lo = self.set_char()
            if self.at("-") and not self.at("-]") and self.i + 1 < self.n:
                self.eat("-")
                hi = self.set_char()
            else:
                hi = lo
            if hi < lo:
                self.error("character range runs backwards", at=start)
            ranges.append((lo, hi))
        if not ranges and not negated:
            self.error("an empty character set can never match", at=start)
        return CharSet(ranges, negated)

    def set_char(self):
        if self.i >= self.n:
            self.error("unterminated character set")
        c = self.text[self.i]
        if c == "\\":
            return ord(self.escape())
        self.i += 1
        return ord(c)


def parse_rules(text: str) -> list[Rule]:
    """Parse grammar text into surface rules: references unresolved, sugar
    and precedence shorthand intact."""
    return _Parser(text).rules()


# ---------------------------------------------------------------------------
# precedence shorthand

# Most references to its base name that one precedence level's body may
# hold.  Expansion rebuilds a clause per reference, so a clause DAG whose
# references unfold into a huge tree is refused before any rebuilding.
MAX_SELF_REFERENCES = 1000


def _replace_self_refs(clause: Clause, base: str, decide):
    """Rebuild clause with the k-th (preorder) of its n references to base
    replaced by decide(k, n); returns (n, the new clause).

    Iterative, so a clause of any depth gets as far as assembly's depth
    check.  The first walk visits each distinct clause once and counts the
    references under it, an occurrence of a shared clause counting once
    per occurrence.  The second walk rebuilds in preorder every clause
    that holds a reference and returns the rest as they are, without
    walking them, so a clause DAG costs its size, not its size unfolded
    into a tree.  A clause built in code that contains itself is a
    GrammarError, not an endless walk, and so is n above
    MAX_SELF_REFERENCES.
    """
    refs = {}
    on_path = set()
    stack = [(clause, False)]
    while stack:
        c, leaving = stack.pop()
        if leaving:
            on_path.discard(c)
            refs[c] = (isinstance(c, RuleRef) and c.rule_name == base) + sum(
                map(refs.__getitem__, c.sub_clauses)
            )
        elif c in on_path:
            raise GrammarError("clause %r contains itself" % c)
        elif c not in refs:
            on_path.add(c)
            stack.append((c, True))
            stack.extend((s, False) for s in reversed(c.sub_clauses))
    n = refs[clause]
    if n > MAX_SELF_REFERENCES:
        raise GrammarError(
            "a level of rule %r refers to %r %d times; at most %d are allowed"
            % (base, base, n, MAX_SELF_REFERENCES)
        )
    built = []
    k = 0
    stack = [(clause, False)]
    while stack:
        c, leaving = stack.pop()
        if leaving:
            arity = len(c.sub_clauses)
            subs = tuple(built[-arity:])
            del built[-arity:]
            built.append(type(c)(subs, c.sub_clause_labels))
        elif not refs[c]:
            built.append(c)
        elif isinstance(c, RuleRef):
            built.append(decide(k, n))
            k += 1
        else:
            stack.append((c, True))
            stack.extend((s, False) for s in reversed(c.sub_clauses))
    return n, built[0]


def rewrite_precedence_hierarchy(rules) -> list[Rule]:
    """Expand bracket-shorthand groups into plain rules.

    Each level of a group becomes its own rule named base+level.  Within a
    level's body, references to the base name become: the next tighter
    level; or, for one self-reference per level, the level itself (first
    reference when left-associative, last when right-associative, and the
    sole reference of a single-self-reference level, which admits matching
    the same level again).  Every level except the tightest then falls
    through to the next tighter level, and the tightest wraps back to the
    loosest.  The base name becomes an alias for the loosest level.
    """
    groups = {}
    plain = set()
    for r in rules:
        if r.precedence is not None:
            groups.setdefault(r.name, []).append(r)
        else:
            plain.add(r.name)
    for base in groups:
        if base in plain:
            raise GrammarError(
                "rule %r is declared both with and without a precedence level"
                % base
            )
        seen = set()
        for r in groups[base]:
            if r.precedence in seen:
                raise GrammarError(
                    "duplicate precedence level %d for rule %r"
                    % (r.precedence, base)
                )
            seen.add(r.precedence)

    out = []
    emitted = set()
    for r in rules:
        if r.precedence is None:
            out.append(r)
            continue
        base = r.name
        if base in emitted:
            continue
        emitted.add(base)
        members = groups[base]
        levels = sorted(m.precedence for m in members)
        by_level = {m.precedence: m for m in members}
        index = {p: i for i, p in enumerate(levels)}
        n = len(levels)
        lowest_name = "%s%d" % (base, levels[0])
        out.append(
            Rule(base, RuleRef(lowest_name), alias=True, precedence_group=base)
        )
        for m in members:
            i = index[m.precedence]
            curr = "%s%d" % (base, m.precedence)
            nxt = "%s%d" % (base, levels[(i + 1) % n])
            highest = i == n - 1

            def decide(k, refs, m=m, curr=curr, nxt=nxt, highest=highest):
                if refs >= 2 and m.associativity == "L":
                    return RuleRef(curr if k == 0 else nxt)
                if refs >= 2 and m.associativity == "R":
                    return RuleRef(curr if k == refs - 1 else nxt)
                if refs >= 2:
                    return RuleRef(nxt)
                # A single self-reference: the highest level wraps straight
                # to the lowest; other levels may match their own level
                # again, so the reference becomes (curr / next).
                if highest:
                    return RuleRef(nxt)
                return First((RuleRef(curr), RuleRef(nxt)))

            refs, body = _replace_self_refs(m.clause, base, decide)
            if m.associativity is not None and refs < 2:
                raise GrammarError(
                    "rule %s[%d,%s] declares associativity but has %d "
                    "reference%s to %r; associativity needs at least two"
                    % (base, m.precedence, m.associativity, refs,
                       "" if refs == 1 else "s", base)
                )
            if not highest:
                body = First((body, RuleRef(nxt)))
            out.append(
                Rule(
                    curr,
                    body,
                    precedence=m.precedence,
                    associativity=m.associativity,
                    precedence_group=base,
                )
            )
    return out


# ---------------------------------------------------------------------------
# top level

def compile_grammar(text: str, start_rule=None, rewrite_repetitions=True) -> Grammar:
    """Parse grammar text, expand precedence shorthand, and assemble."""
    rules = parse_rules(text)
    rules = rewrite_precedence_hierarchy(rules)
    return assemble_grammar(rules, start_rule, rewrite_repetitions)


def render_grammar(grammar: Grammar) -> str:
    """Canonical text of an assembled grammar, one rule per line.

    Reparsing the result gives a grammar matching the same inputs.  The
    text spells the lowered core clauses, so sugar shows up in its lowered
    form (X* as (X+ / ())); whether repetitions are chained is not spelled,
    so both assembly modes render the same text.
    """
    names = grammar.names
    lines = []
    for r in grammar.rules:
        owner = names.get(id(r.clause))
        if owner is not None and owner != r.name:
            body = owner
        else:
            body = r.clause.display(names, -1)
        lines.append("%s <- %s;" % (r.name, body))
    return "\n".join(lines) + "\n"
