"""Clause and rule data model for the grammar graph.

A grammar is a set of named rules, each owning a tree (after assembly, a
graph) of clauses.  Clause kinds split into three groups:

* core operators: Seq, First, OneOrMore, NotFollowedBy
* terminals: Char, CharSet, Str, Nothing
* surface sugar, lowered onto core clauses by assembly: FollowedBy, Optional,
  ZeroOrMore

RuleRef is a placeholder leaf naming another rule; grammar assembly replaces
every RuleRef with a direct object reference, so none survive preprocessing.

AST labels live on the parent edge (a tuple parallel to sub_clauses), not on
the child clause.  Interning shares one clause object across every occurrence
of the same written structure, so a per-occurrence label cannot be a field of
the child.
"""
from __future__ import annotations


LEFT = "L"
RIGHT = "R"


class GrammarError(ValueError):
    """Raised for structurally invalid grammars."""


class GrammarWarning(UserWarning):
    """Non-fatal grammar oddities, e.g. a dead First alternative."""


# Display precedence levels, loosest to tightest.
_PREC_FIRST = 0
_PREC_SEQ = 1
_PREC_PREFIX = 2
_PREC_SUFFIX = 3
_PREC_ATOM = 4

_CHAR_ESCAPES = {"\n": "\\n", "\r": "\\r", "\t": "\\t", "\\": "\\\\"}


def _escape_char(ch: str, also: str) -> str:
    esc = _CHAR_ESCAPES.get(ch)
    if esc is not None:
        return esc
    if ch in also:
        return "\\" + ch
    cp = ord(ch)
    if cp < 0x20 or 0x7F <= cp < 0xA0:
        return "\\u%04X" % cp
    return ch


def escape_literal(s: str) -> str:
    """Escape a string for a single-quoted grammar literal."""
    return "".join(_escape_char(c, "'") for c in s)


def escape_set_char(ch: str) -> str:
    """Escape a character for use inside a character-set display."""
    if ch == "-":
        return "\\u002D"
    return _escape_char(ch, "]^")


class Clause:
    """Base class for all grammar clauses.

    The analysis fields (clause_idx, can_match_zero_chars, zero_idx,
    reaches_label) are populated by grammar assembly and are meaningless
    before it.
    """

    __slots__ = (
        "sub_clauses",
        "sub_clause_labels",
        "clause_idx",
        "can_match_zero_chars",
        "zero_idx",
        "reaches_label",
    )

    min_arity = 0
    max_arity = 0
    is_terminal = False
    # How a composite kind renders: (its own precedence, text before its
    # operands, text between them, text after them, precedence context of
    # each operand).  None marks a leaf, which renders as _leaf_text() and
    # binds tightest.
    display_form = None

    def __init__(self, sub_clauses=(), labels=None):
        subs = tuple(sub_clauses)
        n = len(subs)
        if n < self.min_arity or (self.max_arity is not None and n > self.max_arity):
            raise GrammarError(
                "%s takes %s subclauses, got %d"
                % (type(self).__name__, self._arity_text(), n)
            )
        self.sub_clauses = subs
        self.sub_clause_labels = tuple(labels) if labels is not None else (None,) * n
        if len(self.sub_clause_labels) != n:
            raise GrammarError("label tuple length does not match subclause count")
        self.clause_idx = -1
        self.can_match_zero_chars = False
        self.zero_idx = 0
        self.reaches_label = True

    @classmethod
    def _arity_text(cls):
        if cls.min_arity == cls.max_arity:
            return str(cls.min_arity)
        if cls.max_arity is None:
            return "%d or more" % cls.min_arity
        return "%d..%d" % (cls.min_arity, cls.max_arity)

    def payload(self):
        """Kind-specific structural identity beyond subclauses.  For a leaf
        kind it is also the constructor's arguments."""
        return ()

    def display(self, names=None, ctx=_PREC_FIRST):
        """Canonical re-parseable text.

        names maps id(clause) to a rule name; rendering stops at named
        boundaries, which also keeps the cyclic graphs assembly produces
        printable.  A cycle hit without a name renders as "..." instead of
        recursing forever.  ctx -1 renders this clause's own body even when
        it is named.  Iterative, so any clause depth renders.
        """
        out = []
        on_path = set()
        # Items: text to emit, a (clause, ctx) to render, or the id of a
        # clause whose operands are all rendered.
        stack = [(self, ctx)]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            if type(item) is int:
                on_path.discard(item)
                continue
            c, ctx = item
            if names and ctx != -1:
                nm = names.get(id(c))
                if nm is not None:
                    out.append(nm)
                    continue
            form = c.display_form
            if form is None:
                out.append(c._leaf_text())
                continue
            if id(c) in on_path:
                out.append("...")
                continue
            prec, prefix, sep, suffix, sub_ctx = form
            if prec < ctx:
                prefix, suffix = "(" + prefix, suffix + ")"
            out.append(prefix)
            on_path.add(id(c))
            # The rest goes on the stack last part first.
            stack += [id(c), suffix]
            labels = c.sub_clause_labels
            for i in range(len(labels) - 1, -1, -1):
                label = labels[i]
                if label is None:
                    stack.append((c.sub_clauses[i], sub_ctx))
                elif sub_ctx > _PREC_PREFIX:
                    # A labeled operand binds at prefix level.
                    stack += [")", (c.sub_clauses[i], _PREC_PREFIX), "(" + label + ":"]
                else:
                    stack += [(c.sub_clauses[i], _PREC_PREFIX), label + ":"]
                if i:
                    stack.append(sep)
        return "".join(out)

    def __repr__(self):
        return self.display()


class Seq(Clause):
    __slots__ = ()
    min_arity = 2
    max_arity = None
    display_form = (_PREC_SEQ, "", " ", "", _PREC_PREFIX)


class First(Clause):
    __slots__ = ()
    min_arity = 2
    max_arity = None
    display_form = (_PREC_FIRST, "", " / ", "", _PREC_SEQ)


class OneOrMore(Clause):
    """X+.  Assembly sets chained unless told to keep repetitions greedy.
    A chained repetition matches the way the paper's does, right-
    recursively: one X, then its own match where that X ends.  A greedy one
    holds every repeat as a child, so a run of k repeats stores k(k+1)/2
    children over its start positions."""

    __slots__ = ("chained",)
    min_arity = 1
    max_arity = 1
    display_form = (_PREC_SUFFIX, "", "", "+", _PREC_ATOM)

    def __init__(self, sub_clauses=(), labels=None):
        super().__init__(sub_clauses, labels)
        self.chained = False


class NotFollowedBy(Clause):
    __slots__ = ()
    min_arity = 1
    max_arity = 1
    display_form = (_PREC_PREFIX, "!", "", "", _PREC_PREFIX)


class FollowedBy(Clause):
    """Surface sugar: &X desugars to !!X."""

    __slots__ = ()
    min_arity = 1
    max_arity = 1
    display_form = (_PREC_PREFIX, "&", "", "", _PREC_PREFIX)


class Optional(Clause):
    """Surface sugar: X? desugars to (X / ())."""

    __slots__ = ()
    min_arity = 1
    max_arity = 1
    display_form = (_PREC_SUFFIX, "", "", "?", _PREC_ATOM)


class ZeroOrMore(Clause):
    """Surface sugar: X* desugars to (X+ / ())."""

    __slots__ = ()
    min_arity = 1
    max_arity = 1
    display_form = (_PREC_SUFFIX, "", "", "*", _PREC_ATOM)


class Terminal(Clause):
    __slots__ = ()
    is_terminal = True


class Nothing(Terminal):
    """Matches the empty string at every position."""

    __slots__ = ()

    def _leaf_text(self):
        return "()"


class Char(Terminal):
    __slots__ = ("char",)

    def __init__(self, char: str):
        if len(char) != 1:
            raise GrammarError("Char takes exactly one character")
        super().__init__()
        self.char = char

    def payload(self):
        return (self.char,)

    def _leaf_text(self):
        return "'" + escape_literal(self.char) + "'"


class CharSet(Terminal):
    """A set of character ranges, optionally negated.

    Ranges are normalized (sorted, merged) so structural identity and display
    are independent of the written order.
    """

    __slots__ = ("ranges", "negated")

    def __init__(self, ranges, negated=False):
        super().__init__()
        norm = sorted((lo, hi) for lo, hi in ranges)
        merged = []
        for lo, hi in norm:
            if lo > hi:
                raise GrammarError("inverted character range")
            if merged and lo <= merged[-1][1] + 1:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        if not merged and not negated:
            raise GrammarError("empty character set can never match")
        self.ranges = tuple(merged)
        self.negated = bool(negated)

    @classmethod
    def of(cls, chars: str, negated=False) -> "CharSet":
        return cls([(ord(c), ord(c)) for c in chars], negated)

    def payload(self):
        return (self.ranges, self.negated)

    def matches_char(self, ch: str) -> bool:
        cp = ord(ch)
        # The ranges are sorted and disjoint, so the first one that does not
        # end below cp is the only one that can hold it.
        for lo, hi in self.ranges:
            if cp <= hi:
                return (lo <= cp) != self.negated
        return self.negated

    def _leaf_text(self):
        parts = []
        for lo, hi in self.ranges:
            if lo == hi:
                parts.append(escape_set_char(chr(lo)))
            elif hi == lo + 1:
                parts.append(escape_set_char(chr(lo)) + escape_set_char(chr(hi)))
            else:
                parts.append(escape_set_char(chr(lo)) + "-" + escape_set_char(chr(hi)))
        return "[" + ("^" if self.negated else "") + "".join(parts) + "]"


class Str(Terminal):
    __slots__ = ("string",)

    def __init__(self, string: str):
        if len(string) < 2:
            raise GrammarError("Str needs two or more characters; use Char or Nothing")
        super().__init__()
        self.string = string

    def payload(self):
        return (self.string,)

    def _leaf_text(self):
        return "'" + escape_literal(self.string) + "'"


class RuleRef(Clause):
    """Named reference to a rule; resolved away during assembly."""

    __slots__ = ("rule_name",)

    def __init__(self, rule_name: str):
        super().__init__()
        self.rule_name = rule_name

    def payload(self):
        return (self.rule_name,)

    def _leaf_text(self):
        return self.rule_name


class Rule:
    """A named rule.  precedence/associativity only appear on rules declared
    with the bracket shorthand; alias marks the base-name rule generated for
    a precedence group."""

    __slots__ = (
        "name",
        "clause",
        "precedence",
        "associativity",
        "alias",
        "precedence_group",
    )

    def __init__(
        self,
        name: str,
        clause: Clause,
        precedence=None,
        associativity=None,
        alias=False,
        precedence_group=None,
    ):
        if associativity not in (None, LEFT, RIGHT):
            raise GrammarError("associativity must be %r or %r" % (LEFT, RIGHT))
        self.name = name
        self.clause = clause
        self.precedence = precedence
        self.associativity = associativity
        self.alias = alias
        self.precedence_group = precedence_group

    def __repr__(self):
        ann = ""
        if self.precedence is not None:
            ann = "[%d%s]" % (
                self.precedence,
                "," + self.associativity if self.associativity else "",
            )
        return "%s%s <- %r" % (self.name, ann, self.clause)
