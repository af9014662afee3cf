"""The matching engine: a packrat memo table filled bottom-up.

Instead of recursive descent, the table is populated one input position at a
time, from the last position to the first.  Within a position, a priority
queue drains clauses in bottom-up order (lowest clause_idx first), and every
stored or improved match reschedules the seed parents that could start at
the same position, and nothing else schedules a clause.  Terminals are
dispatched on the position's character: only the terminals that can start
with it are tried, and the character alone decides a single-character
terminal.  A clause that can match zero characters and that nothing
evaluated at a position reads as a zero-length match there, so the fill
never needs to evaluate a clause only to find its empty match.  Because
everything to the right of the current position is already final, a clause's
match can reference cyclic (left-recursive) structure through the memo table
without infinite regress: improvements propagate around the cycle until a
fixed point.

Match improvement ordering: a new match beats a stored one if the clause is
an ordered choice and the new match uses an earlier alternative, or if the
new match is longer.

Each parse compiles every clause into a matcher: a closure over pos built by
its kind's factory (`make_matcher`), bound to one reader per subclause.  A
reader is the subclause table's dict.get for a clause that cannot match zero
characters, a reader that falls back to a childless zero-length match for
one that can, and the lookahead chain's own matcher for a NotFollowedBy.
The factories are the one definition of what each operator means: the
top-down reference evaluator builds its matchers with them too, reading
through its own memo, and `match_clause` wraps them for an arbitrary lookup
function.  The watermark check lives in the matchers: each compares every
read it makes at another position with its own pos, and the fill calls
matchers only at the column it fills, so a read left of the column is
counted in watermark_violations.
"""
from __future__ import annotations

import heapq
from bisect import bisect_right

from .clauses import (
    Char,
    CharSet,
    First,
    Nothing,
    NotFollowedBy,
    OneOrMore,
    Seq,
    Str,
)
from .grammar import Grammar, same_position_subs


class Match:
    """A clause match spanning [pos, pos+len).

    sub_matches holds the child matches in input order: every element for a
    sequence, the single chosen alternative for an ordered choice (alt_idx
    records which), one element per repeat for a greedy repetition, the
    first repeat and then the match of the rest (if any) for a chained one,
    and nothing for terminals, lookaheads, and synthesized zero-length
    matches.
    """

    __slots__ = ("clause", "pos", "len", "sub_matches", "alt_idx")

    def __init__(self, clause, pos, length, sub_matches=(), alt_idx=0):
        self.clause = clause
        self.pos = pos
        self.len = length
        self.sub_matches = sub_matches
        self.alt_idx = alt_idx

    @property
    def end(self):
        return self.pos + self.len

    def __repr__(self):
        return "<Match %s [%d,%d)>" % (
            type(self.clause).__name__,
            self.pos,
            self.pos + self.len,
        )


# ---------------------------------------------------------------------------
# per-kind matching semantics

# One factory per clause kind; make_matcher says what they build.


def _unchecked():
    pass


def _seq_matcher(clause, text, read, late):
    readers = tuple(map(read, clause.sub_clauses))
    if len(readers) == 2:
        r0, r1 = readers

        def seq2(pos):
            m0 = r0(pos)
            if m0 is None:
                return None
            at = pos + m0.len
            if at < pos:
                late()
            m1 = r1(at)
            if m1 is None:
                return None
            return Match(clause, pos, at + m1.len - pos, (m0, m1))

        return seq2
    if len(readers) == 3:
        r0, r1, r2 = readers

        def seq3(pos):
            m0 = r0(pos)
            if m0 is None:
                return None
            at = pos + m0.len
            if at < pos:
                late()
            m1 = r1(at)
            if m1 is None:
                return None
            at += m1.len
            if at < pos:
                late()
            m2 = r2(at)
            if m2 is None:
                return None
            return Match(clause, pos, at + m2.len - pos, (m0, m1, m2))

        return seq3
    head, rest = readers[0], readers[1:]

    def seq(pos):
        m = head(pos)
        if m is None:
            return None
        subs = [m]
        at = pos + m.len
        for r in rest:
            if at < pos:
                late()
            m = r(at)
            if m is None:
                return None
            subs.append(m)
            at += m.len
        return Match(clause, pos, at - pos, tuple(subs))

    return seq


def _first_matcher(clause, text, read, late):
    readers = tuple(map(read, clause.sub_clauses))
    if len(readers) == 2:
        r0, r1 = readers

        def first2(pos):
            m = r0(pos)
            if m is not None:
                return Match(clause, pos, m.len, (m,))
            m = r1(pos)
            if m is not None:
                return Match(clause, pos, m.len, (m,), 1)
            return None

        return first2

    def first(pos):
        for i, r in enumerate(readers):
            m = r(pos)
            if m is not None:
                return Match(clause, pos, m.len, (m,), i)
        return None

    return first


def _one_or_more_matcher(clause, text, read, late):
    r = read(clause.sub_clauses[0])
    if clause.chained:
        # Right-recursive, as in the paper: the first repeat, then this
        # clause's match where it ends.  That read lies right of pos, so
        # the right-to-left fill has already made it final.
        again = read(clause)

        def chained(pos):
            m = r(pos)
            if m is None:
                return None
            at = pos + m.len
            if at < pos:
                late()
            rest = again(at)
            if rest is None:
                return Match(clause, pos, m.len, (m,))
            return Match(clause, pos, m.len + rest.len, (m, rest))

        return chained

    # Greedy: consume every repeat up front and keep the repeats as direct
    # children.
    def greedy(pos):
        m = r(pos)
        if m is None:
            return None
        subs = [m]
        at = pos + m.len
        while m.len:
            if at < pos:
                late()
            m = r(at)
            if m is None:
                break
            subs.append(m)
            at += m.len
        return Match(clause, pos, at - pos, tuple(subs))

    return greedy


def _not_followed_by_matcher(clause, text, read, late):
    # A chain of directly nested NotFollowedBy clauses is walked here, once,
    # each level flipping the answer, and only the innermost operand is
    # read, so no level recurses into the next.  Assembly rejects chains
    # that loop.
    on_miss = True  # the chain matches when its innermost operand misses
    sub = clause.sub_clauses[0]
    while type(sub) is NotFollowedBy:
        on_miss = not on_miss
        sub = sub.sub_clauses[0]
    r = read(sub)

    def not_followed_by(pos):
        if (r(pos) is None) == on_miss:
            return Match(clause, pos, 0)
        return None

    return not_followed_by


def _char_matcher(clause, text, read, late):
    ch, n = clause.char, len(text)

    def char(pos):
        if pos < n and text[pos] == ch:
            return Match(clause, pos, 1)
        return None

    return char


def _char_set_matcher(clause, text, read, late):
    matches, n = clause.matches_char, len(text)

    def char_set(pos):
        if pos < n and matches(text[pos]):
            return Match(clause, pos, 1)
        return None

    return char_set


def _str_matcher(clause, text, read, late):
    string, k = clause.string, len(clause.string)

    def str_(pos):
        if text.startswith(string, pos):
            return Match(clause, pos, k)
        return None

    return str_


def _nothing_matcher(clause, text, read, late):
    def nothing(pos):
        return Match(clause, pos, 0)

    return nothing


_FACTORIES = {
    Seq: _seq_matcher,
    First: _first_matcher,
    OneOrMore: _one_or_more_matcher,
    NotFollowedBy: _not_followed_by_matcher,
    Char: _char_matcher,
    CharSet: _char_set_matcher,
    Str: _str_matcher,
    Nothing: _nothing_matcher,
}


def make_matcher(clause, text, read, late=_unchecked):
    """Build clause's matcher over text: a function of pos returning the
    clause's Match at pos, or None.

    read(sub) must return a function of pos that gives subclause sub's
    Match there, or None; it is called while the matcher is built, and
    never for a terminal.  late() is called for any read the matcher would
    make left of its own pos, which correct matchers never do.
    """
    return _FACTORIES[type(clause)](clause, text, read, late)


def match_clause(clause, pos, text, lookup):
    """Match one clause at pos, resolving subclauses through lookup.

    lookup(sub, pos) must return a Match or None; it is never called for
    terminals' characters, which are checked against text directly.
    """
    return make_matcher(clause, text, lambda sub: lambda at: lookup(sub, at))(pos)


# ---------------------------------------------------------------------------
# the memo table

class MemoTable:
    """Stored matches per (clause, position), plus the machinery to fill them.

    The table never stores matches for the always-empty terminal, and for
    a grammar that assembles without a GrammarWarning it holds no
    zero-length match at all: lookup fabricates those on demand for
    clauses that can match zero characters.

    watermark_violations counts reads the fill made left of the column
    being filled; the fill order makes such reads unsound, so the counter
    staying at zero is a cheap invariant check.
    """

    def __init__(self, grammar: Grammar, text: str):
        self.grammar = grammar
        self.text = text
        clauses = grammar.all_clauses
        self._tables = [dict() for _ in clauses]
        self._positions_cache = {}
        self.watermark_violations = 0
        # One reader per clause, the same functions that matchers read
        # their subclauses through.  NotFollowedBy is never scheduled (it
        # seeds nothing and is no seed parent), so its table stays empty and
        # its reader is its matcher, which reads only a non-lookahead
        # operand.  A clause that can match zero characters reads as a
        # childless zero-length match where nothing is stored.
        readers = self._readers = [
            _or_empty(c, tbl.get) if c.can_match_zero_chars else tbl.get
            for c, tbl in zip(clauses, self._tables)
        ]
        for i, c in enumerate(clauses):
            if type(c) is NotFollowedBy:
                readers[i] = make_matcher(c, text, self._reader)

    def _reader(self, clause):
        return self._readers[clause.clause_idx]

    # -- queries ----------------------------------------------------------

    def stored(self, clause, pos):
        """The stored match for clause at pos, or None.  No synthesis."""
        return self._tables[clause.clause_idx].get(pos)

    def lookup(self, clause, pos):
        """Best known match for clause at pos.

        Falls back from the stored table to on-demand evaluation for
        negative lookahead and to a childless zero-length match for any
        clause that can match zero characters.
        """
        return self._readers[clause.clause_idx](pos)

    def match_positions(self, clause):
        """Positions with a stored match for clause, descending.

        The fill stores right to left and an improvement replaces a value
        without re-inserting its key, so each per-clause dict's key order
        already is this list.  It is built on first request and cached,
        which is sound because queries come only after the fill.  Shared
        list; treat as read-only.
        """
        i = clause.clause_idx
        positions = self._positions_cache.get(i)
        if positions is None:
            positions = self._positions_cache[i] = list(self._tables[i])
        return positions

    def all_stored(self):
        for tbl in self._tables:
            yield from tbl.values()

    @property
    def stored_count(self):
        return sum(len(tbl) for tbl in self._tables)

    def start_match(self):
        """Best match of the start rule at position 0, if any."""
        return self.lookup(self.grammar.start_clause, 0)

    def matched_whole(self):
        m = self.start_match()
        return m is not None and m.len == len(self.text)

    # -- filling ----------------------------------------------------------

    def _run(self):
        grammar = self.grammar
        plan = grammar.fill_plan
        if plan is None:
            plan = grammar.fill_plan = FillPlan(grammar)
        parents = plan.parents
        bounds = plan.bounds
        entries = plan.entries
        clauses = grammar.all_clauses
        tables = self._tables
        text = self.text
        heappush = heapq.heappush
        heappop = heapq.heappop

        def late():
            self.watermark_violations += 1

        # The dispatch entries decide single-character terminals, which are
        # never evaluated.
        matchers = [
            None if type(c) in (Char, CharSet) else make_matcher(c, text, self._reader, late)
            for c in clauses
        ]
        for pos in range(len(text) - 1, -1, -1):
            k = bisect_right(bounds, ord(text[pos]))
            chars, heap, in_heap = entries[k] or plan.entry(k)
            heap = list(heap)
            in_heap = bytearray(in_heap)
            for idx in chars:
                tables[idx][pos] = Match(clauses[idx], pos, 1)
            # An evaluation stores its match if it is the clause's first or
            # an improvement (a longer match, or an earlier alternative of an
            # ordered choice: only its matches carry an alt_idx other than
            # 0), and then schedules every seed parent.  Otherwise the
            # clause's entry, and so what its parents read, is unchanged.
            while heap:
                idx = heappop(heap)
                in_heap[idx] = 0
                m = matchers[idx](pos)
                if m is not None:
                    tbl = tables[idx]
                    old = tbl.get(pos)
                    if old is None or m.len > old.len or m.alt_idx < old.alt_idx:
                        tbl[pos] = m
                        for i in parents[idx]:
                            if not in_heap[i]:
                                in_heap[i] = 1
                                heappush(heap, i)


def _or_empty(clause, get):
    """Read clause's stored match, or a childless zero-length one."""
    zero_idx = clause.zero_idx

    def read(pos):
        m = get(pos)
        if m is None:
            return Match(clause, pos, 0, (), zero_idx)
        return m

    return read


class FillPlan:
    """What filling a grammar's table needs beyond its clauses.

    Built on the grammar's first parse and kept as grammar.fill_plan.
    parents[i] holds the clause indices of clause i's seed parents, the
    clauses to reschedule when it stores or improves a match: every clause
    that lists it in same_position_subs, once each, in clause order.  A
    NotFollowedBy is evaluated on demand and is no one's seed parent,
    although its operand is tried at its own position.

    Terminals are dispatched on the column's character.  bounds splits the
    code points wherever a Char, a CharSet range or a Str's first character
    starts or stops, so every character of one interval starts the same
    terminals, and entries[k] describes interval k, which holds the code
    points cp with bisect_right(bounds, cp) == k.  An entry is built the
    first time a column's character falls in its interval, so the plan
    grows with the grammar, never with the texts parsed.
    """

    __slots__ = ("parents", "bounds", "entries", "_terminals")

    def __init__(self, grammar: Grammar):
        clauses = grammar.all_clauses
        self._terminals = [
            c for c in clauses if c.is_terminal and type(c) is not Nothing
        ]
        parents = [[] for _ in clauses]
        for p in clauses:
            if type(p) is not NotFollowedBy:
                for sub in dict.fromkeys(same_position_subs(p)):
                    parents[sub.clause_idx].append(p.clause_idx)
        self.parents = list(map(tuple, parents))
        bounds = set()
        for c in self._terminals:
            if type(c) is CharSet:
                for lo, hi in c.ranges:
                    bounds.update((lo, hi + 1))
            else:
                cp = ord(c.char if type(c) is Char else c.string[0])
                bounds.update((cp, cp + 1))
        self.bounds = sorted(bounds)
        self.entries = [None] * (len(self.bounds) + 1)

    def entry(self, k):
        """Interval k's entry: (single-char terminals that match, initial
        heap, in-heap flags).

        A terminal is decided by its own matcher on the interval's lowest
        code point (followed by the rest of a Str), so make_matcher stays
        the one definition of what each terminal matches.  The single-char
        terminals that match are stored without another call, and their
        seed parents are scheduled.  A Str that can start here is
        scheduled itself; terminals come first in clause order, so the
        heap tries it before any clause that reads it.  A terminal the
        character rules out schedules nothing.
        """
        ch = chr(self.bounds[k - 1]) if k else "\0"
        chars, scheduled = [], set()
        for t in self._terminals:
            kind = type(t)
            probe = ch + t.string[1:] if kind is Str else ch
            if make_matcher(t, probe, None)(0) is None:
                continue
            if kind is Str:
                scheduled.add(t.clause_idx)
            else:
                chars.append(t.clause_idx)
                scheduled.update(self.parents[t.clause_idx])
        in_heap = bytearray(len(self.parents))
        for i in scheduled:
            in_heap[i] = 1
        e = self.entries[k] = (
            tuple(chars),
            tuple(sorted(scheduled)),  # a sorted list is a heap
            bytes(in_heap),
        )
        return e


def parse(grammar: Grammar, text: str) -> MemoTable:
    """Populate a memo table for text and return it.

    The table is complete: afterwards it answers lookup() for every clause
    and position, which is what tree extraction and error recovery consume.
    """
    table = MemoTable(grammar, text)
    table._run()
    return table
