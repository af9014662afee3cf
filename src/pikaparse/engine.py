"""The matching engine: a packrat memo table filled bottom-up.

Instead of recursive descent, the table is populated one input position at a
time, from the last position to the first.  Within a position, a priority
queue drains clauses in bottom-up order (lowest clause_idx first): terminals
are tried against the input directly, and every stored or improved match
reschedules the seed parents that could start at the same position.  Because
everything to the right of the current position is already final, a clause's
match can reference cyclic (left-recursive) structure through the memo table
without infinite regress: improvements propagate around the cycle until a
fixed point.

Match improvement ordering: a new match beats a stored one if the clause is
an ordered choice and the new match uses an earlier alternative, or if the
new match is longer.

`match_clause` holds the per-kind matching semantics against an arbitrary
lookup function; the top-down reference evaluator reuses it so both engines
share one definition of what each operator means.
"""
from __future__ import annotations

import heapq

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
from .grammar import Grammar


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

def _match_seq(clause, pos, text, lookup):
    subs = []
    cur = pos
    for s in clause.sub_clauses:
        m = lookup(s, cur)
        if m is None:
            return None
        subs.append(m)
        cur += m.len
    return Match(clause, pos, cur - pos, tuple(subs))


def _match_first(clause, pos, text, lookup):
    for i, s in enumerate(clause.sub_clauses):
        m = lookup(s, pos)
        if m is not None:
            return Match(clause, pos, m.len, (m,), i)
    return None


def _match_one_or_more(clause, pos, text, lookup):
    sub = clause.sub_clauses[0]
    m = lookup(sub, pos)
    if m is None:
        return None
    if clause.chained:
        # Right-recursive, as in the paper: the first repeat, then this
        # clause's match where it ends.  That lookup lies right of pos, so
        # the right-to-left fill has already made it final.
        rest = lookup(clause, pos + m.len)
        if rest is None:
            return Match(clause, pos, m.len, (m,))
        return Match(clause, pos, m.len + rest.len, (m, rest))
    # Greedy: consume every repeat up front and keep the repeats as direct
    # children.
    subs = [m]
    cur = pos + m.len
    while m.len:
        m = lookup(sub, cur)
        if m is None:
            break
        subs.append(m)
        cur += m.len
    return Match(clause, pos, cur - pos, tuple(subs))


def _match_not_followed_by(clause, pos, text, lookup):
    # A chain of directly nested NotFollowedBy clauses is walked here, each
    # level flipping the answer, and only the innermost operand is looked
    # up, so no level recurses into the next.  Assembly rejects chains that
    # loop.
    on_miss = True  # the chain matches when its innermost operand misses
    sub = clause.sub_clauses[0]
    while type(sub) is NotFollowedBy:
        on_miss = not on_miss
        sub = sub.sub_clauses[0]
    if (lookup(sub, pos) is None) == on_miss:
        return Match(clause, pos, 0)
    return None


def _match_char(clause, pos, text, lookup):
    if pos < len(text) and text[pos] == clause.char:
        return Match(clause, pos, 1)
    return None


def _match_char_set(clause, pos, text, lookup):
    if pos < len(text) and clause.matches_char(text[pos]):
        return Match(clause, pos, 1)
    return None


def _match_str(clause, pos, text, lookup):
    if text.startswith(clause.string, pos):
        return Match(clause, pos, len(clause.string))
    return None


def _match_nothing(clause, pos, text, lookup):
    return Match(clause, pos, 0)


_MATCHERS = {
    Seq: _match_seq,
    First: _match_first,
    OneOrMore: _match_one_or_more,
    NotFollowedBy: _match_not_followed_by,
    Char: _match_char,
    CharSet: _match_char_set,
    Str: _match_str,
    Nothing: _match_nothing,
}


def match_clause(clause, pos, text, lookup):
    """Match one clause at pos, resolving subclauses through lookup.

    lookup(sub, pos) must return a Match or None; it is never called for
    terminals' characters, which are checked against text directly.
    """
    return _MATCHERS[type(clause)](clause, pos, text, lookup)


# ---------------------------------------------------------------------------
# the memo table

class MemoTable:
    """Stored matches per (clause, position), plus the machinery to fill them.

    The table never stores matches for the always-empty terminal, and in
    general holds no synthesized zero-length matches: lookup fabricates
    those on demand for clauses that can match zero characters.

    watermark_violations counts lookups that read a position left of the
    one being processed; the fill order makes such reads unsound, so the
    counter staying at zero is a cheap invariant check.
    """

    def __init__(self, grammar: Grammar, text: str):
        self.grammar = grammar
        self.text = text
        n = len(grammar.all_clauses)
        self._tables = [dict() for _ in range(n)]
        self._positions_cache = {}
        self._col = None
        self.watermark_violations = 0

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
        if self._col is not None and pos < self._col:
            self.watermark_violations += 1
        m = self._tables[clause.clause_idx].get(pos)
        if m is not None:
            return m
        if type(clause) is NotFollowedBy:
            return _match_not_followed_by(clause, pos, self.text, self.lookup)
        if clause.can_match_zero_chars:
            return Match(clause, pos, 0, (), clause.zero_idx)
        return None

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

    def _add(self, clause, pos, new, heap, in_heap, courtesy):
        updated = False
        if new is not None:
            tbl = self._tables[clause.clause_idx]
            old = tbl.get(pos)
            if old is None or (
                (type(clause) is First and new.alt_idx < old.alt_idx)
                or new.len > old.len
            ):
                tbl[pos] = new
                updated = True
        for parent in clause.seed_parent_clauses:
            i = parent.clause_idx
            if updated:
                if not in_heap[i]:
                    in_heap[i] = 1
                    heapq.heappush(heap, i)
            elif parent.can_match_zero_chars and not courtesy[i]:
                # A parent that can match zero characters gets one courtesy
                # evaluation per position even when this child found nothing
                # new; capping it at one keeps chains of such parents from
                # rescheduling each other forever.
                courtesy[i] = 1
                if not in_heap[i]:
                    in_heap[i] = 1
                    heapq.heappush(heap, i)

    def _run(self):
        clauses = self.grammar.all_clauses
        n_clauses = len(clauses)
        terminals = [
            c for c in clauses if c.is_terminal and type(c) is not Nothing
        ]
        terminals.sort(key=lambda c: c.clause_idx)
        text = self.text
        lookup = self.lookup
        heappop = heapq.heappop
        matchers = [_MATCHERS[type(c)] for c in clauses]
        for pos in range(len(text) - 1, -1, -1):
            self._col = pos
            heap = []
            in_heap = bytearray(n_clauses)
            courtesy = bytearray(n_clauses)
            for t in terminals:
                m = matchers[t.clause_idx](t, pos, text, lookup)
                self._add(t, pos, m, heap, in_heap, courtesy)
            while heap:
                idx = heappop(heap)
                in_heap[idx] = 0
                c = clauses[idx]
                m = matchers[idx](c, pos, text, lookup)
                self._add(c, pos, m, heap, in_heap, courtesy)
        self._col = None


def parse(grammar: Grammar, text: str) -> MemoTable:
    """Populate a memo table for text and return it.

    The table is complete: afterwards it answers lookup() for every clause
    and position, which is what tree extraction and error recovery consume.
    """
    table = MemoTable(grammar, text)
    table._run()
    return table
