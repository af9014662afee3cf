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

Each parse compiles a clause into a matcher on the clause's first
evaluation: a closure over pos built by its kind's factory (`make_matcher`),
bound to one reader per subclause.  A reader is the subclause table's
dict.get for a clause that cannot match zero characters, a reader that falls
back to a childless zero-length match for one that can, and the lookahead
chain's own matcher for a NotFollowedBy.  The factories are the one
definition of what each operator means: the top-down reference evaluator
builds its matchers with them too, reading through its own memo, and
`match_clause` wraps them for an arbitrary lookup function.  The watermark
check lives in the matchers: each compares every read it makes at another
position with its own pos, and the fill calls matchers only at the column
it fills, so a read left of the column is counted in watermark_violations.

A left-recursive seed grows at every column it can start at, and each
growth step is the left operand of the next, so a run of k operands would
keep Theta(k^2) superseded steps alive.  Once a column is filled, a
superseded step that one of its final matches holds, and that itself holds
another, is replaced by a cut (_Cut): it keeps its clause, position, length
and alternative, and rebuilds its children when asked by replaying that one
column into scratch slots.  The replay is exact because the fill is
deterministic and everything right of the column is final.  FillPlan works
out which clauses a replay evaluates; a grammar without same-position
cycles has none and never cuts.  The table stays linear in memory for any
run length, while the fill's time per run stays Theta(k^2).
"""
from __future__ import annotations

import heapq
import threading
import weakref
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
        self._tables = [dict() for _ in grammar.all_clauses]
        self._positions_cache = {}
        self.watermark_violations = 0
        # One reader per clause, built on first use: the same functions that
        # matchers read their subclauses through.
        self._readers = [None] * len(self._tables)
        self._replayer = None  # built on the first replay (_Source.replay)

    def _reader(self, clause):
        """clause's reader.  A clause that can match zero characters reads
        as a childless zero-length match where nothing is stored.
        NotFollowedBy is never scheduled (it seeds nothing and is no seed
        parent), so its table stays empty and its reader is its matcher,
        which reads only a non-lookahead operand."""
        i = clause.clause_idx
        r = self._readers[i]
        if r is None:
            if type(clause) is NotFollowedBy:
                r = make_matcher(clause, self.text, self._reader)
            elif clause.can_match_zero_chars:
                r = _or_empty(clause, self._tables[i].get)
            else:
                r = self._tables[i].get
            self._readers[i] = r
        return r

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
        return self._reader(clause)(pos)

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

        # Each clause's matcher is built on its first evaluation, by an
        # entry that replaces itself.  The dispatch entries decide
        # single-character terminals, which are never evaluated.
        def build(i):
            def first_call(pos):
                f = matchers[i] = make_matcher(clauses[i], text, self._reader, late)
                return f(pos)

            return first_call

        matchers = list(map(build, range(len(clauses))))
        # An evaluation stores its match if it is the clause's first or an
        # improvement (a longer match, or an earlier alternative of an
        # ordered choice: only its matches carry an alt_idx other than 0),
        # and then schedules every seed parent.  Otherwise the clause's
        # entry, and so what its parents read, is unchanged.  Each
        # improvement supersedes one match; a column with two or fewer
        # holds too few to be worth cutting, and only a grammar with
        # FillPlan.holders has any to cut.
        cut = self._cutter(plan.holders) if plan.holders else None
        for pos in range(len(text) - 1, -1, -1):
            k = bisect_right(bounds, ord(text[pos]))
            chars, heap, in_heap = entries[k] or plan.entry(k)
            heap = list(heap)
            in_heap = bytearray(in_heap)
            for idx in chars:
                tables[idx][pos] = Match(clauses[idx], pos, 1)
            grew = 0
            while heap:
                idx = heappop(heap)
                in_heap[idx] = 0
                m = matchers[idx](pos)
                if m is None:
                    continue
                tbl = tables[idx]
                old = tbl.get(pos)
                if old is not None:
                    if m.len <= old.len and m.alt_idx >= old.alt_idx:
                        continue
                    grew += 1
                tbl[pos] = m
                for i in parents[idx]:
                    if not in_heap[i]:
                        in_heap[i] = 1
                        heappush(heap, i)
            if grew > 2 and cut is not None:
                cut(pos)
        matchers.clear()  # the entries not yet built refer to the list

    def _cutter(self, holders):
        """A function that drops the superseded growth steps column pos's
        final matches hold.

        A child at pos that is not its clause's stored match was superseded
        within the column; one that itself holds such a child is replaced
        by a _Cut, which rebuilds its children when asked.  A superseded
        child that holds none stays, so short chains never need a replay.
        Only FillPlan.holders can hold a superseded child of a superseded
        child, and same-column children come first in a match.
        """
        tables = self._tables
        gets = [tables[i].get for i in holders]
        source = _Source(self)

        def cut(pos):
            for get in gets:
                m = get(pos)
                if m is None:
                    continue
                for x in m.sub_matches:
                    if x.pos != pos:
                        break
                    if tables[x.clause.clause_idx].get(pos) is x:
                        continue
                    for y in x.sub_matches:
                        if y.pos != pos:
                            break
                        if y.sub_matches and tables[y.clause.clause_idx].get(pos) is not y:
                            subs = m.sub_matches
                            j = subs.index(x)
                            m.sub_matches = subs[:j] + (_Cut(x, source),) + subs[j + 1 :]
                            break

        return cut


class _Cut(Match):
    """A superseded growth step: a match the fill replaced within its column
    but that a final match there still holds, as a left-recursive operand.

    It keeps its clause, position, length and alternative.  Its children
    are rebuilt on every access by replaying its column's fill, so a run of
    k operands keeps O(k) matches instead of the O(k^2) growth steps.
    """

    __slots__ = ("_source",)

    def __init__(self, m, source):
        self.clause = m.clause
        self.pos = m.pos
        self.len = m.len
        self.alt_idx = m.alt_idx
        self._source = source

    @property
    def sub_matches(self):
        return self._source.replay(self)


class _Source:
    """Where a table's cuts rebuild their children: the table, held weakly
    so that dropping it frees it at once, without waiting for the cycle
    collector.  A match used after its table is gone rebuilds from a table
    parsed again from the same grammar and text, which is identical."""

    __slots__ = ("table", "grammar", "text")

    def __init__(self, table):
        self.table = weakref.ref(table)
        self.grammar = table.grammar
        self.text = table.text

    def replay(self, cut):
        table = self.table()
        if table is None:
            table = parse(self.grammar, self.text)
            self.table = lambda: table
        if table._replayer is None:
            table._replayer = _replayer(table)
        return table._replayer(cut)


def _replayer(table):
    """A function rebuilding a _Cut's children by replaying its column.

    A replay evaluates the clauses FillPlan.replays lists for the cut's
    clause, in the order the fill did, into scratch slots, and stops when
    the cut's clause stores a match of the cut's length and alternative.  A
    clause's successive stored matches never repeat those, because a First
    never returns to a later alternative and otherwise only a longer match
    is stored.  Every other read goes to the table, where it is final.  The
    per-clause dicts are never written, so match_positions and all_stored
    are unaffected.  What replaying a clause takes is built on its first
    replay.
    """
    grammar = table.grammar
    plan = grammar.fill_plan
    clauses = grammar.all_clauses
    tables = table._tables
    text = table.text
    heappush = heapq.heappush
    heappop = heapq.heappop
    n = len(clauses)
    scratch = [None] * n
    in_heap = bytearray(n)
    touched = []
    lock = threading.Lock()
    col = -1  # the column being replayed

    def machine(evaluated, seeds, parents):
        def read(sub):
            if type(sub) is NotFollowedBy:
                return make_matcher(sub, text, read)
            i = sub.clause_idx
            get = tables[i].get
            if i in parents:  # evaluated: read the scratch slot at col
                stored = get

                def get(pos):
                    return scratch[i] if pos == col else stored(pos)

            return _or_empty(sub, get) if sub.can_match_zero_chars else get

        # A replay makes the reads the fill made and counted, so it counts
        # none.
        matchers = {i: make_matcher(clauses[i], text, read) for i in evaluated}
        # read refers to itself, and through its cells to the table's
        # dicts: break that cycle so the dicts go with the table.
        read = None
        return matchers, seeds, parents

    machines = {}

    def replay(cut):
        nonlocal col
        target, length, alt = cut.clause.clause_idx, cut.len, cut.alt_idx
        with lock:
            how = plan.replays[target]
            got = machines.get(how[0])
            if got is None:
                got = machines[how[0]] = machine(*how)
            matchers, seeds, parents = got
            pos = col = cut.pos
            heap = []
            for s, ps in seeds:
                if tables[s].get(pos) is not None:
                    for i in ps:
                        if not in_heap[i]:
                            in_heap[i] = 1
                            heap.append(i)
            heapq.heapify(heap)
            try:
                while heap:
                    idx = heappop(heap)
                    in_heap[idx] = 0
                    m = matchers[idx](pos)
                    if m is None:
                        continue
                    old = scratch[idx]
                    if old is None:
                        touched.append(idx)
                    elif m.len <= old.len and m.alt_idx >= old.alt_idx:
                        continue
                    if idx == target and m.len == length and m.alt_idx == alt:
                        return m.sub_matches
                    scratch[idx] = m
                    for i in parents[idx]:
                        if not in_heap[i]:
                            in_heap[i] = 1
                            heappush(heap, i)
            finally:
                for i in touched:
                    scratch[i] = None
                touched.clear()
                for i in heap:
                    in_heap[i] = 0
                col = -1
        raise RuntimeError("replaying column %d did not rebuild %r" % (pos, cut))

    return replay


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

    holders are the clauses whose matches the fill checks for superseded
    growth steps to cut, and replays says what rebuilding each kind of cut
    takes (see _replay_plan).  Both are empty for a grammar without
    same-position cycles.
    """

    __slots__ = ("parents", "holders", "replays", "bounds", "entries", "_terminals")

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
        self.holders, self.replays = _replay_plan(clauses, self.parents)
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


def _replay_plan(clauses, parents):
    """What cutting and replaying a column need: (holders, replays).

    A clause's pushers are its seed children except a NotFollowedBy or the
    empty clause, which the fill never stores.  Take a clause c and the
    clauses it is pushed through, transitively: only they can push one of
    them.  So when a reader that sorts above c and all of them pops, the
    heap holds none of them and none is evaluated again in the column: c
    is final for that reader.  And if they all sort below c, nothing
    pushes c again once it pops, so it is evaluated at most once in a
    column.  Only the other clauses, every clause on a same-position cycle
    among them, can be superseded.

    holders are the clauses whose matches can hold a superseded child that
    holds another.  replays maps the clause of each child that can be cut
    to what replaying it needs: the clauses to evaluate (the child's clause
    and, transitively, every clause one of them reads at its own position
    that is not final for that reader), the other clauses that push one of
    them, each with the ones it pushes, and each evaluated clause's parents
    among them.  A clause that is read but not evaluated is final where it
    is read, and it stores before a parent it pushes can pop, so the replay
    reads its stored match and schedules those parents up front.
    """
    n = len(clauses)
    pushers = [[] for _ in clauses]
    for i, ps in enumerate(parents):
        if type(clauses[i]) not in (NotFollowedBy, Nothing):
            for p in ps:
                pushers[p].append(i)
    # top[c]: the highest index among the clauses c is pushed through,
    # transitively (c itself if it is on a cycle), or -1.
    top = [-1] * n
    todo = list(range(n - 1, -1, -1))  # lowest first: pushers mostly sort below
    while todo:
        c = todo.pop()
        t = top[c]
        for s in pushers[c]:
            if s > t:
                t = s
            if top[s] > t:
                t = top[s]
        if t > top[c]:
            top[c] = t
            todo.extend(parents[c])

    read_at = {}

    def reads(c):
        # The clauses c's matcher reads at its own position.
        out = read_at.get(c)
        if out is None:
            out = read_at[c] = []
            for s in same_position_subs(clauses[c]):
                while type(s) is NotFollowedBy:
                    s = s.sub_clauses[0]
                out.append(s.clause_idx)
        return out

    again = {c for c in range(n) if top[c] >= c}
    holders = []
    replays = {}
    by_need = {}  # clauses that replay together share one entry
    for h in sorted(again):
        cuttable = [c for c in reads(h) if c in again and any(t in again for t in reads(c))]
        if cuttable:
            holders.append(h)
        for target in cuttable:
            if target in replays:
                continue
            need, todo = {target}, [target]
            while todo:
                c = todo.pop()
                for r in reads(c):
                    if r not in need and max(r, top[r]) >= c:
                        need.add(r)
                        todo.append(r)
            evaluated = tuple(sorted(need))
            how = by_need.get(evaluated)
            if how is None:
                seeds = {}
                for c in evaluated:
                    for s in pushers[c]:
                        if s not in need:
                            seeds.setdefault(s, []).append(c)
                how = by_need[evaluated] = (
                    evaluated,
                    tuple((s, tuple(ps)) for s, ps in seeds.items()),
                    {c: tuple(p for p in parents[c] if p in need) for c in evaluated},
                )
            replays[target] = how
    return tuple(holders), replays


def parse(grammar: Grammar, text: str) -> MemoTable:
    """Populate a memo table for text and return it.

    The table is complete: afterwards it answers lookup() for every clause
    and position, which is what tree extraction and error recovery consume.
    """
    table = MemoTable(grammar, text)
    table._run()
    return table
