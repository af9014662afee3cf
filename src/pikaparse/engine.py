"""The matching engine: a packrat memo table filled bottom-up.

Instead of recursive descent, the table is populated one input position at a
time, from the last position to the first.  Within a position, a queue
drains clauses in bottom-up order (lowest clause_idx first): one int whose
bit n-1-i is set while clause i of n is pending, so that the lowest pending
clause is the highest set bit, which one bit_length finds.  Every stored or
improved match schedules the seed parents that could start at the same
position, with one OR of their mask, and nothing else schedules a clause.
Only a clause that can be scheduled again in a column after it pops there
(FillPlan.rescheduled) has a new value compared with its stored one; every
other clause pops at most once per column, so what it matches is stored as
is.  Without left recursion, or with none but the recognized levels below,
no clause is checked.  Each column starts from its character's dispatch
entry: only the terminals that can start with it are tried, and every
clause whose value the character alone decides, a single-character
terminal and each clause above it that reads only such values at the
column, is stored with no evaluation (see FillPlan.entry).  A clause that
can match zero characters and that nothing evaluated at a position reads as
a zero-length match there, so the fill never needs to evaluate a clause
only to find its empty match.
Because everything to the right of the current position is already final, a
clause's match can reference cyclic (left-recursive) structure through the
memo table without infinite regress: improvements propagate around the
cycle until a fixed point.

Match improvement ordering: a new match beats a stored one if the clause is
an ordered choice and the new match uses an earlier alternative, or if the
new match is longer.

The table holds one int per (clause, position): the match's length and
alternative packed as len << shift | alt, where shift is the grammar's
alt_shift, wide enough for its widest ordered choice.  The fill builds no
match objects and keeps no child pointers.

Each parse compiles a clause into a matcher on the clause's first
evaluation: a closure over pos built by its kind's factory (`make_matcher`),
bound to one reader per subclause, that returns a packed value or None.  A
reader is the subclause table's dict.get for a clause that cannot match
zero characters, a reader that falls back to a childless zero-length value
for one that can, and the lookahead chain's own matcher for a NotFollowedBy.
The factories are the one definition of what each operator means: the
top-down reference evaluator builds its matchers with them too, reading
through its own memo, and `match_clause` wraps them for an arbitrary lookup
function.  The watermark check lives in the matchers: each compares every
read it makes at another position with its own pos, and the fill calls
matchers only at the column it fills, so a read left of the column is
counted in watermark_violations.

The queries build a Match when they read a value, and a Match builds its
children each time they are read, in the one of three ways the fill plan
chose for its clause when it was built: select, walk or replay.  One
decoder does so for this table and for the reference parser's memo of the
same ints, each giving it a value lookup per clause.  Take a clause whose
reads at its own position are all final by the time the fill evaluates it
there.  If it is an ordered choice, its value names the alternative that
matched, at the same position and with the same length, so its one child is
selected: read from the memo, with no matcher run.  A sequence's children
are selected too, each read where the one before it ends, and so are a
repetition's: a chained one's first repeat, then its own match where that
ends, if one is stored, and a greedy one's repeats, each where the one
before it ends, up to the match's length.  Clauses sort above what they
read at their own position, so only a clause on a left-recursive cycle may
have read a clause that changed after it: a left-recursive seed grows at
every column it can start at, each growth step the left operand of the
next, and only the last step stays in the table.  Its children come from
replaying that one column, which records the children of every value it
stores, so one replay yields a whole left-nested run.  The replay is exact
because the fill is deterministic and everything right of the column is
final.  So the table stays linear in memory for any run length.

Growing a seed one operand at a time costs Theta(k^2) evaluations for a run
of k operands.  The fill skips that growth for each left-associative level
H <- H op Y / Y that FillPlan recognizes (the shape precedence shorthand's
E[i,L] produces): it evaluates H once per column, from Y there and H's
final match right of it, and stores the value growth would end at (see
_levels), so such runs fill in linear time.  A match of H through Y read
only final values, so its child is selected like any other choice's.  The
growth steps of H's other matches, and of its sequence's, are walked: each
is the last step, then op and Y read from the memo where it ends, so they
are rebuilt from the memo with no matcher run and no replay.  Every other
left-recursive cycle grows its seed, and its children come from replays,
one plan per cycle.  FillPlan derives all of this from one reach pass.
"""
from __future__ import annotations

import threading
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

    A match read from a memo table is built on read, and so are its
    children, each time sub_matches is read: two reads of one entry give
    equal matches, not the same object.  sub_matches given to the
    constructor is either the children, as a tuple, or the source they are
    built from: an object, not a plain tuple, whose _entries(clause, pos,
    length, alt_idx) gives the children as (clause, pos, length, alt_idx,
    source) tuples, source being () for a childless one.
    """

    __slots__ = ("clause", "pos", "len", "alt_idx", "_subs")

    def __init__(self, clause, pos, length, sub_matches=(), alt_idx=0):
        self.clause = clause
        self.pos = pos
        self.len = length
        self._subs = sub_matches
        self.alt_idx = alt_idx

    @property
    def sub_matches(self):
        subs = self._subs
        if type(subs) is tuple:
            return subs
        entries = subs._entries(self.clause, self.pos, self.len, self.alt_idx)
        return tuple([Match(c, p, n, s, a) for c, p, n, a, s in entries])

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


def _seq_matcher(clause, text, read, shift, late):
    readers = tuple(map(read, clause.sub_clauses))
    if len(readers) == 2:
        r0, r1 = readers

        def seq2(pos):
            v = r0(pos)
            if v is None:
                return None
            at = pos + (v >> shift)
            if at < pos:
                late()
            v = r1(at)
            if v is None:
                return None
            return (at + (v >> shift) - pos) << shift

        return seq2
    if len(readers) == 3:
        r0, r1, r2 = readers

        def seq3(pos):
            v = r0(pos)
            if v is None:
                return None
            at = pos + (v >> shift)
            if at < pos:
                late()
            v = r1(at)
            if v is None:
                return None
            at += v >> shift
            if at < pos:
                late()
            v = r2(at)
            if v is None:
                return None
            return (at + (v >> shift) - pos) << shift

        return seq3
    head, rest = readers[0], readers[1:]

    def seq(pos):
        v = head(pos)
        if v is None:
            return None
        at = pos + (v >> shift)
        for r in rest:
            if at < pos:
                late()
            v = r(at)
            if v is None:
                return None
            at += v >> shift
        return (at - pos) << shift

    return seq


def _first_matcher(clause, text, read, shift, late):
    readers = tuple(map(read, clause.sub_clauses))
    high = -1 << shift  # clears the alternative a subclause's value carries
    if len(readers) == 2:
        r0, r1 = readers

        def first2(pos):
            v = r0(pos)
            if v is not None:
                return v & high
            v = r1(pos)
            if v is not None:
                return v & high | 1
            return None

        return first2

    def first(pos):
        for i, r in enumerate(readers):
            v = r(pos)
            if v is not None:
                return v & high | i
        return None

    return first


def _one_or_more_matcher(clause, text, read, shift, late):
    r = read(clause.sub_clauses[0])
    high = -1 << shift
    if clause.chained:
        # Right-recursive, as in the paper: the first repeat, then this
        # clause's match where it ends.  That read lies right of pos, so
        # the right-to-left fill has already made it final.
        again = read(clause)

        def chained(pos):
            v = r(pos)
            if v is None:
                return None
            at = pos + (v >> shift)
            if at < pos:
                late()
            rest = again(at)
            if rest is None:
                return v & high
            return (v & high) + (rest & high)

        return chained

    # Greedy: consume every repeat up front and keep the repeats as direct
    # children.
    def greedy(pos):
        v = r(pos)
        if v is None:
            return None
        at = pos + (v >> shift)
        while v >> shift:
            if at < pos:
                late()
            v = r(at)
            if v is None:
                break
            at += v >> shift
        return (at - pos) << shift

    return greedy


def _not_followed_by_matcher(clause, text, read, shift, late):
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
            return 0
        return None

    return not_followed_by


def _char_matcher(clause, text, read, shift, late):
    ch, n, one = clause.char, len(text), 1 << shift

    def char(pos):
        if pos < n and text[pos] == ch:
            return one
        return None

    return char


def _char_set_matcher(clause, text, read, shift, late):
    matches, n, one = clause.matches_char, len(text), 1 << shift

    def char_set(pos):
        if pos < n and matches(text[pos]):
            return one
        return None

    return char_set


def _str_matcher(clause, text, read, shift, late):
    string, k = clause.string, len(clause.string) << shift

    def str_(pos):
        if text.startswith(string, pos):
            return k
        return None

    return str_


def _nothing_matcher(clause, text, read, shift, late):
    def nothing(pos):
        return 0

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


def make_matcher(clause, text, read, shift, late=_unchecked):
    """Build clause's matcher over text: a function of pos returning the
    clause's match at pos packed as len << shift | alt_idx, or None.

    read(sub) must return a function of pos that gives subclause sub's
    match there, packed the same way, or None; it is called while the
    matcher is built, and never for a terminal.  A matcher uses only the
    length of what it reads.  shift must leave room for the clause's
    alternative index.  late() is called for any read the matcher would
    make left of its own pos, which correct matchers never do.
    """
    return _FACTORIES[type(clause)](clause, text, read, shift, late)


def match_clause(clause, pos, text, lookup):
    """Match one clause at pos, resolving subclauses through lookup.

    lookup(sub, pos) must return a Match or None; it is never called for
    terminals' characters, which are checked against text directly.  The
    result's children are the matches lookup returned.
    """
    shift = (len(clause.sub_clauses) - 1).bit_length() if type(clause) is First else 0
    subs = []

    def read(sub):
        def get(at):
            m = lookup(sub, at)
            if m is None:
                return None
            subs.append(m)
            return m.len << shift

        return get

    v = make_matcher(clause, text, read, shift)(pos)
    if v is None:
        return None
    if _childless(clause):
        subs = ()
    return Match(clause, pos, v >> shift, tuple(subs), v & ~(-1 << shift))


def _childless(clause):
    return clause.is_terminal or type(clause) is NotFollowedBy


# ---------------------------------------------------------------------------
# building matches from packed values


class _Decoder:
    """Builds matches from a memo of packed values, on read: the base of
    MemoTable and of the reference parser's result, and the source of the
    matches they build (see Match): the one code that builds children.

    A built match's children come from one of three places, as FillPlan
    chose for its clause and alternative (see _entries):

    - select: a First, a Seq or a OneOrMore whose reads were final when
      the fill evaluated it has its children read from the memo, as
      FillPlan.selects lists them (see _select);
    - walk: a recognized level's rule or growing sequence has its column's
      growth steps rebuilt from the memo by their shape (see _walk);
    - replay: any other clause with children, one on a left-recursive
      cycle, has them from what replaying the fill of its column read, as
      FillPlan.replays says.

    A subclass gives only _lookup(i): clause i's value lookup, a function
    of pos that returns its memo value there, or None.  _values(i) builds
    it on first use and keeps it in _getters.  The memo holds only ints and
    none of the readers refers to the memo's owner, so a match can hold its
    owner strongly without making a cycle.
    """

    def _init_decoding(self, grammar, text):
        n = len(grammar.all_clauses)
        self.grammar = grammar
        self.text = text
        self._shift = grammar.alt_shift
        # The grammar's FillPlan, held once read (see _read_plan).
        self._fill_plan = grammar.fill_plan
        self._getters = [None] * n
        self._log = []
        self._recorders = [None] * n
        self._matchers = [None] * n
        self._lock = threading.Lock()
        # The source the log's entries of memo matches carry: this decoder
        # while a replay runs, else None, so that no reader refers to it in
        # between.
        self._memo = [None]
        # A replay's state: the column it fills, and the value so far of
        # each clause it evaluates there with that value's children.
        self._col = [-1]
        self._scratch = {}

    def _read_plan(self):
        """The grammar's FillPlan, built on the first read of children if
        no parse built it."""
        plan = self._fill_plan = _plan(self.grammar)
        return plan

    def _values(self, i):
        """Clause i's value lookup (see _lookup), built once per decoder."""
        get = self._getters[i]
        if get is None:
            get = self._getters[i] = self._lookup(i)
        return get

    def _match(self, clause, pos, v):
        """The Match of clause's memo value v at pos."""
        shift = self._shift
        return Match(
            clause, pos, v >> shift, () if _childless(clause) else self, v & ~(-1 << shift)
        )

    def _entries(self, clause, pos, length, alt_idx):
        """The children of clause's match at pos, from where FillPlan says:
        selected from the memo when selects lists the alternative's reads,
        else walked where walks names clause's level, else from replaying
        the column as replays says."""
        plan = self._fill_plan or self._read_plan()
        i = clause.clause_idx
        reads = plan.selects[i]
        if reads is not None and reads[alt_idx] is not None:
            return self._select(clause, pos, length, alt_idx)
        level = plan.walks[i]
        if level is not None:
            return self._walk(level, clause, pos, length, alt_idx)
        with self._lock:
            record = self._replay(plan.replays[i], pos)
        return record._entries(clause, pos, length, alt_idx)

    def _select(self, clause, pos, length, alt_idx):
        """The children of clause's match at pos through alternative
        alt_idx, read from the memo as FillPlan.selects lists them, which
        is how its matcher read them: each member where the one before it
        ends, a member with nothing stored there as its childless
        zero-length match if it has one (which is how a lookahead reads in
        this table), as no child if it is a chained repetition's rest, and
        otherwise as a contradiction.  A greedy repetition reads its operand
        where each repeat ends, up to the match's length, and a repeat that
        is missing or empty contradicts it.  The children's lengths must add
        up to the match's.  It runs no matcher and needs no lock."""
        shift = self._shift
        mask = ~(-1 << shift)
        plan = self._fill_plan or self._read_plan()
        reads = plan.selects[clause.clause_idx][alt_idx]
        entries = []
        at = pos
        if type(clause) is OneOrMore and not clause.chained:
            ((sub, kids, _),) = reads
            get, source = self._values(sub.clause_idx), self if kids else ()
            while at - pos < length:
                v = get(at)
                if v is None or not v >> shift:
                    raise _contradicted(clause, pos)
                entries.append((sub, at, v >> shift, v & mask, source))
                at += v >> shift
        else:
            for sub, kids, zero in reads:
                v = self._values(sub.clause_idx)(at)
                source = self if kids else ()
                if v is None:
                    if zero is None:
                        raise _contradicted(clause, pos)
                    if zero == _ABSENT:
                        continue
                    v, source = zero, ()
                entries.append((sub, at, v >> shift, v & mask, source))
                at += v >> shift
        if at - pos != length:
            raise _contradicted(clause, pos)
        return entries

    def _walk(self, level, clause, pos, length, alt_idx):
        """The children of a recognized level's match at pos, clause being
        its rule H or its growing sequence S = H op Y (see _levels): the
        growth steps of column pos, rebuilt from the memo and ended at the
        requested match, each step's children a _Steps as a replay records
        them.  H's first step is Y's match at pos, as alternative 1; each
        later step is S, from the last step's H, then op where it ends and
        Y where op ends, and then H through S as alternative 0.  Y and op
        cannot match zero characters and are read right of the column, or
        are final at it, so every read is one the fill made.  It runs no
        matcher and needs no lock."""
        h, s, y, op = level
        shift = self._shift
        mask = ~(-1 << shift)
        y_at, op_at = self._values(y.clause_idx), self._values(op.clause_idx)
        y_source = () if _childless(y) else self
        op_source = () if _childless(op) else self
        v = y_at(pos)
        if v is not None:
            n, alt = v >> shift, 1
            steps = _Steps(((y, pos, n, v & mask, y_source),))
            while n <= length:
                if clause is h and n == length and alt == alt_idx:
                    return steps
                at = pos + n
                v = op_at(at)
                if v is None:
                    break
                step = (op, at, v >> shift, v & mask, op_source)
                at += v >> shift
                v = y_at(at)
                if v is None:
                    break
                grown = _Steps(
                    ((h, pos, n, alt, steps), step, (y, at, v >> shift, v & mask, y_source))
                )
                n, alt = at + (v >> shift) - pos, 0
                if clause is s and n == length:
                    return grown
                steps = _Steps(((s, pos, n, 0, grown),))
        raise _contradicted(clause, pos)

    def _matcher(self, i):
        """Clause i's matcher for replays, reading through _recorder."""
        clause = self.grammar.all_clauses[i]
        f = self._matchers[i] = make_matcher(clause, self.text, self._recorder, self._shift)
        return f

    def _recorder(self, sub):
        """sub's reader for a replay, appending every match it reads to the
        log as a finished (sub, pos, length, alt_idx, source) entry, source
        being where its children come from: () for none, or the memo.  It
        reads the memo, except at the column the replay fills, where a
        clause the replay evaluates reads its scratch value, whose children
        are known: they are its source.  A lookahead's own reads are taken
        back out of the log: its match has no children."""
        i = sub.clause_idx
        r = self._recorders[i]
        if r is not None:
            return r
        log = self._log
        if type(sub) is NotFollowedBy:
            peek = make_matcher(sub, self.text, self._recorder, self._shift)

            def r(pos):
                n = len(log)
                v = peek(pos)
                del log[n:]
                if v is not None:
                    log.append((sub, pos, 0, 0, ()))
                return v

        else:
            get = self._values(i)
            zero = sub.zero_idx if sub.can_match_zero_chars else None
            # A terminal's matches are childless wherever they are read.
            memo = ((),) if sub.is_terminal else self._memo
            col, scratch = self._col, self._scratch
            shift = self._shift
            mask = ~(-1 << shift)

            def r(pos):
                if pos == col[0] and i in scratch:
                    v, source = scratch[i]
                else:
                    v, source = get(pos), memo[0]
                if v is None:
                    if zero is None:
                        return None
                    v, source = zero, ()
                log.append((sub, pos, v >> shift, v & mask, source))
                return v

        self._recorders[i] = r
        return r

    def _replay(self, how, pos):
        """Replay column pos's fill of the clauses that how, a
        FillPlan.replays entry, evaluates, into scratch values, recording
        the children of every value it stores: a _Record.

        The replay evaluates those clauses in the order the fill did and
        reads the memo everywhere else, where it is final.  A clause's
        successive values in a column never repeat a (length, alternative)
        pair, because a First never returns to a later alternative and
        otherwise only a longer match is stored, so a value identifies the
        step that stored it.  The memo is never written.  The caller holds
        the lock.
        """
        evaluated, seeds, parents = how
        matchers = {i: self._matchers[i] or self._matcher(i) for i in evaluated}
        bits = (self._fill_plan or self._read_plan()).bits
        n = len(bits)
        scratch, log, memo = self._scratch, self._log, self._memo
        shift = self._shift
        mask = ~(-1 << shift)
        pending = 0  # bit n-1-i set: clause i is scheduled (see MemoTable._run)
        for s, ps in seeds:
            if self._values(s)(pos) is not None:
                pending |= ps
        record = _Record(shift)
        for i in evaluated:  # no match yet in this column
            scratch[i] = (None, ())
        self._col[0] = pos
        memo[0] = self
        try:
            while pending:
                idx = n - pending.bit_length()
                pending ^= bits[idx]
                del log[:]
                v = matchers[idx](pos)
                if v is None:
                    continue
                old = scratch[idx][0]
                if old is not None and v >> shift <= old >> shift and v & mask >= old & mask:
                    continue
                steps = record[idx, v] = _Steps(log)
                scratch[idx] = (v, steps)
                pending |= parents[idx]
        finally:
            scratch.clear()
            del log[:]
            memo[0] = None
            self._col[0] = -1
        return record


def _contradicted(clause, pos):
    """The error for a match of clause at pos whose children the memo does
    not give."""
    return RuntimeError("%r does not match at %d as its memo entry says" % (clause, pos))


class _Steps(tuple):
    """The children a replay recorded, or a walk rebuilt, for one value a
    column stored, as entries, and the source of those children: a
    replayed or walked match holds them.  An entry naming the _Record as
    its source would put each record on a reference cycle, which would keep
    the table alive until the cycle collector ran; a _Steps refers only to
    steps stored before it."""

    __slots__ = ()

    def _entries(self, clause, pos, length, alt_idx):
        return self


class _Record(dict):
    """What one replay of a column stored: (clause index, value) -> the
    value's children, a _Steps."""

    __slots__ = ("shift",)

    def __init__(self, shift):
        super().__init__()
        self.shift = shift

    def _entries(self, clause, pos, length, alt_idx):
        steps = self.get((clause.clause_idx, length << self.shift | alt_idx))
        if steps is None:
            raise RuntimeError("replaying column %d did not rebuild %r" % (pos, clause))
        return steps


# ---------------------------------------------------------------------------
# the memo table

class MemoTable(_Decoder):
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
        self._init_decoding(grammar, text)
        self._tables = [{} for _ in grammar.all_clauses]
        self._positions_cache = {}
        self.watermark_violations = 0
        # One reader per clause, built on first use: the same functions that
        # matchers read their subclauses through.
        self._readers = [None] * len(self._tables)

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
                r = make_matcher(clause, self.text, self._reader, self._shift)
            elif clause.can_match_zero_chars:
                r = _or_empty(clause, self._tables[i].get)
            else:
                r = self._tables[i].get
            self._readers[i] = r
        return r

    def _lookup(self, i):
        return self._tables[i].get

    # -- queries ----------------------------------------------------------

    def stored(self, clause, pos):
        """The stored match for clause at pos, or None.  No synthesis."""
        v = self._tables[clause.clause_idx].get(pos)
        return None if v is None else self._match(clause, pos, v)

    def stored_len(self, clause, pos):
        """The length of the stored match for clause at pos, or None,
        without building the match."""
        v = self._tables[clause.clause_idx].get(pos)
        return None if v is None else v >> self._shift

    def lookup(self, clause, pos):
        """Best known match for clause at pos; None outside 0..len(text).

        Falls back from the stored table to on-demand evaluation for
        negative lookahead and to a childless zero-length match for any
        clause that can match zero characters.
        """
        if not 0 <= pos <= len(self.text):
            return None
        v = self._tables[clause.clause_idx].get(pos)
        if v is not None:
            return self._match(clause, pos, v)
        v = self._reader(clause)(pos)
        return None if v is None else Match(clause, pos, 0, (), v)

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

    def first_stored(self, clause, pos, min_len):
        """The stored match of clause at the first position at or after pos
        where it is at least min_len long, or None."""
        positions = self.match_positions(clause)
        # positions is descending; entries >= pos form a prefix.
        j = bisect_right(positions, -pos, key=lambda p: -p)
        values = self._tables[clause.clause_idx]
        shift = self._shift
        for i in range(j - 1, -1, -1):
            at = positions[i]
            v = values[at]
            if v >> shift >= min_len:
                return self._match(clause, at, v)
        return None

    def all_stored(self):
        for clause, tbl in zip(self.grammar.all_clauses, self._tables):
            for pos, v in tbl.items():
                yield self._match(clause, pos, v)

    @property
    def stored_count(self):
        return sum(len(tbl) for tbl in self._tables)

    def start_match(self):
        """Best match of the start rule at position 0, if any."""
        return self.lookup(self.grammar.start_clause, 0)

    def matched_whole(self):
        v = self._reader(self.grammar.start_clause)(0)
        return v is not None and v >> self._shift == len(self.text)

    # -- filling ----------------------------------------------------------

    def _run(self):
        grammar = self.grammar
        plan = self._read_plan()
        parents = plan.fill_parents
        bits = plan.bits
        walks = plan.walks
        again = plan.rescheduled
        bounds = plan.bounds
        entries = plan.entries
        clauses = grammar.all_clauses
        tables = self._tables
        text = self.text
        shift = self._shift
        mask = ~(-1 << shift)
        n = len(clauses)

        def late():
            self.watermark_violations += 1

        def fill_matcher(i):
            clause = clauses[i]
            level = walks[i]
            if level is None or level[0] is not clause:
                f = _FACTORIES[type(clause)](clause, text, self._reader, shift, late)
            else:
                # A recognized level H <- S / Y: store S's final match here,
                # Y op H with H read right of pos, then run H's own matcher.
                store = tables[level[1].clause_idx].__setitem__
                grown = _seq_matcher(level.chain, text, self._reader, shift, late)
                choose = _first_matcher(clause, text, self._reader, shift, late)

                def f(pos):
                    v = grown(pos)
                    if v is not None:
                        store(pos, v)
                    return choose(pos)

            if i not in again:
                return f
            # Clause i can pop again in a column after it stores there: a
            # value that is no improvement (no longer match, and no earlier
            # alternative of an ordered choice: only its values carry an
            # alternative other than 0) reads as no match, so that the
            # entry, and so what its parents read, is unchanged.
            get = tables[i].get

            def improved(pos):
                v = f(pos)
                if v is not None:
                    old = get(pos)
                    if old is not None and v >> shift <= old >> shift and v & mask >= old & mask:
                        return None
                return v

            return improved

        # Each clause's matcher is built on its first evaluation.  The
        # dispatch entries store every clause the column's character alone
        # decides, and those are never evaluated.
        matchers = [None] * n
        # pending is the column's queue: clause i is scheduled while bit
        # n-1-i is set, so the lowest pending clause is the highest set bit,
        # and a pop takes it.  A clause outside plan.rescheduled pops at
        # most once in a column, so nothing is stored for it there yet, and
        # a rescheduled clause's matcher gives no match for a value that is
        # no improvement: an evaluation that matches stores its value and
        # schedules every seed parent, with no check here.
        for pos in range(len(text) - 1, -1, -1):
            k = bisect_right(bounds, ord(text[pos]))
            stores, pending = entries[k] or plan.entry(k)
            for idx, v in stores:
                tables[idx][pos] = v
            while pending:
                idx = n - pending.bit_length()
                pending ^= bits[idx]
                f = matchers[idx]
                if f is None:
                    f = matchers[idx] = fill_matcher(idx)
                v = f(pos)
                if v is not None:
                    tables[idx][pos] = v
                    pending |= parents[idx]


def _or_empty(clause, get):
    """Read clause's stored value, or a childless zero-length one."""
    zero = clause.zero_idx

    def read(pos):
        v = get(pos)
        return zero if v is None else v

    return read


class FillPlan:
    """What filling a grammar's table, and building its matches' children,
    needs beyond its clauses.

    Built on first use, by the grammar's first parse or the first read of
    a reference parse's children, and kept as grammar.fill_plan.
    parents[i] holds the clause indices of clause i's seed parents, the
    clauses to reschedule when it stores or improves a match: every clause
    that lists it in same_position_subs, once each, in clause order.  A
    NotFollowedBy is evaluated on demand and is no one's seed parent,
    although its operand is tried at its own position.

    Columns are dispatched on their character.  bounds splits the code
    points wherever a Char, a CharSet range or a Str's first character
    starts or stops, so every character of one interval starts the same
    terminals, and entries[k], interval k's entry (see entry), holds the
    code points cp with bisect_right(bounds, cp) == k.  It is (stores,
    rest): the (clause, value) pairs the fill stores at a column of the
    interval before it pops anything, every clause there whose value the
    character alone decides, and the mask of the clauses it schedules
    first.  An entry is built the first time a column's character falls in
    its interval, so the plan grows with the grammar, never with the texts
    parsed.

    selects, walks and replays are built whole with the plan, and say
    where the children of clause c's matches come from (see _Decoder), in
    that order.  selects[c][k] lists what a select reads for c's match
    through alternative k, when its children are selected from the memo:
    c is a First, a Seq or a OneOrMore, its reads are final for it, and it
    is no level's (see _selects).  Otherwise walks[c] is (h, s, Y, op), the
    one record of the recognized level c belongs to, when c is its rule h
    or its growing sequence s: the growth steps are walked (see _levels).
    Otherwise replays[c] is what replaying a column needs for them (see
    _replay_plans), one plan shared by a cycle's clauses, or None when c's
    matches have no children.  Only a clause on a same-position cycle, that
    is, a left-recursive one, has a walks or replays entry other than None.

    fill_parents, the seed parents the fill schedules, are parents less
    the edges between each level's h and s: the fill evaluates h once per
    column and stores s itself, scheduling nothing for it.

    Every queue mask, fill_parents' and the entries' as well as a replay
    plan's, has bit n-1-i set for clause i of n, so that a pop finds the
    lowest pending clause with one bit_length (see MemoTable._run);
    bits[i] is clause i's bit.  rescheduled holds the clauses the fill can
    schedule again in a column after they pop there: those that a clause
    at or above them pushes, transitively (see _pushed_through), but the
    levels' h and s.  Dropping their edges spares no other clause: one that
    reaches s reaches h, which sorts above s or right below it.  When a
    clause pops, every pending clause sorts above it, so only such a clause
    can pop twice in a column, and only its values are checked against the
    one stored.  It is empty for a grammar whose only same-position cycles
    are recognized levels.
    """

    __slots__ = (
        "parents", "fill_parents", "bits", "rescheduled", "bounds", "entries", "selects",
        "walks", "replays", "_distinct", "_dispatch", "_strs", "_probe", "_lock",
    )

    def __init__(self, grammar: Grammar):
        clauses = grammar.all_clauses
        shift = grammar.alt_shift
        n = len(clauses)
        self.bits = [1 << n - 1 - i for i in range(n)]
        terminals = [c for c in clauses if c.is_terminal and type(c) is not Nothing]
        parents = [[] for _ in clauses]
        reads = []
        for p in clauses:
            subs = same_position_subs(p)
            reads.append(tuple(map(_read, subs)))
            if type(p) is not NotFollowedBy:
                for sub in dict.fromkeys(subs):
                    parents[sub.clause_idx].append(p.clause_idx)
        self.parents = list(map(tuple, parents))
        bounds = set()
        for c in terminals:
            if type(c) is CharSet:
                for lo, hi in c.ranges:
                    bounds.update((lo, hi + 1))
            else:
                cp = ord(c.char if type(c) is Char else c.string[0])
                bounds.update((cp, cp + 1))
        self.bounds = sorted(bounds)
        self.entries = [None] * (len(self.bounds) + 1)
        self._distinct = {}
        # Each single-char terminal's matcher, over a text whose k-th
        # character is interval k's lowest code point, and the Strs whose
        # first character is in each interval.
        lows = [0] + self.bounds
        if lows[-1] > 0x10FFFF:  # the interval above every code point
            lows.pop()
        lows = "".join(map(chr, lows))
        self._dispatch = []
        self._strs = {}
        for c in terminals:
            if type(c) is Str:
                k = bisect_right(self.bounds, ord(c.string[0]))
                self._strs.setdefault(k, []).append(c.clause_idx)
            else:
                self._dispatch.append((c.clause_idx, make_matcher(c, lows, None, shift)))
        pushers, top = _pushed_through(clauses, self.parents)
        self.walks = walks = _levels(clauses, self.parents, top)
        self.replays = _replay_plans(clauses, reads, self.parents, pushers, top, walks)
        self.selects = _selects(clauses, self.replays, walks)
        # h's evaluation stores s, and no store of s schedules anything.
        self.fill_parents = [
            _mask((p for p in ps if w is None or clauses[p] not in w[:2]), n)
            for ps, w in zip(self.parents, walks)
        ]
        # A level's h and s are on a cycle too.
        cyclic = [c for c in range(n) if top[c] >= c]
        self.rescheduled = frozenset(c for c in cyclic if walks[c] is None)
        # The clauses no entry decides (see entry).
        held = set(cyclic)
        held.update(r for c, rs in enumerate(reads) for r in rs if r >= c)
        self._probe = _Probe(clauses, shift, frozenset(held), self.parents)
        self._lock = threading.Lock()

    def entry(self, k):
        """Interval k's entry: (stores, rest).  stores pairs each clause
        whose value at a column the column's character alone decides, and
        that matches there, with its packed value, in the order the fill
        would store them; rest is the mask of the clauses the column
        schedules first that are left to the fill.

        The entry runs the column's queue over the character.  A single-char
        terminal is decided by its own matcher, and a decided match
        schedules its seed parents as a store does.  Each other clause that
        pops is evaluated by a probe matcher, built by make_matcher, so the
        factories stay the one definition of every operator, and reading
        through a _Probe at the column.  A probe read gives the value
        decided there, or, for a clause nothing decided, the zero-length
        match or absence the fill reads for an unscheduled clause.  The
        read is undecided if it is at another position, or of an undecided,
        tainted or held clause.  A held clause is on or pushed through a
        same-position cycle, is a level's h or s, or is read at its own
        position by a clause sorting at or below it; so the improvement
        check and a level's matcher are never skipped, every other read is
        of a clause below the reader, final when it pops, and no clause the
        fill evaluates reads a stored value sooner than it would have.
        A clause whose probe makes an undecided read, a held or tainted
        clause, and a Str starting in the interval (it reads past the
        column) are left in rest, and each taints itself and every seed
        ancestor, through parents: the fill may store it, and that store
        may schedule them.  So a clause the entry stores is scheduled by
        decided stores alone and reads only final values there: the fill
        would store the same value, and it pops nowhere else in the column.
        Entries are built under a lock, as threads may share a grammar.
        """
        with self._lock:
            e = self.entries[k]
            if e is None:
                e = self._decide(k)
                # Intervals whose characters decide the same entry share it.
                e = self.entries[k] = self._distinct.setdefault(e, e)
        return e

    def _decide(self, k):
        """Interval k's entry, built under the lock (see entry)."""
        bits, parents = self.bits, self.fill_parents
        n = len(bits)
        probe = self._probe
        probe.clear()
        values = probe.values
        stores, rest, pending = [], 0, 0
        for t, match in self._dispatch:
            v = match(k)
            if v is not None:
                values[t] = v
                stores.append((t, v))
                pending |= parents[t]
        for t in self._strs.get(k, ()):
            rest |= bits[t]
            probe.taint(t)
        while pending:
            i = n - pending.bit_length()
            pending ^= bits[i]
            try:
                v = probe.decide(i)
            except _Undecided:
                rest |= bits[i]
                probe.taint(i)
                continue
            if v is not None:
                values[i] = v
                stores.append((i, v))
                pending |= parents[i]
        return tuple(stores), rest


class _Undecided(Exception):
    """A probe read whose value the column's character does not decide."""


class _Probe:
    """What FillPlan.entry decides a column's clauses with, one per plan,
    used under the plan's lock: the held clauses, the values decided so far
    in the column, the tainted clauses, and each clause's probe matcher,
    built by make_matcher on its first probe and reading through read, and
    reader.  Position 0 is the column."""

    __slots__ = ("held", "parents", "clauses", "shift", "values", "tainted", "matchers", "readers")

    def __init__(self, clauses, shift, held, parents):
        self.clauses, self.shift, self.held, self.parents = clauses, shift, held, parents
        self.values = {}
        self.tainted = set()
        self.matchers = {}
        self.readers = {}

    def clear(self):
        self.values.clear()
        self.tainted.clear()

    def decide(self, i):
        """Clause i's value at the column, or _Undecided."""
        if i in self.held or i in self.tainted:
            raise _Undecided
        f = self.matchers.get(i)
        if f is None:
            f = self.matchers[i] = make_matcher(self.clauses[i], "", self.read, self.shift)
        return f(0)

    def read(self, sub):
        i = sub.clause_idx
        r = self.readers.get(i)
        if r is not None:
            return r
        if type(sub) is NotFollowedBy:
            r = make_matcher(sub, "", self.read, self.shift)
        else:
            zero = sub.zero_idx if sub.can_match_zero_chars else None
            held, tainted, values = self.held, self.tainted, self.values

            def r(pos):
                if pos or i in held or i in tainted:
                    raise _Undecided
                v = values.get(i)
                return zero if v is None else v

        self.readers[i] = r
        return r

    def taint(self, i):
        """Taint clause i and every seed ancestor of it."""
        parents, tainted, todo = self.parents, self.tainted, [i]
        while todo:
            c = todo.pop()
            if c not in tainted:
                tainted.add(c)
                todo.extend(parents[c])


# A select's member that reads as no child where nothing is stored: a
# chained repetition's rest.
_ABSENT = -1


def _member(sub, zero=None):
    """What a select reads for one member, sub: (sub, whether its matches
    have children, the value it reads as where nothing is stored, or None
    when that contradicts the memo).  A clause that can match zero
    characters reads as its childless zero-length match there."""
    if sub.can_match_zero_chars:
        zero = sub.zero_idx
    return (sub, not _childless(sub), zero)


def _selects(clauses, replays, walks):
    """FillPlan.selects: per clause c with children whose reads are final
    for it (replays[c] and walks[c] are None), a tuple with one item per
    alternative, each what a select reads for c's match through it: the
    alternative's clause for a First, every member for a Seq, the first
    repeat and then c's own match where that ends, if one is stored, for a
    chained OneOrMore, and the operand, read where each repeat ends, for a
    greedy one; for a level's rule h, Y alone, as alternative 1.  None for
    every other clause: its children are walked or replayed, or it has none."""
    selects = []
    for c, how, walk in zip(clauses, replays, walks):
        kind, subs = type(c), c.sub_clauses
        if how is not None or walk is not None:
            reads = None if walk is None or walk[0] is not c else (None, (_member(subs[1]),))
        elif kind is First:
            reads = tuple((_member(s),) for s in subs)
        elif kind is Seq:
            reads = (tuple(map(_member, subs)),)
        elif kind is OneOrMore and c.chained:
            reads = ((_member(subs[0]), _member(c, _ABSENT)),)
        elif kind is OneOrMore:
            reads = ((_member(subs[0]),),)
        else:
            reads = None
        selects.append(reads)
    return selects


def _mask(indices, n):
    """The queue mask of the clause indices in indices, for a grammar of n
    clauses: bit n-1-i set for each i (see MemoTable._run)."""
    m = 0
    for i in indices:
        m |= 1 << n - 1 - i
    return m


def _plan(grammar):
    """grammar's FillPlan, built on first use."""
    plan = grammar.fill_plan
    if plan is None:
        plan = grammar.fill_plan = FillPlan(grammar)
    return plan


def _pushed_through(clauses, parents):
    """Each clause's pushers, and top[c]: the highest index among the
    clauses c is pushed through, transitively (c itself if it is on a
    cycle), or -1: the plan's one reach pass, read by every cycle fact.

    A clause's pushers are its seed children except a NotFollowedBy or the
    empty clause, which the fill never stores; only a pusher's store
    schedules a clause.  Take a clause r and the clauses it is pushed
    through, transitively: only they can push one of them.  So when a
    reader c with max(r, top[r]) < c pops, none of them is pending and
    none is evaluated again in the column: r is final for c.
    """
    n = len(clauses)
    pushers = [[] for _ in clauses]
    for i, ps in enumerate(parents):
        if type(clauses[i]) not in (NotFollowedBy, Nothing):
            for p in ps:
                pushers[p].append(i)
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
    return pushers, top


def _replay_plans(clauses, reads, parents, pushers, top, walks):
    """FillPlan.replays: per clause c, None when c's matches have no
    children, when walks[c] says they are walked, or when every clause c
    reads at its own position is final for c (see _pushed_through), else
    (evaluated, seeds, parents) for replaying a column for c.

    Assembly sorts a clause above everything it reads at its own position,
    except where a read closes a same-position cycle, so every read of a
    clause on no such cycle is final for it.  A clause whose reads are all
    final for it is evaluated at most once in a column, after they are
    final, so its stored match is what its matcher gives on the final
    table, and its children are selected from it (see _selects).

    A clause c on a same-position cycle may have read a clause that changed
    after it.  Replaying a column for c evaluates c and, transitively, every
    clause one of them reads at its own position that does not sort, with
    every clause it is pushed through, below that reader.  That test is the
    reader's, so c shares the plan of any clause r its search reaches whose
    plan evaluates c: the two reach each other.  A clause that is read but
    not evaluated is final where it is read, and it stores before a parent
    it pushes can pop, so the replay reads its stored match and schedules
    those parents up front: seeds pairs each such pusher with the mask of
    the evaluated clauses it pushes.  parents maps each evaluated clause to
    the mask of its parents among them.
    """
    n = len(clauses)
    replays = [None] * n

    def plan(target):
        need, todo = {target}, [target]
        while todo:
            c = todo.pop()
            for r in reads[c]:
                if r not in need and max(r, top[r]) >= c:
                    if replays[r] and target in replays[r][2]:
                        return replays[r]
                    need.add(r)
                    todo.append(r)
        evaluated = tuple(sorted(need))
        seeds = {}
        for c in evaluated:
            for s in pushers[c]:
                if s not in need:
                    seeds.setdefault(s, []).append(c)
        return (
            evaluated,
            tuple((s, _mask(ps, n)) for s, ps in seeds.items()),
            {c: _mask((p for p in parents[c] if p in need), n) for c in evaluated},
        )

    for c, clause in enumerate(clauses):
        if not (walks[c] or _childless(clause)) and any(max(r, top[r]) >= c for r in reads[c]):
            replays[c] = plan(c)
    return replays


def _levels(clauses, parents, top):
    """FillPlan.walks: at h and s, one _Level (h, s, Y, op) for each level
    H <- S / Y, S = H op Y, whose fill needs no growing seed; else None.

    Where S's match at column j grows from H's, each growth step reads one
    more operand, and the fixpoint is: if Y op H matches at j, reading H
    right of j, S's match is that and H takes alternative 0 with S's
    length; otherwise S has no match at j and H takes Y's as alternative
    1.  Everything right of the column is final, so the fill evaluates H
    once per column and stores S from Y op H; the table is the one growth
    fills.  That needs:

    - Y and op cannot match zero characters, so H is read right of j and
      each growth step is longer than the last;
    - Y is final for H (see _pushed_through), so both fills read one Y;
    - H is S's only seed parent, and every other seed parent of H sorts
      above H.  Growth starts when H first pops, when all else pending
      sorts above H.  A growth step pushes H or S, which pops next, and
      clauses above H, above S too: S reads only H at its own position, so
      nothing sorts between H and S if S sorts above H.  So no other
      clause is evaluated in the column while H grows, and none reads a
      step that growth supersedes.

    The same conditions let a match's children skip the replay of its
    column.  Growth there starts from Y's match at j, as H's alternative 1;
    each step after it is S, from the last step's H, op where that ends and
    Y where op ends, then H through S as alternative 0, and it stops where
    op or Y misses.  Every one of those reads is final, Y at j included, so
    the steps are rebuilt from the memo alone (see _Decoder._walk), and no
    clause of the level has a replay plan.

    Every other left-recursive cycle grows its seed: indirect cycles,
    several growing alternatives, and cycles on which another clause reads
    H at its own position, such as a lookahead's operand.
    """
    walks = [None] * len(clauses)
    for h in clauses:
        if type(h) is not First or len(h.sub_clauses) != 2:
            continue
        s, y = h.sub_clauses
        if type(s) is not Seq or len(s.sub_clauses) != 3 or s.sub_clauses[::2] != (h, y):
            continue
        op = s.sub_clauses[1]
        i, j = h.clause_idx, s.clause_idx
        if (
            not y.can_match_zero_chars
            and not op.can_match_zero_chars
            and max(y.clause_idx, top[y.clause_idx]) < i
            and parents[j] == (i,)
            and all(p > i for p in parents[i] if p != j)
        ):
            walks[i] = walks[j] = level = _Level((h, s, y, op))
            level.chain = Seq((y, op, h))
    return walks


class _Level(tuple):
    """A walks entry (h, s, Y, op); chain, Y op H, is what the fill matches for s."""


def _read(sub):
    """The index of the clause a matcher reads for sub, a same-position
    subclause: a lookahead chain's innermost operand in the chain's place."""
    while type(sub) is NotFollowedBy:
        sub = sub.sub_clauses[0]
    return sub.clause_idx


def parse(grammar: Grammar, text: str) -> MemoTable:
    """Populate a memo table for text and return it.

    The table is complete: afterwards it answers lookup() for every clause
    and position, which is what tree extraction and error recovery consume.
    """
    table = MemoTable(grammar, text)
    table._run()
    return table
