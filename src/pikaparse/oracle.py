"""Top-down memoized reference parser.

This is the classic recursive packrat evaluator.  It builds each clause's
matcher with the bottom-up engine's per-kind factories (engine.make_matcher),
reading subclauses through its own memoizing evaluators, so the two differ
only in evaluation strategy; comparing their results exercises exactly the
bottom-up machinery: fill order, seeding, match improvement, and zero-length
synthesis.

The evaluator cannot handle left recursion, so it statically rejects
grammars where a clause can reach itself without consuming input.  The
memo is write-once: each (clause, position) is stored at most once, and
failures are memoized as None.  Like the engine's table, it holds the
matchers' packed (length, alternative) ints, and the engine's decoder
builds matches and their children from it on read, through a per-clause
value lookup over the memo as it stands.

Evaluations nest at most _MAX_NESTING entries deep: a deeper demand is
evaluated first and the chain that met it is retried, so any input length
runs on the caller's thread within the default recursion limit.
"""
from __future__ import annotations

from .clauses import First
from .engine import _Decoder, make_matcher
from .grammar import Grammar, depth_first, same_position_subs


class LeftRecursionError(ValueError):
    """Raised when the reference parser meets a left-recursive grammar."""


def ensure_no_left_recursion(grammar: Grammar, start_clause=None):
    """Raise LeftRecursionError if evaluation from the start clause could
    revisit a clause at the same input position."""
    root = start_clause if start_clause is not None else grammar.start_clause

    def fail(path, sub):
        cycle = path[path.index(sub):]
        name = next(
            (n for n in map(grammar.clause_name, cycle) if n is not None), None
        )
        where = "rule %r" % name if name else "clause %r" % sub
        raise LeftRecursionError(
            "grammar is left recursive through %s; the top-down "
            "reference parser cannot evaluate it" % where
        )

    depth_first([root], same_position_subs, fail)


class OracleResult(_Decoder):
    """A top-down parse: match is the start rule's Match at position 0, or
    None, and memo maps every (clause_idx, pos) evaluated to the packed
    value its matcher returned (len << grammar.alt_shift | alt_idx), or
    None.  match_at builds the Match of any memo entry; its children come
    from the engine's decoder, which reads the memo through _lookup."""

    def __init__(self, grammar, text, memo):
        self._init_decoding(grammar, text)
        self.memo = memo
        self.match = self.match_at(grammar.start_clause, 0)

    def match_at(self, clause, pos):
        v = self.memo[clause.clause_idx, pos]
        return None if v is None else self._match(clause, pos, v)

    def _lookup(self, i):
        memo = self.memo
        return lambda pos: memo.get((i, pos))


_BUSY = object()

# Entries one evaluation demands inside one another before its chain
# unwinds: two frames each (evaluator and matcher), far inside the default
# recursion limit wherever the parser is called from.
_MAX_NESTING = 200


class _TooDeep(Exception):
    """Raised with the (clause_idx, pos) demanded past _MAX_NESTING."""


def packrat_parse(grammar: Grammar, text: str, check_left_recursion: bool = True) -> OracleResult:
    """Parse text top-down from the grammar's start rule.

    Returns an OracleResult: the best match at position 0 (None on
    failure) and the complete memo of every evaluation performed.  Long
    chains of demands are unwound and retried (see _MAX_NESTING), so an
    entry on one may be evaluated twice, but is stored once.
    """
    start = grammar.start_clause
    if check_left_recursion:
        ensure_no_left_recursion(grammar, start)
    memo = {}
    clauses = grammar.all_clauses
    matchers = []
    depth = 0

    def evaluator(clause):
        idx = clause.clause_idx

        def evaluate(pos):
            nonlocal depth
            key = (idx, pos)
            if key in memo:
                hit = memo[key]
                if hit is _BUSY:
                    desc = repr(clause)
                    if len(desc) > 80:
                        desc = desc[:77] + "..."
                    raise LeftRecursionError(
                        "left recursion at position %d through %s" % (pos, desc)
                    )
                return hit
            if depth == _MAX_NESTING:
                raise _TooDeep(key)
            memo[key] = _BUSY
            depth += 1
            try:
                v = memo[key] = matchers[idx](pos)
            except _TooDeep:
                del memo[key]
                raise
            finally:
                depth -= 1
            return v

        return evaluate

    evaluators = [evaluator(c) for c in clauses]
    matchers.extend(
        make_matcher(c, text, lambda sub: evaluators[sub.clause_idx], grammar.alt_shift)
        for c in clauses
    )
    # The demands met past the nesting bound, deepest last.  Each stays
    # busy until it is stored, so one that its own chain demands again
    # fails as left recursion however many unwinds lie between.
    waiting = [(start.clause_idx, 0)]
    while waiting:
        key = waiting[-1]
        memo[key] = _BUSY
        try:
            memo[key] = matchers[key[0]](key[1])
        except _TooDeep as deep:
            waiting.append(deep.args[0])
        else:
            waiting.pop()
    return OracleResult(grammar, text, memo)


def same_shape(a, b) -> bool:
    """Structural equality of two match trees.

    Zero-length matches compare as leaves: the bottom-up engine synthesizes
    them childless on lookup, while the top-down evaluator builds them with
    children, and the two spellings mean the same empty derivation.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is None or y is None:
            if x is not y:
                return False
            continue
        if x.clause is not y.clause or x.pos != y.pos or x.len != y.len:
            return False
        if x.len == 0:
            continue
        if type(x.clause) is First and x.alt_idx != y.alt_idx:
            return False
        xs, ys = x.sub_matches, y.sub_matches
        if len(xs) != len(ys):
            return False
        stack.extend(zip(xs, ys))
    return True


def describe_match(m, limit: int = 60) -> str:
    """Compact one-line rendering of a match tree, for assertion messages."""
    if m is None:
        return "None"
    out = []
    stack = [m]
    while stack:
        if len(out) >= limit:
            out.append("...")
            break
        node = stack.pop()
        out.append(
            "%s[%d,%d)" % (type(node.clause).__name__, node.pos, node.pos + node.len)
        )
        stack.extend(reversed(node.sub_matches))
    return " ".join(out)
