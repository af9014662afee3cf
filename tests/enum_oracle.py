"""Exhaustive derivation enumeration over short inputs.

An independent ground truth for tree-shape tests: read the clause graph
as a plain CFG (ignoring choice order), find every way the start clause
can derive the input, and hand back all derivation trees.  When that set
has exactly one element, any correct parser must return it, so the
bottom-up engine's tree can be compared structurally with no reference
to the engine's own machinery.

Works span-by-span, so directly handles the left-recursive shapes the
engine supports.  Negative lookahead is judged against the converged
derivability table and rechecked to a fixed point; grammars where a
lookahead depends on its own result are out of scope (the iteration cap
raises).  Meant for compiled grammars, in either repetition mode, and
inputs of at most a dozen characters.
"""

from pikaparse.clauses import (
    Char,
    CharSet,
    First,
    Nothing,
    NotFollowedBy,
    OneOrMore,
    Seq,
    Str,
)

from helpers import repeats

MAX_TREES = 20000


def derivable(grammar, text):
    """The set of facts (clause_idx, start, end): clause derives text[start:end].

    Lookahead needs negation, so it lives outside the monotone core: fix
    an estimate of where each lookahead succeeds, saturate everything
    else against it, recompute the estimate from the result, repeat.
    """
    n = len(text)
    clauses = grammar.all_clauses
    lookaheads = [c for c in clauses if isinstance(c, NotFollowedBy)]
    estimate = {c.clause_idx: set(range(n + 1)) for c in lookaheads}
    for _ in range(2 * len(lookaheads) + 2):
        facts = _saturate(clauses, text, estimate)
        fresh = {}
        for c in lookaheads:
            sid = c.sub_clauses[0].clause_idx
            blocked = {i for (x, i, _) in facts if x == sid}
            fresh[c.clause_idx] = set(range(n + 1)) - blocked
        if fresh == estimate:
            return facts
        estimate = fresh
    raise AssertionError("lookahead estimates did not converge")


def _saturate(clauses, text, lookahead_at):
    n = len(text)
    facts = set()

    def seq_ends(c, i):
        # Positions reachable after each prefix of the element list.
        frontier = {i}
        for s in c.sub_clauses:
            sid = s.clause_idx
            frontier = {
                q
                for p in frontier
                for q in range(p, n + 1)
                if (sid, p, q) in facts
            }
            if not frontier:
                break
        return frontier

    for _ in range(4 * (len(clauses) + 2)):
        changed = False
        for c in clauses:
            cid = c.clause_idx
            if isinstance(c, Char):
                new = {(cid, i, i + 1) for i in range(n) if text[i] == c.char}
            elif isinstance(c, CharSet):
                new = {(cid, i, i + 1) for i in range(n) if c.matches_char(text[i])}
            elif isinstance(c, Str):
                k = len(c.string)
                new = {
                    (cid, i, i + k)
                    for i in range(n - k + 1)
                    if text.startswith(c.string, i)
                }
            elif isinstance(c, Nothing):
                new = {(cid, i, i) for i in range(n + 1)}
            elif isinstance(c, NotFollowedBy):
                new = {(cid, i, i) for i in lookahead_at[cid]}
            elif isinstance(c, First):
                subs = {s.clause_idx for s in c.sub_clauses}
                new = {(cid, i, j) for (x, i, j) in facts if x in subs}
            elif isinstance(c, Seq):
                new = {(cid, i, j) for i in range(n + 1) for j in seq_ends(c, i)}
            elif isinstance(c, OneOrMore):
                sid = c.sub_clauses[0].clause_idx
                new = set()
                for i in range(n + 1):
                    frontier, seen = {i}, set()
                    while frontier:
                        p = frontier.pop()
                        for q in range(p + 1, n + 1):
                            if (sid, p, q) in facts and q not in seen:
                                seen.add(q)
                                frontier.add(q)
                                new.add((cid, i, q))
                    if (sid, i, i) in facts:
                        new.add((cid, i, i))
            else:
                raise AssertionError("unexpected clause %r" % c)
            added = new - facts
            if added:
                facts |= added
                changed = True
        if not changed:
            return facts
    raise AssertionError("derivability did not converge")


def all_trees(grammar, text):
    """Every derivation tree of the whole input, in normalized form.

    Tree nodes are tuples.  Zero-length derivations are leaves, matching
    how the engine synthesizes them without children:
        ("0", clause_idx, pos)                     zero length
        ("t", clause_idx, pos, end)                terminal
        ("f", clause_idx, pos, end, alt, child)    choice
        ("n", clause_idx, pos, end, children)      sequence or repetition
    """
    facts = derivable(grammar, text)
    n = len(text)
    count = [0]
    on_path = set()

    def trees(c, i, j):
        cid = c.clause_idx
        if (cid, i, j) not in facts:
            return []
        if j == i:
            return [("0", cid, i)]
        if (cid, i, j) in on_path:
            # A finite derivation never properly contains itself over the
            # same span, so a revisit on the current path derives nothing
            # new; cutting here is what makes left recursion terminate.
            return []
        count[0] += 1
        if count[0] > MAX_TREES:
            raise AssertionError("too many derivations")
        on_path.add((cid, i, j))
        try:
            if isinstance(c, (Char, CharSet, Str)):
                return [("t", cid, i, j)]
            if isinstance(c, First):
                out = []
                for a, s in enumerate(c.sub_clauses):
                    for t in trees(s, i, j):
                        out.append(("f", cid, i, j, a, t))
                return out
            if isinstance(c, Seq):
                subs = c.sub_clauses
                out = []

                def assign(k, pos, acc):
                    if k == len(subs):
                        if pos == j:
                            out.append(("n", cid, i, j, tuple(acc)))
                        return
                    s = subs[k]
                    for q in range(pos, j + 1):
                        if (s.clause_idx, pos, q) in facts:
                            for t in trees(s, pos, q):
                                assign(k + 1, q, acc + [t])

                assign(0, i, [])
                return out
            if isinstance(c, OneOrMore):
                s = c.sub_clauses[0]
                out = []

                def reps(pos, acc):
                    if pos == j and acc:
                        out.append(("n", cid, i, j, tuple(acc)))
                    for q in range(pos + 1, j + 1):
                        if (s.clause_idx, pos, q) in facts:
                            for t in trees(s, pos, q):
                                reps(q, acc + [t])

                reps(i, [])
                return out
            raise AssertionError("unexpected clause %r" % c)
        finally:
            on_path.discard((cid, i, j))

    return trees(grammar.start_clause, 0, n)


def norm_match(m):
    """The engine Match tree in the same normalized form as all_trees."""
    if m.len == 0:
        return ("0", m.clause.clause_idx, m.pos)
    cid = m.clause.clause_idx
    if isinstance(m.clause, First):
        return ("f", cid, m.pos, m.pos + m.len, m.alt_idx, norm_match(m.sub_matches[0]))
    if isinstance(m.clause, OneOrMore):
        # all_trees lists a repetition's repeats flat, as a greedy match does.
        return ("n", cid, m.pos, m.pos + m.len, tuple(norm_match(s) for s in repeats(m)))
    if isinstance(m.clause, Seq):
        return ("n", cid, m.pos, m.pos + m.len, tuple(norm_match(s) for s in m.sub_matches))
    return ("t", cid, m.pos, m.pos + m.len)
