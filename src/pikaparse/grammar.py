"""Grammar assembly: lowering, nullability, topological ordering and
validation.

`assemble_grammar` runs the whole pipeline over a flat rule list (precedence
shorthand must already be expanded, see metagrammar.rewrite_precedence_hierarchy)
and returns a Grammar ready for the matching engine:

1. lower the rules into new clause objects in one bottom-up walk: surface
   kinds (FollowedBy, Optional, ZeroOrMore) become core clauses, each
   OneOrMore is marked chained so it matches right-recursively (on by
   default), structurally identical clauses are interned to single
   objects, and every RuleRef is replaced with the target rule's clause
2. compute can_match_zero_chars and reaches_label (fixed points over
   cycles)
3. order clauses bottom-up by what they read at their own start position
   and assign clause_idx
4. validate (empty-match placement, nullable repetition bodies, lookahead
   cycles, empty matches that depend on a lookahead) and warn on dead First
   alternatives
"""
from __future__ import annotations

import copy
import warnings
from operator import attrgetter

from .clauses import (
    Clause,
    First,
    FollowedBy,
    GrammarError,
    GrammarWarning,
    Nothing,
    NotFollowedBy,
    OneOrMore,
    Optional,
    Rule,
    RuleRef,
    Seq,
    ZeroOrMore,
)


class Grammar:
    """An assembled grammar: rules plus the deduplicated, ordered clause list.

    names maps id(clause) to the name of the rule owning that clause.  The
    first declared rule owning a clause wins; precedence aliases only name
    clauses nothing else claims.  Every rule clause ends up named, which is
    what lets display_clause terminate on the cyclic graphs assembly
    produces.
    """

    def __init__(self, rules, all_clauses, start_rule):
        self.rules = rules
        self.all_clauses = all_clauses
        self.start_rule = start_rule
        self.rule_map = {r.name: r for r in rules}
        self.names = {}
        for r in sorted(rules, key=attrgetter("alias")):
            self.names.setdefault(id(r.clause), r.name)
        self._node_names = {}
        # Bits the alternative index takes in the engine's packed match
        # values (len << alt_shift | alt): enough for the widest First.
        self.alt_shift = max(
            ((len(c.sub_clauses) - 1).bit_length() for c in all_clauses if isinstance(c, First)),
            default=0,
        )
        # The engine's per-grammar state, built on first use (engine._plan).
        self.fill_plan = None

    def rule(self, name: str) -> Rule:
        r = self.rule_map.get(name)
        if r is None:
            raise GrammarError("unknown rule %r" % name)
        return r

    def rule_clause(self, name: str) -> Clause:
        return self.rule(name).clause

    @property
    def start_clause(self) -> Clause:
        return self.rule_clause(self.start_rule)

    def clause_name(self, clause: Clause):
        """Rule name for a clause that is some rule's body, else None."""
        return self.names.get(id(clause))

    def display_clause(self, clause: Clause) -> str:
        """Canonical text with subrule bodies rendered as their names."""
        return clause.display(self.names, -1)

    def node_name(self, clause: Clause) -> str:
        got = self._node_names.get(id(clause))
        if got is None:
            got = self.clause_name(clause) or self.display_clause(clause)
            self._node_names[id(clause)] = got
        return got

    def __repr__(self):
        return "Grammar(%d rules, %d clauses, start=%r)" % (
            len(self.rules),
            len(self.all_clauses),
            self.start_rule,
        )


# ---------------------------------------------------------------------------
# lowering: sugar, chained repetitions, interning and reference resolution

# Deepest clause nesting a rule body may have.  Lowering recurses once per
# level, so this keeps it inside the interpreter's recursion limit.  A text
# grammar within metagrammar.MAX_NESTING nests at most 201 levels, 203 once
# precedence shorthand wraps a level's body and a self-reference.
MAX_CLAUSE_DEPTH = 256

_EMPTY = Nothing()


def _lower_rules(rules, rewrite_repetitions):
    """Lower rules onto the core clause set, in new objects.

    One bottom-up walk over the rule bodies, lowering each distinct clause
    once, rewrites X? to (X / ()), X* to (X+ / ()) and &X to !!X.  Every
    X+ is marked chained when rewrite_repetitions is set, so it matches
    right-recursively and a run of k repeats adds one memo entry per start
    position instead of the k(k+1)/2 children a greedy repetition stores.

    Every clause is interned as it is built, a leaf keyed on its kind and
    payload and a composite on its kind, edge labels and interned
    subclauses, so structurally identical clauses are one object.  Rule
    references are then replaced by the clauses they name.  Returns the
    new rules; the given rules and clauses are left as they are.
    """
    canon = {}

    def make(kind, subs, labels):
        key = (kind, labels, tuple(map(id, subs)))
        c = canon.get(key)
        if c is None:
            c = canon[key] = kind(subs, labels)
            if kind is OneOrMore:
                c.chained = rewrite_repetitions
        return c

    def leaf(clause):
        payload = clause.payload()
        key = (type(clause), payload)
        c = canon.get(key)
        if c is None:
            c = canon[key] = type(clause)(*payload)
        return c

    memo = {}

    def lower(clause, depth, rule_name):
        # Returns (lowered clause, levels it nests).  A clause shared by
        # several parents is lowered once, so a DAG costs its size, not its
        # size unfolded into a tree; its nesting still counts at every depth.
        got = memo.get(id(clause))
        if depth + (got[1] - 1 if got else 0) > MAX_CLAUSE_DEPTH:
            raise GrammarError(
                "rule %r nests clauses more than %d levels deep"
                % (rule_name, MAX_CLAUSE_DEPTH)
            )
        if got is not None:
            return got
        if not clause.sub_clauses:
            got = memo[id(clause)] = leaf(clause), 1
            return got
        subs = []
        height = 0
        for s in clause.sub_clauses:
            sub, h = lower(s, depth + 1, rule_name)
            subs.append(sub)
            if h > height:
                height = h
        labels = clause.sub_clause_labels
        if isinstance(clause, Optional):
            new = make(First, (subs[0], leaf(_EMPTY)), (labels[0], None))
        elif isinstance(clause, ZeroOrMore):
            new = make(First, (make(OneOrMore, subs, labels), leaf(_EMPTY)), (None, None))
        elif isinstance(clause, FollowedBy):
            new = make(NotFollowedBy, (make(NotFollowedBy, subs, labels),), (None,))
        else:
            new = make(type(clause), subs, labels)
        got = memo[id(clause)] = new, height + 1
        return got

    out = []
    for r in rules:
        lowered = copy.copy(r)
        lowered.clause = lower(r.clause, 1, r.name)[0]
        out.append(lowered)

    by_name = {r.name: r for r in out}

    def target(name):
        # Each alias on the chain takes the clause it resolves to: no chain is walked twice.
        chain = {}
        while True:
            r = by_name.get(name)
            if r is None:
                raise GrammarError("reference to unknown rule %r" % name)
            if not isinstance(r.clause, RuleRef):
                for alias in chain.values():
                    alias.clause = r.clause
                return r.clause
            if name in chain:
                raise GrammarError("rule alias cycle through %r" % name)
            chain[name] = r
            name = r.clause.rule_name

    for r in out:
        if isinstance(r.clause, RuleRef):
            r.clause = target(r.clause.rule_name)
    for c in canon.values():
        if any(isinstance(s, RuleRef) for s in c.sub_clauses):
            c.sub_clauses = tuple(
                target(s.rule_name) if isinstance(s, RuleRef) else s
                for s in c.sub_clauses
            )
    return out


# ---------------------------------------------------------------------------
# graph walks

def depth_first(roots, subs_of=attrgetter("sub_clauses"), on_back_edge=None):
    """Iterative depth-first walk from each root in order; returns the
    postorder, each clause once.

    subs_of(clause) gives the edges to follow.  on_back_edge(path, sub) is
    called for every edge that closes a cycle, that is, an edge to a clause
    on the current path; path runs from the root to the edge's source.
    """
    order = []
    done = set()
    for root in roots:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        stack = [iter(subs_of(root))]
        while stack:
            for sub in stack[-1]:
                if sub in on_path:
                    if on_back_edge is not None:
                        on_back_edge(path, sub)
                elif sub not in done:
                    path.append(sub)
                    on_path.add(sub)
                    stack.append(iter(subs_of(sub)))
                    break
            else:
                node = path.pop()
                on_path.discard(node)
                done.add(node)
                order.append(node)
                stack.pop()
    return order


def same_position_subs(clause):
    """Subclauses tried at the position where clause itself starts: every
    First alternative, the OneOrMore or NotFollowedBy operand, and each Seq
    element up to and including the first that cannot match zero
    characters."""
    if isinstance(clause, Seq):
        subs = []
        for s in clause.sub_clauses:
            subs.append(s)
            if not s.can_match_zero_chars:
                break
        return subs
    if isinstance(clause, (First, OneOrMore, NotFollowedBy)):
        return clause.sub_clauses
    return ()


# ---------------------------------------------------------------------------
# topological ordering (bottom-up clause index assignment)

def topo_sort_clauses(clauses, heads):
    """Order clauses bottom-up by what the fill reads, and assign clause_idx.

    clauses is the depth-first postorder over all edges from the start
    rule and then the other rules in declaration order, and heads the
    targets of its back edges, in the order found.  A depth-first
    postorder over same_position_subs puts every clause above each clause
    it reads at its own start position, except where that read closes a
    same-position cycle; can_match_zero_chars must be set, since it decides
    what a sequence reads there.  Only the order within a cycle changes the
    filled table, and the clause a walk enters a cycle at sorts above the
    rest of it.  So the walk is rooted at heads first: it enters a
    left-recursive cycle where the walk from the start rule closed it
    first, normally at the rule itself, not where another rule reads into
    it, whatever order the rules are declared in.
    Then it is rooted at clauses in reverse, top-down.  Terminals are then
    stably moved to the lowest indexes, so the fill's queue tries a
    column's terminals before any clause that reads them.
    """
    ordered = depth_first([*heads, *reversed(clauses)], same_position_subs)
    final = [c for c in ordered if c.is_terminal]
    final.extend(c for c in ordered if not c.is_terminal)
    for i, c in enumerate(final):
        c.clause_idx = i
    return final


# ---------------------------------------------------------------------------
# nullability

def compute_can_match_zero_chars(all_clauses):
    """Fixed-point nullability, starting every clause at False.

    Cycles converge because the update is monotone: a clause only ever flips
    from False to True.  Also records, per First, which alternative a
    synthesized zero-length match should claim.
    """
    for c in all_clauses:
        c.can_match_zero_chars = isinstance(c, (Nothing, NotFollowedBy))
    changed = True
    while changed:
        changed = False
        for c in all_clauses:
            if c.can_match_zero_chars:
                continue
            if isinstance(c, Seq):
                new = all(s.can_match_zero_chars for s in c.sub_clauses)
            elif isinstance(c, First):
                new = any(s.can_match_zero_chars for s in c.sub_clauses)
            elif isinstance(c, OneOrMore):
                new = c.sub_clauses[0].can_match_zero_chars
            else:
                continue
            if new:
                c.can_match_zero_chars = True
                changed = True
    for c in all_clauses:
        if isinstance(c, First):
            c.zero_idx = next(
                (i for i, s in enumerate(c.sub_clauses) if s.can_match_zero_chars),
                0,
            )


def compute_reaches_label(all_clauses):
    """Fixed point of which clauses have a labeled edge below them: only
    their parse-tree nodes can hold a labeled node below them."""
    for c in all_clauses:
        c.reaches_label = any(label is not None for label in c.sub_clause_labels)
    changed = True
    while changed:
        changed = False
        for c in all_clauses:
            if not c.reaches_label and any(s.reaches_label for s in c.sub_clauses):
                c.reaches_label = changed = True


# ---------------------------------------------------------------------------
# validation

def _validate(rules, all_clauses):
    for c in all_clauses:
        if isinstance(c, (Seq, First)) and isinstance(c.sub_clauses[0], Nothing):
            raise GrammarError(
                "the empty-match clause () cannot come first in %r; matching "
                "would never be triggered through it" % c
            )
        # Where nothing is stored, a clause that can match zero characters
        # reads as a zero-length match, which assumes that match cannot
        # fail.  It can if a lookahead is part of it: an element of a Seq,
        # or the alternative a First's empty match takes.  Direct parts are
        # enough to check, because any clause whose empty match holds a
        # lookahead deeper down holds such a Seq or First.
        if isinstance(c, First):
            empty_parts = (c.sub_clauses[c.zero_idx],)
        else:
            empty_parts = c.sub_clauses if isinstance(c, Seq) else ()
        if c.can_match_zero_chars and any(isinstance(s, NotFollowedBy) for s in empty_parts):
            raise GrammarError(
                "%r matches zero characters only if a lookahead in it "
                "succeeds, and the parser cannot check that where it "
                "assumes the empty match" % c
            )
        if isinstance(c, OneOrMore) and c.sub_clauses[0].can_match_zero_chars:
            raise GrammarError(
                "repetition body %r can match zero characters, so the "
                "repetition count is unbounded" % c.sub_clauses[0]
            )
        if isinstance(c, First):
            for i, s in enumerate(c.sub_clauses[:-1]):
                if s.can_match_zero_chars:
                    warnings.warn(
                        "alternative %d of %r always matches, making later "
                        "alternatives unreachable" % (i, c),
                        GrammarWarning,
                        stacklevel=4,
                    )
                    break

    # Lookahead is evaluated on demand, down a chain of directly nested
    # NotFollowedBy clauses; a chain that loops would never reach the input.
    def lookahead_cycle(path, sub):
        cycle = path[path.index(sub):]
        raise GrammarError(
            "the lookaheads of rule %r form a cycle, so none of them ever "
            "tests the input" % next(r.name for r in rules if r.clause in cycle)
        )

    depth_first(
        [c for c in all_clauses if isinstance(c, NotFollowedBy)],
        lambda c: c.sub_clauses if isinstance(c.sub_clauses[0], NotFollowedBy) else (),
        lookahead_cycle,
    )


# ---------------------------------------------------------------------------
# assembly

def assemble_grammar(rules, start_rule=None, rewrite_repetitions=True) -> Grammar:
    """Run the full preprocessing pipeline and return a Grammar.

    rules must be flat: any precedence shorthand has to be expanded first
    (metagrammar.rewrite_precedence_hierarchy does that).  start_rule
    defaults to the first declared rule.  rewrite_repetitions makes every
    X+ match right-recursively; without it X+ matches greedily.  Trees and
    answers are the same either way, only the memo table differs.
    Assembly builds its own rules and clauses and leaves the given ones
    unchanged, so they can be assembled again, alone or as parts of other
    grammars.
    """
    rules = list(rules)
    if not rules:
        raise GrammarError("a grammar needs at least one rule")
    for r in rules:
        if r.precedence is not None and r.precedence_group is None:
            raise GrammarError(
                "rule %r still carries precedence shorthand; expand the "
                "hierarchy before assembling" % r.name
            )
    names = set()
    for r in rules:
        if r.name in names:
            raise GrammarError("duplicate rule name %r" % r.name)
        names.add(r.name)

    if start_rule is None:
        start_rule = rules[0].name
    elif start_rule not in names:
        raise GrammarError("start rule %r is not defined" % start_rule)

    rules = _lower_rules(rules, rewrite_repetitions)
    heads = {}
    clauses = depth_first(
        (r.clause for r in sorted(rules, key=lambda r: r.name != start_rule)),
        on_back_edge=lambda path, sub: heads.setdefault(sub),
    )
    compute_can_match_zero_chars(clauses)
    compute_reaches_label(clauses)
    all_clauses = topo_sort_clauses(clauses, heads)
    _validate(rules, all_clauses)

    return Grammar(rules, all_clauses, start_rule)
