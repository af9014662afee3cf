"""Grammar assembly: desugaring, repetition rewriting, interning, topological
ordering, nullability and seed-parent analysis.

`assemble_grammar` runs the whole pipeline over a flat rule list (precedence
shorthand must already be expanded, see metagrammar.rewrite_precedence_hierarchy)
and returns a Grammar ready for the matching engine:

1. desugar surface kinds (FollowedBy, Optional, ZeroOrMore)
2. rewrite each repetition into a right-recursive chain (on by default)
3. intern structurally identical clauses to single objects
4. replace every RuleRef with a direct reference to the target rule's clause
5. topologically order clauses bottom-up and assign clause_idx
6. compute can_match_zero_chars (fixed point over cycles)
7. validate (empty-match placement, nullable repetition bodies) and warn on
   dead First alternatives
8. compute seed parent clauses
"""
from __future__ import annotations

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
    first visible rule owning a clause wins; synthetic helpers and aliases
    only name clauses nothing else claims.  Every rule clause ends up named,
    which is what lets display_clause terminate on the cyclic graphs
    assembly produces.
    """

    def __init__(self, rules, all_clauses, start_rule):
        self.rules = rules
        self.all_clauses = all_clauses
        self.start_rule = start_rule
        self.rule_map = {r.name: r for r in rules}
        self.names = {}
        for r in sorted(rules, key=lambda r: 1 if r.hidden else 2 if r.alias else 0):
            self.names.setdefault(id(r.clause), r.name)
        self._node_names = {}

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


def _rebuild(clause: Clause, subs, labels) -> Clause:
    new = type(clause)(subs, labels)
    new.repeat_body = clause.repeat_body
    new.repeat_tail = clause.repeat_tail
    return new


# ---------------------------------------------------------------------------
# desugaring

def desugar(clause: Clause) -> Clause:
    """Rewrite surface sugar into core clauses, recursively.

    X? -> (X / ()),  X* -> (X+ / ()),  &X -> !!X.  Edge labels survive on the
    rewritten edge.
    """
    subs = tuple(desugar(s) for s in clause.sub_clauses)
    labels = clause.sub_clause_labels
    if isinstance(clause, Optional):
        return First((subs[0], Nothing()), (labels[0], None))
    if isinstance(clause, ZeroOrMore):
        return First((OneOrMore(subs, labels), Nothing()))
    if isinstance(clause, FollowedBy):
        return NotFollowedBy((NotFollowedBy(subs, labels),))
    if subs == clause.sub_clauses:
        return clause
    return _rebuild(clause, subs, labels)


# ---------------------------------------------------------------------------
# repetition rewrite

def _is_star(clause: Clause) -> bool:
    # The shape X* desugars to: (X+ / ())
    return (
        isinstance(clause, First)
        and len(clause.sub_clauses) == 2
        and isinstance(clause.sub_clauses[0], OneOrMore)
        and isinstance(clause.sub_clauses[1], Nothing)
    )


def rewrite_one_or_more(rule: Rule, fresh_name) -> list[Rule]:
    """Replace every repetition with a right-recursive chain.

    A repetition that is a rule's whole body reuses the rule itself for the
    chain: (X <- Y+) becomes (X <- Y (X / ())), and (X <- Y*) becomes
    (X <- (Y X) / ()).  A repetition anywhere else gets a hidden helper rule
    of the same shape.  Chained this way, a run of k repeats adds one memo
    row per start position instead of the k(k+1)/2 rows a greedy repetition
    stores; tree extraction walks each chain back into one node per loop.

    fresh_name(base) must return an unused rule name.  Returns the rewritten
    rule followed by any helper rules created for it.
    """
    helpers = []

    def plus_chain(sub, label, name):
        tail = First((RuleRef(name), Nothing()))
        tail.repeat_tail = True
        body = Seq((sub, tail), (label, None))
        body.repeat_body = True
        return body

    def star_chain(sub, label, first_labels, name):
        body = Seq((sub, RuleRef(name)), (label, None))
        body.repeat_body = True
        outer = First((body, Nothing()), first_labels)
        outer.repeat_tail = True
        return outer

    def helper_for(build):
        name = fresh_name(rule.name)
        r = Rule(name, Nothing(), hidden=True)
        r.clause = build(name)
        helpers.append(r)
        return RuleRef(name)

    def walk(clause):
        if _is_star(clause):
            rep = clause.sub_clauses[0]
            sub = walk(rep.sub_clauses[0])
            label = rep.sub_clause_labels[0]
            outer_labels = clause.sub_clause_labels
            return helper_for(lambda n: star_chain(sub, label, outer_labels, n))
        if isinstance(clause, OneOrMore):
            sub = walk(clause.sub_clauses[0])
            label = clause.sub_clause_labels[0]
            return helper_for(lambda n: plus_chain(sub, label, n))
        subs = tuple(walk(s) for s in clause.sub_clauses)
        if subs == clause.sub_clauses:
            return clause
        return _rebuild(clause, subs, clause.sub_clause_labels)

    body = rule.clause
    if _is_star(body):
        rep = body.sub_clauses[0]
        rule.clause = star_chain(
            walk(rep.sub_clauses[0]),
            rep.sub_clause_labels[0],
            body.sub_clause_labels,
            rule.name,
        )
    elif isinstance(body, OneOrMore):
        rule.clause = plus_chain(
            walk(body.sub_clauses[0]), body.sub_clause_labels[0], rule.name
        )
    else:
        rule.clause = walk(body)
    return [rule] + helpers


# ---------------------------------------------------------------------------
# interning and reference resolution

def _intern_rules(rules):
    canon = {}

    def visit(clause):
        subs = tuple(visit(s) for s in clause.sub_clauses)
        key = (
            type(clause).__name__,
            clause.payload(),
            clause.sub_clause_labels,
            tuple(id(s) for s in subs),
        )
        hit = canon.get(key)
        if hit is not None:
            return hit
        if subs != clause.sub_clauses:
            clause.sub_clauses = subs
        canon[key] = clause
        return clause

    for r in rules:
        r.clause = visit(r.clause)


def _resolve_refs(rules):
    by_name = {r.name: r for r in rules}

    def target(name):
        seen = []
        while True:
            r = by_name.get(name)
            if r is None:
                raise GrammarError("reference to unknown rule %r" % name)
            if not isinstance(r.clause, RuleRef):
                return r.clause
            if name in seen:
                raise GrammarError("rule alias cycle through %r" % name)
            seen.append(name)
            name = r.clause.rule_name

    for r in rules:
        if isinstance(r.clause, RuleRef):
            r.clause = target(r.clause.rule_name)
    visited = set()
    stack = [r.clause for r in rules]
    while stack:
        c = stack.pop()
        if c in visited:
            continue
        visited.add(c)
        if any(isinstance(s, RuleRef) for s in c.sub_clauses):
            c.sub_clauses = tuple(
                target(s.rule_name) if isinstance(s, RuleRef) else s
                for s in c.sub_clauses
            )
        stack.extend(c.sub_clauses)


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

def topo_sort_clauses(rules, lowest_precedence_clauses=()):
    """Order all reachable clauses bottom-up and assign clause_idx.

    DFS roots, in order: rule clauses nothing else references, the lowest
    precedence level of each shorthand hierarchy, then cycle heads: the
    targets of back edges found by one depth_first pass from the
    unreferenced rule clauses and then every rule clause, in first-found
    order.  Rule declaration order keeps the result deterministic.
    Terminals are then stably moved to the lowest indexes so the
    per-position seeding step can treat them as one block.
    """
    referenced = set()
    for c in depth_first(r.clause for r in rules):
        referenced.update(c.sub_clauses)
    top_level = list(dict.fromkeys(
        r.clause for r in rules if r.clause not in referenced
    ))

    heads = {}
    depth_first(
        top_level + [r.clause for r in rules],
        on_back_edge=lambda path, sub: heads.setdefault(sub, True),
    )

    ordered = depth_first(top_level + list(lowest_precedence_clauses) + list(heads))
    reached = set(ordered)
    for r in rules:
        if r.clause not in reached:
            raise GrammarError(
                "rule %r is unreachable from every ordering root" % r.name
            )

    final = [c for c in ordered if c.is_terminal]
    final.extend(c for c in ordered if not c.is_terminal)
    for i, c in enumerate(final):
        c.clause_idx = i
    return final


# ---------------------------------------------------------------------------
# nullability and seed parents

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


def compute_seed_parents(all_clauses):
    """Record, per clause, the parents to reschedule when it matches.

    A parent belongs in a child's seed list when the child's match can begin
    at the position the parent's match would, which is what
    same_position_subs lists.  Each parent appears once per child.
    NotFollowedBy is evaluated on demand and seeds nothing, although its
    operand is tried at its own position.
    """
    for c in all_clauses:
        c.seed_parent_clauses = []
    for parent in all_clauses:
        if not isinstance(parent, NotFollowedBy):
            for sub in dict.fromkeys(same_position_subs(parent)):
                sub.seed_parent_clauses.append(parent)


# ---------------------------------------------------------------------------
# validation

def _validate(all_clauses):
    for c in all_clauses:
        if isinstance(c, (Seq, First)) and isinstance(c.sub_clauses[0], Nothing):
            raise GrammarError(
                "the empty-match clause () cannot come first in %r; matching "
                "would never be triggered through it" % c
            )
        body = None
        if isinstance(c, OneOrMore):
            body = c.sub_clauses[0]
        elif isinstance(c, Seq) and c.repeat_body:
            body = c.sub_clauses[0]
        if body is not None and body.can_match_zero_chars:
            raise GrammarError(
                "repetition body %r can match zero characters, so the "
                "repetition count is unbounded" % body
            )
        if isinstance(c, First) and not c.repeat_tail:
            for i, s in enumerate(c.sub_clauses[:-1]):
                if s.can_match_zero_chars:
                    warnings.warn(
                        "alternative %d of %r always matches, making later "
                        "alternatives unreachable" % (i, c),
                        GrammarWarning,
                        stacklevel=4,
                    )
                    break


# ---------------------------------------------------------------------------
# assembly

def assemble_grammar(rules, start_rule=None, rewrite_repetitions=True) -> Grammar:
    """Run the full preprocessing pipeline and return a Grammar.

    rules must be flat: any precedence shorthand has to be expanded first
    (metagrammar.rewrite_precedence_hierarchy does that).  start_rule
    defaults to the first declared rule.  Assembly rewrites the given rules
    and annotates their clause objects in place, so neither can be passed
    to a second assembly.
    """
    rules = list(rules)
    if not rules:
        raise GrammarError("a grammar needs at least one rule")
    for c in depth_first(r.clause for r in rules):
        if c.clause_idx != -1:
            raise GrammarError(
                "clause %r already belongs to an assembled grammar; build "
                "new clause objects for each grammar" % c
            )
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

    for r in rules:
        r.clause = desugar(r.clause)

    if rewrite_repetitions:
        counters = {}

        def fresh_name(base):
            while True:
                n = counters.get(base, 0) + 1
                counters[base] = n
                cand = "%s~%d" % (base, n)
                if cand not in names:
                    names.add(cand)
                    return cand

        expanded = []
        for r in rules:
            expanded.extend(rewrite_one_or_more(r, fresh_name))
        rules = expanded

    _intern_rules(rules)
    _resolve_refs(rules)

    lowest = []
    seen_groups = set()
    for r in rules:
        g = r.precedence_group
        if g is not None and g not in seen_groups and r.precedence is not None:
            seen_groups.add(g)
            members = [
                x for x in rules
                if x.precedence_group == g and x.precedence is not None
            ]
            lowest.append(min(members, key=lambda x: x.precedence).clause)

    all_clauses = topo_sort_clauses(rules, lowest)
    compute_can_match_zero_chars(all_clauses)
    _validate(all_clauses)
    compute_seed_parents(all_clauses)

    return Grammar(rules, all_clauses, start_rule)
