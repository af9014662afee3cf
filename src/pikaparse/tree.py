"""Parse trees and ASTs extracted from a filled memo table.

Extraction never recurses: chained repetitions and left-recursive operator
runs make match depth proportional to input length, so every walk here uses
an explicit stack or loop.

A repetition becomes one node whose children are its repeats in input
order, whether its match holds them flat (greedy) or nested (chained), so
trees do not depend on how the grammar was assembled.

to_ast keeps only labeled nodes.  An unlabeled node dissolves and its
labeled descendants attach to the nearest labeled ancestor.
"""
from __future__ import annotations

from itertools import repeat

from .clauses import First, OneOrMore
from .engine import Match, MemoTable


class ParseTreeNode:
    """One node of the concrete parse tree.

    name is the owning rule's name when the clause is a rule body, else the
    clause's canonical text.  label is the AST label attached where this
    node was referenced, if any.  text is the covered slice of the input.
    """

    __slots__ = ("clause", "name", "label", "pos", "len", "source", "children")

    def __init__(self, clause, name, label, pos, length, source):
        self.clause = clause
        self.name = name
        self.label = label
        self.pos = pos
        self.len = length
        self.source = source
        self.children = []

    @property
    def end(self):
        return self.pos + self.len

    @property
    def text(self):
        return self.source[self.pos : self.pos + self.len]

    def __repr__(self):
        return "<%s [%d,%d)%s>" % (
            self.name,
            self.pos,
            self.end,
            " %s" % self.label if self.label else "",
        )


class ASTNode:
    """A labeled node surviving AST projection."""

    __slots__ = ("label", "pos", "len", "source", "children")

    def __init__(self, label, pos, length, source, children):
        self.label = label
        self.pos = pos
        self.len = length
        self.source = source
        self.children = children

    @property
    def end(self):
        return self.pos + self.len

    @property
    def text(self):
        return self.source[self.pos : self.pos + self.len]

    def __repr__(self):
        return "<%s [%d,%d) %d children>" % (
            self.label,
            self.pos,
            self.end,
            len(self.children),
        )


def _children(entry):
    """The children of a (clause, pos, length, alt_idx, source) entry, as
    entries (see engine.Match).  A match read from a memo table builds its
    children on every read, so each node's are read once."""
    clause, pos, length, alt_idx, source = entry
    return source._entries(clause, pos, length, alt_idx) if source else ()


def _repeat_entries(entry):
    """The repeats of a OneOrMore entry, in input order.  A chained match
    holds its first repeat and then the match of the rest."""
    subs = _children(entry)
    if not entry[0].chained:
        return subs
    items = [subs[0]]
    while len(subs) == 2:
        subs = _children(subs[1])
        items.append(subs[0])
    return items


def node_from_match(match: Match, grammar, source: str) -> ParseTreeNode:
    """Build the parse tree for one match, iteratively.

    A repetition becomes a single node holding its repeats.  The walk
    reads the matches below match as entries (see _children), without
    building a Match for each.
    """
    name = grammar.node_name
    top = (match.clause, match.pos, match.len, match.alt_idx, match)
    root = ParseTreeNode(match.clause, name(match.clause), None, match.pos, match.len, source)
    stack = [(top, root)]
    while stack:
        entry, node = stack.pop()
        clause, pos, length, alt_idx, subs = entry
        if not subs:
            continue
        kind = type(clause)
        labels = clause.sub_clause_labels
        if kind is OneOrMore:
            kids = [(e, labels[0]) for e in _repeat_entries(entry)]
        else:
            entries = subs._entries(clause, pos, length, alt_idx)
            if kind is First:
                kids = [(e, labels[alt_idx]) for e in entries]
            else:
                kids = zip(entries, labels)
        children = node.children
        for e, label in kids:
            c = e[0]
            child = ParseTreeNode(c, name(c), label, e[1], e[2], source)
            children.append(child)
            stack.append((e, child))
    return root


def extract_parse_tree(table: MemoTable):
    """Parse tree of the start rule's best match at position 0, or None.

    The match need not span the whole input; check table.matched_whole()
    when that distinction matters.
    """
    m = table.start_match()
    if m is None:
        return None
    return node_from_match(m, table.grammar, table.text)


def to_ast(root: ParseTreeNode):
    """Project a parse tree down to its labeled nodes.

    Returns None when nothing is labeled, the single ASTNode when exactly
    one survives at top level, else a synthetic unlabeled root holding them.
    """
    if root is None:
        return None
    # Preorder, with each node paired with the list its labeled
    # descendants go to: a labeled node appends itself there and hands its
    # own children list down; an unlabeled one hands its list through.
    top = []
    stack = [(root, top)]
    while stack:
        node, out = stack.pop()
        if node.label is not None:
            ast = ASTNode(node.label, node.pos, node.len, node.source, [])
            out.append(ast)
            out = ast.children
        kids = node.children
        if kids:
            stack.extend(zip(reversed(kids), repeat(out)))
    if not top:
        return None
    if len(top) == 1:
        return top[0]
    return ASTNode(None, root.pos, root.len, root.source, top)
