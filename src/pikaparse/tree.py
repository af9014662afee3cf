"""Parse trees and ASTs extracted from a filled memo table.

A tree is built on read: extraction builds the root, and each node builds
its children from its memo entry when they are first read.  Nothing here
recurses: chained repetitions and left-recursive operator runs make match
depth proportional to input length, so every walk uses an explicit stack.

_kids is the one place an entry becomes a node's children.  A repetition's
are its repeats in input order, whether its match holds them flat (greedy)
or nested (chained): trees do not depend on how the grammar was assembled.

to_ast keeps only labeled nodes.  An unlabeled node dissolves and its
labeled descendants attach to the nearest labeled ancestor.  Below a node
whose children are unbuilt it walks the entries _kids gives, so it builds
no parse-tree node and leaves the tree unread.  It reads the children only
of entries whose clause reaches a labeled edge (see
grammar.compute_reaches_label).
"""
from __future__ import annotations

from itertools import repeat

from .clauses import First, OneOrMore
from .engine import Match, MemoTable


class _Node:
    """A labeled span of the source text, with its child nodes."""

    __slots__ = ("label", "pos", "len", "source", "children")

    @property
    def end(self):
        return self.pos + self.len

    @property
    def text(self):
        return self.source[self.pos : self.pos + self.len]


class ParseTreeNode(_Node):
    """One node of the concrete parse tree.

    name is the owning rule's name when the clause is a rule body, else the
    clause's canonical text.  label is the AST label attached where this
    node was referenced, if any.  text is the covered slice of the input.

    A node is built from a memo entry (see _children) with the label of the
    edge it was read through.  It builds its children on their first read,
    from the entry it keeps until then, so it holds the table alive until
    its whole subtree has been read.
    """

    __slots__ = ("clause", "name", "_entry", "_grammar")

    def __init__(self, entry, label, grammar, text):
        clause = entry[0]
        self.clause = clause
        self.name = grammar.node_name(clause)
        self.label = label
        self.pos = entry[1]
        self.len = entry[2]
        self.source = text
        if entry[4]:
            self._entry = entry
            self._grammar = grammar
        else:
            self.children = []

    def __getattr__(self, attr):
        # Only an unset slot gets here: children of a node whose entry has
        # some, before their first read.  Build them and drop the entry.
        if attr != "children":
            raise AttributeError(attr)
        entry = self._entry
        if entry is None:  # another thread built them since
            return self.children
        grammar, text = self._grammar, self.source
        self.children = kids = [
            ParseTreeNode(e, label, grammar, text) for e, label in _kids(entry)
        ]
        self._entry = None
        return kids

    def __repr__(self):
        return "<%s [%d,%d)%s>" % (
            self.name,
            self.pos,
            self.end,
            " %s" % self.label if self.label else "",
        )


class ASTNode(_Node):
    """A labeled node surviving AST projection."""

    __slots__ = ()

    def __init__(self, label, pos, length, source, children):
        self.label = label
        self.pos = pos
        self.len = length
        self.source = source
        self.children = children

    def __repr__(self):
        return "<%s [%d,%d) %d children>" % (
            self.label,
            self.pos,
            self.end,
            len(self.children),
        )


def _children(entry):
    """The children of a (clause, pos, length, alt_idx, source) entry, as
    entries.  source is a Match's tuple of children, () for none, or the
    decoder or one of its replay records, which builds them on every read
    (see engine.Match), so each node's are read once."""
    clause, pos, length, alt_idx, source = entry
    if type(source) is tuple:
        return [(m.clause, m.pos, m.len, m.alt_idx, m._subs) for m in source]
    return source._entries(clause, pos, length, alt_idx)


def _kids(entry):
    """The children of an entry's node, as (entry, label) pairs: each with
    the label of the edge it was read through.  A repetition's are its
    repeats, in input order: a chained match holds its first repeat and
    then the match of the rest."""
    clause = entry[0]
    kind = type(clause)
    labels = clause.sub_clause_labels
    subs = _children(entry)
    if kind is First:
        return zip(subs, repeat(labels[entry[3]]))
    if kind is not OneOrMore:
        return zip(subs, labels)
    if clause.chained:
        items = [subs[0]]
        while len(subs) == 2:
            subs = _children(subs[1])
            items.append(subs[0])
        subs = items
    return zip(subs, repeat(labels[0]))


def node_from_match(match: Match, grammar, source: str) -> ParseTreeNode:
    """The parse tree for one match: its root, whose children, and theirs,
    are built on first read.

    A repetition becomes a single node holding its repeats.  Children are
    built from the matches below match read as entries (see _children),
    without building a Match for each.
    """
    top = (match.clause, match.pos, match.len, match.alt_idx, match._subs)
    return ParseTreeNode(top, None, grammar, source)


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

    A node whose children are built has them walked as nodes.  Below a node
    whose children are not built yet, the projection walks the entries
    _kids gives instead: it builds no ParseTreeNode and leaves the tree
    unread.  The AST refers to the text, not the table.
    """
    if root is None:
        return None
    text = root.source
    # Preorder over nodes and entries, each paired with its edge label and
    # the list its labeled descendants go to: a labeled one appends itself
    # there and hands its own children list down; an unlabeled one hands
    # its list through.
    top = []
    stack = [(root, root.label, top)]
    while stack:
        item, label, out = stack.pop()
        if type(item) is tuple:
            entry = item
        else:
            # A node keeps its entry until its children are built: read it
            # once, since another thread may build them meanwhile.  A node
            # without one takes an entry's shape, with None for a source.
            entry = getattr(item, "_entry", None) or (item.clause, item.pos, item.len, 0, None)
        if label is not None:
            ast = ASTNode(label, entry[1], entry[2], text, [])
            out.append(ast)
            out = ast.children
        # Below a clause that reaches no labeled edge, nothing can be
        # labeled, so its children are never read.
        if not entry[0].reaches_label:
            continue
        if entry[4] is None:  # a node whose children are built
            kids = [(c, c.label, out) for c in item.children]
        else:
            kids = [(e, edge, out) for e, edge in _kids(entry)]
        kids.reverse()
        stack.extend(kids)
    if not top:
        return None
    if len(top) == 1:
        return top[0]
    return ASTNode(None, root.pos, root.len, text, top)
