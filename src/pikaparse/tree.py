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
grammar.compute_reaches_label), and where the fill plan selects an entry's
children from its table's memo it reads them there itself.
"""
from __future__ import annotations

from itertools import repeat

from .clauses import First, OneOrMore, Seq
from .engine import Match, MemoTable, _contradicted, _Decoder


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


class _Given(tuple):
    """A Match's own tuple of children, as a source of entries."""

    __slots__ = ()

    def _entries(self, clause, pos, length, alt_idx):
        return [_match_entry(m) for m in self]


def _match_entry(m):
    """A Match as a (clause, pos, length, alt_idx, source) entry."""
    source = m._subs
    if type(source) is tuple and source:
        source = _Given(source)
    return (m.clause, m.pos, m.len, m.alt_idx, source)


def _children(entry):
    """The children of a (clause, pos, length, alt_idx, source) entry, as
    entries.  source is () for none, or an object that gives them: the
    decoder, one of its replayed or walked steps, or a Match's children (see
    _match_entry).  The decoder builds them on every read (see
    engine.Match), so each node's are read once."""
    clause, pos, length, alt_idx, source = entry
    return source._entries(clause, pos, length, alt_idx) if source else ()


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
    built from the matches below match read as entries (see _match_entry),
    without building a Match for each.
    """
    return ParseTreeNode(_match_entry(match), None, grammar, source)


def extract_parse_tree(table: MemoTable):
    """Parse tree of the start rule's best match at position 0, or None.

    The match need not span the whole input; check table.matched_whole()
    when that distinction matters.
    """
    m = table.start_match()
    if m is None:
        return None
    return node_from_match(m, table.grammar, table.text)


def _item(node, label, out):
    """A node's to_ast stack item: (entry, label, out, node).  A node keeps
    its entry until its children are built; read it once, since another
    thread may build them meanwhile.  A node without one is walked as a
    node, with its span in an entry's shape."""
    entry = getattr(node, "_entry", None)
    if entry:
        return entry, label, out, None
    return (node.clause, node.pos, node.len, 0, ()), label, out, node


def to_ast(root: ParseTreeNode):
    """Project a parse tree down to its labeled nodes.

    Returns None when nothing is labeled, the single ASTNode when exactly
    one survives at top level, else a synthetic unlabeled root holding them.

    A node whose children are built has them walked as nodes.  Below a node
    whose children are not built yet, the projection walks the entries
    _kids gives instead: it builds no ParseTreeNode and leaves the tree
    unread.  A First has one child, so where its chosen edge is unlabeled
    the walk steps down to that child in place: a chain of choices whose
    children the memo names (see engine._Decoder) costs no push.  The AST
    refers to the text, not the table.

    Where an entry's source is the root's table and the fill plan selects
    its children (engine.FillPlan.selects), a choice's step and a
    sequence's members are read from the memo here, one value lookup each,
    with the checks engine._Decoder._select makes; a member that is
    unlabeled and reaches no label is not pushed.  Every other source gives
    its entries as _kids does.
    """
    if root is None:
        return None
    text = root.source
    top = []
    item = _item(root, root.label, top)
    table = item[0][4]
    if isinstance(table, _Decoder):
        selects = (table._fill_plan or table._read_plan()).selects
        getters, values = table._getters, table._values
        shift = table._shift
        mask = ~(-1 << shift)
    else:
        table = None  # an entry's source is never None
    # Preorder over items, each an entry paired with its edge label and the
    # list its labeled descendants go to: a labeled one appends itself
    # there and hands its own children list down; an unlabeled one hands
    # its list through.
    stack = [item]
    while stack:
        entry, label, out, node = stack.pop()
        if label is not None:
            ast = ASTNode(label, entry[1], entry[2], text, [])
            out.append(ast)
            out = ast.children
        clause, pos, length, alt_idx, source = entry
        # Step down a chain of unlabeled choice edges in place.  A node's
        # stand-in entry has no source, so it never steps.
        while (
            type(clause) is First
            and source
            and clause.reaches_label
            and clause.sub_clause_labels[alt_idx] is None
        ):
            if source is table and (reads := selects[clause.clause_idx]) and reads[alt_idx]:
                ((sub, has_kids, zero),) = reads[alt_idx]
                v = (getters[sub.clause_idx] or values(sub.clause_idx))(pos)
                if v is None:
                    if zero is None:
                        raise _contradicted(clause, pos)
                    v, has_kids = zero, False
                if v >> shift != length:
                    raise _contradicted(clause, pos)
                clause, alt_idx, source = sub, v & mask, table if has_kids else ()
            else:
                clause, pos, length, alt_idx, source = source._entries(
                    clause, pos, length, alt_idx
                )[0]
        # Below a clause that reaches no labeled edge, nothing can be
        # labeled, so its children are never read.
        if not clause.reaches_label:
            continue
        if node is not None:
            kids = [_item(c, c.label, out) for c in node.children]
        elif source is table and type(clause) is Seq and (reads := selects[clause.clause_idx]):
            kids = []
            at = pos
            for (sub, has_kids, zero), edge in zip(reads[0], clause.sub_clause_labels):
                v = (getters[sub.clause_idx] or values(sub.clause_idx))(at)
                if v is None:
                    if zero is None:
                        raise _contradicted(clause, pos)
                    v, has_kids = zero, False
                if edge is not None or sub.reaches_label:
                    kids.append(
                        ((sub, at, v >> shift, v & mask, table if has_kids else ()), edge, out, None)
                    )
                at += v >> shift
            if at - pos != length:
                raise _contradicted(clause, pos)
        else:
            entry = clause, pos, length, alt_idx, source
            kids = [(e, edge, out, None) for e, edge in _kids(entry)]
        kids.reverse()
        stack.extend(kids)
    if not top:
        return None
    if len(top) == 1:
        return top[0]
    return ASTNode(None, root.pos, root.len, text, top)
