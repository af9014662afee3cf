"""Syntax error recovery from a filled memo table.

The bottom-up fill records every match of every clause, whether or not the
start rule succeeds, so recovery is a read-only query: the regions of the
input not covered by any match of the rules of interest are the syntax
error regions, and parsing effectively resumes at the next recorded match
after each error.

The right-to-left fill stores each clause's matches in descending position
order, so next_match_after is a binary search, not a scan.
"""
from __future__ import annotations

from typing import NamedTuple

from .engine import MemoTable


class ErrorSpan(NamedTuple):
    """A half-open input region [start, end) no rule of interest matched."""

    start: int
    end: int

    def slice(self, text: str) -> str:
        return text[self.start : self.end]


def _clauses_of_interest(table: MemoTable, rule_names):
    g = table.grammar
    if rule_names is None:
        names = [g.start_rule]
    elif isinstance(rule_names, str):
        names = [rule_names]
    else:
        names = list(rule_names)
    return list(dict.fromkeys(map(g.rule_clause, names)))


def find_error_spans(table: MemoTable, rule_names=None) -> list[ErrorSpan]:
    """Uncovered regions of the input, in order.

    A position is covered when any non-empty stored match of any rule of
    interest (default: the start rule) spans it.  An input the start rule
    fully matches yields no spans; an input nothing matches yields one span
    covering everything.
    """
    n = len(table.text)
    if n == 0:
        return []
    intervals = []
    for clause in _clauses_of_interest(table, rule_names):
        for pos in table.match_positions(clause):
            length = table.stored_len(clause, pos)
            if length > 0:
                intervals.append((pos, pos + length))
    if not intervals:
        return [ErrorSpan(0, n)]
    intervals.sort()
    spans = []
    cursor = 0
    for start, end in intervals:
        if start > cursor:
            spans.append(ErrorSpan(cursor, start))
        if end > cursor:
            cursor = end
    if cursor < n:
        spans.append(ErrorSpan(cursor, n))
    return spans


def next_match_after(table: MemoTable, rule_name: str, pos: int, min_len: int = 1):
    """Earliest stored match of rule_name starting at or after pos.

    Binary search over the descending position list; returns a Match or
    None.  min_len filters out degenerate matches (zero-length by default).
    With min_len 0, a rule that can match zero characters matches at pos
    itself, although the table stores no empty matches.
    """
    clause = table.grammar.rule_clause(rule_name)
    if min_len < 1:
        m = table.lookup(clause, pos)
        if m is not None:
            return m
    return table.first_stored(clause, pos, min_len)


def covering_matches(table: MemoTable, rule_names=None, min_len: int = 1):
    """Greedy left-to-right sequence of non-overlapping matches.

    At each offset, the match of any rule of interest with the earliest
    start at or after the offset wins, longest match breaking ties; the
    walk then resumes at its end.  These are the recovered islands around
    the error spans.  min_len must be at least 1: an empty island would not
    move the walk.
    """
    if min_len < 1:
        raise ValueError("min_len must be at least 1, got %r" % (min_len,))
    clauses = _clauses_of_interest(table, rule_names)
    n = len(table.text)
    out = []
    cursor = 0
    while cursor < n:
        best = None
        for clause in clauses:
            m = table.first_stored(clause, cursor, min_len)
            if m is not None and (
                best is None or (m.pos, -m.len) < (best.pos, -best.len)
            ):
                best = m
        if best is None:
            break
        out.append(best)
        cursor = best.pos + best.len
    return out
