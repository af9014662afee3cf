"""Command line interface.

    pikaparse parse -g grammar.peg input.txt
    pikaparse parse -t '1+2*3' --ast -f sexpr

Without -g the built-in expression grammar (bench.EXPRESSION_GRAMMAR) is
used.  perfbench/run.py is the benchmark; the CLI only parses.

Exit codes: 0 success, 1 input did not fully parse, 2 bad usage or a bad
grammar, 3 internal error (the tool crashed).  A reader that closes the
pipe early does not change the code.

All tree serializers build output iteratively: parse trees of deeply nested
inputs (a long left-nested sum, say) exceed any recursive serializer's
stack, including the one inside json.dumps.  They yield their output in
pieces, which main prints as the walk goes: the indented rendering of a
tree d levels deep is about d^2 characters, more than the tree itself.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import sys
from itertools import chain

from .bench import EXPRESSION_GRAMMAR
from .clauses import GrammarError
from .engine import parse
from .metagrammar import compile_grammar
from .recovery import covering_matches, find_error_spans
from .tree import extract_parse_tree, to_ast


# ---------------------------------------------------------------------------
# serializers (all iterative; see module docstring)

def tree_lines(node, max_text: int = 40):
    """Indented text rendering, one line per node, yielded in preorder."""
    stack = [(node, 0)]
    while stack:
        n, depth = stack.pop()
        name = _name_of(n)
        head = "%s:" % n.label if n.label and n.label != name else ""
        snippet = ""
        if not n.children:
            t = n.text
            if len(t) > max_text:
                t = t[: max_text - 3] + "..."
            snippet = " %s" % json.dumps(t)
        yield "%s%s%s [%d,%d)%s" % ("  " * depth, head, name, n.pos, n.end, snippet)
        stack.extend((c, depth + 1) for c in reversed(n.children))


def _name_of(node):
    # ASTNode has no clause name; fall back to its label.
    return getattr(node, "name", None) or node.label or "ast"


def _serialize(node, opening, sep, close):
    """Each node of the tree at node as opening(n), then its children with
    sep between them, then close, yielded piece by piece."""
    stack = [node]
    while stack:
        v = stack.pop()
        if isinstance(v, str):
            yield v
            continue
        yield opening(v)
        stack.append(close)
        for c in reversed(v.children):
            stack.append(c)
            stack.append(sep)
        if v.children:
            stack.pop()  # no separator before the first child


def _json_opening(v):
    text = "" if v.children else ',"text":%s' % json.dumps(v.text)
    return '{"name":%s,"label":%s,"start":%d,"end":%d%s,"children":[' % (
        json.dumps(_name_of(v)), json.dumps(v.label), v.pos, v.end, text
    )


def _json_pieces(node):
    return _serialize(node, _json_opening, ",", "]}")


def tree_to_json(node) -> str:
    """Compact JSON: name, label, start, end, children; text on leaves."""
    return "".join(_json_pieces(node))


def _sexpr_opening(v):
    name = _name_of(v)
    if v.label and v.label != name:
        name = "%s:%s" % (v.label, name)
    return "(%s %s" % (name, "" if v.children else json.dumps(v.text))


def _sexpr_pieces(node):
    return _serialize(node, _sexpr_opening, " ", ")")


def tree_to_sexpr(node) -> str:
    """S-expression rendering: (name child ...) with quoted leaf text."""
    return "".join(_sexpr_pieces(node))


# Each format's whole output for a tree, newline-terminated, in pieces.
_FORMATS = {
    "tree": lambda n: ("%s\n" % line for line in tree_lines(n)),
    "json": lambda n: chain(_json_pieces(n), ("\n",)),
    "sexpr": lambda n: chain(_sexpr_pieces(n), ("\n",)),
}


# ---------------------------------------------------------------------------
# commands

def _load_grammar(args):
    text = EXPRESSION_GRAMMAR
    if args.grammar is not None:
        # A byte order mark, as some editors write, is not part of the grammar.
        with open(args.grammar, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    return compile_grammar(text, start_rule=args.start)


def _read_input(args) -> str:
    if args.text is not None:
        return args.text
    if args.input is None or args.input == "-":
        # Stdin is decoded as a file is.  A stand-in with no descriptor,
        # such as a StringIO from an embedding program, is text already.
        try:
            source = open(sys.stdin.fileno(), "r", encoding="utf-8", closefd=False)
        except (AttributeError, io.UnsupportedOperation):
            source = io.StringIO(sys.stdin.read())
    else:
        source = open(args.input, "r", encoding="utf-8")
    with source as fh:
        data = fh.read()
    if not args.keep_trailing_newline and data.endswith("\n"):
        data = data[:-1]
    return data


def _cmd_parse(args):
    """Parse as args say; returns the exit code and the output, as pieces
    of text to print in turn.  A tree's pieces are rendered as they are
    taken, after the parse."""
    grammar = _load_grammar(args)
    text = _read_input(args)
    table = parse(grammar, text)
    if table.matched_whole():
        root = extract_parse_tree(table)
        if args.ast:
            root = to_ast(root)
            if root is None:
                return 0, ["null\n" if args.format == "json" else "(no labeled nodes)\n"]
        return 0, _FORMATS[args.format](root)
    names = args.recover.split(",") if args.recover else None
    spans = find_error_spans(table, names)
    out = ["input does not fully match rule %r" % grammar.start_rule, "error spans:"]
    if not text:
        out.append("  (none: the input is empty)")
    elif not spans:
        # Everything is covered by some match, yet no single start-rule
        # match spans the whole input.
        out.append("  (none: matches cover the input but do not join up)")
    for s in spans:
        out.append("  [%d,%d) %s" % (s.start, s.end, json.dumps(s.slice(text))))
    islands = covering_matches(table, names)
    if islands:
        out.append("matched before/after/between:")
        for m in islands:
            t = text[m.pos : m.pos + m.len]
            if len(t) > 40:
                t = t[:37] + "..."
            out.append(
                "  %s [%d,%d) %s"
                % (grammar.node_name(m.clause), m.pos, m.pos + m.len, json.dumps(t))
            )
    return 1, ["%s\n" % line for line in out]


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pikaparse",
        description="Bottom-up packrat parsing: left recursion and error recovery included.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse input and print its tree")
    p.add_argument("-g", "--grammar", help="grammar file (default: built-in expression grammar)")
    p.add_argument("-s", "--start", help="start rule (default: first rule)")
    p.add_argument("input", nargs="?", help="input file, - for stdin (default)")
    p.add_argument("-t", "--text", help="inline input text instead of a file")
    p.add_argument(
        "-f", "--format", choices=sorted(_FORMATS), default="tree",
        help="tree output format (default: tree)",
    )
    p.add_argument("--ast", action="store_true", help="print the labeled AST instead of the parse tree")
    p.add_argument(
        "--recover",
        metavar="RULES",
        help="comma-separated rules of interest for error reporting (default: the start rule)",
    )
    p.add_argument(
        "--keep-trailing-newline",
        action="store_true",
        help="do not strip one trailing newline from the input",
    )
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        code, pieces = _cmd_parse(args)
    except GrammarError as exc:
        print("grammar error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    try:
        write = sys.stdout.write
        for piece in pieces:
            write(piece)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (`| head`, say).  The parse is done, so
        # its own code stands; stdout is pointed at devnull so that the
        # interpreter's final flush does not fail on the pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # raised while rendering the tree
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
