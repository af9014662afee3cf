"""Packrat parsing turned bottom-up: the memo table is filled from the last
input position to the first, so left-recursive grammars work natively and
the table still holds every partial match when the input has syntax errors.

Typical use:

    import pikaparse as pp

    g = pp.compile_grammar('''
        Sum[0,L] <- l:Sum '+' r:Sum;
        Sum[1]   <- [0-9]+;
    ''')
    table = pp.parse(g, "1+2+3")
    tree = pp.extract_parse_tree(table)
    ast = pp.to_ast(tree)
"""
from .clauses import (
    Char,
    CharSet,
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
    Str,
    ZeroOrMore,
)
from .engine import Match, MemoTable, match_clause, parse
from .grammar import Grammar, assemble_grammar
from .metagrammar import (
    GrammarSyntaxError,
    compile_grammar,
    parse_rules,
    render_grammar,
    rewrite_precedence_hierarchy,
)
from .oracle import (
    LeftRecursionError,
    OracleResult,
    ensure_no_left_recursion,
    packrat_parse,
    same_shape,
)
from .recovery import (
    ErrorSpan,
    covering_matches,
    find_error_spans,
    next_match_after,
)
from .tree import (
    ASTNode,
    ParseTreeNode,
    extract_parse_tree,
    node_from_match,
    to_ast,
)

__version__ = "0.1.0"

__all__ = [
    "ASTNode",
    "Char",
    "CharSet",
    "Clause",
    "ErrorSpan",
    "First",
    "FollowedBy",
    "Grammar",
    "GrammarError",
    "GrammarSyntaxError",
    "GrammarWarning",
    "LeftRecursionError",
    "Match",
    "MemoTable",
    "Nothing",
    "NotFollowedBy",
    "OneOrMore",
    "Optional",
    "OracleResult",
    "ParseTreeNode",
    "Rule",
    "RuleRef",
    "Seq",
    "Str",
    "ZeroOrMore",
    "assemble_grammar",
    "compile_grammar",
    "covering_matches",
    "ensure_no_left_recursion",
    "extract_parse_tree",
    "find_error_spans",
    "match_clause",
    "next_match_after",
    "node_from_match",
    "packrat_parse",
    "parse",
    "parse_rules",
    "render_grammar",
    "rewrite_precedence_hierarchy",
    "same_shape",
    "to_ast",
    "__version__",
]
