"""The benchmark's three workloads: grammar text, document generator,
pipeline of public pikaparse calls, and a reference check per document.

Documents come in blocks.  Every block of a workload has the same shape
schedule (the same operator-run lengths, the same JSON document kinds, the
same corruption counts) and only the seeded contents differ, so a run that
stops at any block boundary sees the same mix of documents whatever the
host's speed and whatever the seed.

A pipeline receives `api`, a namespace holding the public pikaparse
functions (plain, or wrapped in spans by the tracer), and returns a dict of
its intermediate results.  Checks read only that dict and the generator's
own record of the document; they never call the engine.
"""
from __future__ import annotations

import json
import random

# ---------------------------------------------------------------------------
# expr-leftrec

EXPR_GRAMMAR = r"""
E[4] <- '(' E ')';
E[3] <- num:[0-9]+ / var:[a-z]+;
E[2] <- '-' neg:E;
E[1,L] <- l:E op:('*' / '/') r:E;
E[0,L] <- l:E op:('+' / '-') r:E;
"""

# Leaves per document: with every leaf in one operator run a document is
# about 3 characters per leaf, so documents stay near one length while the
# longest run varies.
EXPR_LEAVES = 160
# Longest operator run of each document in a block, spread log-uniformly
# for the growth fit.  Three documents share the run length at the 90th
# percentile rank so that doc_ns_per_char.p90 lands inside one group rather
# than on the edge between two.
EXPR_RUNS = (2, 2, 3, 3, 4, 4, 6, 6, 8, 8, 12, 12, 16, 24, 32, 48, 128, 128, 128, 160)
_OPS = ("+-", "*/")
_LOWER = "abcdefghijklmnopqrstuvwxyz"


def _level(t) -> int:
    if t[0] == "bin":
        return 0 if t[1] in "+-" else 1
    if t[0] == "neg":
        return 2
    return 3


def _atom(rng):
    if rng.random() < 0.5:
        t = ("num", str(rng.randint(0, 999)))
    else:
        t = ("var", "".join(rng.choice(_LOWER) for _ in range(rng.randint(1, 2))))
    if rng.random() < 0.08:
        t = ("neg", t)
    return t


def _expr_tree(rng, leaves, run, level):
    """A tree of `leaves` leaves whose top operator run has min(run, leaves)
    operands at `level`; operands alternate level, so a run's operands never
    extend it and every run stays at most `run` long."""
    if leaves == 1:
        return _atom(rng)
    n = min(run, leaves)
    cuts = sorted(rng.sample(range(1, leaves), n - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [leaves])]
    operands = [_expr_tree(rng, s, run, 1 - level) for s in sizes]
    node = operands[0]
    for o in operands[1:]:
        node = ("bin", rng.choice(_OPS[level]), node, o)
    if rng.random() < 0.03:
        node = ("neg", node)
    return node


def expr_text(t, rng) -> str:
    """Print with the fewest parentheses the grammar needs, plus a few
    redundant ones around leaves, which the AST must not show.  (Redundant
    parentheses around a run's left part would split the run.)"""
    out = []
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
            continue
        kind = t[0]
        if kind in ("num", "var"):
            out.append(t[1])
            continue
        if kind == "neg":
            parts = ["-", (t[1], _level(t[1]) < 2)]
        else:
            p = _level(t)
            parts = [(t[2], _level(t[2]) < p), t[1], (t[3], _level(t[3]) <= p)]
        for part in reversed(parts):
            if isinstance(part, str):
                stack.append(part)
                continue
            sub, wrap = part
            if wrap or (sub[0] != "bin" and rng.random() < 0.04):
                stack.extend((")", sub, "("))
            else:
                stack.append(sub)
    return "".join(out)


def longest_run(t) -> int:
    """Operands in the longest chain of one operator level."""
    best = 1
    stack = [(t, 1)]
    while stack:
        t, run = stack.pop()
        if t[0] == "bin":
            left, right = t[2], t[3]
            same = left[0] == "bin" and _level(left) == _level(t)
            stack.append((left, run + 1 if same else 1))
            stack.append((right, 1))
            if not same:
                best = max(best, run + 1)
        elif t[0] == "neg":
            stack.append((t[1], 1))
    return best


def expr_block(rng):
    docs = []
    for run in EXPR_RUNS:
        tree = _expr_tree(rng, EXPR_LEAVES, run, rng.randint(0, 1))
        docs.append(Doc(expr_text(tree, rng), tree, longest_run(tree)))
    return docs


def tree_pipeline(api, grammar, text):
    table = api.parse(grammar, text)
    tree = api.extract_parse_tree(table)
    ast = api.to_ast(tree)
    return {"table": table, "tree": tree, "ast": ast}


def _expr_from_labeled(nodes):
    """Rebuild an expression tuple from the labeled nodes one E match
    contributes: [l, op, r], [neg], [num] or [var]."""
    labels = [n.label for n in nodes]
    if labels == ["l", "op", "r"]:
        return ("bin", nodes[1].text,
                _expr_from_labeled(nodes[0].children),
                _expr_from_labeled(nodes[2].children))
    if labels == ["neg"]:
        return ("neg", _expr_from_labeled(nodes[0].children))
    if labels in (["num"], ["var"]):
        return (labels[0], nodes[0].text)
    raise ValueError("unexpected labels %r" % labels)


def expr_value(ast):
    if ast is None:
        raise ValueError("no AST")
    return _expr_from_labeled(ast.children if ast.label is None else [ast])


def expr_check(doc, out):
    if not out["table"].matched_whole():
        return "start rule did not match the whole document"
    got = expr_value(out["ast"])
    if got != doc.ref:
        return "AST differs from the generated tree"
    return None


# ---------------------------------------------------------------------------
# json-docs

JSON_GRAMMAR = r"""
Doc <- WS v:Value WS;
Value <- obj:Object / arr:Array / str:String / num:Number / lit:('true' / 'false' / 'null');
Object <- '{' WS (mem:Member (WS ',' WS mem:Member)*)? WS '}';
Member <- key:String WS ':' WS val:Value;
Array <- '[' WS (item:Value (WS ',' WS item:Value)*)? WS ']';
String <- '"' ('\\' (["\\/bfnrt] / 'u' Hex Hex Hex Hex) / !["\\] [^])* '"';
Hex <- [0-9a-fA-F];
Number <- '-'? ('0' / [1-9] [0-9]*) ('.' [0-9]+)? ([eE] ('+' / '-')? [0-9]+)?;
WS <- [ \t\n\r]*;
"""

_WORD = _LOWER + "ABCXYZ0123456789 _-"
_ODD = "\"\\/\n\té☃\U0001f600"


def _string(rng):
    n = rng.randint(0, 14)
    return "".join(
        rng.choice(_ODD) if rng.random() < 0.08 else rng.choice(_WORD)
        for _ in range(n)
    )


def _number(rng):
    r = rng.random()
    if r < 0.5:
        return rng.randint(-10**6, 10**6)
    if r < 0.8:
        return round(rng.uniform(-1000, 1000), rng.randint(0, 6))
    return rng.uniform(-1, 1) * 10 ** rng.randint(-30, 30)


def _scalar(rng):
    r = rng.random()
    if r < 0.45:
        return _number(rng)
    if r < 0.9:
        return _string(rng)
    return rng.choice((True, False, None))


def _nested(rng, depth):
    """Objects and arrays nested `depth` deep, three children each."""
    if depth == 0:
        return _scalar(rng)
    if rng.random() < 0.5:
        return [_nested(rng, depth - 1) for _ in range(3)]
    return {"%s%d" % (_string(rng), i): _nested(rng, depth - 1) for i in range(3)}


def _json_value(rng, kind):
    if kind == "numbers":
        return [_number(rng) for _ in range(rng.randint(35, 45))]
    if kind == "strings":
        return [_string(rng) for _ in range(rng.randint(30, 38))]
    if kind == "records":
        fields = ["%s%d" % (_string(rng), i) for i in range(rng.randint(4, 6))]
        return [{f: _scalar(rng) for f in fields} for _ in range(rng.randint(5, 7))]
    if kind == "flat-object":
        return {"%s%d" % (_string(rng), i): _scalar(rng) for i in range(rng.randint(18, 24))}
    return {"id": rng.randint(0, 10**9), "items": _nested(rng, 3)}


# Each block holds every kind twice, once compact and once indented.
JSON_KINDS = ("numbers", "strings", "records", "flat-object", "nested")


def json_block(rng):
    docs = []
    for kind in JSON_KINDS:
        for indent in (None, 2):
            text = json.dumps(_json_value(rng, kind), indent=indent)
            docs.append(Doc(text, None, kind))
    return docs


_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f",
            "n": "\n", "r": "\r", "t": "\t"}


def _unescape(token):
    """Decode a JSON string token, quotes included."""
    body = token[1:-1]
    out = []
    i = 0
    while i < len(body):
        c = body[i]
        if c != "\\":
            out.append(c)
            i += 1
        elif body[i + 1] == "u":
            out.append(chr(int(body[i + 2 : i + 6], 16)))
            i += 6
        else:
            out.append(_ESCAPES[body[i + 1]])
            i += 2
    # \uXXXX pairs decode to surrogate halves; join them into one character.
    return "".join(out).encode("utf-16", "surrogatepass").decode("utf-16")


def _json_from_node(node):
    """Rebuild the value held by a labeled obj/arr/str/num/lit node."""
    label, text = node.label, node.text
    if label == "obj":
        return {_unescape(m.children[0].text): _json_from_node(m.children[1].children[0])
                for m in node.children}
    if label == "arr":
        return [_json_from_node(item.children[0]) for item in node.children]
    if label == "str":
        return _unescape(text)
    if label == "num":
        return float(text) if any(c in text for c in ".eE") else int(text)
    if label == "lit":
        return {"true": True, "false": False, "null": None}[text]
    raise ValueError("unexpected label %r" % label)


def json_check(doc, out):
    if not out["table"].matched_whole():
        return "start rule did not match the whole document"
    ast = out["ast"]
    if ast is None or ast.label != "v" or len(ast.children) != 1:
        return "AST root is not one value"
    if _json_from_node(ast.children[0]) != json.loads(doc.text):
        return "value rebuilt from the AST differs from json.loads"
    return None


# ---------------------------------------------------------------------------
# assign-recover

ASSIGN_GRAMMAR = r"""
Program <- Assign+;
Assign <- lhs:[a-z]+ '=' rhs:[0-9]+ ';';
"""

# Symbols outside the grammar's alphabet, so no match starts or ends inside
# injected corruption.
_JUNK = "#@!$%^&~`|?<>{}[]().,:\"' \t"
# Corruptions injected into each document of a block.
ASSIGN_CORRUPTIONS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16)
ASSIGN_STATEMENTS = 150


def assign_block(rng):
    docs = []
    for n_bad in ASSIGN_CORRUPTIONS:
        stmts = [
            "%s=%d;" % ("".join(rng.choice(_LOWER) for _ in range(rng.randint(1, 6))),
                        rng.randint(0, 99999))
            for _ in range(ASSIGN_STATEMENTS)
        ]
        where = set(rng.sample(range(1, ASSIGN_STATEMENTS), n_bad))
        parts, spans, pos = [], [], 0
        for i, s in enumerate(stmts):
            if i in where:
                junk = "".join(rng.choice(_JUNK) for _ in range(rng.randint(1, 8)))
                spans.append((pos, pos + len(junk)))
                parts.append(junk)
                pos += len(junk)
            parts.append(s)
            pos += len(s)
        docs.append(Doc("".join(parts), spans, n_bad))
    return docs


def recovery_pipeline(api, grammar, text):
    table = api.parse(grammar, text)
    spans = api.find_error_spans(table)
    islands = api.covering_matches(table)
    resumes = [api.next_match_after(table, "Assign", s.end) for s in spans]
    return {"table": table, "spans": spans, "islands": islands, "resumes": resumes}


def assign_check(doc, out):
    spans = [(s.start, s.end) for s in out["spans"]]
    if spans != doc.ref:
        return "error spans %r differ from the injected %r" % (spans[:4], doc.ref[:4])
    for (start, end), m in zip(doc.ref, out["resumes"]):
        if m is None or m.pos != end:
            return "resume after the span ending at %d is not at its end" % end
    bounds = [0] + [x for s in doc.ref for x in s] + [len(doc.text)]
    clean = list(zip(bounds[::2], bounds[1::2]))
    if [(m.pos, m.pos + m.len) for m in out["islands"]] != clean:
        return "islands differ from the text between injected spans"
    return None


# ---------------------------------------------------------------------------

class Doc:
    """A generated document.  ref is the generator's own record of what the
    document holds; key is the property the workload varies across a block
    (longest operator run, JSON kind, corruption count)."""

    __slots__ = ("text", "ref", "key")

    def __init__(self, text, ref, key):
        self.text = text
        self.ref = ref
        self.key = key


class Workload:
    """warmup is a short document run once after compiling the grammar, as
    part of set-up; oracle says whether the top-down reference parser can
    run the grammar (it rejects left recursion)."""

    def __init__(self, name, grammar_text, warmup, make_block, pipeline, check, oracle):
        self.name = name
        self.grammar_text = grammar_text
        self.warmup = warmup
        self.make_block = make_block
        self.pipeline = pipeline
        self.check = check
        self.oracle = oracle

    def block(self, seed, index):
        """Block `index` of the corpus for `seed`; independent of every
        other block, so blocks are generated only when a run reaches them."""
        return self.make_block(random.Random("%s/%d/%d" % (self.name, seed, index)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("expr-leftrec", EXPR_GRAMMAR, "(1+a)*-b/2-c",
                 expr_block, tree_pipeline, expr_check, oracle=False),
        Workload("json-docs", JSON_GRAMMAR, '{"a": [1, "b\\n", true, null, -2.5e-3], "c": {}}',
                 json_block, tree_pipeline, json_check, oracle=True),
        Workload("assign-recover", ASSIGN_GRAMMAR, "ab=1;#cd=2;",
                 assign_block, recovery_pipeline, assign_check, oracle=False),
    )
}
