"""Scaling-check support: expression corpus, best-of-k timing, log-log fits.

The corpus generator produces arithmetic expressions for EXPRESSION_GRAMMAR
with sizes ramping across the sample count, so a log-log regression of
parse time against input length has a wide, evenly spread x-range.  The
acceptance tests use this to check that parse time grows linearly;
perfbench/run.py is the benchmark proper.  EXPRESSION_GRAMMAR is also the
CLI's default grammar.
"""
from __future__ import annotations

import gc
import math
import random
import statistics
import time
from typing import NamedTuple

from .engine import parse
from .grammar import Grammar
from .metagrammar import compile_grammar

EXPRESSION_GRAMMAR = """\
E[4] <- '(' E ')';
E[3] <- [0-9]+ / [a-z]+;
E[2] <- '-' E;
E[1,L] <- E ('*' / '/') E;
E[0,L] <- E ('+' / '-') E;
"""


class BenchRecord(NamedTuple):
    input_id: int
    input_length: int
    parse_nanos: int
    memo_entries: int


class RegressionFit(NamedTuple):
    exponent: float
    intercept: float
    r_squared: float


def expression_grammar() -> Grammar:
    return compile_grammar(EXPRESSION_GRAMMAR)


# ---------------------------------------------------------------------------
# corpus generation

def _atom(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return str(rng.randint(0, 999))
    return "".join(
        rng.choice("abcdefghijklmnopqrstuvwxyz")
        for _ in range(rng.randint(1, 3))
    )


def _expr(rng: random.Random, leaves: int) -> str:
    if leaves <= 1:
        if rng.random() < 0.15:
            inner = _atom(rng)
            if rng.random() < 0.5:
                inner = "(" + inner + ")"
            return "-" + inner
        return _atom(rng)
    left = rng.randint(1, leaves - 1)
    op = rng.choice("+-*/")
    return "(" + _expr(rng, left) + op + _expr(rng, leaves - left) + ")"


def gen_expressions(count: int, max_depth: int = 12, seed: int = 0) -> list[str]:
    """count random expressions with leaf counts ramping up to roughly
    1.6 ** (max_depth - 1), shortest first."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        depth = 1 + (k * max_depth) // max(count, 1)
        leaves = max(1, round(1.6 ** (depth - 1)))
        out.append(_expr(rng, leaves))
    return out


# ---------------------------------------------------------------------------
# timing

def run_bench(grammar: Grammar, inputs, repeats: int = 3) -> list[BenchRecord]:
    """Parse every input, keeping the best of repeats (at least one).

    Garbage collection pauses for the duration so one unlucky collection
    does not distort a sample.
    """
    records = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for input_id, text in enumerate(inputs):
            nanos = []
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                table = parse(grammar, text)
                nanos.append(time.perf_counter_ns() - t0)
            records.append(
                BenchRecord(input_id, len(text), min(nanos), table.stored_count)
            )
    finally:
        if was_enabled:
            gc.enable()
    return records


# ---------------------------------------------------------------------------
# scaling fits

def fit_loglog(xs, ys) -> RegressionFit:
    """Least-squares fit of ln(y) against ln(x).

    The slope is the scaling exponent; r_squared is the squared correlation
    of the logs.
    """
    if len(xs) != len(ys) or len(xs) < 3:
        raise ValueError("need at least three (x, y) pairs")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    slope, intercept = statistics.linear_regression(lx, ly)
    r = statistics.correlation(lx, ly)
    return RegressionFit(slope, intercept, r * r)


def fit_records(records) -> RegressionFit:
    """Scaling fit of parse time against input length, leaving out inputs
    of length 0 and 1."""
    kept = [r for r in records if r.input_length > 1]
    return fit_loglog(
        [r.input_length for r in kept], [r.parse_nanos for r in kept]
    )
