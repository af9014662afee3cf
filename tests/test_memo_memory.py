"""Memory of a filled table for a grammar without left recursion.

The table keeps one packed (length, alternative) int per stored entry and
builds Match objects only when they are read, so what it retains per char
is a fraction of what a table of Match objects with child pointers does.
"""

import gc
import json
import random
import tracemalloc

from pikaparse import compile_grammar, parse

from helpers import JSON_GRAMMAR

# Retained bytes per char for json_document() when every stored entry was a
# Match object with its children, measured with retained_bytes_per_char()
# on CPython 3.11.7 at the last commit whose table held Match objects.
MATCH_TABLE_BYTES_PER_CHAR = 1571.2


def json_document():
    """A deterministic JSON document of 2 to 4 KB."""
    rng = random.Random(2026)
    words = ["alpha", "beta", "gamma", "delta", "eps\\u00e9", "zeta\\n", "eta", "theta"]
    items = []
    for i in range(16):
        items.append({
            "id": i * 37 - 100,
            "name": " ".join(rng.choice(words) for _ in range(rng.randint(1, 3))),
            "tags": [rng.choice(words) for _ in range(rng.randint(0, 3))],
            "score": round(rng.uniform(-1e3, 1e3), rng.randint(0, 4)),
            "ok": rng.random() < 0.5,
            "next": None,
        })
    return json.dumps({"items": items, "count": len(items)}, indent=1)


def retained_bytes_per_char(grammar, text):
    """Bytes the filled table keeps alive, per input char."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = parse(grammar, text)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del table
    return kept / len(text)


def test_json_table_retains_at_most_055x_a_match_table():
    g = compile_grammar(JSON_GRAMMAR)
    text = json_document()
    assert 2048 <= len(text) <= 4096
    assert parse(g, text).matched_whole()  # also builds the grammar's fill plan
    kept = retained_bytes_per_char(g, text)
    print("%d chars: %.0f B/char retained (Match table: %.0f)"
          % (len(text), kept, MATCH_TABLE_BYTES_PER_CHAR))
    assert kept <= 0.55 * MATCH_TABLE_BYTES_PER_CHAR
