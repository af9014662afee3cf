"""Spans recorded around calls into pikaparse's public functions.

A span is (name, start_ns, end_ns, parent_index, doc_id).  Spans stay in
memory while the benchmark runs and are written out once at the end.  Garbage
collection pauses, reported through gc.callbacks, become "gc" spans nested
in whichever span was open, so a layer's self time excludes them.
"""
from __future__ import annotations

import functools
import gc
import json
import types
from time import perf_counter_ns

PUBLIC_CALLS = (
    "parse_rules",
    "rewrite_precedence_hierarchy",
    "assemble_grammar",
    "parse",
    "extract_parse_tree",
    "to_ast",
    "find_error_spans",
    "covering_matches",
    "next_match_after",
    "packrat_parse",
)


def plain_api(pikaparse):
    """The public calls the workloads make, unwrapped."""
    return types.SimpleNamespace(**{n: getattr(pikaparse, n) for n in PUBLIC_CALLS})


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._doc = None
        self._gc_start = None

    def api(self, pikaparse):
        """The public calls, each wrapped in a span named module.function."""
        return types.SimpleNamespace(
            **{n: self._wrap(getattr(pikaparse, n)) for n in PUBLIC_CALLS}
        )

    def _wrap(self, fn):
        name = "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    def open(self, name, doc=None):
        if doc is not None:
            self._doc = doc
        parent = self._open[-1] if self._open else -1
        span = [name, perf_counter_ns(), None, parent, self._doc]
        # Building the list above may run a collection, whose callback
        # appends a span; nothing below allocates, so the index is ours.
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)

    def close(self):
        # A closed span becomes a tuple of atoms, which the collector stops
        # tracking, so a long traced run does not slow collections down.
        i = self._open.pop()
        name, start, _, parent, doc = self.spans[i]
        self.spans[i] = (name, start, perf_counter_ns(), parent, doc)
        if not self._open:
            self._doc = None

    def _on_gc(self, phase, info):
        now = perf_counter_ns()
        if phase == "start":
            self._gc_start = now
        elif self._gc_start is not None:
            parent = self._open[-1] if self._open else -1
            self.spans.append(("gc", self._gc_start, now, parent, self._doc))
            self._gc_start = None

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        self._gc_start = None

    def self_times(self):
        """Per span: its duration minus the durations of its direct
        children, which nest inside it."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "doc"],
                       "spans": self.spans}, fh, separators=(",", ":"))
