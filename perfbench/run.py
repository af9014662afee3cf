"""pikaparse benchmark: one caller in a closed loop feeding seeded, generated
documents through a workload's pipeline of public pikaparse calls.

    python3 perfbench/run.py --workload expr-leftrec --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 makes a traced run and
prints the per-layer metrics.  --workload all runs every workload.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  See README.md in this directory for what each number means.

pikaparse is imported from the src/ directory next to this one, never from
an installed copy; without it the benchmark exits with status 2 and prints no
result.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter, perf_counter_ns

from hostspeed import HostSpeed
from spans import Tracer, plain_api
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE.parent / ".perfbench-out"

# Grammar set-ups, stage by stage, in a traced run.
SETUP_REPEATS = 15


def import_pikaparse():
    sys.path.insert(0, str(SRC))
    try:
        import pikaparse
    except ImportError as exc:
        print("perfbench: cannot import pikaparse from %s: %s" % (SRC, exc), file=sys.stderr)
        sys.exit(2)
    if not Path(pikaparse.__file__).resolve().is_relative_to(SRC):
        print("perfbench: pikaparse came from %s, not %s" % (pikaparse.__file__, SRC),
              file=sys.stderr)
        sys.exit(2)
    return pikaparse


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def report_failure(wl, seed, index, message):
    print("perfbench: FAILED %s seed %d document %d: %s" % (wl.name, seed, index, message),
          file=sys.stderr)


def run_doc(wl, api, grammar, doc):
    """One document through the pipeline: (nanoseconds, output or error)."""
    t0 = perf_counter_ns()
    try:
        out = wl.pipeline(api, grammar, doc.text)
    except Exception as exc:  # a crash counts as a failed document
        return perf_counter_ns() - t0, None, "%s: %s" % (type(exc).__name__, exc)
    return perf_counter_ns() - t0, out, None


def check_doc(wl, doc, out, error):
    """The reference check, outside the timed region.  None when correct."""
    if error is not None:
        return error
    try:
        return wl.check(doc, out)
    except Exception as exc:
        return "check raised %s: %s" % (type(exc).__name__, exc)


def blocks(wl, seed, deadline):
    """Blocks of documents until the deadline (at least one); a run stops
    only at a block boundary, so every run sees whole blocks."""
    b = 0
    while True:
        yield b, wl.block(seed, b)
        b += 1
        if perf_counter() >= deadline:
            return


def set_up(pp, api, wl):
    """compile_grammar plus the first (warm-up) document, which fills the
    grammar's lazily built naming caches: (seconds, grammar)."""
    t0 = perf_counter_ns()
    grammar = pp.compile_grammar(wl.grammar_text)
    wl.pipeline(api, grammar, wl.warmup)
    return (perf_counter_ns() - t0) / 1e9, grammar


def peak_bytes_per_char(wl, seed, fn):
    """Median over the first block's documents of the tracemalloc peak of
    fn(doc) above what was allocated before it, per char."""
    values = []
    tracemalloc.start()
    try:
        for doc in wl.block(seed, 0):
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn(doc)
            values.append((tracemalloc.get_traced_memory()[1] - base) / len(doc.text))
            del out
    finally:
        tracemalloc.stop()
    return statistics.median(values), len(values)


def timings(setups, per_char, chars, ns):
    """setup_s, throughput and the per-document percentiles."""
    return {
        "setup_s": statistics.median(setups),
        "throughput_kchar_s": chars / ns * 1e6,
        "doc_ns_per_char.p50": statistics.median(per_char),
        "doc_ns_per_char.p90": statistics.quantiles(per_char, n=10)[8],
    }


def end_to_end(pp, wl, seed, seconds):
    """The memory pass and the timed loop share the run's `seconds`.  A
    set-up is timed at the start of each block, so setup_s, a median,
    samples the same stretch of time as the documents.  Every time is scaled
    to the reference host speed (see hostspeed.py); the table also prints
    the raw figures."""
    deadline = perf_counter() + seconds
    api = plain_api(pp)
    grammar = set_up(pp, api, wl)[1]
    peak, peak_n = peak_bytes_per_char(
        wl, seed, lambda doc: wl.pipeline(api, grammar, doc.text))
    setups, per_char, raw_setups, raw_per_char = [], [], [], []
    ns_total = raw_ns_total = chars = failed = 0
    speed = HostSpeed()
    for b, docs in blocks(wl, seed, deadline):
        raw = set_up(pp, api, wl)[0]
        raw_setups.append(raw)
        setups.append(raw * speed.scale())
        for i, doc in enumerate(docs):
            ns, out, error = run_doc(wl, api, grammar, doc)
            scale = speed.scale()
            problem = check_doc(wl, doc, out, error)
            del out
            if problem is not None:
                failed += 1
                report_failure(wl, seed, b * len(docs) + i, problem)
            raw_per_char.append(ns / len(doc.text))
            per_char.append(ns * scale / len(doc.text))
            raw_ns_total += ns
            ns_total += ns * scale
            chars += len(doc.text)
    n = len(per_char)
    scaled = timings(setups, per_char, chars, ns_total)
    raw = timings(raw_setups, raw_per_char, chars, raw_ns_total)
    p90 = scaled["doc_ns_per_char.p90"]
    metrics = {
        "setup_s": metric(scaled["setup_s"], "s", len(setups)),
        "throughput_kchar_s": metric(scaled["throughput_kchar_s"], "kchar/s", n),
        "doc_ns_per_char.p50": metric(scaled["doc_ns_per_char.p50"], "ns/char", n),
        "doc_ns_per_char.p90": metric(p90, "ns/char", n),
        "peak_bytes_per_char": metric(peak, "B/char", peak_n),
        "failed_ratio": metric(failed / n, "fraction", n),
    }
    notes = {k: "raw %.6g" % v for k, v in raw.items()}
    notes["doc_ns_per_char.p90"] += ", %d beyond" % sum(v > p90 for v in per_char)
    notes["throughput_kchar_s"] += ", %d chars" % chars
    notes["setup_s"] += ", host speed scale median %.3f" % statistics.median(speed.scales)
    return n, failed, metrics, notes


def count_nodes(root):
    if root is None:
        return 0
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def grammar_stages(tracer, api, wl):
    """Compile the grammar stage by stage, SETUP_REPEATS times: (grammar,
    median milliseconds per stage span name)."""
    with tracer:
        for _ in range(SETUP_REPEATS):
            rules = api.parse_rules(wl.grammar_text)
            rules = api.rewrite_precedence_hierarchy(rules)
            grammar = api.assemble_grammar(rules)
    ms = {}
    for s in tracer.spans:
        if s[0] != "gc":
            ms.setdefault(s[0], []).append((s[2] - s[1]) / 1e6)
    return grammar, {k: statistics.median(v) for k, v in ms.items()}


def oracle_pass(pp, grammar, wl, seed):
    """Fill and top-down oracle on the first block's documents:
    (engine ns, oracle ns, oracle memo entries, chars)."""
    engine_ns = oracle_ns = entries = chars = 0
    for doc in wl.block(seed, 0):
        t0 = perf_counter_ns()
        pp.parse(grammar, doc.text)
        t1 = perf_counter_ns()
        result = pp.packrat_parse(grammar, doc.text)
        t2 = perf_counter_ns()
        engine_ns += t1 - t0
        oracle_ns += t2 - t1
        entries += len(result.memo)
        chars += len(doc.text)
    return engine_ns, oracle_ns, entries, chars


def per_layer(pp, wl, seed, seconds):
    """The traced run.  Each block goes through the pipeline twice, untraced
    and traced, alternating which goes first; the ratio of the two gives
    trace.overhead.  As in end_to_end, the memory and oracle passes share
    the run's `seconds` with the loop, and times are scaled to the reference
    host speed."""
    deadline = perf_counter() + seconds
    tracer = Tracer()
    traced, plain = tracer.api(pp), plain_api(pp)
    speed = HostSpeed()
    grammar, stage_ms = grammar_stages(tracer, traced, wl)
    stage_scale = speed.scale()
    wl.pipeline(plain, grammar, wl.warmup)
    memo_bytes, memo_n = peak_bytes_per_char(wl, seed, lambda doc: pp.parse(grammar, doc.text))
    speed = HostSpeed()
    engine_ns, oracle_ns, oracle_entries, oracle_chars = (
        oracle_pass(pp, grammar, wl, seed) if wl.oracle else (0, 0, 0, 0))
    oracle_scale = speed.scale()

    counts = dict.fromkeys(("memo", "violations", "nodes", "ast_nodes", "spans", "islands"), 0)
    plain_ns = traced_ns = chars = attempted = failed = 0
    lengths, doc_scale = {}, {}
    speed = HostSpeed()
    for b, docs in blocks(wl, seed, deadline):
        for traced_pass in ((False, True) if b % 2 == 0 else (True, False)):
            for i, doc in enumerate(docs):
                doc_id = b * len(docs) + i
                if traced_pass:
                    with tracer:
                        tracer.open("doc", doc_id)
                        ns, out, error = run_doc(wl, traced, grammar, doc)
                        tracer.close()
                else:
                    ns, out, error = run_doc(wl, plain, grammar, doc)
                scale = speed.scale()
                attempted += 1
                problem = check_doc(wl, doc, out, error)
                if problem is not None:
                    failed += 1
                    report_failure(wl, seed, doc_id, problem)
                elif not traced_pass:
                    plain_ns += ns * scale
                else:
                    traced_ns += ns * scale
                    chars += len(doc.text)
                    lengths[doc_id] = (len(doc.text), doc.key)
                    doc_scale[doc_id] = scale
                    counts["memo"] += out["table"].stored_count
                    counts["violations"] += out["table"].watermark_violations
                    counts["nodes"] += count_nodes(out.get("tree"))
                    counts["ast_nodes"] += count_nodes(out.get("ast"))
                    counts["spans"] += len(out.get("spans", ()))
                    counts["islands"] += len(out.get("islands", ()))
                del out  # keep only one document's memo table alive at a time
    tracer.write(OUT_DIR / ("spans-%s-seed%d.json" % (wl.name, seed)))

    self_ns, calls, parse_ns = {}, {}, {}
    for s, own in zip(tracer.spans, tracer.self_times()):
        if s[4] in lengths:
            own *= doc_scale[s[4]]
            self_ns[s[0]] = self_ns.get(s[0], 0) + own
            calls[s[0]] = calls.get(s[0], 0) + 1
            if s[0] == "engine.parse":
                parse_ns[s[4]] = own / lengths[s[4]][0]

    # Fill ns/char against the document's longest operator run.
    fit_growth = wl.name == "expr-leftrec"
    exponent = 0.0
    if fit_growth and len(parse_ns) >= 2:
        exponent = statistics.linear_regression(
            [math.log(lengths[d][1]) for d in parse_ns],
            [math.log(v) for v in parse_ns.values()],
        ).slope

    n = len(lengths)
    if not n:  # every document failed its check; report zeros, not a crash
        n = chars = traced_ns = 1
    queries = calls.get("recovery.next_match_after", 0)
    gc_runs = calls.get("gc", 0)

    def per_char(name):
        return self_ns.get(name, 0) / chars

    def oracle_metric(value, unit):
        return metric(value if wl.oracle else 0.0, unit, memo_n if wl.oracle else 0)

    metrics = {
        "metagrammar.parse_rules_ms": metric(
            stage_ms["metagrammar.parse_rules"] * stage_scale, "ms", SETUP_REPEATS),
        "metagrammar.rewrite_precedence_hierarchy_ms": metric(
            stage_ms["metagrammar.rewrite_precedence_hierarchy"] * stage_scale, "ms", SETUP_REPEATS),
        "grammar.assemble_grammar_ms": metric(
            stage_ms["grammar.assemble_grammar"] * stage_scale, "ms", SETUP_REPEATS),
        "grammar.clauses": metric(len(grammar.all_clauses), "count", 1),
        "engine.parse_ns_per_char": metric(per_char("engine.parse"), "ns/char", n),
        "engine.memo_entries_per_char": metric(counts["memo"] / chars, "entries/char", n),
        "engine.memo_bytes_per_char": metric(memo_bytes, "B/char", memo_n),
        "engine.watermark_violations": metric(counts["violations"], "count", n),
        "engine.run_growth_exponent": metric(exponent, "slope", len(parse_ns) if fit_growth else 0),
        "tree.extract_parse_tree_ns_per_char": metric(per_char("tree.extract_parse_tree"), "ns/char", n),
        "tree.to_ast_ns_per_char": metric(per_char("tree.to_ast"), "ns/char", n),
        "tree.nodes_per_char": metric(counts["nodes"] / chars, "nodes/char", n),
        "tree.ast_nodes_per_char": metric(counts["ast_nodes"] / chars, "nodes/char", n),
        "recovery.find_error_spans_ns_per_char": metric(per_char("recovery.find_error_spans"), "ns/char", n),
        "recovery.covering_matches_ns_per_char": metric(per_char("recovery.covering_matches"), "ns/char", n),
        "recovery.next_match_after_ns_per_query": metric(
            self_ns.get("recovery.next_match_after", 0) / max(queries, 1), "ns/query", queries),
        "recovery.error_spans_per_doc": metric(counts["spans"] / n, "spans/doc", n),
        "recovery.islands_per_doc": metric(counts["islands"] / n, "islands/doc", n),
        "oracle.packrat_parse_ns_per_char": oracle_metric(
            oracle_ns * oracle_scale / max(oracle_chars, 1), "ns/char"),
        "oracle.memo_entries_per_char": oracle_metric(oracle_entries / max(oracle_chars, 1), "entries/char"),
        "engine_over_oracle": oracle_metric(engine_ns / max(oracle_ns, 1), "ratio"),
        "gc.ns_per_char": metric(self_ns.get("gc", 0) / chars, "ns/char", gc_runs),
        "gc.collections_per_kchar": metric(gc_runs / chars * 1000, "1/kchar", gc_runs),
        "trace.overhead": metric(plain_ns / traced_ns, "ratio", n),
    }
    return attempted, failed, metrics, {}


def print_table(wl, seed, seconds, trace, metrics, notes):
    print("perfbench %s seed %d, %d s, trace %d" % (wl.name, seed, seconds, trace))
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        extra = ", " + notes[name] if name in notes else ""
        print("  %-*s %14.6g %-12s (n=%d%s)" % (width, name, m["value"], m["unit"], m["samples"], extra))


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    pp = import_pikaparse()
    measure = per_layer if args.trace else end_to_end
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    combined = {}
    for name in names:
        wl = WORKLOADS[name]
        n, bad, metrics, notes = measure(pp, wl, args.seed, args.seconds)
        print_table(wl, args.seed, args.seconds, args.trace, metrics, notes)
        # failed_ratio is a count's ratio, carried by "failed" in the result.
        metrics.pop("failed_ratio", None)
        attempted += n
        failed += bad
        for k, m in metrics.items():
            combined[k if len(names) == 1 else "%s/%s" % (name, k)] = m
    print(result_line(attempted, failed, combined))


if __name__ == "__main__":
    main()
