"""Benchmark helpers: corpus generation, timing records, scaling fits."""

import math
import random

import pytest

from pikaparse import parse
from pikaparse.bench import (
    BenchRecord,
    expression_grammar,
    fit_loglog,
    fit_records,
    gen_expressions,
    run_bench,
)


# === corpus ===

def test_corpus_is_deterministic():
    assert gen_expressions(30, seed=5) == gen_expressions(30, seed=5)
    assert gen_expressions(30, seed=5) != gen_expressions(30, seed=6)


def test_corpus_inputs_all_parse():
    g = expression_grammar()
    for text in gen_expressions(40, max_depth=8, seed=1):
        assert parse(g, text).matched_whole(), text


def test_corpus_lengths_ramp_up():
    texts = gen_expressions(60, max_depth=12, seed=2)
    first = [len(t) for t in texts[:10]]
    last = [len(t) for t in texts[-10:]]
    assert max(first) < min(last)
    assert min(last) / max(first) > 10


def test_corpus_spans_enough_length_range():
    texts = gen_expressions(200, max_depth=24, seed=0)
    lens = [len(t) for t in texts]
    assert max(lens) / min(lens) >= 1000


# === timing records ===

def test_run_bench_record_fields():
    g = expression_grammar()
    texts = ["a+b", "(a*b)+c"]
    records = run_bench(g, texts, repeats=2)
    assert len(records) == 2
    for i, r in enumerate(records):
        assert isinstance(r, BenchRecord)
        assert r.input_id == i
        assert r.input_length == len(texts[i])
        assert r.parse_nanos > 0
        assert r.memo_entries > 0


# === scaling fits ===

def test_fit_recovers_known_power_law():
    rng = random.Random(3)
    xs = [2 ** k for k in range(4, 14)]
    ys = [7.5 * x ** 1.3 * math.exp(rng.uniform(-0.01, 0.01)) for x in xs]
    fit = fit_loglog(xs, ys)
    assert abs(fit.exponent - 1.3) < 0.02
    assert fit.r_squared > 0.999
    assert abs(fit.intercept - math.log(7.5)) < 0.1


def test_fit_requires_three_points():
    with pytest.raises(ValueError):
        fit_loglog([1, 2], [1, 2])


def test_fit_records_excludes_trivial_lengths():
    records = [
        BenchRecord(0, 1, 999999, 1),  # length 1: excluded
        BenchRecord(1, 10, 100, 1),
        BenchRecord(2, 100, 1000, 1),
        BenchRecord(3, 1000, 10000, 1),
    ]
    fit = fit_records(records)
    assert abs(fit.exponent - 1.0) < 1e-9
    assert fit.r_squared > 0.999999
