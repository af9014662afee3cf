"""Property-based agreement between the bottom-up engine and the top-down
reference parser, with hypothesis.

Each example draws a generated grammar without left recursion and an
input.  Every (clause, position) the reference parser evaluated must read
from the engine's table with the same length and alternative, and the two
start matches must have the same shape.  The run is derandomized, so it
draws the same examples every time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from pikaparse import parse
from pikaparse.oracle import describe_match, packrat_parse, same_shape

from gram_gen import random_grammar, sample_input

randoms = st.randoms(use_true_random=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=800)
@given(data=st.data())
def test_every_oracle_entry_reads_the_same_from_the_table(data):
    g, alphabet = random_grammar(data.draw(randoms, label="grammar"))
    text = data.draw(
        st.one_of(
            st.text(alphabet=alphabet + "x", max_size=24),
            randoms.map(lambda rng: sample_input(rng, g, alphabet)),
        ),
        label="text",
    )
    table = parse(g, text)
    res = packrat_parse(g, text, check_left_recursion=False)
    shift = g.alt_shift
    for (idx, pos), v in res.memo.items():
        m = table.lookup(g.all_clauses[idx], pos)
        expected = None if v is None else (v >> shift, v & ~(-1 << shift))
        assert (None if m is None else (m.len, m.alt_idx)) == expected, (idx, pos)
    bottom, top = table.start_match(), res.match
    assert same_shape(bottom, top), (describe_match(bottom), describe_match(top))
    assert table.watermark_violations == 0
