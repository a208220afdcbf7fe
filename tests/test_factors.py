"""Factor index vs sliding-frame oracles, plus profile and window guards."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorlang import (
    FactorIndex,
    PreconditionError,
    SuffixAutomaton,
    VerificationError,
    automaton,
    build_factor_index,
    fibonacci_word,
    parse_word_spec,
    stabilized_profile,
    thue_morse,
    thue_morse_split_sets,
    ultimately_periodic,
    words,
)
from factorlang.automaton import length_counts
from oracles import (
    StateAutomaton,
    doubled_build_profile,
    find_occurrences,
    interval_length_counts,
    interval_rows,
    interval_special,
    prefix_doubling_profile,
)


def frame_factors(window: str, n: int) -> set[str]:
    return {window[i:i + n] for i in range(len(window) - n + 1)}


def frame_profile(window: str, n_max: int) -> list[int]:
    return [len(frame_factors(window, n)) for n in range(1, n_max + 1)]


def frame_right_special(window: str, n: int) -> set[str]:
    out = {}
    for i in range(len(window) - n):
        out.setdefault(window[i:i + n], set()).add(window[i + n])
    return {v for v, ext in out.items() if len(ext) >= 2}


def first_new_end(text: str, probe: str, n: int) -> int | None:
    """The end of the first length-``n`` factor of ``probe`` that is not a
    factor of ``text``, by sliding frames."""
    known = frame_factors(text, n)
    return next((pos for pos in range(n - 1, len(probe))
                 if probe[pos - n + 1:pos + 1] not in known), None)


def frame_left_special(window: str, n: int) -> set[str]:
    out = {}
    for i in range(1, len(window) - n + 1):
        out.setdefault(window[i:i + n], set()).add(window[i - 1])
    return {v for v, ext in out.items() if len(ext) >= 2}


def reverse_left_special(window: str, n: int) -> set[str]:
    """Left special factors as the reversed right special factors of the
    reversed window, read from the reverse window's reference automaton: its
    states with two or more out-going letters hold the lengths
    [minlen, maxlen] and first end at first_end."""
    sam = StateAutomaton(window[::-1])
    idx = np.nonzero(sam.outdeg[1:] >= 2)[0] + 1
    hit = idx[(sam.minlen[idx] <= n) & (n <= sam.maxlen[idx])]
    starts = len(window) - 1 - sam.first_end[hit]
    return {window[i:i + n] for i in starts.tolist()}


SMALL_SPECS = ["tm", "fib", "abk", "pq:f=isqrt,k=p", "ultper:01|10", "sturm:2,(1)"]

# short texts: prefixes of the built-in words and random binary and ternary
# strings, the empty text included
TEXTS = st.one_of(
    st.builds(lambda spec, n: parse_word_spec(spec).prefix(n),
              st.sampled_from(["tm", "fib", "abk", "ultper:01|10", "ultper:0|011"]),
              st.integers(min_value=0, max_value=80)),
    st.text(alphabet="01", max_size=80),
    st.text(alphabet="012", max_size=80),
)


@settings(max_examples=80, deadline=None)
@given(TEXTS, st.integers(min_value=1, max_value=30))
def test_length_counts_of_every_prefix(text, n_max):
    sam = SuffixAutomaton(text, n_max=n_max)
    for m in range(len(text) + 1):
        assert length_counts(sam.floor, n_max, prefix=m).tolist() == frame_profile(text[:m], n_max)
    whole = length_counts(sam.floor, n_max).tolist()
    assert whole == frame_profile(text, n_max)
    assert whole == interval_length_counts(StateAutomaton(text), n_max).tolist()


@settings(max_examples=80, deadline=None)
@given(TEXTS)
def test_automaton_state_bound_and_array_lengths(text):
    sam = SuffixAutomaton(text, n_max=len(text))
    ref = StateAutomaton(text)
    # at most 2N - 1 states for N >= 2 letters; "" has 1 state and "a" has 2
    assert sam.n_states == ref.n_states <= max(2 * len(text) - 1, len(text) + 1)
    for arr in (ref.maxlen, ref.minlen, ref.link, ref.first_end, ref.outdeg):
        assert len(arr) == ref.n_states
    assert len(sam.floor) == len(ref.floor) == len(text)


@settings(max_examples=80, deadline=None)
@given(TEXTS, st.integers(min_value=1, max_value=30))
def test_count_only_build_counts_as_the_full_build(text, n_max):
    # the build counts as the reference automaton that keeps its states
    sam = SuffixAutomaton(text, n_max=len(text))
    ref = StateAutomaton(text)
    assert sam.n_states == ref.n_states
    assert sam.floor.tolist() == ref.floor.tolist()
    assert length_counts(sam.floor, n_max).tolist() == interval_length_counts(ref, n_max).tolist()
    half = len(text) // 2
    assert (length_counts(sam.floor, n_max, prefix=half).tolist()
            == interval_length_counts(StateAutomaton(text[:half]), n_max).tolist())


def test_count_only_build_keeps_no_state_arrays():
    text = thue_morse().prefix(1000)
    lean = SuffixAutomaton(text, n_max=len(text))
    ref = StateAutomaton(text)
    for name in ("first_end", "maxlen", "link", "minlen", "outdeg"):
        assert not hasattr(lean, name), name
        assert len(getattr(ref, name)) == ref.n_states == lean.n_states
    assert lean.floor.dtype == np.int64 and len(lean.floor) == 1000
    assert lean.floor.tolist() == ref.floor.tolist()


@pytest.mark.parametrize("spec", ["abk", "tm"])
def test_build_memory_per_letter(spec):
    # the build's lists hold 2 + |alphabet| slots a state, and the ints it
    # allocates stay alive in them; a state made by a letter shares one int
    # for its id and maxlen, a clone its maxlen with a position state.
    # tracemalloc counts allocations, so the bound holds on any host
    text = parse_word_spec(spec).prefix(2 * 10 ** 5)
    tracemalloc.start()
    try:
        SuffixAutomaton(text, n_max=len(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * len(text), peak / len(text)


@settings(max_examples=80, deadline=None)
@given(TEXTS)
def test_left_special_matches_reverse_automaton(text):
    n_max = len(text) + 1
    index = FactorIndex(thue_morse(), text, n_max)
    for n in range(1, n_max):
        want = reverse_left_special(text, n)
        assert index.left_special(n) == want
        assert want == frame_left_special(text, n)


def test_factor_index_guards_in_order(monkeypatch):
    # n_max first, then the window's size, then the prefix cap
    monkeypatch.setattr(words, "PREFIX_CAP", 1000)
    small = parse_word_spec("tm")
    with pytest.raises(PreconditionError, match="out-of-range"):
        build_factor_index(small, n_work=5000, n_max=0)
    with pytest.raises(PreconditionError, match="window-too-small"):
        build_factor_index(small, n_work=5000, n_max=4000)
    with pytest.raises(PreconditionError, match="prefix length 1001 exceeds"):
        build_factor_index(small, n_work=1001, n_max=8)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_profile_matches_frame_oracle(spec):
    source = parse_word_spec(spec)
    index = build_factor_index(source, n_work=600, n_max=24)
    window = source.prefix(600)
    assert list(index.profile().p) == frame_profile(window, 24)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_special_factors_match_frame_oracle(spec):
    source = parse_word_spec(spec)
    index = build_factor_index(source, n_work=600, n_max=24)
    window = source.prefix(600)
    for n in (1, 2, 3, 7, 12, 23):
        assert index.right_special(n) == frame_right_special(window, n)
        assert index.left_special(n) == frame_left_special(window, n)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_factor_enumeration_and_positions(spec):
    source = parse_word_spec(spec)
    index = build_factor_index(source, n_work=400, n_max=24)
    window = source.prefix(400)
    for n in range(1, 25):
        oracle = frame_factors(window, n)
        assert index.factors_of_length(n) == oracle
        pairs = [(window[i:i + n], i) for i in index.row(n).tolist()]
        assert pairs == sorted((word, window.find(word)) for word in oracle)


TABLE_SPECS = SMALL_SPECS + ["sturm:1,3,(2)", "morphic:0->001,1->10@0",
                             "morphic:a->abc,b->ac,c->b@a", "abk"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(TABLE_SPECS),
       st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=60))
@example("morphic:a->abc,b->ac,c->b@a", 16, 0)
@example("abk", 16, 0)
def test_factor_table_matches_brute_force_at_every_length(spec, n_max, extra):
    # windows from the smallest allowed (2 * n_max) upwards; at 2 * n_max
    # the sort keys of the late starts are cut short by the window's end
    source = parse_word_spec(spec)
    n_work = 2 * n_max + extra
    index = build_factor_index(source, n_work=n_work, n_max=n_max)
    window = source.prefix(n_work)
    for n in range(1, n_max + 1):
        oracle = sorted(frame_factors(window, n))
        row = index.row(n)
        assert row.dtype == np.int64 and len(row) == index.complexity(n)
        assert row.tolist() == [window.find(w) for w in oracle]


@pytest.mark.parametrize("n", [0, -1, 17])
def test_row_refuses_lengths_outside_the_index(n):
    index = build_factor_index(thue_morse(), n_max=16)
    with pytest.raises(PreconditionError, match="out-of-range"):
        index.row(n)


def test_thue_morse_profile_values():
    index = build_factor_index(thue_morse(), n_work=2 ** 16, n_max=3)
    assert list(index.profile().p) == [2, 4, 6]
    assert index.accumulative(3) == 12
    assert index.complexity(1) == 2


def test_constant_word_profile():
    index = build_factor_index(parse_word_spec("ultper:|0"), n_max=16)
    assert set(index.profile().p) == {1}
    assert index.slope_constants() == (1, 1)
    assert index.right_special(5) == set()


def test_fibonacci_complexity_and_specials():
    index = build_factor_index(fibonacci_word(), n_work=10 ** 5, n_max=100)
    assert all(index.complexity(n) == n + 1 for n in range(1, 101))
    assert index.complexity(7) == 8
    for n in (1, 10, 50, 99):
        assert len(index.right_special(n)) == 1
        assert len(index.left_special(n)) == 1
    c, k = index.slope_constants()
    assert c == 2


def test_slope_constants_bound_each_other():
    for spec in SMALL_SPECS:
        index = build_factor_index(parse_word_spec(spec), n_work=800, n_max=16)
        c, k = index.slope_constants()
        assert c >= 1
        assert 2 * k >= c
        p = index.profile().p
        assert all(p[n - 1] <= c * n for n in range(1, 17))
        g = index.profile().g
        assert all(g[n - 1] <= k * n for n in range(1, 17))


def test_accumulative_telescopes():
    index = build_factor_index(thue_morse(), n_max=32)
    g = index.profile().g
    p = index.profile().p
    assert g[0] == p[0]
    assert all(g[n] - g[n - 1] == p[n] for n in range(1, 32))


def test_factor_closure():
    index = build_factor_index(parse_word_spec("abk"), n_work=500, n_max=10)
    for word in index.factors_of_length(10):
        for n in range(1, 10):
            for i in range(len(word) - n + 1):
                assert word[i:i + n] in index.factors_of_length(n)


def test_detect_eventual_periodicity():
    periodic = build_factor_index(ultimately_periodic("01", "10"), n_max=64)
    n0 = periodic.detect_eventual_periodicity()
    assert n0 is not None
    assert periodic.complexity(n0) == periodic.complexity(n0 + 1)
    assert build_factor_index(thue_morse(), n_max=64).detect_eventual_periodicity() is None
    assert build_factor_index(fibonacci_word(), n_max=64).detect_eventual_periodicity() is None


def test_occurrences():
    index = build_factor_index(thue_morse(), n_work=64, n_max=16)
    window = thue_morse().prefix(64)
    occ = find_occurrences(window, "11")
    assert occ[:3] == [1, 7, 13]
    assert occ == [i for i in range(63) if window[i:i + 2] == "11"]
    assert find_occurrences(window, "") == list(range(65))
    # the tm cut rule refuses a span that reaches outside the window
    _, _, rule = thue_morse_split_sets(index)
    for start in (-1, 63):
        with pytest.raises(PreconditionError, match="out-of-range"):
            rule(np.array([start]), np.array([2]))
    assert find_occurrences(fibonacci_word().prefix(64), "11") == []


def test_range_guards():
    index = build_factor_index(thue_morse(), n_max=8)
    with pytest.raises(PreconditionError, match="out-of-range"):
        index.complexity(9)
    with pytest.raises(PreconditionError, match="out-of-range"):
        index.complexity(0)
    with pytest.raises(PreconditionError, match="out-of-range"):
        index.right_special(8)  # extensions do not fit at the cap
    for n in (0, 9):
        with pytest.raises(PreconditionError, match="out-of-range"):
            index.factors_of_length(n)


def test_window_too_small():
    with pytest.raises(PreconditionError, match="window-too-small"):
        build_factor_index(thue_morse(), n_work=100, n_max=64)


def test_stabilization_check():
    profile, stable = stabilized_profile(fibonacci_word(), n_work=10 ** 5, n_max=100)
    assert stable
    assert profile == build_factor_index(fibonacci_word(), n_work=10 ** 5, n_max=100).profile()
    profile, stable = stabilized_profile(parse_word_spec("ultper:|0"), n_max=32)
    assert stable and profile.n_work == 50 * 32
    # a window this small misses length-192 factors of the block word
    source = parse_word_spec("pq:f=isqrt,k=p")
    profile, stable = stabilized_profile(source, n_work=400, n_max=192)
    assert not stable
    assert profile == build_factor_index(source, n_work=400, n_max=192).profile()


def test_stabilized_profile_guards(monkeypatch):
    with pytest.raises(PreconditionError, match="out-of-range"):
        stabilized_profile(thue_morse(), n_work=100, n_max=0)
    with pytest.raises(PreconditionError, match="window-too-small"):
        stabilized_profile(thue_morse(), n_work=100, n_max=64)
    # the cap is checked at the window before the doubled window
    monkeypatch.setattr(words, "PREFIX_CAP", 1000)
    with pytest.raises(PreconditionError, match="prefix length 1001 exceeds"):
        stabilized_profile(parse_word_spec("tm"), n_work=1001, n_max=8)
    with pytest.raises(PreconditionError, match="prefix length 1200 exceeds"):
        stabilized_profile(parse_word_spec("tm"), n_work=600, n_max=8)


# one period repeated, with one letter changed: a window of such a text may
# or may not hold every factor of the doubled window
FLAWED_PERIODIC = st.builds(
    lambda period, reps, at, letter: "".join(
        letter if i == at else c for i, c in enumerate(period * reps)),
    st.text(alphabet="012", min_size=1, max_size=6),
    st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=100),
    st.sampled_from("012"))


@settings(max_examples=200, deadline=None)
@given(st.one_of(TEXTS, FLAWED_PERIODIC), st.sampled_from("012"),
       st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=40))
@example("0", "0", 1, 0)
def test_stabilized_profile_matches_the_doubled_build(text, tail, n_max, extra):
    # the word is text, then tail forever, so tail may be a letter that first
    # occurs after the window; extra = 0 gives a window of exactly 2 * n_max
    source = ultimately_periodic(text, tail)
    n_work = 2 * n_max + extra
    profile, stable = stabilized_profile(source, n_work, n_max)
    p, want = doubled_build_profile(source, n_work, n_max)
    assert list(profile.p) == p.tolist()
    assert stable == want


@settings(max_examples=80, deadline=None)
@given(TEXTS, TEXTS, st.integers(min_value=1, max_value=12))
def test_first_unmatched_finds_the_first_new_factor(text, other, n):
    sam = SuffixAutomaton(text, n_max=n)
    assert sam.first_unmatched(other) == first_new_end(text, other, n)


@settings(max_examples=150, deadline=None)
@given(st.one_of(TEXTS, FLAWED_PERIODIC), st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=200),
       TEXTS, st.integers(min_value=1, max_value=40))
def test_part_built_automaton_counts_as_the_state_oracle(text, n_max, block, cut, other, n):
    # blocks of max(block, n_max) letters, so that short texts are walked
    # too; the walked positions read n_max. An automaton walks at its own
    # cap, so a walk at n has a build at n of its own
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton, "_BLOCK", block)
        sam = SuffixAutomaton(text, n_max=n_max)
        walker = SuffixAutomaton(text, n_max=n)
    ref = StateAutomaton(text)
    assert np.minimum(sam.floor, n_max).tolist() == np.minimum(ref.floor, n_max).tolist()
    for m in range(len(text) + 1):
        want = interval_length_counts(StateAutomaton(text[:m]), n_max)
        assert length_counts(sam.floor, n_max, prefix=m).tolist() == want.tolist(), m
    # factors of the text, longer than n_max too, then maybe new ones
    probe = text[min(cut, len(text)):] + other
    assert sam.first_unmatched(probe) == first_new_end(text, probe, n_max)
    assert walker.first_unmatched(probe) == first_new_end(text, probe, n)


@settings(max_examples=150, deadline=None)
@given(st.one_of(TEXTS, FLAWED_PERIODIC), st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=200), TEXTS, st.integers(min_value=1, max_value=40))
# the clones are renumbered in the block loop and in the build's resume
# after a walk miss; the last example walks at a cap above n_max
@example("01" * 20, 2, 1, 1, 0, "", 1)
@example("0" * 20 + "1" + "0" * 5, 2, 2, 2, 0, "", 1)
@example("0" * 30, 2, 2, 2, 30, "0" * 10, 10)
def test_renumbered_automaton_counts_as_the_state_oracle(text, n_max, block, first, cut,
                                                         other, n):
    # first lists for first * max(block, n_max) letters, so that short
    # texts pass them; a renumbered build lays out its lists exactly as a
    # build whose first lists hold the whole text
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton, "_BLOCK", block)
        mp.setattr(automaton, "_FIRST_BLOCKS", first)
        sam = SuffixAutomaton(text, n_max=n_max)
        walker = SuffixAutomaton(text, n_max=n)
        mp.setattr(automaton, "_FIRST_BLOCKS", len(text) + 1)
        wide = SuffixAutomaton(text, n_max=n_max)
    ref = StateAutomaton(text)
    assert np.minimum(sam.floor, n_max).tolist() == np.minimum(ref.floor, n_max).tolist()
    assert sam.n_states == StateAutomaton(text[:sam._built]).n_states
    for m in range(len(text) + 1):
        want = interval_length_counts(StateAutomaton(text[:m]), n_max)
        assert length_counts(sam.floor, n_max, prefix=m).tolist() == want.tolist(), m
    probe = text[min(cut, len(text)):] + other
    want = first_new_end(text, probe, n_max)
    assert sam.first_unmatched(probe) == wide.first_unmatched(probe) == want
    assert walker.first_unmatched(probe) == first_new_end(text, probe, n)
    if sam._cap == len(text):
        assert sam._walk[:3] == wide._walk[:3]


def test_build_memory_follows_the_built_letters():
    # tm's factors of up to 192 letters are all in its first 8192 letters,
    # so the build stops there, with lists for 4 blocks of letters, about
    # 1 MB, beside the 2 MB floor; lists for 2N states would take 16 MB
    text = thue_morse().prefix(250_000)
    tracemalloc.start()
    try:
        sam = SuffixAutomaton(text, n_max=192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sam._built == 8192 and sam._cap == 4 * 4096
    assert peak < 6 * 10 ** 6, peak
    # pq's short factors stay new, so the build renumbers its clones into
    # the whole text's layout, and keeps to the bytes a letter of a build
    # that starts there
    text = parse_word_spec("pq:f=isqrt,k=p").prefix(2 * 10 ** 5)
    tracemalloc.start()
    try:
        sam = SuffixAutomaton(text, n_max=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sam._built == sam._cap == len(text)
    assert peak < 150 * len(text), peak / len(text)


@pytest.mark.parametrize("text", [
    # the walk from 8192 misses at the 1, and the build resumes through it
    "0" * 10000 + "1" + "0" * 40,
    # new factors end at 8192, 8193 and 8195, before the walk has read a
    # whole length-5 factor of the unbuilt part
    ("0000011111" * 820)[:8191] + "01110" + "0" + "0000011111" * 5,
])
def test_late_new_factor_after_a_clean_stretch_longer_than_a_block(text):
    # the block of 4096 letters from 4096 is clean, so the build walks from
    # 8192 on; it misses, and builds the rest of the text
    sam = SuffixAutomaton(text, n_max=5)
    ref = StateAutomaton(text)
    assert sam.n_states == ref.n_states
    assert np.minimum(sam.floor, 5).tolist() == np.minimum(ref.floor, 5).tolist()
    for m in (8192, 8193, 8196, 8200, len(text) - 40, len(text)):
        want = interval_length_counts(StateAutomaton(text[:m]), 5)
        assert length_counts(sam.floor, 5, prefix=m).tolist() == want.tolist(), m


def test_build_stops_where_short_factors_stop_being_new():
    # with no 1, the walk reaches the end and the build stops after 8192
    # letters: one state a letter, and the initial state
    sam = SuffixAutomaton("0" * 10050, n_max=5)
    assert sam.n_states == 8193
    assert sam.floor[8192:].tolist() == [5] * (10050 - 8192)
    assert length_counts(sam.floor, 5).tolist() == [1] * 5
    assert length_counts(sam.floor, 5, prefix=3).tolist() == [1, 1, 1, 0, 0]


@pytest.mark.parametrize("other,want", [("0" * 12, None), ("0000011", 6)])
def test_part_built_walk_answers_for_the_whole_text(other, want):
    # every factor of length 5 occurs in the first block, so the build walks
    # from 8192 on and stops; the walk at 5 answers for the whole text, and
    # builds nothing
    period = "0" * 10 + "1"
    text = period * 1000 + "0" * 20 + period * 10
    sam = SuffixAutomaton(text, n_max=5)
    n_states = sam.n_states
    assert n_states < StateAutomaton(text).n_states
    assert sam.first_unmatched(other) == first_new_end(text, other, 5) == want
    assert sam.n_states == n_states


@pytest.mark.parametrize("spec,unmatched", [
    ("ultper:0000000001|1", 4),           # 00011 ends the first walked factor
    ("ultper:1000000000000000000|1", 13),  # 00001 ends the last one
    ("ultper:0000000000|1", 4),           # a letter the window lacks
    ("ultper:0000000000000000000|1", 13),
    ("ultper:|0", None),
])
def test_stability_walk_stops_at_the_first_new_factor(spec, unmatched):
    # window of 10 letters at n_max 5: the walk reads doubled[6:20]
    source = parse_word_spec(spec)
    doubled = source.prefix(20)
    sam = SuffixAutomaton(doubled[:10], n_max=5)
    assert sam.first_unmatched(doubled[6:]) == unmatched
    profile, stable = stabilized_profile(source, 10, 5)
    p, want = doubled_build_profile(source, 10, 5)
    assert list(profile.p) == p.tolist()
    assert stable == want == (unmatched is None)


@pytest.mark.parametrize("spec,stable", [("abk", True), ("pq:f=isqrt,k=p", False)])
def test_profiles_at_a_million_letters_match_prefix_doubling(spec, stable):
    source = parse_word_spec(spec)
    n_work, n_max = 10 ** 6, 1000
    want = prefix_doubling_profile(source.prefix(n_work), n_max)
    profile, got = stabilized_profile(source, n_work, n_max)
    assert list(profile.p) == want.tolist()
    assert build_factor_index(source, n_work, n_max).profile() == profile
    assert got == stable
    doubled = prefix_doubling_profile(source.prefix(2 * n_work), n_max)
    assert np.array_equal(doubled, want) == stable


@pytest.mark.parametrize("spec,n_max", [("tm", 512), ("abk", 1000)])
def test_prefix_counts_at_a_million_letters_match_prefix_doubling(spec, n_max):
    # half_window_growth, and so the marker route's gate, reads the counts
    # of the window's first half
    text = parse_word_spec(spec).prefix(10 ** 6)
    floor = SuffixAutomaton(text, n_max=n_max).floor
    for m in (len(text) // 2, len(text)):
        want = prefix_doubling_profile(text[:m], n_max)
        assert length_counts(floor, n_max, prefix=m).tolist() == want.tolist(), m


@pytest.mark.parametrize("spec,n_max", [("tm", 256), ("abk", 128), ("fib", 256),
                                        ("pq:f=isqrt,k=p", 64)])
def test_factor_table_and_special_factors_at_scale_match_the_state_oracle(spec, n_max):
    source = parse_word_spec(spec)
    n_work = 10 ** 5
    window = source.prefix(n_work)
    index = build_factor_index(source, n_work, n_max)
    for n, want in enumerate(interval_rows(window, n_max), 1):
        assert index.row(n).tolist() == want, n
    right, left = interval_special(window, n_max)
    for n in range(1, n_max):
        assert index.right_special(n) == right[n], n
        assert index.left_special(n) == left[n], n


@settings(max_examples=80, deadline=None)
@given(TEXTS, st.integers(min_value=1, max_value=90))
def test_prefix_doubling_oracle_matches_frame_oracle(text, n_max):
    assert prefix_doubling_profile(text, n_max).tolist() == frame_profile(text, n_max)


def test_csv_export():
    index = build_factor_index(thue_morse(), n_max=3)
    assert index.profile().to_csv() == "n,p,g\n1,2,2\n2,4,6\n3,6,12\n"
