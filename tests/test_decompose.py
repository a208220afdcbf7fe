"""Decomposition routes: marker cuts, word-specific sets, greedy, counting."""

import collections
import functools
import itertools
import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlang import (
    FactorIndex,
    LeveledLanguage,
    MarkerSet,
    Morphism,
    PreconditionError,
    SplitRecords,
    VerificationError,
    build_all_markers,
    build_decomposition,
    build_factor_index,
    build_markers,
    build_st,
    classify_occurrence,
    compositions_count,
    fibonacci_word,
    greedy_two_sets,
    parse_word_spec,
    product_complexity_bound,
    split_records_to_csv,
    split_sets_bound,
    sturmian_split_sets,
    thue_morse,
    thue_morse_split_sets,
    verify_cover,
)
from factorlang import decompose, words
from factorlang.decompose import (
    OCCURRENCE_CLASSES,
    CoverReport,
    _bit_length,
    _marker_cuts,
    _marker_rule,
    _marker_table,
)
from oracles import per_record_splits_csv, record_rows, slicing_witness_split


def prefix_rows(n):
    """The row function and top length of the prefixes up to length n, as
    verify_cover reads them: the start 0 at every length."""
    return (lambda _: np.zeros(1, dtype=np.int64)), n


def listed_rows(rows):
    """The row function and top length of the lists ``rows``, rows[n - 1]
    the starts of the length-n words."""
    return (lambda n: np.array(rows[n - 1], dtype=np.int64)), len(rows)


def flat(cuts):
    """A cover report's cuts, every length's in turn, as one list."""
    return list(itertools.chain.from_iterable(cuts))


def rule_records(rule, spans):
    """The records of ``spans`` (start, n) as the row rule ``rule(row, n)``
    gives them, one call per length, as tuples in the order of ``spans``."""
    starts = collections.defaultdict(list)
    for i, n in spans:
        starts[n].append(i)
    rows = {n: rule(np.array(row, dtype=np.int64), n).tuples() for n, row in starts.items()}
    return [next(rows[n]) for _, n in spans]


# -- leveled languages ---------------------------------------------------------


def test_leveled_language_basics():
    lang = LeveledLanguage(["ab", "ba", "a", ""])
    assert "" in lang
    assert "ab" in lang and "aa" not in lang
    assert lang.cardinality(2) == 2
    assert lang.cardinality(0) == 1
    assert sorted(lang.by_length) == [0, 1, 2]
    assert lang.per_length_max() == 2
    assert list(lang.words()) == ["", "a", "ab", "ba"]
    assert lang.total() == 4


def test_leveled_language_jsonl_round_trip():
    lang = LeveledLanguage(["01", "10", "0", ""])
    text = lang.to_jsonl("S")
    lines = text.splitlines()
    assert lines[0] == '{"len": 0, "set": "S", "word": ""}'
    back = LeveledLanguage.from_jsonl(text, "S")
    assert list(back.words()) == list(lang.words())
    assert "" in back


def test_leveled_language_of_the_empty_word():
    lang = LeveledLanguage([""])
    assert lang.cardinality(0) == 1
    assert sorted(lang.by_length) == [0]
    assert lang.per_length_max() == 0
    assert lang.total() == 1
    text = lang.to_jsonl("T")
    assert text == '{"len": 0, "set": "T", "word": ""}\n'
    back = LeveledLanguage.from_jsonl(text, "T")
    assert list(back.words()) == [""] and back.total() == 1


def test_leveled_language_from_jsonl_rejects_bad_rows():
    for line in ['{"len": 3, "set": "S", "word": "01"}',
                 '{"set": "S", "word": "01"}',
                 "not json",
                 # a row of the other set, or of none
                 '{"len": 2, "set": "T", "word": "01"}',
                 '{"len": 2, "word": "01"}',
                 # len must be a plain int
                 '{"len": true, "set": "S", "word": "0"}',
                 '{"len": 1.0, "set": "S", "word": "0"}']:
        with pytest.raises(PreconditionError, match="bad-set-file"):
            LeveledLanguage.from_jsonl(line + "\n", "S")


@settings(max_examples=50)
@given(st.lists(st.text(alphabet="01", max_size=8), max_size=30))
def test_leveled_language_round_trip_random(words):
    lang = LeveledLanguage(words)
    back = LeveledLanguage.from_jsonl(lang.to_jsonl("T"), "T")
    assert list(back.words()) == list(lang.words())


def test_split_record_must_rebuild():
    # the cut must lie inside [start, end] for s + t to rebuild v
    for start, cut, end in [(2, 1, 4), (2, 5, 4), (3, 3, 2)]:
        with pytest.raises(PreconditionError, match="bad-split"):
            SplitRecords([start], [cut], [end])
    # the cut may sit at either end of the span
    for cut in (2, 3, 4):
        assert list(SplitRecords([2], [cut], [4]).tuples()) == [(2, cut, 4, -1, -1, 0)]


def test_split_records_columns_refuse_a_cut_outside_the_span():
    # one vectorised test over every row; the first bad row is named
    with pytest.raises(PreconditionError, match=r"bad-split: cut 5 outside the span \[2, 4\]"):
        SplitRecords([0, 2, 3], [1, 5, 2], [1, 4, 2])
    with pytest.raises(PreconditionError, match=r"bad-split: cut 1 outside the span \[2, 4\]"):
        SplitRecords([0, 2], [0, 1], [0, 4], order=1, position=0)
    # the cut may sit at either end of the span
    records = SplitRecords([0, 2, 2, 2, 3], [0, 2, 3, 4, 3], [1, 4, 4, 4, 3])
    assert len(records) == 5
    assert list(records.tuples())[1:4] == [(2, c, 4, -1, -1, 0) for c in (2, 3, 4)]
    # one row of 5000 words of length 2, its order a scalar broadcast
    # without a copy, read back whole as tuples
    row = np.arange(0, 3 * 5000, 3)
    records = SplitRecords(row, row + 1, row + 2, order=1)
    assert records.order.strides == (0,)
    assert list(records.tuples()) == [(i, i + 1, i + 2, 1, -1, 0) for i in row.tolist()]
    assert record_rows([]) == [] and list(SplitRecords([], [], []).tuples()) == []


def test_split_records_csv():
    # two rows, of lengths 2 and 1, written in the order given
    rows = record_rows([(1, 2, 3, 1, 4, 0), (1, 2, 2, -1, 0, 0)])
    assert [len(row) for row in rows] == [1, 1]
    lines = split_records_to_csv("cab", rows)
    assert "".join(lines) == "v,s,t,k,pos,class\nab,a,b,1,4,\na,a,,,0,\n"
    for empty in ([], [SplitRecords([], [], [])]):
        assert "".join(split_records_to_csv("cab", empty)) == "v,s,t,k,pos,class\n"


# -- marker route ----------------------------------------------------------------


@pytest.fixture(scope="module")
def tm_index():
    return build_factor_index(thue_morse(), n_max=128)


@pytest.fixture(scope="module")
def fib_index():
    return build_factor_index(fibonacci_word(), n_max=128)


def _family_d(markers):
    return next(iter(markers.values())).D


def marker_tables(index, markers):
    """One occurrence table per order, over the whole window."""
    return {order: _marker_table(index, ms.markers, 2 ** order, index.n_work)
            for order, ms in markers.items()}


@pytest.mark.parametrize("index_name", ["tm_index", "fib_index"])
def test_split_factor_invariants(index_name, request):
    index = request.getfixturevalue(index_name)
    markers = build_all_markers(index)
    tables = marker_tables(index, markers)
    d = _family_d(markers)
    top = max(markers)
    window = index.window
    for n in (2 * d, 3 * d, 40, 97, 128):
        row = index.row(n)
        cuts, orders, _, _ = _marker_cuts(window, tables, d, row, n)
        for i, cut, order in zip(row.tolist(), cuts.tolist(), orders.tolist()):
            v = window[i:i + n]
            assert i <= cut <= i + n
            s, t = window[i:cut], window[cut:i + n]
            half = 2 ** (order - 1)
            assert len(s) >= half and len(t) >= half
            # the cut sits at the midpoint of an order-k marker occurrence
            joint = s[-half:] + t[:half]
            assert joint in markers[order].markers
            # no higher order in the family has a marker inside v
            for higher in range(order + 1, top + 1):
                assert not any(m in v for m in markers[higher].markers)
            # both sufficiently long parts obey the block-length inequality
            for part in (s, t):
                l = len(part)
                if l >= 2 * d:
                    assert l / (2 * d) < 2 ** order <= 2 * l


def test_split_factor_rejects_short_and_foreign(tm_index):
    markers = build_all_markers(tm_index)
    tables = marker_tables(tm_index, markers)
    d = _family_d(markers)
    window = tm_index.window
    with pytest.raises(PreconditionError, match="precondition-violation"):
        _marker_cuts(window, tables, d, np.array([0]), 2 * d - 1)
    # a span reaching outside the window is no factor of it
    for start in (-1, tm_index.n_work - 2 * d + 1):
        with pytest.raises(PreconditionError, match="out-of-range"):
            _marker_cuts(window, tables, d, np.array([0, start]), 2 * d)


def test_split_factor_leftmost_fib(fib_index):
    markers = build_all_markers(fib_index)
    d = _family_d(markers)
    v = fibonacci_word().prefix(2 * d)
    cut, order, position, _ = (column.item() for column in _marker_cuts(
        fib_index.window, marker_tables(fib_index, markers), d, np.array([0]), 2 * d))
    s, t = v[:cut], v[cut:]
    half = 2 ** (order - 1)
    assert cut == position + half
    assert (s[-half:] + t[:half]) in markers[order].markers


@pytest.mark.parametrize("index_name", ["tm_index", "fib_index"])
def test_build_st_coverage_and_bound(index_name, request):
    index = request.getfixturevalue(index_name)
    markers = build_all_markers(index)
    s_lang, t_lang, rule = build_st(index, markers)
    report = verify_cover(index.window, index.row, index.n_max, s_lang, t_lang)
    assert report.coverage == 1.0
    assert report.total == sum(index.complexity(n) for n in range(1, 129))
    c, _ = index.slope_constants()
    d = _family_d(markers)
    r = max(len(ms.markers) for ms in markers.values())
    bound = split_sets_bound(r, c, d)
    assert s_lang.per_length_max() <= bound
    assert t_lang.per_length_max() <= bound
    # short factors are present wholesale, paired with the empty word
    assert "" in t_lang
    for n in range(1, 2 * d):
        assert index.factors_of_length(n) <= s_lang.by_length[n]
    assert sum(len(rule(index.row(n), n)) for n in range(1, 129)) == report.total


def test_verify_cover_degenerate_cases():
    index = build_factor_index(thue_morse(), n_max=16)
    everything = LeveledLanguage(
        w for n in range(1, 17) for w in index.factors_of_length(n))
    just_epsilon = LeveledLanguage([""])
    report = verify_cover(index.window, index.row, index.n_max, everything, just_epsilon)
    assert report.coverage == 1.0
    empty = LeveledLanguage()
    report = verify_cover(index.window, index.row, index.n_max, empty, just_epsilon)
    assert report.coverage == 0.0
    assert len(report.uncovered) == report.total


def slicing_verify_cover(index, s_lang, t_lang) -> CoverReport:
    """Oracle for verify_cover over the index's rows: try every cut of every
    factor by slicing, in (length, word) order; the cut of a factor is the
    one slicing_witness_split finds, -1 where it refuses."""
    uncovered = []
    cuts = []
    for n in range(1, index.n_max + 1):
        cuts.append(array("q"))
        for v in sorted(index.factors_of_length(n)):
            try:
                cuts[-1].append(slicing_witness_split(v, 0, n, s_lang, t_lang)[1])
            except VerificationError:
                uncovered.append(v)
                cuts[-1].append(-1)
    return CoverReport(total=sum(map(len, cuts)), uncovered=uncovered, cuts=cuts)


COVER_SPECS = ["tm", "fib", "abk", "ultper:01|10", "ultper:0|011"]


@functools.lru_cache(maxsize=None)
def small_index(spec, n_max):
    return build_factor_index(parse_word_spec(spec), n_work=8 * n_max, n_max=n_max)


def without(lang, drop):
    return LeveledLanguage(w for w in lang.words() if w not in drop)


def halves_sets(index):
    """S and T holding every factor of length at most ceil(n_max / 2), and
    the empty word: v = v[:n//2] + v[n//2:] covers every indexed factor."""
    half = (index.n_max + 1) // 2
    words = [""] + [w for n in range(1, half + 1) for w in index.factors_of_length(n)]
    return LeveledLanguage(words), LeveledLanguage(words)


def route_sets(spec, index):
    if spec == "tm":
        s_lang, t_lang, _ = thue_morse_split_sets(index)
        return s_lang, t_lang
    if spec == "fib":
        return sturmian_split_sets(index)
    return halves_sets(index)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(COVER_SPECS), st.integers(min_value=2, max_value=12), st.data())
def test_mask_cover_matches_slicing_oracle_random_sets(spec, n_max, data):
    index = small_index(spec, n_max)
    factors = [w for n in range(1, n_max + 1) for w in sorted(index.factors_of_length(n))]
    letters = "".join(index.alphabet)
    words = st.one_of(st.sampled_from([""] + factors),
                      st.text(alphabet=letters, max_size=n_max + 2))
    s_lang = LeveledLanguage(data.draw(st.lists(words, max_size=30)))
    t_lang = LeveledLanguage(data.draw(st.lists(words, max_size=30)))
    hi = data.draw(st.integers(min_value=1, max_value=n_max))
    # the same window, indexed up to hi, has the first hi rows of the index
    up_to_hi = build_factor_index(parse_word_spec(spec), n_work=8 * n_max, n_max=hi)
    assert verify_cover(index.window, index.row, hi,
                        s_lang, t_lang) == slicing_verify_cover(up_to_hi, s_lang, t_lang)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(COVER_SPECS), st.integers(min_value=2, max_value=12), st.data())
def test_mask_cover_matches_slicing_oracle_on_thinned_routes(spec, n_max, data):
    index = small_index(spec, n_max)
    s_lang, t_lang = route_sets(spec, index)
    assert verify_cover(index.window, index.row, index.n_max, s_lang, t_lang).coverage == 1.0
    drop_s = data.draw(st.sets(st.sampled_from(list(s_lang.words())), max_size=4))
    drop_t = data.draw(st.sets(st.sampled_from(list(t_lang.words())), max_size=4))
    s_lang, t_lang = without(s_lang, drop_s), without(t_lang, drop_t)
    report = verify_cover(index.window, index.row, index.n_max, s_lang, t_lang)
    assert report == slicing_verify_cover(index, s_lang, t_lang)


@pytest.mark.parametrize("spec", ["tm", "fib"])
def test_mask_cover_reports_uncovered_in_oracle_order(spec):
    index = build_factor_index(parse_word_spec(spec), n_max=32)
    s_lang, t_lang, _ = build_st(index, build_all_markers(index))
    # without the empty word in T the short factors, kept whole in S, and
    # the factors cut into that T word lose their cover
    t_lang = without(t_lang, {"", max(t_lang.words())})
    report = verify_cover(index.window, index.row, index.n_max, s_lang, t_lang)
    assert len(report.uncovered) > 5
    assert report == slicing_verify_cover(index, s_lang, t_lang)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(COVER_SPECS), st.integers(min_value=2, max_value=12), st.data())
def test_mask_cover_matches_slicing_oracle_when_hashes_collide(spec, n_max, data):
    # modulo 3 almost every hash collides, so nearly every position is a
    # candidate and membership alone must decide it; with base 1 a word's
    # hash is the sum of its letters, and with base MOD, which has no
    # inverse, its last letter
    index = small_index(spec, n_max)
    factors = [w for n in range(1, n_max + 1) for w in sorted(index.factors_of_length(n))]
    words = st.one_of(st.sampled_from([""] + factors),
                      st.text(alphabet="".join(index.alphabet), max_size=n_max + 2))
    if data.draw(st.booleans()):
        s_lang, t_lang = route_sets(spec, index)
        s_lang = without(s_lang, data.draw(st.sets(st.sampled_from(list(s_lang.words())),
                                                   max_size=4)))
    else:
        s_lang = LeveledLanguage(data.draw(st.lists(words, max_size=30)))
        t_lang = LeveledLanguage(data.draw(st.lists(words, max_size=30)))
    expected = slicing_verify_cover(index, s_lang, t_lang)
    for name, value in [("_HASH_MOD", 3), ("_HASH_BASE", 1), ("_HASH_BASE", decompose._HASH_MOD)]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decompose, name, value)
            report = verify_cover(index.window, index.row, index.n_max, s_lang, t_lang)
        assert report == expected, (name, value)


def slicing_cover_of_table(window, row, hi, s_lang, t_lang) -> CoverReport:
    """Oracle for verify_cover over any rows: the leftmost cut of each word
    of row(n), n = 1..hi, in row order, found by slicing, -1 for an
    uncovered word."""
    uncovered = []
    cuts = []
    for n in range(1, hi + 1):
        cuts.append(array("q"))
        for i in row(n).tolist():
            try:
                cuts[-1].append(slicing_witness_split(window, i, n, s_lang, t_lang)[1] - i)
            except VerificationError:
                uncovered.append(window[i:i + n])
                cuts[-1].append(-1)
    return CoverReport(total=sum(map(len, cuts)), uncovered=uncovered, cuts=cuts)


def test_mask_cover_with_foreign_letters_and_long_words():
    # letters the window never holds, one beyond the basic plane and one
    # lone surrogate, and words longer than n_max, which no cut can use
    index = small_index("fib", 12)
    s_lang, t_lang = route_sets("fib", index)
    for word in ["2", "0\U0001F600", "\U0001F600" * 3, "01\ud800", "0" * 13,
                 index.window[:14], index.window[:40]]:
        s_lang.add(word)
        t_lang.add(word)
    s_lang, t_lang = without(s_lang, {"", "01"}), without(t_lang, {"0"})
    report = verify_cover(index.window, index.row, index.n_max, s_lang, t_lang)
    assert 0 < len(report.uncovered) < report.total
    assert report == slicing_verify_cover(index, s_lang, t_lang)
    # a window of foreign letters, against the same sets
    window = "0\U0001F6000\ud8000" * 4
    rows = listed_rows([[0, 1, 3], [0, 1], [1, 2], [0]])
    assert verify_cover(window, *rows, s_lang, t_lang) == \
        slicing_cover_of_table(window, *rows, s_lang, t_lang)


def test_mask_cover_of_a_table_whose_top_lengths_hold_no_word():
    # the rows are empty above length 6, so the longest length, 40, runs
    # past the reach, the largest end of any row word; S and T also hold a
    # word longer than the reach
    index = small_index("tm", 12)
    s_lang, t_lang = route_sets("tm", index)
    s_lang = without(s_lang, {"01"})
    s_lang.add(index.window[:35])
    t_lang.add(index.window[1:36])
    rows = listed_rows([index.row(n).tolist() for n in range(1, 7)] + [[]] * 34)
    reach = max(i + n for n in range(1, 7) for i in index.row(n).tolist())
    assert reach < 35 < rows[1] == 40
    report = verify_cover(index.window, *rows, s_lang, t_lang)
    assert 0 < len(report.uncovered) < report.total
    assert report == slicing_cover_of_table(index.window, *rows, s_lang, t_lang)


@pytest.mark.parametrize("s_empty,t_empty", [(True, False), (False, True), (True, True)])
def test_mask_cover_with_the_empty_word_on_either_side(s_empty, t_empty):
    index = small_index("tm", 12)
    factors = [w for n in range(1, 5) for w in sorted(index.factors_of_length(n))]
    s_lang = LeveledLanguage(factors[::2] + [""] * s_empty)
    t_lang = LeveledLanguage(factors[1::2] + [""] * t_empty)
    report = verify_cover(index.window, index.row, index.n_max, s_lang, t_lang)
    assert report == slicing_verify_cover(index, s_lang, t_lang)
    # "0" is in S and "1" in T: each letter is covered by the empty word on
    # the other side alone
    assert [c >= 0 for c in report.cuts[0]] == [t_empty, s_empty]
    rows = prefix_rows(12)
    assert verify_cover(index.window, *rows, s_lang, t_lang) == \
        slicing_cover_of_table(index.window, *rows, s_lang, t_lang)


def test_mask_cover_on_greedy_prefix_rows():
    word = thue_morse().prefix(48)
    s_lang, t_lang = greedy_two_sets(LeveledLanguage(word[:n] for n in range(1, 49)), 1)
    rows = prefix_rows(48)
    assert verify_cover(word, *rows, s_lang, t_lang) == \
        slicing_cover_of_table(word, *rows, s_lang, t_lang)
    # without two of its words some prefixes lose their cover
    thinned_s = without(s_lang, {max(s_lang.words(), key=len)})
    thinned_t = without(t_lang, {max(t_lang.words(), key=len)})
    report = verify_cover(word, *rows, thinned_s, thinned_t)
    assert report.uncovered
    assert report == slicing_cover_of_table(word, *rows, thinned_s, thinned_t)


def test_mask_cover_over_a_long_window():
    # every row word lies inside window[:reach], however long the window
    index = build_factor_index(thue_morse(), n_work=50_000, n_max=64)
    s_lang, t_lang, _ = thue_morse_split_sets(index)
    s_lang = without(s_lang, {w for w in s_lang.words() if len(w) % 7 == 3})
    report = verify_cover(index.window, index.row, index.n_max, s_lang, t_lang)
    assert 0 < len(report.uncovered) < report.total == index.accumulative(64)
    assert report == slicing_verify_cover(index, s_lang, t_lang)


def test_mask_cover_refuses_a_span_outside_the_window():
    s_lang, t_lang = LeveledLanguage(["0"]), LeveledLanguage([""])
    with pytest.raises(PreconditionError, match="out-of-range"):
        verify_cover("011", *prefix_rows(4), s_lang, t_lang)
    with pytest.raises(PreconditionError, match="out-of-range"):
        verify_cover("011", *listed_rows([[-1]]), s_lang, t_lang)


@pytest.mark.parametrize("offsets", [
    [[3]], [[0], [2]], [[0], [0, 1], [1]], [[0, -1]], [[0], [0], [0], [0]]])
def test_mask_cover_refuses_offsets_that_are_no_table(offsets):
    # offsets[n - 1] are the starts of the length-n rows; each table has a
    # span that leaves the window "011"
    s_lang, t_lang = LeveledLanguage(["0"]), LeveledLanguage([""])
    with pytest.raises(PreconditionError, match="out-of-range"):
        verify_cover("011", *listed_rows(offsets), s_lang, t_lang)


def test_mask_cover_refuses_a_negative_top_length():
    s_lang, t_lang = LeveledLanguage(["0"]), LeveledLanguage([""])
    with pytest.raises(PreconditionError, match="out-of-range"):
        verify_cover("011", *prefix_rows(-1), s_lang, t_lang)
    # no length at all: nothing to check
    assert verify_cover("011", *prefix_rows(0), s_lang, t_lang) == CoverReport(
        total=0, uncovered=[], cuts=[])


def scanning_split_factor(index, markers, start, n):
    """Oracle for the marker cut: search ``v = window[start:start+n]`` for
    every marker of every order and classify each occurrence of the chosen
    marker afresh. Returns what ``_marker_cuts`` gives for one row: the cut,
    the order, the position of the chosen occurrence and its class (a label,
    not a code)."""
    v = index.window[start:start + n]
    for order in sorted(markers, reverse=True):
        half = 2 ** (order - 1)
        hits = [(v.find(m), m) for m in markers[order].markers]
        hits = [(pos, m) for pos, m in hits if pos != -1]
        if not hits:
            continue
        _, marker = min(hits)
        rel_positions = []
        at = v.find(marker)
        while at != -1:
            rel_positions.append(at)
            at = v.find(marker, at + 1)
        chosen_rel = None
        chosen_class = None
        first_classified = None
        for rel in rel_positions:
            try:
                cls = classify_occurrence(index.window, start + rel, 2 ** order)
            except PreconditionError:
                continue
            if first_classified is None:
                first_classified = (rel, cls)
            if cls != "internal":
                chosen_rel, chosen_class = rel, cls
                break
        if chosen_rel is None:
            chosen_rel, chosen_class = first_classified or (rel_positions[0], None)
        return start + chosen_rel + half, order, start + chosen_rel, chosen_class
    raise VerificationError("no-marker-found", f"no marker occurs in {v!r}")


MARKER_SPECS = ["tm", "fib", "sturm:2,(1)", "morphic:0->01,1->00@0"]


@pytest.mark.parametrize("spec", MARKER_SPECS)
@pytest.mark.parametrize("n_max,window", [(32, None), (64, None), (96, None),
                                          (64, 192), (80, 240)])
def test_build_st_matches_scanning_oracle(spec, n_max, window, monkeypatch):
    index = build_factor_index(parse_word_spec(spec), window, n_max)
    if window is None:
        markers = build_all_markers(index)
    else:
        # windows of 3*n_max letters are too short for the linearity gate's
        # half-window check, but build_st must still match the oracle on
        # them: build each order's verified set as build_all_markers would
        with pytest.raises(PreconditionError, match="not-linear-within-window"):
            build_all_markers(index)
        c, _ = index.slope_constants()
        top = (n_max // (c + 1)).bit_length() - 1
        markers = {order: build_markers(index, order, c) for order in range(1, top + 1)}
    d = _family_d(markers)
    calls = collections.Counter()

    def counting_classify(window, position, length):
        calls[position, length] += 1
        return classify_occurrence(window, position, length)

    monkeypatch.setattr(decompose, "classify_occurrence", counting_classify)
    s_lang, t_lang, rule = build_st(index, markers)
    monkeypatch.undo()
    # one classification per distinct occurrence, however many factors hold it
    assert calls and set(calls.values()) == {1}
    window = index.window
    expected = []
    for n in range(1, n_max + 1):
        for v in sorted(index.factors_of_length(n)):
            start = window.find(v)
            if n < 2 * d:
                expected.append((start, start + n, start + n, -1, start, 0))
            else:
                cut, order, position, cls = scanning_split_factor(index, markers, start, n)
                expected.append((start, cut, start + n, order, position,
                                 OCCURRENCE_CLASSES.index(cls)))
    # every field of every row, the occurrence class included
    assert [r for n in range(1, n_max + 1)
            for r in rule(index.row(n), n).tuples()] == expected
    by_words = lambda w: (len(w), w)  # noqa: E731
    assert list(s_lang.words()) == sorted({window[r[0]:r[1]] for r in expected}, key=by_words)
    assert list(t_lang.words()) == sorted({window[r[1]:r[2]] for r in expected}, key=by_words)


def brute_starts(window, word):
    return [i for i in range(len(window) - len(word) + 1) if window[i:i + len(word)] == word]


@pytest.mark.parametrize("spec", MARKER_SPECS)
def test_marker_occurrence_lists_match_brute_force(spec):
    index = build_factor_index(parse_word_spec(spec), n_max=96)
    markers = build_all_markers(index)
    window = index.window
    row_reach = max(int(index.row(n).max()) + n for n in range(1, 97))
    for reach in (row_reach, 2 * row_reach + 1):
        for order, ms in markers.items():
            length = 2 ** order
            occ, codes, extreme, classified = _marker_table(index, ms.markers, length, reach)
            merged = sorted((i, m) for m in ms.markers for i in brute_starts(window, m)
                            if i + length <= reach)
            count = len(merged)
            # the occurrences ending by reach, then the closing row
            assert occ.tolist() == [i for i, _ in merged] + [reach]
            assert (codes[count], extreme[count], classified[count]) == (0, count, count)
            labels = []
            for i, _ in merged:
                try:
                    labels.append(classify_occurrence(window, i, length))
                except PreconditionError:
                    labels.append(None)
            assert [OCCURRENCE_CLASSES[c] for c in codes[:count].tolist()] == labels
            for j, (_, m) in enumerate(merged):
                later = [jj for jj in range(j, count) if merged[jj][1] == m]
                assert classified[j] == next(
                    (jj for jj in later if labels[jj] is not None), count)
                assert extreme[j] == next(
                    (jj for jj in later if labels[jj] not in (None, "internal")), count)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MARKER_SPECS + ["abk", "ultper:0|011"]),
       st.integers(min_value=8, max_value=40), st.data())
def test_split_factor_matches_scanning_oracle_on_any_family(spec, n_max, data):
    """Random marker families on short windows, where occurrences near the
    window's end cannot be classified and some factors hold no marker."""
    index = small_window_index(spec, n_max)
    top = (n_max // 2).bit_length() - 1
    markers = {}
    for order in range(1, top + 1):
        pool = sorted(index.factors_of_length(2 ** order))
        chosen = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4))
        markers[order] = MarkerSet(order=order, markers=frozenset(chosen), D=2)
    tables = marker_tables(index, markers)
    for n in range(4, n_max + 1):
        row = index.row(n)
        columns = _marker_cuts(index.window, tables, 2, row, n)
        unmarked = False
        for start, *got in zip(row.tolist(), *(column.tolist() for column in columns)):
            try:
                cut, order, position, cls = scanning_split_factor(index, markers, start, n)
            except VerificationError as exc:
                # order -1, and -1 for the cut and the position, exactly
                # where the oracle finds no marker
                assert "no-marker-found" in str(exc)
                assert got == [-1, -1, -1, 0]
                unmarked = True
                continue
            assert got == [cut, order, position, OCCURRENCE_CLASSES.index(cls)]
        # the rule refuses a row exactly when some start of it gets order -1,
        # and otherwise gives the columns of _marker_cuts
        if unmarked:
            with pytest.raises(VerificationError, match="no-marker-found"):
                _marker_rule(index.window, tables, 2, row, n)
        else:
            records = _marker_rule(index.window, tables, 2, row, n)
            got = (records.cut, records.order, records.position, records.classes)
            assert all(np.array_equal(a, b) for a, b in zip(got, columns))


@functools.lru_cache(maxsize=None)
def small_window_index(spec, n_max):
    return build_factor_index(parse_word_spec(spec), n_work=2 * n_max, n_max=n_max)


# -- doubling-morphism route -----------------------------------------------------


def scan_max_valuation_boundary(lo, hi):
    """Oracle: scan [lo, hi] for the position of largest 2-adic valuation."""
    best, best_val = lo, (lo & -lo).bit_length() - 1
    for m in range(lo + 1, hi + 1):
        val = (m & -m).bit_length() - 1
        if val > best_val:
            best, best_val = m, val
    return best, best_val


def scan_records(spans):
    """The tm records of ``spans`` (start, n), one at a time, by the scan
    over start + 1 .. start + max(n - 1, 1): a single letter has the one
    boundary start + 1, which leaves t empty."""
    records = []
    for i, n in spans:
        boundary, k = scan_max_valuation_boundary(i + 1, i + max(n - 1, 1))
        records.append((i, boundary, i + n, k, boundary, 0))
    return records


def test_max_valuation_boundary_matches_scan():
    # every range [lo, hi] within [1, 511], as the span (lo - 1, hi - lo + 2)
    spans = [(lo - 1, hi - lo + 2) for lo in range(1, 512) for hi in range(lo, 512)]
    _, _, rule = thue_morse_split_sets(FactorIndex(thue_morse(), thue_morse().prefix(512), 512))
    assert rule_records(rule, spans) == scan_records(spans)


def test_bit_length_is_exact_up_to_the_prefix_cap():
    values = sorted({v for j in range(words.PREFIX_CAP.bit_length())
                     for v in (2 ** j - 1, 2 ** j, 2 ** j + 1) if v > 0})
    assert values[-1] == words.PREFIX_CAP + 1
    assert _bit_length(np.array(values, dtype=np.int64)).tolist() == [
        v.bit_length() for v in values]


@pytest.fixture(scope="module")
def tm_index_256():
    return build_factor_index(thue_morse(), n_max=256)


def test_thue_morse_records_match_the_scalar_rule(tm_index_256):
    # every row of the index: the route's rule, one call per row, against
    # the scan, one span at a time
    spans = [(i, n) for n in range(1, 257) for i in tm_index_256.row(n).tolist()]
    _, _, rule = thue_morse_split_sets(tm_index_256)
    rows = [rule(tm_index_256.row(n), n) for n in range(1, 257)]
    assert sum(map(len, rows)) == tm_index_256.accumulative(256)
    assert [r for row in rows for r in row.tuples()] == scan_records(spans)


def test_thue_morse_records_near_powers_of_two(tm_index_256):
    # spans that start or end one letter either side of a power of two,
    # single letters included, against the scan
    window = tm_index_256.window
    _, _, rule = thue_morse_split_sets(tm_index_256)
    marks = [2 ** j + d for j in range(14) for d in (-1, 0, 1)]
    spans = sorted({(i, n) for m in marks for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 255, 256)
                    for i in (m, m - n) if 0 <= i and i + n <= len(window)}
                   | {(i, 1) for i in range(40)})
    assert rule_records(rule, spans) == scan_records(spans)
    # a span outside the window, and the lengths 0 and n_max + 1
    for bad_starts, n in (([0, len(window) - 3], 4), ([-1], 2), ([0, 5], 0), ([0, 5], 257)):
        with pytest.raises(PreconditionError, match="out-of-range"):
            rule(np.array(bad_starts), n)


@pytest.mark.parametrize("method,spec", [
    ("marker", "tm"), ("marker", "fib"), ("tm", "tm"), ("sturmian", "fib"), ("greedy", "tm")])
def test_splits_csv_matches_the_per_record_writer(method, spec):
    index = build_factor_index(parse_word_spec(spec), n_max=64)
    dec = build_decomposition(index, method)
    rows = list(dec.rows())
    # one row per length, each a SplitRecords of that length's words
    assert len(rows) == 64 and all(isinstance(row, SplitRecords) for row in rows)
    assert all((row.end - row.start == n).all() for n, row in enumerate(rows, 1))
    # the records one at a time: the scanned tm cuts, the leftmost cuts of
    # the report, and the marker records as the rows give them back
    row = prefix_rows(64)[0] if method == "greedy" else index.row
    spans = [(i, n) for n in range(1, 65) for i in row(n).tolist()]
    if method == "tm":
        expected = scan_records(spans)
    elif method == "marker":
        expected = [r for row in rows for r in row.tuples()]
    else:
        expected = [(i, i + c, i + n, -1, -1, 0)
                    for (i, n), c in zip(spans, flat(dec.report.cuts))]
    written = "".join(split_records_to_csv(index.window, dec.rows()))
    assert written == "".join(per_record_splits_csv(index.window, expected))
    assert written.count("\n") == dec.report.total + 1
    # rows() starts again on each call: a second read writes the same file
    assert "".join(split_records_to_csv(index.window, dec.rows())) == written
    assert ("".join(split_records_to_csv(index.window, record_rows([])))
            == "".join(per_record_splits_csv(index.window, [])) == "v,s,t,k,pos,class\n")


def test_thue_morse_sets_counts_and_cuts(tm_index):
    s1, s2, rule = thue_morse_split_sets(tm_index)
    for m in range(1, 65):
        assert s1.cardinality(m) == 2
        assert s2.cardinality(m) == 2
    window = tm_index.window
    assert window[1:3] == "11"
    # the boundary after the second letter, 1-based, of valuation 1; a
    # single letter is cut after it
    assert list(rule(np.array([1]), 2).tuples()) == [(1, 2, 3, 1, 2, 0)]
    assert list(rule(np.array([0]), 1).tuples()) == [(0, 1, 1, 0, 1, 0)]
    report = verify_cover(tm_index.window, tm_index.row, tm_index.n_max, s1, s2)
    assert report.coverage == 1.0
    # each cut produces parts from the sets themselves
    for n in (1, 2, 7, 32, 128):
        row = tm_index.row(n)
        records = rule(row, n)
        assert (records.start == row).all() and (records.end == row + n).all()
        for i, cut in zip(row.tolist(), records.cut.tolist()):
            assert window[i:cut] in s1 and window[cut:i + n] in s2


@pytest.mark.parametrize("n_max", [1, 2, 3, 5, 8, 64, 100, 128])
@pytest.mark.parametrize("window", ["2 n_max", "default", "n_max"])
def test_thue_morse_sets_are_the_iterated_blocks(n_max, window):
    # the suffixes and prefixes of the r-fold images of 0 and 1, r the
    # least r >= 1 with 2^r >= n_max, iterated by the morphism itself; an
    # index built directly may hold fewer than 2^r letters
    doubling = Morphism({"0": "01", "1": "10"}, "0")
    blocks = ["0", "1"]
    for _ in range(max(1, math.ceil(math.log2(n_max)))):
        blocks = ["".join(doubling.images[c] for c in b) for b in blocks]
    if window == "n_max":
        index = FactorIndex(thue_morse(), thue_morse().prefix(n_max), n_max)
    else:
        index = build_factor_index(thue_morse(), 2 * n_max if window == "2 n_max" else None,
                                   n_max)
    s1, s2, _ = thue_morse_split_sets(index)
    lengths = range(1, n_max + 1)
    assert set(s1.words()) == {""} | {b[-m:] for b in blocks for m in lengths}
    assert set(s2.words()) == {""} | {b[:m] for b in blocks for m in lengths}


def test_thue_morse_sets_window_guard(fib_index):
    # the route checks the window itself, not the spec that named it
    with pytest.raises(PreconditionError, match="method-mismatch"):
        thue_morse_split_sets(fib_index)
    # windows one letter or one renaming away from the tm prefix
    tm = thue_morse().prefix(64)
    thue_morse_split_sets(FactorIndex(thue_morse(), tm, 16))
    flipped = tm[:-1] + {"0": "1", "1": "0"}[tm[-1]]
    for window in (flipped, tm.translate(str.maketrans("01", "10")),
                   tm.translate(str.maketrans("01", "ab")), tm[:-1] + "2"):
        with pytest.raises(PreconditionError, match="method-mismatch"):
            thue_morse_split_sets(FactorIndex(thue_morse(), window, 16))


def test_witness_split():
    s = LeveledLanguage(["0"])
    t = LeveledLanguage(["1", ""])
    rec = slicing_witness_split("01", 0, 2, s, t)
    assert rec == (0, 1, 2, -1, -1, 0)
    with pytest.raises(VerificationError, match="coverage-incomplete"):
        slicing_witness_split("11", 0, 2, s, t)
    # verify_cover reports the same leftmost cuts, for the words "0" and "01"
    # of the window "011", and -1 for its uncovered word "11"
    assert verify_cover("011", *prefix_rows(2), s, t) == CoverReport(
        total=2, uncovered=[], cuts=[array("q", [1]), array("q", [rec[1]])])
    assert verify_cover("011", *listed_rows([[], [1]]), s, t) == CoverReport(
        total=1, uncovered=["11"], cuts=[array("q"), array("q", [-1])])


# -- Sturmian route --------------------------------------------------------------


def test_sturmian_sets(fib_index):
    s1, s2 = sturmian_split_sets(fib_index)
    for n in range(1, 129):
        assert s1.cardinality(n) == 2
        assert s2.cardinality(n) == 2
    assert s1.by_length[2] == {"00", "01"}
    report = verify_cover(fib_index.window, fib_index.row, fib_index.n_max, s1, s2)
    assert report.coverage == 1.0


def test_sturmian_rejects_thue_morse(tm_index):
    with pytest.raises(PreconditionError, match="not-sturmian"):
        sturmian_split_sets(tm_index)


def test_sturmian_other_directive():
    index = build_factor_index(parse_word_spec("sturm:2,(1)"), n_max=64)
    s1, s2 = sturmian_split_sets(index)
    assert verify_cover(index.window, index.row, index.n_max, s1, s2).coverage == 1.0


# -- greedy route ----------------------------------------------------------------


def test_greedy_on_prefixes(tm_index):
    word = thue_morse().prefix(64)
    prefixes = LeveledLanguage(word[:n] for n in range(1, 65))
    s_lang, t_lang = greedy_two_sets(prefixes, 1)
    assert s_lang.per_length_max() <= 3
    assert t_lang.per_length_max() <= 3
    for n in range(1, 65):
        slicing_witness_split(word, 0, n, s_lang, t_lang)  # raises if uncovered


def test_greedy_trivial_epsilon():
    s_lang, t_lang = greedy_two_sets(LeveledLanguage([""]), 1)
    assert "" in s_lang and "" in t_lang
    assert s_lang.per_length_max() == 0


def test_greedy_planted_violation():
    # every binary word of length <= 6: the accumulative count reaches 126 > n
    dense = LeveledLanguage(
        "".join(w) for n in range(1, 7) for w in itertools.product("01", repeat=n))
    with pytest.raises(PreconditionError, match="no-feasible-split"):
        greedy_two_sets(dense, 1)


def test_greedy_budget_guard():
    with pytest.raises(PreconditionError, match="out-of-range"):
        greedy_two_sets(LeveledLanguage(["0"]), 0)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=48))
def test_greedy_prefix_language_always_feasible(word):
    # prefix languages have exactly one word per length, so the slope promise
    # holds with budget 1; insertion never overruns 3 words at any length
    prefixes = LeveledLanguage(word[:n] for n in range(1, len(word) + 1))
    s_lang, t_lang = greedy_two_sets(prefixes, 1)
    assert s_lang.per_length_max() <= 3
    assert t_lang.per_length_max() <= 3
    oracle = [slicing_witness_split(word, 0, n, s_lang, t_lang)[1]
              for n in range(1, len(word) + 1)]
    report = verify_cover(word, *prefix_rows(len(word)), s_lang, t_lang)
    assert report.uncovered == [] and flat(report.cuts) == oracle


@settings(max_examples=40, deadline=None)
@given(st.sets(st.text(alphabet="ab", min_size=1, max_size=10), max_size=20),
       st.integers(min_value=1, max_value=4))
def test_greedy_respects_cap_when_it_succeeds(words, budget):
    lang = LeveledLanguage(words)
    try:
        s_lang, t_lang = greedy_two_sets(lang, budget)
    except PreconditionError:
        return  # the random language broke the slope promise, allowed
    assert s_lang.per_length_max() <= 2 * budget + 1
    assert t_lang.per_length_max() <= 2 * budget + 1
    for v in lang.words():
        slicing_witness_split(v, 0, len(v), s_lang, t_lang)


# -- one entry point ---------------------------------------------------------------


@pytest.mark.parametrize("method,spec", [
    ("marker", "tm"), ("tm", "tm"), ("sturmian", "fib"), ("greedy", "tm")])
def test_build_decomposition_routes(method, spec):
    index = build_factor_index(parse_word_spec(spec), n_max=32)
    dec = build_decomposition(index, method)
    assert dec.report.coverage == 1.0
    assert (dec.markers is not None) == (method == "marker")
    window = index.window
    rows = list(dec.rows())
    records = [r for row in rows for r in row.tuples()]
    for start, cut, end, *_ in records:
        assert window[start:cut] in dec.s_lang
        assert window[cut:end] in dec.t_lang
    if method == "greedy":
        # one record per prefix of the window, each a certificate of its cover
        assert [row.start.tolist() for row in rows] == [[0]] * 32
        assert [row.end.tolist() for row in rows] == [[n] for n in range(1, 33)]
        assert dec.report == verify_cover(window, *prefix_rows(32), dec.s_lang, dec.t_lang)
        assert dec.report.total == 32
    else:
        assert dec.report == verify_cover(window, index.row, index.n_max, dec.s_lang, dec.t_lang)
        assert dec.report.total == index.accumulative(32) == len(records)
        assert [len(row) for row in rows] == [index.complexity(n) for n in range(1, 33)]
    if method in ("sturmian", "greedy"):
        # the records are the leftmost cuts the report holds
        assert [cut - start for start, cut, *_ in records] == flat(dec.report.cuts)


def test_build_decomposition_sturmian_makes_one_cover_pass(fib_index, monkeypatch):
    calls = collections.Counter()
    contains = LeveledLanguage.__contains__

    def counted(lang, word):
        calls["probes"] += 1
        return contains(lang, word)

    monkeypatch.setattr(LeveledLanguage, "__contains__", counted)
    dec = build_decomposition(fib_index, "sturmian")
    route = calls["probes"]
    calls.clear()
    verify_cover(fib_index.window, fib_index.row, fib_index.n_max, dec.s_lang, dec.t_lang)
    assert route == calls["probes"] > 0


def test_build_decomposition_refuses_an_uncovered_word(fib_index, monkeypatch):
    # sets that cover the factor "0" of length 1 but not "1": the sturmian
    # route reads its records from the cover check and must refuse there
    monkeypatch.setattr(decompose, "sturmian_split_sets", lambda index: (
        LeveledLanguage(["0"]), LeveledLanguage([""])))
    with pytest.raises(VerificationError, match="coverage-incomplete: no split found for '1'"):
        build_decomposition(fib_index, "sturmian")


def test_build_decomposition_marker_refuses_growing_profile():
    # Thue-Morse shows every factor up to length 32 in the first half of a
    # window from 256 letters on
    for window, grows in ((64, True), (128, True), (256, False)):
        index = build_factor_index(thue_morse(), n_work=window, n_max=32)
        assert (index.half_window_growth() is not None) == grows
    with pytest.raises(PreconditionError, match="not-linear-within-window"):
        build_decomposition(build_factor_index(thue_morse(), n_work=128, n_max=32), "marker")


def test_build_decomposition_unknown_method(fib_index):
    with pytest.raises(PreconditionError, match="unknown-method"):
        build_decomposition(fib_index, "halves")


# -- counting bounds ---------------------------------------------------------------


def test_compositions_count_examples():
    assert compositions_count(2, 1) == 3
    assert compositions_count(0, 7) == 1
    assert compositions_count(5, 2) == 21
    with pytest.raises(PreconditionError, match="out-of-range"):
        compositions_count(-1, 2)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=4))
def test_compositions_count_matches_enumeration(n, k):
    slots = k + 1
    brute = sum(1 for combo in itertools.product(range(n + 1), repeat=slots)
                if sum(combo) == n)
    assert compositions_count(n, k) == brute


def test_product_complexity_bound_examples():
    assert product_complexity_bound(1, 1, 2) == 3
    assert product_complexity_bound(2, 1, 5) == 24
    assert product_complexity_bound(2, 2, 4) == 120
    with pytest.raises(PreconditionError, match="out-of-range"):
        product_complexity_bound(0, 1, 2)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_product_bound_dominates_brute_force(data):
    # build two random languages capped at 2 words per length and compare the
    # realized product complexity against the counting bound
    caps = 2
    def capped_language(tag):
        lang = LeveledLanguage([""])
        for n in (1, 2, 3):
            words = data.draw(
                st.sets(st.text(alphabet="01", min_size=n, max_size=n),
                        max_size=caps),
                label=f"{tag}{n}")
            for w in words:
                lang.add(w)
        return lang
    s_lang = capped_language("s")
    t_lang = capped_language("t")
    for n in range(1, 7):
        products = {s + t for s in s_lang.words() for t in t_lang.words()
                    if len(s) + len(t) == n}
        assert len(products) <= product_complexity_bound(caps, 1, n)
