"""Decomposition routes: marker cuts, word-specific sets, greedy, counting."""

import collections
import functools
import itertools
import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlang import (
    FactorIndex,
    LeveledLanguage,
    MarkerOccurrences,
    MarkerSet,
    Morphism,
    PreconditionError,
    SplitRecord,
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
    split_factor,
    split_records_to_csv,
    split_sets_bound,
    sturmian_split_sets,
    thue_morse,
    thue_morse_split_sets,
    verify_cover,
)
from factorlang import decompose
from factorlang.decompose import CoverReport, _max_valuation_boundary
from oracles import slicing_witness_split


# -- leveled languages ---------------------------------------------------------


def test_leveled_language_basics():
    lang = LeveledLanguage(["ab", "ba", "a", ""])
    assert "" in lang
    assert "ab" in lang and "aa" not in lang
    assert lang.cardinality(2) == 2
    assert lang.cardinality(0) == 1
    assert lang.lengths() == [0, 1, 2]
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
    assert lang.lengths() == [0]
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
            SplitRecord(start, cut, end, None, None, None)
    # the cut may sit at either end of the span
    for cut in (2, 3, 4):
        assert SplitRecord(2, cut, 4, None, None, None).cut == cut


def test_split_records_csv():
    records = [
        SplitRecord(1, 2, 3, 1, 4, None),
        SplitRecord(1, 2, 2, None, 0, None),
    ]
    lines = split_records_to_csv("cab", records)
    assert "".join(lines) == "v,s,t,k,pos,class\nab,a,b,1,4,\na,a,,,0,\n"
    assert "".join(split_records_to_csv("cab", [])) == "v,s,t,k,pos,class\n"


# -- marker route ----------------------------------------------------------------


@pytest.fixture(scope="module")
def tm_index():
    return build_factor_index(thue_morse(), n_max=128)


@pytest.fixture(scope="module")
def fib_index():
    return build_factor_index(fibonacci_word(), n_max=128)


def _family_d(markers):
    return next(iter(markers.values())).D


@pytest.mark.parametrize("index_name", ["tm_index", "fib_index"])
def test_split_factor_invariants(index_name, request):
    index = request.getfixturevalue(index_name)
    markers = build_all_markers(index)
    occurrences = MarkerOccurrences(index, markers)
    d = _family_d(markers)
    top = max(markers)
    window = index.window
    for n in (2 * d, 3 * d, 40, 97, 128):
        for i in index.rows()[n - 1]:
            v = window[i:i + n]
            rec = split_factor(occurrences, i, n)
            assert (rec.start, rec.end) == (i, i + n)
            s, t = window[i:rec.cut], window[rec.cut:i + n]
            half = 2 ** (rec.order - 1)
            assert len(s) >= half and len(t) >= half
            # the cut sits at the midpoint of an order-k marker occurrence
            joint = s[-half:] + t[:half]
            assert joint in markers[rec.order].markers
            # no higher order in the family has a marker inside v
            for higher in range(rec.order + 1, top + 1):
                assert not any(m in v for m in markers[higher].markers)
            # both sufficiently long parts obey the block-length inequality
            for part in (s, t):
                l = len(part)
                if l >= 2 * d:
                    assert l / (2 * d) < 2 ** rec.order <= 2 * l


def test_split_factor_rejects_short_and_foreign(tm_index):
    markers = build_all_markers(tm_index)
    occurrences = MarkerOccurrences(tm_index, markers)
    d = _family_d(markers)
    with pytest.raises(PreconditionError, match="precondition-violation"):
        split_factor(occurrences, 0, 2 * d - 1)
    # a span reaching outside the window is no factor of it
    for start in (-1, tm_index.n_work - 2 * d + 1):
        with pytest.raises(PreconditionError, match="out-of-range"):
            split_factor(occurrences, start, 2 * d)


def test_split_factor_leftmost_fib(fib_index):
    markers = build_all_markers(fib_index)
    d = _family_d(markers)
    v = fibonacci_word().prefix(2 * d)
    rec = split_factor(MarkerOccurrences(fib_index, markers), 0, 2 * d)
    s, t = v[:rec.cut], v[rec.cut:rec.end]
    assert (rec.start, rec.end) == (0, 2 * d)
    half = 2 ** (rec.order - 1)
    assert rec.cut == rec.position + half
    assert (s[-half:] + t[:half]) in markers[rec.order].markers


@pytest.mark.parametrize("index_name", ["tm_index", "fib_index"])
def test_build_st_coverage_and_bound(index_name, request):
    index = request.getfixturevalue(index_name)
    markers = build_all_markers(index)
    s_lang, t_lang, records = build_st(index, markers)
    report = verify_cover(index.window, index.rows(), s_lang, t_lang)
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
    assert len(records) == report.total


def test_verify_cover_degenerate_cases():
    index = build_factor_index(thue_morse(), n_max=16)
    everything = LeveledLanguage(
        w for n in range(1, 17) for w in index.factors_of_length(n))
    just_epsilon = LeveledLanguage([""])
    report = verify_cover(index.window, index.rows(), everything, just_epsilon)
    assert report.coverage == 1.0
    empty = LeveledLanguage()
    report = verify_cover(index.window, index.rows(), empty, just_epsilon)
    assert report.coverage == 0.0
    assert len(report.uncovered) == report.total


def slicing_verify_cover(index, s_lang, t_lang) -> CoverReport:
    """Oracle for verify_cover over the index rows: try every cut of every
    factor by slicing, in (length, word) order; the cut of a factor is the
    one slicing_witness_split finds, -1 where it refuses."""
    uncovered = []
    cuts = array("q")
    for n in range(1, index.n_max + 1):
        for v in sorted(index.factors_of_length(n)):
            try:
                cuts.append(slicing_witness_split(v, 0, n, s_lang, t_lang).cut)
            except VerificationError:
                uncovered.append(v)
                cuts.append(-1)
    return CoverReport(total=len(cuts), uncovered=uncovered, cuts=cuts)


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
    # the same window, indexed up to hi, has the first hi rows
    up_to_hi = build_factor_index(parse_word_spec(spec), n_work=8 * n_max, n_max=hi)
    assert verify_cover(index.window, index.rows()[:hi], s_lang, t_lang) == \
        slicing_verify_cover(up_to_hi, s_lang, t_lang)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(COVER_SPECS), st.integers(min_value=2, max_value=12), st.data())
def test_mask_cover_matches_slicing_oracle_on_thinned_routes(spec, n_max, data):
    index = small_index(spec, n_max)
    s_lang, t_lang = route_sets(spec, index)
    assert verify_cover(index.window, index.rows(), s_lang, t_lang).coverage == 1.0
    drop_s = data.draw(st.sets(st.sampled_from(list(s_lang.words())), max_size=4))
    drop_t = data.draw(st.sets(st.sampled_from(list(t_lang.words())), max_size=4))
    s_lang, t_lang = without(s_lang, drop_s), without(t_lang, drop_t)
    report = verify_cover(index.window, index.rows(), s_lang, t_lang)
    assert report == slicing_verify_cover(index, s_lang, t_lang)


@pytest.mark.parametrize("spec", ["tm", "fib"])
def test_mask_cover_reports_uncovered_in_oracle_order(spec):
    index = build_factor_index(parse_word_spec(spec), n_max=32)
    s_lang, t_lang, _ = build_st(index, build_all_markers(index))
    # without the empty word in T the short factors, kept whole in S, and
    # the factors cut into that T word lose their cover
    t_lang = without(t_lang, {"", max(t_lang.words())})
    report = verify_cover(index.window, index.rows(), s_lang, t_lang)
    assert len(report.uncovered) > 5
    assert report == slicing_verify_cover(index, s_lang, t_lang)


def scanning_split_factor(index, markers, start, n):
    """Oracle for split_factor: search ``v = window[start:start+n]`` for
    every marker of every order and classify each occurrence of the chosen
    marker afresh."""
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
        return SplitRecord(start, start + chosen_rel + half, start + n, order,
                           start + chosen_rel, chosen_class)
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
    s_lang, t_lang, records = build_st(index, markers)
    monkeypatch.undo()
    # one classification per distinct occurrence, however many factors hold it
    assert calls and set(calls.values()) == {1}
    window = index.window
    expected = []
    for n in range(1, n_max + 1):
        for v in sorted(index.factors_of_length(n)):
            start = window.find(v)
            if n < 2 * d:
                expected.append(SplitRecord(start, start + n, start + n, None, start, None))
            else:
                expected.append(scanning_split_factor(index, markers, start, n))
    # dataclass equality compares every field, the occurrence class included
    assert records == expected
    by_words = lambda w: (len(w), w)  # noqa: E731
    assert list(s_lang.words()) == sorted({window[r.start:r.cut] for r in expected}, key=by_words)
    assert list(t_lang.words()) == sorted({window[r.cut:r.end] for r in expected}, key=by_words)


def brute_starts(window, word):
    return [i for i in range(len(window) - len(word) + 1) if window[i:i + len(word)] == word]


@pytest.mark.parametrize("spec", MARKER_SPECS)
def test_marker_occurrence_lists_match_brute_force(spec):
    index = build_factor_index(parse_word_spec(spec), n_max=96)
    markers = build_all_markers(index)
    occurrences = MarkerOccurrences(index, markers)
    assert occurrences.orders == sorted(markers, reverse=True)
    for order, ms in markers.items():
        merged = []
        for m in ms.markers:
            assert occurrences.own[m] == brute_starts(index.window, m)
            merged.extend((i, m) for i in occurrences.own[m])
        merged.sort()
        assert occurrences.starts[order] == [i for i, _ in merged]
        assert occurrences.marker_at[order] == [m for _, m in merged]


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
    occurrences = MarkerOccurrences(index, markers)
    for n in range(4, n_max + 1):
        for start in index.rows()[n - 1]:
            try:
                expected = scanning_split_factor(index, markers, start, n)
            except VerificationError:
                with pytest.raises(VerificationError, match="no-marker-found"):
                    split_factor(occurrences, start, n)
                continue
            assert split_factor(occurrences, start, n) == expected


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


def test_max_valuation_boundary_matches_scan():
    for lo in range(1, 512):
        for hi in range(lo, 512):
            assert _max_valuation_boundary(lo, hi) == scan_max_valuation_boundary(lo, hi)


def test_thue_morse_sets_counts_and_cuts(tm_index):
    s1, s2, cut = thue_morse_split_sets(tm_index)
    for m in range(1, 65):
        assert s1.cardinality(m) == 2
        assert s2.cardinality(m) == 2
    window = tm_index.window
    assert window[1:3] == "11"
    rec = cut(1, 2)
    assert (window[rec.start:rec.cut], window[rec.cut:rec.end]) == ("1", "1")
    assert rec.position == 2  # boundary after the second letter, 1-based
    rec = cut(0, 1)
    assert (rec.start, rec.cut, rec.end) == (0, 1, 1)
    report = verify_cover(tm_index.window, tm_index.rows(), s1, s2)
    assert report.coverage == 1.0
    # each cut produces parts from the sets themselves
    for n in (1, 2, 7, 32, 128):
        for i in tm_index.rows()[n - 1]:
            rec = cut(i, n)
            assert (rec.start, rec.end) == (i, i + n)
            assert window[i:rec.cut] in s1 and window[rec.cut:i + n] in s2


@pytest.mark.parametrize("n_max", [1, 2, 3, 5, 8, 64, 100, 128])
@pytest.mark.parametrize("window", ["2 n_max", "default", "n_max"])
def test_thue_morse_sets_are_the_iterated_blocks(n_max, window):
    # the suffixes and prefixes of the r-fold images of 0 and 1, r the
    # least r >= 1 with 2^r >= n_max, iterated by the morphism itself; an
    # index built directly may hold fewer than 2^r letters
    doubling = Morphism({"0": "01", "1": "10"}, "0")
    blocks = ["0", "1"]
    for _ in range(max(1, math.ceil(math.log2(n_max)))):
        blocks = [doubling.apply(b) for b in blocks]
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


def test_witness_split():
    s = LeveledLanguage(["0"])
    t = LeveledLanguage(["1", ""])
    rec = slicing_witness_split("01", 0, 2, s, t)
    assert (rec.start, rec.cut, rec.end) == (0, 1, 2)
    with pytest.raises(VerificationError, match="coverage-incomplete"):
        slicing_witness_split("11", 0, 2, s, t)
    # verify_cover reports the same leftmost cuts, for the words "0" and "01"
    # of the window "011", and -1 for its uncovered word "11"
    assert verify_cover("011", [[0], [0]], s, t) == CoverReport(
        total=2, uncovered=[], cuts=array("q", [1, rec.cut]))
    assert verify_cover("011", [[], [1]], s, t) == CoverReport(
        total=1, uncovered=["11"], cuts=array("q", [-1]))


# -- Sturmian route --------------------------------------------------------------


def test_sturmian_sets(fib_index):
    s1, s2 = sturmian_split_sets(fib_index)
    for n in range(1, 129):
        assert s1.cardinality(n) == 2
        assert s2.cardinality(n) == 2
    assert s1.by_length[2] == {"00", "01"}
    report = verify_cover(fib_index.window, fib_index.rows(), s1, s2)
    assert report.coverage == 1.0


def test_sturmian_rejects_thue_morse(tm_index):
    with pytest.raises(PreconditionError, match="not-sturmian"):
        sturmian_split_sets(tm_index)


def test_sturmian_other_directive():
    index = build_factor_index(parse_word_spec("sturm:2,(1)"), n_max=64)
    s1, s2 = sturmian_split_sets(index)
    assert verify_cover(index.window, index.rows(), s1, s2).coverage == 1.0


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
    oracle = [slicing_witness_split(word, 0, n, s_lang, t_lang).cut
              for n in range(1, len(word) + 1)]
    report = verify_cover(word, [[0]] * len(word), s_lang, t_lang)
    assert report.uncovered == [] and list(report.cuts) == oracle


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
    for rec in dec.records:
        assert window[rec.start:rec.cut] in dec.s_lang
        assert window[rec.cut:rec.end] in dec.t_lang
    if method == "greedy":
        # one record per prefix of the window, each a certificate of its cover
        assert [(r.start, r.end) for r in dec.records] == [(0, n) for n in range(1, 33)]
        assert dec.report == verify_cover(window, [[0]] * 32, dec.s_lang, dec.t_lang)
        assert dec.report.total == 32
    else:
        assert dec.report == verify_cover(window, index.rows(), dec.s_lang, dec.t_lang)
        assert dec.report.total == index.accumulative(32) == len(dec.records)
    if method in ("sturmian", "greedy"):
        # the records are the leftmost cuts the report holds
        assert [r.cut - r.start for r in dec.records] == list(dec.report.cuts)


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
    verify_cover(fib_index.window, fib_index.rows(), dec.s_lang, dec.t_lang)
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
