"""Minimal periods, occurrence classes, and marker verification."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlang import (
    FactorIndex,
    MarkerSet,
    PreconditionError,
    VerificationError,
    build_all_markers,
    build_factor_index,
    build_markers,
    classify_occurrence,
    fibonacci_word,
    markers_to_jsonl,
    minimal_period,
    parse_word_spec,
    require_linear_window,
    thue_morse,
    ultimately_periodic,
    verify_marker_property,
)
from factorlang import periodicity
from oracles import find_occurrences


def brute_minimal_period(w: str) -> int:
    for p in range(1, len(w) + 1):
        if all(w[i] == w[i - p] for i in range(p, len(w))):
            return p
    raise AssertionError("unreachable, |w| is always a period")


@pytest.mark.parametrize("word,period,root", [
    ("0101", 2, "01"),
    ("aabaa", 3, "aab"),
    ("0110", 3, "011"),
    ("aaaa", 1, "a"),
    ("a", 1, "a"),
    ("ab", 2, "ab"),
])
def test_minimal_period_examples(word, period, root):
    assert minimal_period(word) == (period, root)


def test_minimal_period_rejects_empty():
    with pytest.raises(PreconditionError, match="empty-word"):
        minimal_period("")


def test_minimal_period_exhaustive_small():
    for n in range(1, 15):
        for tup in itertools.product("01", repeat=n):
            w = "".join(tup)
            p, root = minimal_period(w)
            assert p == brute_minimal_period(w)
            assert root == w[:p]


@settings(max_examples=300)
@given(st.text(alphabet="01", min_size=1, max_size=64))
def test_minimal_period_random_binary(w):
    p, root = minimal_period(w)
    assert p == brute_minimal_period(w)
    assert root == w[:p]


@settings(max_examples=100)
@given(st.text(alphabet="abc", min_size=1, max_size=100))
def test_minimal_period_random_ternary(w):
    assert minimal_period(w)[0] == brute_minimal_period(w)


def test_classify_examples():
    assert classify_occurrence("010101010", 0, 4) == "internal"
    # "0101011": the shift test still holds at position 0, breaks at 2
    assert classify_occurrence("0101011", 0, 4) == "internal"
    assert classify_occurrence("0101011", 2, 4) == "final"
    assert classify_occurrence("010111", 0, 4) == "final"
    assert classify_occurrence("10011", 1, 2) == "initial+final"


def test_classify_guards():
    with pytest.raises(PreconditionError, match="insufficient-right-context"):
        classify_occurrence("0101", 0, 4)
    with pytest.raises(PreconditionError, match="out-of-range"):
        classify_occurrence("0101", 3, 4)
    with pytest.raises(PreconditionError, match="out-of-range"):
        classify_occurrence("0101", 0, 0)


@settings(max_examples=300)
@given(st.text(alphabet="01", min_size=2, max_size=60), st.data())
def test_classify_returns_the_label_of_both_period_checks(window, data):
    j = data.draw(st.integers(min_value=0, max_value=len(window) - 1))
    n = data.draw(st.integers(min_value=1, max_value=len(window) - j))
    p = brute_minimal_period(window[j:j + n])
    left_ok = all(window[j + o] == window[j + o - p] for o in range(p) if j + o >= p)
    right = [window[j + o] == window[j + o + p] for o in range(n - p, n)
             if j + o + p < len(window)]
    try:
        label = classify_occurrence(window, j, n)
    except PreconditionError as exc:
        # refused only when the window ends before a mismatch on the right
        assert "insufficient-right-context" in str(exc)
        assert all(right) and j + n - 1 + p >= len(window)
        return
    right_ok = all(right)
    assert label in ("internal", "initial", "final", "initial+final")
    assert (label == "internal") == (left_ok and right_ok)
    assert label.startswith("initial") == (not left_ok)
    assert label.endswith("final") == (not right_ok)


@settings(max_examples=200)
@given(st.text(alphabet="01", min_size=3, max_size=80),
       st.data())
def test_internal_occurrence_repeats_one_period_away(window, data):
    j = data.draw(st.integers(min_value=0, max_value=len(window) - 2))
    n = data.draw(st.integers(min_value=1, max_value=len(window) - j - 1))
    w = window[j:j + n]
    pw, _ = minimal_period(w)
    try:
        oc = classify_occurrence(window, j, n)
    except PreconditionError:
        return  # not enough right context to decide
    if oc == "internal":
        assert window[j + pw:j + pw + n] == w
        if j >= pw:
            assert window[j - pw:j - pw + n] == w


@pytest.mark.parametrize("spec", ["tm", "fib", "abk"])
def test_every_short_factor_has_a_final_occurrence(spec):
    source = parse_word_spec(spec)
    index = build_factor_index(source, n_work=2000, n_max=20)
    window = source.prefix(2000)
    for n in (1, 3, 7, 10):
        for v in index.factors_of_length(n):
            finals = 0
            for j in find_occurrences(window, v):
                try:
                    if classify_occurrence(window, j, n).endswith("final"):
                        finals += 1
                        break
                except PreconditionError:
                    continue
            assert finals > 0, (spec, v)


def test_marker_set_length_invariant():
    with pytest.raises(PreconditionError, match="bad-marker-length"):
        MarkerSet(order=2, markers=frozenset({"01"}), D=3)


def test_fibonacci_markers():
    index = build_factor_index(fibonacci_word(), n_max=128)
    ms = build_markers(index, 1, 2)
    assert ms.D == 3
    assert ms.markers == frozenset({"10"})
    assert verify_marker_property(index, ms.markers, 2, 3)


def test_thue_morse_markers():
    index = build_factor_index(thue_morse(), n_max=128)
    c, _ = index.slope_constants()
    ms = build_markers(index, 2, c)
    assert all(len(m) == 4 for m in ms.markers)
    assert verify_marker_property(index, ms.markers, 4, c + 1)
    # Lemma-style window form across all admissible power-of-two lengths
    k = 1
    while 2 ** k * (c + 1) <= index.n_max:
        rs = index.right_special(2 ** k)
        assert verify_marker_property(index, rs, 2 ** k, c + 1)
        k += 1


def test_empty_marker_set_fails_verification():
    index = build_factor_index(thue_morse(), n_max=32)
    assert not verify_marker_property(index, frozenset(), 2, 3)


def test_verify_marker_property_range_guard():
    index = build_factor_index(thue_morse(), n_max=32)
    with pytest.raises(PreconditionError, match="out-of-range"):
        verify_marker_property(index, frozenset({"01"}), 16, 3)


def test_build_markers_refuses_orders_beyond_the_index():
    # tm at n_max 32 has C = 3, so D = 4: order 5 needs markers of length
    # 32 > n_max - 1, and order 4 spans of 64 > n_max
    index = build_factor_index(thue_morse(), n_max=32)
    with pytest.raises(PreconditionError, match="out-of-range: length 32 outside"):
        build_markers(index, 5, 3)
    with pytest.raises(PreconditionError, match="out-of-range: marker property at span 64"):
        build_markers(index, 4, 3)
    assert build_markers(index, 3, 3).D == 4


def test_periodic_source_has_no_markers():
    # the preperiod of 01|10 leaves one special factor of length 2, but none
    # of length 4, so order 2 is where the property check trips
    index = build_factor_index(ultimately_periodic("01", "10"), n_max=64)
    assert index.right_special(4) == set()
    with pytest.raises(VerificationError, match="marker-property-violation"):
        build_markers(index, 2, 1)
    constant = build_factor_index(parse_word_spec("ultper:|0"), n_max=64)
    with pytest.raises(VerificationError, match="marker-property-violation"):
        build_markers(constant, 1, 1)


def test_stable_slope_guard_fires_on_quadratic_word():
    index = build_factor_index(parse_word_spec("abk"), n_max=128)
    with pytest.raises(PreconditionError, match="not-linear-within-window"):
        require_linear_window(index)
    # the block product needs a longer window to show its growth at n_max 64
    index = build_factor_index(parse_word_spec("pq:f=isqrt,k=p"), n_work=64000, n_max=64)
    with pytest.raises(PreconditionError, match="not-linear-within-window"):
        require_linear_window(index)
    require_linear_window(build_factor_index(thue_morse(), n_max=128))
    require_linear_window(build_factor_index(fibonacci_word(), n_max=128))


@pytest.mark.parametrize("spec", ["tm", "fib", "morphic:0->001,1->10@0", "sturm:1,3,(2)"])
def test_stable_slope_guard_accepts_linear_words_from_n_max_8(spec):
    # the integer slope of Thue-Morse goes from 3 to 4 at n = 13, and that
    # of the morphic word from 3 to 4 at n = 11; below n_max 8 the first
    # letters still move p(n)/n by a third
    source = parse_word_spec(spec)
    for n_max in range(8, 80):
        index = build_factor_index(source, n_max=n_max)
        assert require_linear_window(index) == index.slope_constants()[0]


@pytest.mark.parametrize("n_max", [8, 12, 16, 24, 32, 64, 128, 256, 384, 512])
def test_stable_slope_guard_refuses_quadratic_word_from_n_max_8(n_max):
    # up to n_max 256 the largest p(n)/n grows more than 1.25-fold; at 384
    # and 512 the default window flattens it (1.18, 1.06), and the window's
    # first half holds fewer factors than the whole window
    index = build_factor_index(parse_word_spec("abk"), n_max=n_max)
    with pytest.raises(PreconditionError, match="not-linear-within-window"):
        require_linear_window(index)


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("built before the linearity gate refused")


@pytest.mark.parametrize("spec,n_max,n_work,code,rule", [
    ("pq:f=isqrt,k=p", 384, None, "not-linear-within-window", "than on its first"),
    ("ultper:01|10", 64, None, "eventually-periodic", r"p\(\d+\) = p\(\d+\)"),
    ("abk", 128, 51200, "not-linear-within-window", "slope grows with length"),
])
def test_linear_window_gate_needs_each_rule(spec, n_max, n_work, code, rule, monkeypatch):
    # each input is refused by one rule of the gate and passes the others:
    # the half-window growth, the plateau, and the growth of max p(n)/n
    index = build_factor_index(parse_word_spec(spec), n_work=n_work, n_max=n_max)
    monkeypatch.setattr(periodicity, "build_markers", _refuse_to_build)
    monkeypatch.setattr(FactorIndex, "row", _refuse_to_build)
    with pytest.raises(PreconditionError, match=f"{code}: .*{rule}"):
        build_all_markers(index)


def test_build_all_markers_orders_and_serialization():
    index = build_factor_index(thue_morse(), n_max=128)
    family = build_all_markers(index)
    c, _ = index.slope_constants()
    d = c + 1
    top = max(family)
    assert d * 2 ** top <= index.n_max < d * 2 ** (top + 1)
    assert sorted(family) == list(range(1, top + 1))
    lines = markers_to_jsonl(family).splitlines()
    rows = [json.loads(line) for line in lines]
    assert {r["k"] for r in rows} == set(family)
    for row in rows:
        assert row["marker"] in family[row["k"]].markers


def test_build_all_markers_needs_room():
    # tm has C = 3 up to n_max 5, so D = 4 and order 1 needs spans of 8
    for n_max in (4, 5):
        index = build_factor_index(thue_morse(), n_work=256, n_max=n_max)
        with pytest.raises(PreconditionError, match="no-marker-orders"):
            build_all_markers(index)
