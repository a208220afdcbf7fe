"""Counting experiments, growth fits, and the product-complexity audit."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlang import (
    LeveledLanguage,
    PreconditionError,
    build_factor_index,
    fibonacci_word,
    growth_fit,
    parse_word_spec,
    product_bound_audit,
    product_complexity_bound,
    resolve_model,
    staircase_pair_count,
    sturmian_split_sets,
    thue_morse,
    thue_morse_split_sets,
    witness_pair_count,
)
from factorlang.cli import run
from oracles import staircase_pair_count_bruteforce, staircase_word, staircase_word_length


def test_staircase_word_examples():
    assert staircase_word(2, 1) == "ababba"
    assert staircase_word(1, 1) == "aba"
    assert len(staircase_word(2, 1)) == 6


def test_staircase_length_formula():
    for k in range(1, 101):
        for l in range(1, 101):
            assert len(staircase_word(k, l)) == staircase_word_length(k, l)


def test_staircase_words_occur_in_block_word():
    window = parse_word_spec("abk").prefix(5000)
    for k in range(1, 5):
        for l in range(1, 5):
            assert staircase_word(k, l) in window


def test_staircase_guards():
    with pytest.raises(PreconditionError, match="out-of-range"):
        staircase_word(0, 1)
    with pytest.raises(PreconditionError, match="out-of-range"):
        staircase_word(1, 0)


def test_pair_count_small_values_are_zero():
    # below n = 40 the l-interval is empty for every admissible k
    for n in range(9, 40):
        assert staircase_pair_count(n) == staircase_pair_count_bruteforce(n)
    assert staircase_pair_count(20) == 0


def test_pair_count_matches_bruteforce():
    for n in (50, 100, 537, 1000, 4096, 10000):
        assert staircase_pair_count(n) == staircase_pair_count_bruteforce(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=9, max_value=3000))
def test_pair_count_matches_bruteforce_random(n):
    assert staircase_pair_count(n) == staircase_pair_count_bruteforce(n)


def test_pair_count_band():
    ratios = [staircase_pair_count(n) / (n * math.log(n))
              for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
    assert max(ratios) / min(ratios) <= 2.5


def brute_witness_pairs(n: int, k: int) -> int:
    need = 2 * k - 1
    count = 0
    p = 1
    while (p + 1) * need < n - 2:
        for q in range(1, math.isqrt(p) + 1):
            if (p + q) * need < n - 2 and p >= need:
                count += 1
        p += 1
    return count


def test_witness_pair_count_matches_double_loop():
    for n, k in [(100, 2), (1000, 3), (10000, 3), (537, 4)]:
        assert witness_pair_count(n, k) == brute_witness_pairs(n, k)
    assert witness_pair_count(10, 3) == 0
    # the closed form switches from isqrt(p) to top - p terms near squares
    for k in range(1, 7):
        need = 2 * k - 1
        ns = list(range(3, 300))
        ns += [r * r + d for r in range(17, 120, 13) for d in (-2, -1, 0, 1, 2)]
        ns += [need * r * r + d for r in (9, 25, 41) for d in (-1, 0, 1, 2, 3)]
        for n in ns:
            assert witness_pair_count(n, k) == brute_witness_pairs(n, k), (n, k)


def test_witness_pair_growth_is_superlinear():
    per_n = [witness_pair_count(n, 3) / n for n in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert per_n[0] < per_n[1] < per_n[2]


def test_resolve_model():
    name, fn = resolve_model("n2")
    assert name == "n2" and fn(10) == 100
    name, fn = resolve_model("nlogn")
    assert fn(math.e) == pytest.approx(math.e)
    name, fn = resolve_model("n2f:isqrt")
    assert fn(100) == 100 ** 2 * 10
    with pytest.raises(PreconditionError, match="bad-model"):
        resolve_model("n7")
    for model in ("n2f:nope", "n2f:", "n2f:n2f:isqrt"):
        with pytest.raises(PreconditionError, match="bad-model"):
            resolve_model(model)


def test_growth_fit_sturmian():
    index = build_factor_index(fibonacci_word(), n_max=100)
    profile = index.profile()
    fit = growth_fit(profile, "n", 10, 100)
    assert fit.ratio_max == pytest.approx(1.1)  # (n+1)/n at n=10
    assert fit.ratio_min == pytest.approx(1.01)
    assert fit.spread < 1.2
    quad = growth_fit(profile, "n2", 10, 100)
    assert not quad.spread <= 4.0


def test_growth_fit_rejects_constant_word():
    index = build_factor_index(parse_word_spec("ultper:|0"), n_max=100)
    fit = growth_fit(index.profile(), "n2", 10, 100)
    assert fit.ratio_max <= 0.01
    assert not fit.spread <= 4.0


def test_growth_fit_range_guard():
    index = build_factor_index(thue_morse(), n_max=16)
    with pytest.raises(PreconditionError, match="range-out-of-profile"):
        growth_fit(index.profile(), "n", 1, 64)
    with pytest.raises(PreconditionError, match="range-out-of-profile"):
        growth_fit(index.profile(), "n", 0, 8)


def test_product_bound_audit_thue_morse_sets():
    index = build_factor_index(thue_morse(), n_max=64)
    s1, s2, _ = thue_morse_split_sets(index)
    report = product_bound_audit([s1, s2], index, 32)
    assert report.cap == 2 and report.k == 1
    assert report.bound == 132
    assert report.measured == index.complexity(32)
    assert report.ok


def test_product_bound_audit_sturmian_sets():
    index = build_factor_index(fibonacci_word(), n_max=64)
    s1, s2 = sturmian_split_sets(index)
    report = product_bound_audit([s1, s2], index, 50)
    assert report.measured == 51
    assert report.bound == 204
    assert report.ok


def test_product_bound_audit_checks_the_length_first(capsys):
    # a length outside the index is refused by the index, before the bound
    # is computed from it
    index = build_factor_index(thue_morse(), n_max=4)
    s1, s2, _ = thue_morse_split_sets(index)
    with pytest.raises(PreconditionError,
                       match=r"out-of-range: length -2 outside the indexed range 1\.\.4"):
        product_bound_audit([s1, s2], index, -2)
    assert run(["experiment", "lemma1", "--word", "tm", "--n=-2,4"]) == 3
    assert capsys.readouterr().err == (
        "error: out-of-range: length -2 outside the indexed range 1..4\n")


def test_product_bound_audit_single_set():
    index = build_factor_index(thue_morse(), n_max=16)
    everything = LeveledLanguage(
        w for n in range(1, 17) for w in index.factors_of_length(n))
    report = product_bound_audit([everything], index, 12)
    assert report.k == 0
    assert report.bound == everything.per_length_max()
    assert report.ok


def test_bound_formula_growth():
    # the bound is polynomial of degree k in n for fixed cap
    for n in (4, 8, 16):
        assert product_complexity_bound(2, 1, n) == 4 * (n + 1)
