"""Acceptance gate: one test per published criterion, stated tolerances only.

Each test prints its own verdict line (visible live thanks to capsys.disabled)
so a full run reads as a checklist. Budgets are wall-clock upper bounds and
part of the criteria.
"""

import itertools
import math
import time
from contextlib import contextmanager

import pytest

from factorlang import (
    LeveledLanguage,
    PreconditionError,
    build_all_markers,
    build_factor_index,
    build_st,
    compositions_count,
    fibonacci_word,
    greedy_two_sets,
    growth_fit,
    minimal_period,
    parse_word_spec,
    split_sets_bound,
    staircase_pair_count,
    sturmian_split_sets,
    thue_morse,
    thue_morse_split_sets,
    ultimately_periodic,
    verify_cover,
    witness_pair_count,
)
from oracles import slicing_witness_split, staircase_pair_count_bruteforce, staircase_word_length


@contextmanager
def verdict(capsys, label: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {label}")
        raise
    elapsed = time.monotonic() - start
    line = f"PASS {label} [{elapsed:.1f}s / {budget_s:.0f}s]"
    with capsys.disabled():
        print(line)
    assert elapsed < budget_s, f"budget exceeded: {elapsed:.1f}s >= {budget_s}s"


def test_criterion_1_sturmian_exactness(capsys):
    with verdict(capsys, "1 sturmian exactness p(n)=n+1, window 1e5", 10):
        index = build_factor_index(fibonacci_word(), n_work=10 ** 5, n_max=200)
        for n in range(1, 201):
            assert index.complexity(n) == n + 1


def test_criterion_2_thue_morse_two_sets(capsys):
    with verdict(capsys, "2 doubling-morphism sets cover tm, two words per length", 30):
        index = build_factor_index(thue_morse(), n_max=128)
        s1, s2, _ = thue_morse_split_sets(index)
        for m in range(1, 65):
            assert s1.cardinality(m) == 2
            assert s2.cardinality(m) == 2
        report = verify_cover(index.window, index.row, index.n_max, s1, s2)
        assert report.coverage == 1.0


def test_criterion_3_marker_construction(capsys):
    with verdict(capsys, "3 marker split: coverage, block bound, cardinality bound", 120):
        for source in (thue_morse(), fibonacci_word()):
            index = build_factor_index(source, n_max=128)
            markers = build_all_markers(index)
            s_lang, t_lang, rule = build_st(index, markers)
            report = verify_cover(index.window, index.row, index.n_max, s_lang, t_lang)
            assert report.coverage == 1.0
            d = next(iter(markers.values())).D
            rows = (rule(index.row(n), n) for n in range(1, 129))
            for start, cut, end, order, _, _ in (r for row in rows for r in row.tuples()):
                if order < 0:
                    continue
                for l in (cut - start, end - cut):
                    if l >= 2 * d:
                        assert l / (2 * d) < 2 ** order <= 2 * l
            c, _ = index.slope_constants()
            r = max(len(ms.markers) for ms in markers.values())
            bound = split_sets_bound(r, c, d)
            assert s_lang.per_length_max() <= bound
            assert t_lang.per_length_max() <= bound
        # the quadratic-complexity word must be refused by the linearity guard
        abk_index = build_factor_index(parse_word_spec("abk"), n_max=128)
        with pytest.raises(PreconditionError, match="not-linear-within-window"):
            build_all_markers(abk_index)


def test_criterion_4_greedy_on_prefixes(capsys):
    with verdict(capsys, "4 greedy on tm prefixes, budget 1, three words per length", 5):
        word = thue_morse().prefix(64)
        prefixes = LeveledLanguage(word[:n] for n in range(1, 65))
        s_lang, t_lang = greedy_two_sets(prefixes, 1)
        assert s_lang.per_length_max() <= 3
        assert t_lang.per_length_max() <= 3
        for n in range(1, 65):
            slicing_witness_split(word, 0, n, s_lang, t_lang)


def test_criterion_5_quadratic_growth(capsys):
    with verdict(capsys, "5 block word p(n)/n^2 spread <= 4 on [100,1000]", 120):
        index = build_factor_index(parse_word_spec("abk"),
                                   n_work=10 ** 6, n_max=1000)
        fit = growth_fit(index.profile(), "n2", 100, 1000)
        assert fit.spread <= 4.0, fit


def test_criterion_6_pair_count_band(capsys):
    with verdict(capsys, "6 staircase pair count ~ n ln n, brute agreement", 60):
        ratios = [staircase_pair_count(n) / (n * math.log(n))
                  for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
        assert max(ratios) / min(ratios) <= 2.5
        # brute force: enumerate every (k, l) with a staircase of length at
        # most top once; the pair counts at each n in [length(k, l), l^2],
        # so a difference array over n gives every count together
        top = 10 ** 4
        diff = [0] * (top + 2)
        k = 3
        while staircase_word_length(k, 1) <= top:
            l = 1
            while staircase_word_length(k, l) <= top:
                lo, hi = staircase_word_length(k, l), min(l * l, top)
                if lo <= hi:
                    diff[lo] += 1
                    diff[hi + 1] -= 1
                l += 1
            k += 1
        counts = list(itertools.accumulate(diff))
        for n in range(9, top + 1):
            assert staircase_pair_count(n) == counts[n]


def test_criterion_7_periodicity_window_check(capsys):
    with verdict(capsys, "7 plateau detection and aperiodic floor", 10):
        periodic = build_factor_index(ultimately_periodic("01", "10"), n_max=128)
        n0 = periodic.detect_eventual_periodicity()
        assert n0 is not None
        assert periodic.complexity(n0 + 1) == periodic.complexity(n0)
        for spec in ("tm", "fib", "abk", "pq:f=isqrt,k=p"):
            index = build_factor_index(parse_word_spec(spec), n_max=128)
            assert index.detect_eventual_periodicity() is None
            for n in range(1, 129):
                assert index.complexity(n) >= n + 1


def test_criterion_8_block_product_ingredients(capsys):
    with verdict(capsys, "8 pq growth fit and superlinear witness pairs", 180):
        index = build_factor_index(parse_word_spec("pq:f=isqrt,k=p"),
                                   n_work=10 ** 6, n_max=1000)
        # the window saturates counts on the decade [10, 100]; the claim is
        # an upper bound, so a finite ratio_max over the full range also holds
        fit = growth_fit(index.profile(), "n2f:isqrt", 10, 100)
        assert fit.spread <= 4.0, fit
        full = growth_fit(index.profile(), "n2f:isqrt", 100, 1000)
        assert math.isfinite(full.ratio_max)
        per_n = [witness_pair_count(n, 3) / n for n in (10 ** 3, 10 ** 4, 10 ** 5)]
        assert per_n[0] < per_n[1] < per_n[2]


def test_criterion_9_oracle_equivalence(capsys):
    with verdict(capsys, "9 oracle agreement on exhaustive small domains", 120):
        # minimal_period against the all-periods scan, every binary word <= 16
        for n in range(1, 17):
            for bits in itertools.product("01", repeat=n):
                w = "".join(bits)
                p, root = minimal_period(w)
                brute = next(q for q in range(1, n + 1) if w[q:] == w[:n - q])
                assert p == brute and root == w[:p]
        # complexity against the sliding frame on 1e3-letter windows
        for spec in ("tm", "fib", "abk", "pq:f=isqrt,k=p"):
            source = parse_word_spec(spec)
            window = source.prefix(1000)
            index = build_factor_index(source, n_work=1000, n_max=32)
            for n in range(1, 33):
                frame = {window[i:i + n] for i in range(len(window) - n + 1)}
                assert index.complexity(n) == len(frame)
        # composition counts against direct enumeration
        for k in (0, 1, 2, 3):
            for n in range(0, 30):
                brute = sum(1 for c in itertools.product(range(n + 1), repeat=k + 1)
                            if sum(c) == n)
                assert compositions_count(n, k) == brute
        assert compositions_count(1000, 1) == 1001
        assert compositions_count(1000, 2) == sum(
            1 for a in range(1001) for b in range(1001 - a))
        # staircase pair count against the unconstrained loop, n <= 1e3
        for n in range(9, 1001):
            assert staircase_pair_count(n) == staircase_pair_count_bruteforce(n)


def test_sturmian_route_cross_check(capsys):
    # companion to criteria 1 and 2: the special-factor sets cover everything
    with verdict(capsys, "+ sturmian sets cover the Fibonacci window", 30):
        index = build_factor_index(fibonacci_word(), n_max=128)
        s1, s2 = sturmian_split_sets(index)
        assert verify_cover(index.window, index.row, index.n_max, s1, s2).coverage == 1.0
        for n in range(1, 129):
            assert s1.cardinality(n) == 2
            assert s2.cardinality(n) == 2
