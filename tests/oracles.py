"""Slow, direct forms of fast library functions, shared by the test modules."""

from factorlang import SplitRecord, VerificationError, staircase_word_length


def slicing_witness_split(window, start, n, s_lang, t_lang) -> SplitRecord:
    """Oracle for witness_split: the leftmost cut of ``window[start:start+n]``
    with both parts in the given sets, found by trying every cut from the
    left."""
    v = window[start:start + n]
    for c in range(n + 1):
        if v[:c] in s_lang and v[c:] in t_lang:
            return SplitRecord(start, start + c, start + n, None, None, None)
    raise VerificationError("coverage-incomplete", f"no split found for {v!r}")


def staircase_pair_count_bruteforce(n: int) -> int:
    """Oracle for staircase_pair_count: direct enumeration with no cutoff
    on k."""
    total = 0
    k = 3
    while staircase_word_length(k, 1) <= n:
        l = 1
        while staircase_word_length(k, l) <= n:
            if l * l >= n:
                total += 1
            l += 1
        k += 1
    return total
