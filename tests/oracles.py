"""Slow, direct forms of fast library functions, shared by the test modules."""

from factorlang import PreconditionError, SplitRecord, VerificationError


def slicing_witness_split(window, start, n, s_lang, t_lang) -> SplitRecord:
    """Oracle for the cuts of verify_cover: the leftmost cut of
    ``window[start:start+n]`` with both parts in the given sets, found by
    trying every cut from the left."""
    v = window[start:start + n]
    for c in range(n + 1):
        if v[:c] in s_lang and v[c:] in t_lang:
            return SplitRecord(start, start + c, start + n, None, None, None)
    raise VerificationError("coverage-incomplete", f"no split found for {v!r}")


def staircase_word(k: int, l: int) -> str:
    """The word a b^l a b^(l+1) ... a b^(l+k-1) a with k growing b-runs.

    Its length is k * (l + (k + 1) / 2) + 1, which the construction makes
    integral for every k and l.
    """
    if k < 1 or l < 1:
        raise PreconditionError("out-of-range", f"need k >= 1 and l >= 1, got {k}, {l}")
    parts = ["a"]
    for j in range(k):
        parts.append("b" * (l + j) + "a")
    return "".join(parts)


def staircase_word_length(k: int, l: int) -> int:
    return k * (2 * l + k + 1) // 2 + 1


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
