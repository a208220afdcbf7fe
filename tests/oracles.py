"""Slow, direct forms of fast library functions, shared by the test modules."""

import numpy as np

from factorlang import (
    PreconditionError,
    SplitRecords,
    SuffixAutomaton,
    VerificationError,
)
from factorlang.decompose import OCCURRENCE_CLASSES


def slicing_witness_split(window, start, n, s_lang, t_lang) -> tuple:
    """Oracle for the cuts of verify_cover: the leftmost cut of
    ``window[start:start+n]`` with both parts in the given sets, found by
    trying every cut from the left. Returned as a record tuple in the order
    of ``SplitRecords.tuples()``, (start, cut, end, order, position, class
    code), with no order, position or class."""
    v = window[start:start + n]
    for c in range(n + 1):
        if v[:c] in s_lang and v[c:] in t_lang:
            return (start, start + c, start + n, -1, -1, 0)
    raise VerificationError("coverage-incomplete", f"no split found for {v!r}")


def record_columns(records) -> SplitRecords:
    """The columns of a list of record tuples, in the order of
    ``SplitRecords.tuples()``, read one record at a time."""
    return SplitRecords(*([r[j] for r in records] for j in range(6)))


def per_record_splits_csv(window, records):
    """Oracle for split_records_to_csv: the lines of splits.csv written from
    one record tuple at a time, as the writer did before the records were
    columns."""
    yield "v,s,t,k,pos,class\n"
    for start, cut, end, order, position, code in records:
        k = "" if order < 0 else str(order)
        pos = "" if position < 0 else str(position)
        yield (f"{window[start:end]},{window[start:cut]},{window[cut:end]},"
               f"{k},{pos},{OCCURRENCE_CLASSES[code] or ''}\n")


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


def doubled_build_profile(source, n_work, n_max):
    """Oracle for stabilized_profile: one count-only automaton over the
    doubled window, which counts the factors of the window and of the
    doubled window alike. Returns the window's counts and whether the two
    profiles agree."""
    sam = SuffixAutomaton(source.prefix(2 * n_work), count_only=True)
    p = sam.length_counts(n_max, prefix=n_work)
    return p, bool(np.array_equal(p, sam.length_counts(n_max)))


def prefix_doubling_profile(text, n_max):
    """Oracle for the automaton's counts at scale, sharing no code with it:
    p(n) for n = 1..n_max from suffix ranks and adjacent LCPs.

    ``ranks[k][i]`` ranks ``text[i:i + 2**k]`` (cut short at the end of the
    text, a shorter word ranking first) by prefix doubling (Manber and
    Myers, 1993), up to the first 2**k >= n_max; rank 0 marks positions past
    the end, and the ranks are int32 to halve the memory. Sorting the
    suffixes by the last ranks puts the suffixes that share a prefix of
    length n <= n_max next to each other. Each adjacent LCP, capped at
    2**k, is found by binary lifting over the rank arrays. Then p(n) is the
    number of suffixes of length >= n less the number of adjacent pairs with
    LCP >= n.
    """
    n = len(text)
    if n == 0:
        return np.zeros(n_max, dtype=np.int64)
    levels = (n_max - 1).bit_length()
    pad = 1 << levels
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    rank = np.zeros(n + pad, dtype=np.int32)
    rank[:n] = np.unique(codes, return_inverse=True)[1] + 1
    ranks = [rank]
    for k in range(levels):
        key = rank[:n] * np.int64(n + 1) + rank[1 << k:n + (1 << k)]
        rank = np.zeros(n + pad, dtype=np.int32)
        rank[:n] = np.unique(key, return_inverse=True)[1] + 1
        ranks.append(rank)
    order = np.argsort(rank[:n], kind="stable")
    a, b = order[:-1], order[1:]
    lcp = np.where(rank[a] == rank[b], pad, 0)
    for k in reversed(range(levels)):
        open_ = lcp < pad
        ia, ib, l = a[open_], b[open_], lcp[open_]
        lcp[open_] = l + (ranks[k][ia + l] == ranks[k][ib + l]) * (1 << k)
    pairs = np.bincount(np.minimum(lcp, n_max), minlength=n_max + 1)
    at_least = np.cumsum(pairs[::-1])[::-1]
    lengths = np.arange(1, n_max + 1)
    return np.maximum(n - lengths + 1, 0) - at_least[1:]
